//! `sweep`: a closed loop through the campaign server's real TCP front.
//! `nproc` connections to `Server::new(nproc)`; each sends its next
//! `SimSpec` only after the previous one's `Done`. Jobs simulate 10k
//! instructions over all kernels under both configurations, and a fixed
//! share resubmits an earlier spec, which the result cache answers.

use crate::harness::{derive, fnv64, geomean, median, nproc, secs, splitmix64, Metrics, Tally};
use crate::trace::{self, span};
use crate::{job_latency, Ctx};
use orinoco_core::{CommitKind, Core, SchedulerKind};
use orinoco_server::protocol::{decode_frame, encode_frame};
use orinoco_server::{
    run_one_shot, ConfigSpec, JobResult, JobSpec, Request, Response, Server, SimResult, SimSpec,
    TcpClient, TcpFront,
};
use orinoco_workloads::Workload;
use std::time::Instant;

/// Dynamic instructions per job.
const JOB_INSTS: u64 = 10_000;
/// Share of submissions, in per mille, that resubmit an earlier spec.
/// An assumption, not a measurement: no recorded campaign traffic gives
/// the share, so replace it once real traffic has been logged.
const RESUBMIT_PER_MILLE: u64 = 200;
/// Orinoco/baseline spec pairs per connection that define the simulated
/// metrics (each connection always completes at least these).
const SIM_PAIRS: usize = 13;
/// Jobs re-run through `run_one_shot` and compared after the loop.
const ONESHOT_CHECKS: usize = 8;
/// Fresh jobs per transport in the TCP versus in-process probe.
const TRANSPORT_PROBE_JOBS: u64 = 12;

fn config(orinoco: bool) -> ConfigSpec {
    let mut c = ConfigSpec::orinoco_base();
    if !orinoco {
        c.scheduler = SchedulerKind::Age;
        c.commit = CommitKind::InOrder;
    }
    c
}

/// The `n`-th distinct spec of connection `conn`: pairs of one kernel and
/// program seed under Orinoco then baseline, kernels in rotation.
fn spec(seed: u64, conn: usize, n: usize) -> SimSpec {
    let pair = n / 2;
    SimSpec {
        config: config(n.is_multiple_of(2)),
        workload: Workload::ALL[(pair + 5 * conn) % Workload::ALL.len()],
        scale: 1,
        seed: derive(seed, &[2, conn as u64, pair as u64]),
        max_instrs: JOB_INSTS,
        max_cycles: 0,
        progress_cycles: 0,
    }
}

/// One connection's job stream. In a closed loop every earlier job has
/// finished before the next is drawn, so the stream is a pure function
/// of the seed.
struct Stream {
    seed: u64,
    conn: usize,
    rng: u64,
    distinct: Vec<SimSpec>,
    results: Vec<Option<SimResult>>,
    completed: Vec<usize>,
}

impl Stream {
    fn new(seed: u64, conn: usize) -> Self {
        Self {
            seed,
            conn,
            rng: derive(seed, &[3, conn as u64]),
            distinct: Vec::new(),
            results: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// The next job: an index into `distinct`, and whether it resubmits.
    fn next(&mut self) -> (usize, bool) {
        let draw = splitmix64(&mut self.rng);
        if self.completed.len() >= 2 && draw % 1000 < RESUBMIT_PER_MILLE {
            let pick = splitmix64(&mut self.rng) as usize % self.completed.len();
            return (self.completed[pick], true);
        }
        let n = self.distinct.len();
        self.distinct.push(spec(self.seed, self.conn, n));
        self.results.push(None);
        (n, false)
    }
}

/// Client-side timestamps of one job, in seconds since the loop began.
#[derive(Clone, Copy)]
struct Job {
    send: f64,
    accepted: f64,
    done: f64,
    cached: bool,
    committed: u64,
}

/// The server, its TCP front and one connected client per stream. Fields
/// drop in order: clients hang up, then the front joins its connection
/// threads, then the server joins its workers.
struct Rig {
    clients: Vec<TcpClient>,
    front: TcpFront,
    server: Server,
}

impl Rig {
    /// Hangs up every connection, stops the front and joins the server.
    fn shutdown(self) {
        let Rig {
            clients,
            front,
            server,
        } = self;
        drop(clients);
        front.stop();
        drop(server);
    }
}

fn setup(seed: u64) -> (Rig, Vec<Stream>) {
    let conns = nproc();
    let server = span("server.new", || Server::new(conns));
    let front = span("net.listen", || TcpFront::spawn(&server, "127.0.0.1:0"))
        .expect("bind a loopback port");
    let clients = (0..conns)
        .map(|_| {
            let mut c = span("net.connect", || TcpClient::connect(front.addr()))
                .expect("connect to the front");
            span("net.ping", || ping(&mut c));
            c
        })
        .collect();
    let streams = (0..conns).map(|c| Stream::new(seed, c)).collect();
    (
        Rig {
            clients,
            front,
            server,
        },
        streams,
    )
}

fn ping(c: &mut TcpClient) {
    c.send(&Request::Ping).expect("send ping");
    assert_eq!(
        c.recv().expect("receive pong"),
        Some(Response::Pong),
        "ping answered with something else"
    );
}

/// Submits one spec and waits for its terminal response.
fn submit(
    client: &mut TcpClient,
    queue: u64,
    spec: SimSpec,
    t0: Instant,
) -> Result<(Job, SimResult), String> {
    let send = secs(t0);
    span("net.send", || {
        client.send(&Request::Submit {
            queue,
            spec: JobSpec::Sim(spec),
        })
    })
    .map_err(|e| format!("send: {e}"))?;
    let mut accepted = (send, false);
    loop {
        match client.recv().map_err(|e| format!("receive: {e}"))? {
            Some(Response::Accepted { cached, .. }) => accepted = (secs(t0), cached),
            Some(Response::Progress { .. }) => {}
            Some(Response::Done {
                result: JobResult::Sim(r),
                ..
            }) => {
                let job = Job {
                    send,
                    accepted: accepted.0,
                    done: secs(t0),
                    cached: accepted.1,
                    committed: r.committed,
                };
                return Ok((job, r));
            }
            Some(Response::Failed { reason, .. }) => return Err(format!("job failed: {reason}")),
            Some(other) => return Err(format!("unexpected response {other:?}")),
            None => return Err("server hung up".into()),
        }
    }
}

/// One connection's closed loop until `deadline`.
fn client_loop(
    client: &mut TcpClient,
    stream: &mut Stream,
    t0: Instant,
    deadline: f64,
) -> (Vec<Job>, Tally) {
    let mut tally = Tally::default();
    let mut jobs = Vec::new();
    let queue = stream.conn as u64 + 1;
    span("bench.client", || {
        while secs(t0) < deadline {
            let (idx, resubmit) = stream.next();
            tally.attempted += 1;
            match span("server.job", || {
                submit(client, queue, stream.distinct[idx], t0)
            }) {
                Ok((job, result)) => {
                    jobs.push(job);
                    match &stream.results[idx] {
                        Some(first) => {
                            tally.check(resubmit && job.cached && *first == result, || {
                                format!(
                                    "resubmitted {:?}: cached {}, same answer {}",
                                    stream.distinct[idx],
                                    job.cached,
                                    *first == result
                                )
                            });
                        }
                        None => {
                            stream.results[idx] = Some(result);
                            stream.completed.push(idx);
                        }
                    }
                }
                Err(e) => {
                    tally.fail(format!("connection {}: {e}", stream.conn));
                    if e.starts_with("send") || e.starts_with("receive") || e.starts_with("server")
                    {
                        break;
                    }
                }
            }
        }
    });
    (jobs, tally)
}

/// Runs every connection's loop for `budget` seconds on its own thread.
fn closed_loop(
    rig: &mut Rig,
    streams: &mut [Stream],
    budget: f64,
    tally: &mut Tally,
) -> (Vec<Job>, f64) {
    let t0 = Instant::now();
    let outs: Vec<(Vec<Job>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(client, stream)| s.spawn(move || client_loop(client, stream, t0, budget)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut jobs = Vec::new();
    for (j, t) in outs {
        jobs.extend(j);
        tally.merge(t);
    }
    let wall = jobs.iter().map(|j| j.done).fold(0.0, f64::max);
    (jobs, wall)
}

fn ipc(r: &SimResult) -> f64 {
    r.committed as f64 / r.cycles.max(1) as f64
}

pub fn run(ctx: &Ctx, tally: &mut Tally, m: &mut Metrics) {
    let (setup_s, (mut rig, mut streams)) = crate::harness::repeated_setup(
        tally,
        None,
        || setup(ctx.seed),
        |(_, streams)| {
            let specs: Vec<SimSpec> = streams
                .iter()
                .flat_map(|s| (0..2 * SIM_PAIRS).map(move |n| spec(s.seed, s.conn, n)))
                .collect();
            fnv64(format!("{specs:?}").as_bytes())
        },
    );
    let (jobs, wall) = closed_loop(&mut rig, &mut streams, ctx.budget(), tally);
    let committed: u64 = jobs.iter().map(|j| j.committed).sum();
    let latencies: Vec<f64> = jobs.iter().map(|j| j.done - j.send).collect();

    // Simulated figures over the first SIM_PAIRS pairs of every stream.
    let mut ipcs = Vec::new();
    let mut ratios = Vec::new();
    for s in &streams {
        let firsts: Vec<&SimResult> = s.results.iter().take(2 * SIM_PAIRS).flatten().collect();
        if !tally.check(firsts.len() == 2 * SIM_PAIRS, || {
            format!(
                "connection {} completed only {} of its first {} specs",
                s.conn,
                firsts.len(),
                2 * SIM_PAIRS
            )
        }) {
            continue;
        }
        ipcs.extend(firsts.iter().map(|r| ipc(r)));
        ratios.extend(firsts.chunks(2).map(|p| ipc(p[0]) / ipc(p[1])));
    }
    let ratio = geomean(&ratios);

    // Outside the timed window: a seed-drawn subset must match the serial
    // one-shot path on both digests.
    let mut rng = derive(ctx.seed, &[4]);
    let mut oneshot_s = Vec::new();
    let mut checked = Vec::new();
    for _ in 0..ONESHOT_CHECKS {
        let s = &streams[splitmix64(&mut rng) as usize % streams.len()];
        let idx = splitmix64(&mut rng) as usize % (2 * SIM_PAIRS).min(s.results.len()).max(1);
        let (Some(spec), Some(Some(served))) = (s.distinct.get(idx), s.results.get(idx)) else {
            continue;
        };
        let t = Instant::now();
        let one = tally.attempt("one-shot reference", || {
            span("server.oneshot", || run_one_shot(spec))
        });
        oneshot_s.push(secs(t));
        match one {
            Some(Ok(r)) => {
                let same = r.stats_digest == served.stats_digest
                    && r.commit_digest == served.commit_digest;
                tally.check(same, || {
                    format!("server answer for {spec:?} differs from run_one_shot")
                });
            }
            Some(Err(e)) => tally.fail(format!("run_one_shot({spec:?}) failed: {e}")),
            None => {} // the panic is already counted
        }
        checked.push(*spec);
    }
    let hits = jobs.iter().filter(|j| j.cached).count();
    println!(
        "sweep: {} jobs on {} connections in {wall:.2} s ({hits} cache hits), {} distinct specs; \
         orinoco_gain_pct {:+.2}% over {} pairs",
        jobs.len(),
        streams.len(),
        streams.iter().map(|s| s.distinct.len()).sum::<usize>(),
        (ratio - 1.0) * 100.0,
        ratios.len()
    );
    m.set("setup_s", setup_s);
    m.set("minst_per_s", committed as f64 / wall / 1e6);
    m.set("ipc", geomean(&ipcs));
    m.set("orinoco_ipc_ratio", ratio);
    if !ctx.traced {
        rig.shutdown();
        return;
    }

    m.set("host.raw_minst_per_s", committed as f64 / wall / 1e6);
    m.set("jobs_per_s", jobs.len() as f64 / wall);
    job_latency(m, &latencies);
    m.set("orinoco_gain_pct", (ratio - 1.0) * 100.0);
    m.set(
        "server.accept_ms",
        median(&jobs.iter().map(|j| j.accepted - j.send).collect::<Vec<_>>()) * 1e3,
    );
    let misses: Vec<f64> = jobs
        .iter()
        .filter(|j| !j.cached)
        .map(|j| j.done - j.accepted)
        .collect();
    m.set("server.service_ms", median(&misses) * 1e3);
    let hit_lat: Vec<f64> = jobs
        .iter()
        .filter(|j| j.cached)
        .map(|j| j.done - j.send)
        .collect();
    m.set("server.hit_p50_ms", median(&hit_lat) * 1e3);
    let cache = rig.server.cache_stats();
    m.set(
        "server.cache_hit_frac",
        cache.hits as f64 / (cache.hits + cache.misses + cache.deduped).max(1) as f64,
    );
    m.set("server.oneshot_ms", median(&oneshot_s) * 1e3);

    trace::enable();
    let (traced_jobs, _) = closed_loop(&mut rig, &mut streams, ctx.budget(), tally);
    let traced_lat: Vec<f64> = traced_jobs.iter().map(|j| j.done - j.send).collect();
    m.set(
        "trace.overhead_pct",
        (median(&traced_lat) / median(&latencies) - 1.0) * 100.0,
    );
    span("bench.probes", || {
        m.set(
            "server.harvest_ms",
            harvest_probe(tally, &checked, &oneshot_s) * 1e3,
        );
        let rtt: Vec<f64> = (0..50)
            .map(|_| {
                let t = Instant::now();
                span("net.ping", || ping(&mut rig.clients[0]));
                secs(t)
            })
            .collect();
        m.set("net.ping_rtt_us", median(&rtt) * 1e6);
        if let Some(r) = streams[0].results.iter().flatten().next() {
            m.set("protocol.frame_us", frame_probe(tally, r) * 1e6);
        }
        m.set(
            "net.tcp_overhead_ms",
            transport_probe(tally, &mut rig, ctx.seed) * 1e3,
        );
    });
    m.set("server.job_panics", rig.server.job_panics() as f64);
    let spans = trace::spans();
    m.set(
        "workloads.build_ms",
        trace::median_dur(&spans, "workloads.build") * 1e3,
    );
    m.set("core.new_us", trace::median_dur(&spans, "core.new") * 1e6);
    rig.shutdown();
}

/// The part of a one-shot job that is neither building the program,
/// constructing the core nor simulating with the commit trace on: the
/// result harvest (digesting the commit stream and the statistics).
fn harvest_probe(tally: &mut Tally, specs: &[SimSpec], oneshot_s: &[f64]) -> f64 {
    let parts: Vec<f64> = specs
        .iter()
        .filter_map(|spec| {
            tally.attempt("harvest probe", || {
                let t = Instant::now();
                let emu = span("workloads.build", || {
                    let mut emu = spec.workload.build(spec.seed, spec.scale as u32);
                    emu.set_step_limit(spec.max_instrs);
                    emu
                });
                let mut core = span("core.new", || {
                    Core::new(emu, spec.config.to_core_config(spec.seed))
                });
                span("core.run", || {
                    core.enable_commit_trace();
                    assert!(
                        core.run_until(SimSpec::DEFAULT_MAX_CYCLES),
                        "probe run did not finish"
                    );
                    std::hint::black_box(core.drain_commit_trace());
                });
                secs(t)
            })
        })
        .collect();
    median(oneshot_s) - median(&parts)
}

/// Encode plus decode of a real `Done` frame, seconds per round trip.
fn frame_probe(tally: &mut Tally, result: &SimResult) -> f64 {
    let resp = Response::Done {
        job_id: 1,
        result: JobResult::Sim(result.clone()),
    };
    let times: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            span("protocol.frame", || {
                for _ in 0..64 {
                    let frame = encode_frame(&resp.encode());
                    let (payload, _) = decode_frame(&frame).expect("own frame decodes");
                    let back = Response::decode(payload).expect("own response decodes");
                    std::hint::black_box(back);
                }
            });
            secs(t) / 64.0
        })
        .collect();
    let frame = encode_frame(&resp.encode());
    let ok = decode_frame(&frame)
        .ok()
        .and_then(|(p, _)| Response::decode(p).ok())
        .as_ref()
        == Some(&resp);
    tally.check(ok, || {
        "a Done frame did not survive encode and decode".into()
    });
    median(&times)
}

/// Median latency of fresh jobs over TCP minus the same over the
/// in-process client, on one otherwise idle server.
fn transport_probe(tally: &mut Tally, rig: &mut Rig, seed: u64) -> f64 {
    let fresh = |salt: u64, i: u64| SimSpec {
        seed: derive(seed, &[5, salt, i]),
        ..spec(seed, 0, (2 * i) as usize)
    };
    let inproc = rig.server.client();
    let mut local = Vec::new();
    let mut tcp = Vec::new();
    for i in 0..TRANSPORT_PROBE_JOBS {
        tally.attempted += 2;
        let t = Instant::now();
        match span("server.inproc_job", || {
            inproc.run(JobSpec::Sim(fresh(0, i)))
        }) {
            Ok(_) => local.push(secs(t)),
            Err(e) => tally.fail(format!("in-process probe job failed: {e}")),
        }
        let t0 = Instant::now();
        match span("server.job", || {
            submit(&mut rig.clients[0], 99, fresh(1, i), t0)
        }) {
            Ok(_) => tcp.push(secs(t0)),
            Err(e) => tally.fail(format!("TCP probe job failed: {e}")),
        }
    }
    median(&tcp) - median(&local)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> Vec<(usize, bool, SimSpec)> {
        let mut s = Stream::new(seed, 1);
        (0..200)
            .map(|_| {
                let (idx, resubmit) = s.next();
                if !resubmit {
                    s.completed.push(idx);
                }
                (idx, resubmit, s.distinct[idx])
            })
            .collect()
    }

    #[test]
    fn the_seed_alone_determines_the_job_stream() {
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4));
        let resubmits = draws(3).iter().filter(|d| d.1).count();
        assert!(
            (20..=60).contains(&resubmits),
            "{resubmits} resubmits in 200 draws"
        );
    }
}
