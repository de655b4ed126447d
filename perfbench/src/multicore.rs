//! `multicore`: `System` runs of the four shared-memory kernels on 2 and
//! 4 cores, under Orinoco and in-order commit, prefetch off and system
//! fast-forward on, at scale 256, one run after another.
//!
//! The programs come from kernel seed 1 whatever the run seed; `--seed`
//! only orders the runs. The kernel seed sets the
//! cores' pacing, and at scale 256 that flips whole runs between regimes:
//! over 60 seeds, 4-core `producer_consumer` under in-order commit took
//! 50k-110k cycles on some seeds and 1.1-1.6M on more than half, and
//! `true_sharing` under Orinoco commit panicked on 58% (2 cores) and 90%
//! (4 cores) of them. Host throughput of seed-drawn programs spread by
//! more than 25% between runs even with eight seeds per run, so no bound
//! could hold. See `README.md` for why seed 1 alone.

use crate::corestats::CoreAgg;
use crate::harness::{
    derive, for_duration, geomean, input_fingerprint, median, secs, splitmix64, Metrics, Tally,
    Yardstick,
};
use crate::trace::{self, span};
use crate::{job_latency, Ctx};
use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind, SimStats, System, SystemConfig};
use orinoco_isa::Emulator;
use orinoco_mem::CohStats;
use orinoco_workloads::multicore::SharedWorkload;
use std::time::Instant;

/// Seed of every kernel's programs and of the cores (see the module docs).
const KERNEL_SEED: u64 = 1;
const SCALE: u32 = 256;
const CORES: [usize; 2] = [2, 4];
const COMMITS: [CommitKind; 2] = [CommitKind::Orinoco, CommitKind::InOrder];
/// Deadlock guard: six times the slowest run seen on any of 60 seeds.
const MAX_CYCLES: u64 = 10_000_000;

/// One op: a kernel's programs on `cores` cores under one commit policy.
struct Op {
    kernel: SharedWorkload,
    cores: usize,
    commit: CommitKind,
    programs: usize,
}

impl Op {
    fn label(&self) -> String {
        format!(
            "{} {}-core {:?} commit",
            self.kernel, self.cores, self.commit
        )
    }
}

/// What a completed `System` run produced.
struct OpOut {
    cycles: u64,
    committed: u64,
    coh: CohStats,
    cores: Vec<SimStats>,
    debug: String,
}

fn core_config(commit: CommitKind) -> CoreConfig {
    let mut cfg = CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(commit);
    cfg.mem.prefetch_streams = 0;
    cfg.fast_forward = false;
    cfg.seed = KERNEL_SEED;
    cfg
}

fn system(programs: &[Emulator], commit: CommitKind) -> System {
    let mut scfg = SystemConfig::new(programs.len());
    scfg.fast_forward = true;
    let cores = programs
        .iter()
        .map(|e| span("core.new", || Core::new(e.clone(), core_config(commit))))
        .collect();
    span("system.new", || System::new(cores, scfg))
}

fn build_programs(kernel: SharedWorkload, cores: usize) -> Vec<Emulator> {
    let base = SystemConfig::new(cores).coh.shared_base;
    span("workloads.build", || {
        kernel.build(cores, base, KERNEL_SEED, SCALE)
    })
}

/// Program sets, ops over them, and the first pass's systems.
fn setup() -> (Vec<Vec<Emulator>>, Vec<Op>, Vec<System>) {
    let mut programs = Vec::new();
    let mut ops = Vec::new();
    for cores in CORES {
        for kernel in SharedWorkload::ALL {
            programs.push(build_programs(kernel, cores));
            for commit in COMMITS {
                ops.push(Op {
                    kernel,
                    cores,
                    commit,
                    programs: programs.len() - 1,
                });
            }
        }
    }
    let systems = ops
        .iter()
        .map(|op| system(&programs[op.programs], op.commit))
        .collect();
    (programs, ops, systems)
}

fn run_op(sys: &mut System) -> OpOut {
    span("system.run", || sys.run(MAX_CYCLES));
    let stats = sys.stats();
    let cores: Vec<SimStats> = sys.cores().iter().map(|c| c.stats().clone()).collect();
    OpOut {
        cycles: stats.cycles,
        committed: cores.iter().map(|s| s.committed).sum(),
        coh: stats.coh,
        debug: format!("{stats:?} {cores:?}"),
        cores,
    }
}

/// The programs, the first pass's systems (built during setup), each
/// op's first outcome (its output or its failure message, which later
/// passes must reproduce), and the yardstick.
struct Batch {
    ops: Vec<Op>,
    programs: Vec<Vec<Emulator>>,
    first: Option<Vec<System>>,
    reference: Vec<Option<Result<OpOut, String>>>,
    yard: Yardstick,
}

impl Batch {
    /// Runs every op once in `order`, appending each op's host seconds to
    /// `times`. Traced passes rebuild each program set and check it
    /// against the setup's copy.
    fn pass(&mut self, tally: &mut Tally, order: &[usize], times: &mut [Vec<f64>], traced: bool) {
        let mut systems: Vec<Option<System>> = match self.first.take() {
            Some(s) => s.into_iter().map(Some).collect(),
            None => self.ops.iter().map(|_| None).collect(),
        };
        for &i in order {
            let op = &self.ops[i];
            let mut sys = systems[i].take().unwrap_or_else(|| {
                if traced {
                    let fresh = build_programs(op.kernel, op.cores);
                    let same = fresh
                        .iter()
                        .map(input_fingerprint)
                        .eq(self.programs[op.programs].iter().map(input_fingerprint));
                    tally.check(same, || format!("{}: rebuilt programs differ", op.label()));
                }
                system(&self.programs[op.programs], op.commit)
            });
            let (out, dt) = self
                .yard
                .time(|| tally.attempt(&op.label(), || run_op(&mut sys)));
            times[i].push(dt);
            let out = out.ok_or_else(|| tally.messages.last().cloned().unwrap_or_default());
            match &self.reference[i] {
                None => self.reference[i] = Some(out),
                Some(r) => {
                    let same = match (r, &out) {
                        (Ok(a), Ok(b)) => a.debug == b.debug,
                        (Err(_), Err(_)) => true,
                        _ => false,
                    };
                    tally.check(same, || {
                        format!("{}: outcome differs between runs", op.label())
                    });
                }
            }
        }
    }
}

pub fn run(ctx: &Ctx, tally: &mut Tally, m: &mut Metrics) {
    let mut yard = Yardstick::new();
    let (setup_s, (programs, ops, systems)) =
        crate::harness::repeated_setup(tally, Some(&mut yard), setup, |(p, _, _)| {
            p.iter()
                .flatten()
                .fold(0, |h, e| h ^ input_fingerprint(e).rotate_left(11))
        });
    let n = ops.len();
    // The seed orders the runs.
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = derive(ctx.seed, &[6]);
    for i in (1..n).rev() {
        order.swap(i, splitmix64(&mut rng) as usize % (i + 1));
    }
    let mut batch = Batch {
        ops,
        programs,
        first: Some(systems),
        reference: (0..n).map(|_| None).collect(),
        yard,
    };
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut pass_walls = Vec::new();
    let passes = for_duration(ctx.budget(), || {
        let t = Instant::now();
        batch.pass(tally, &order, &mut times, false);
        pass_walls.push(secs(t));
    });
    let per_op: Vec<f64> = times.iter().map(|t| median(t)).collect();
    let factor = batch.yard.factor();
    let ok_idx: Vec<usize> = (0..n)
        .filter(|&i| matches!(batch.reference[i], Some(Ok(_))))
        .collect();
    let ok: Vec<&OpOut> = ok_idx
        .iter()
        .filter_map(|&i| batch.reference[i].as_ref().and_then(|r| r.as_ref().ok()))
        .collect();
    let committed: u64 = ok.iter().map(|o| o.committed).sum();
    let ok_secs: f64 = ok_idx.iter().map(|&i| per_op[i]).sum();
    let ipcs: Vec<f64> = ok
        .iter()
        .map(|o| o.committed as f64 / o.cycles.max(1) as f64)
        .collect();
    // Ops come in (Orinoco, in-order) pairs over the same programs.
    let ratios: Vec<f64> = batch
        .reference
        .chunks(2)
        .filter_map(|p| match p {
            [Some(Ok(a)), Some(Ok(b))] => Some(
                (a.committed as f64 / a.cycles as f64) / (b.committed as f64 / b.cycles as f64),
            ),
            _ => None,
        })
        .collect();
    let ratio = geomean(&ratios);
    let failed_runs = n - ok_idx.len();
    println!(
        "multicore: {passes} passes of {n} system runs, median pass {:.2} s, {failed_runs} runs fail; \
         {:.4} Minst/s as measured, host speed factor {factor:.3}; orinoco_gain_pct {:+.2}% over {} pairs",
        median(&pass_walls),
        committed as f64 / ok_secs / 1e6,
        (ratio - 1.0) * 100.0,
        ratios.len()
    );
    m.set("setup_s", setup_s);
    m.set("minst_per_s", committed as f64 / ok_secs * factor / 1e6);
    m.set("ipc", geomean(&ipcs));
    m.set("orinoco_ipc_ratio", ratio);
    if !ctx.traced {
        return;
    }

    m.set("host.speed_factor", factor);
    m.set("host.raw_minst_per_s", committed as f64 / ok_secs / 1e6);
    m.set("jobs_per_s", n as f64 / median(&pass_walls));
    job_latency(m, &times.concat());
    m.set("orinoco_gain_pct", (ratio - 1.0) * 100.0);
    m.set("system.failed_runs", failed_runs as f64);
    let cycles: u64 = ok.iter().map(|o| o.cycles).sum();
    m.set("system.ns_per_cycle", ok_secs * 1e9 / cycles.max(1) as f64);
    let sum = |f: fn(&CohStats) -> u64| ok.iter().map(|o| f(&o.coh)).sum::<u64>() as f64;
    m.set(
        "coh.inv_per_kinst",
        sum(|c| c.invalidations_sent) * 1000.0 / committed.max(1) as f64,
    );
    m.set("coh.acks_withheld", sum(|c| c.acks_withheld));
    m.set("coh.downgrades", sum(|c| c.downgrades));
    m.set("coh.second_round", sum(|c| c.second_round_invalidations));
    let mut agg = CoreAgg::default();
    for (&i, o) in ok_idx.iter().zip(&ok) {
        if batch.ops[i].commit == CommitKind::Orinoco {
            o.cores.iter().for_each(|s| agg.add(s));
        }
    }
    agg.report(m);
    drop(ok);

    trace::enable();
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); n];
    span("bench.multicore", || {
        for_duration(ctx.budget(), || {
            batch.pass(tally, &order, &mut traced, true)
        });
    });
    let traced_ok: f64 = ok_idx.iter().map(|&i| median(&traced[i])).sum();
    m.set("trace.overhead_pct", (traced_ok / ok_secs - 1.0) * 100.0);
    let spans = trace::spans();
    m.set(
        "workloads.build_ms",
        trace::median_dur(&spans, "workloads.build") * 1e3,
    );
    m.set("core.new_us", trace::median_dur(&spans, "core.new") * 1e6);
}
