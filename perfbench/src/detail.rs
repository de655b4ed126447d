//! `detail`: the paper's experiment. Every kernel at scale 1 in full
//! detail under Orinoco issue + Orinoco commit and under the AGE +
//! in-order-commit baseline: 26 batch runs per pass, single-threaded.

use crate::corestats::CoreAgg;
use crate::harness::{
    derive, for_duration, geomean, input_fingerprint, median, secs, Metrics, Tally, Yardstick,
};
use crate::metrics::ns_per_inst_metric;
use crate::trace::{self, span};
use crate::{job_latency, Ctx};
use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind, SimStats};
use orinoco_isa::Emulator;
use orinoco_matrix::{AgeMatrix, BitVec64, CommitScheduler};
use orinoco_workloads::Workload;
use std::hint::black_box;
use std::time::Instant;

/// Deadlock guard for one run.
const MAX_CYCLES: u64 = 2_000_000_000;

/// The two configurations of the paper's headline comparison, seeded.
pub fn configs(seed: u64) -> [CoreConfig; 2] {
    let mut orinoco = CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco);
    orinoco.seed = seed;
    let mut baseline = CoreConfig::base();
    baseline.seed = seed;
    [orinoco, baseline]
}

/// One kernel's generated program, shared by both configurations.
struct Input {
    kernel: Workload,
    seed: u64,
    emu: Emulator,
}

fn build(seed: u64) -> (Vec<Input>, Vec<Core>) {
    let inputs: Vec<Input> = Workload::ALL
        .iter()
        .enumerate()
        .map(|(i, &kernel)| {
            let kseed = derive(seed, &[i as u64]);
            let emu = span("workloads.build", || kernel.build(kseed, 1));
            Input {
                kernel,
                seed: kseed,
                emu,
            }
        })
        .collect();
    let cores = inputs
        .iter()
        .flat_map(|inp| configs(inp.seed).map(|cfg| (inp.emu.clone(), cfg)))
        .map(|(emu, cfg)| span("core.new", || Core::new(emu, cfg)))
        .collect();
    (inputs, cores)
}

/// What one op produced: host time of `Core::run` and the statistics.
struct OpOut {
    secs: f64,
    stats: SimStats,
    debug: String,
}

/// The generated inputs, the first pass's cores (built during setup)
/// and each op's first result, which later passes must reproduce.
struct Batch {
    inputs: Vec<Input>,
    first: Option<Vec<Core>>,
    reference: Vec<Option<OpOut>>,
}

impl Batch {
    /// Runs all 26 ops once, appending each op's host seconds to `times`.
    /// Traced passes rebuild every program (checking it against the
    /// setup's copy) and time a `reset_with` of each used Orinoco core.
    fn pass(
        &mut self,
        tally: &mut Tally,
        yard: &mut Yardstick,
        times: &mut [Vec<f64>],
        traced: bool,
    ) {
        let mut cores: Vec<Core> = match self.first.take() {
            Some(c) => c,
            None => self
                .inputs
                .iter()
                .flat_map(|inp| configs(inp.seed).map(|cfg| (inp, cfg)))
                .map(|(inp, cfg)| {
                    let emu = if traced {
                        let emu = span("workloads.build", || inp.kernel.build(inp.seed, 1));
                        tally.check(
                            input_fingerprint(&emu) == input_fingerprint(&inp.emu),
                            || format!("{}: rebuilt program differs", inp.kernel),
                        );
                        emu
                    } else {
                        inp.emu.clone()
                    };
                    span("core.new", || Core::new(emu, cfg))
                })
                .collect(),
        };
        for (i, core) in cores.iter_mut().enumerate() {
            let inp = &self.inputs[i / 2];
            let label = format!(
                "{} {}",
                inp.kernel,
                if i % 2 == 0 { "orinoco" } else { "baseline" }
            );
            let out = tally.attempt(&label, || {
                let (stats, secs) = yard.time(|| span("core.run", || core.run(MAX_CYCLES).clone()));
                let debug = format!("{stats:?}");
                OpOut { secs, stats, debug }
            });
            let Some(out) = out else { continue };
            times[i].push(out.secs);
            match &self.reference[i] {
                None => self.reference[i] = Some(out),
                Some(r) => {
                    tally.check(r.debug == out.debug, || {
                        format!("{label}: SimStats differ between runs")
                    });
                }
            }
            if traced && i % 2 == 0 {
                let cfg = configs(inp.seed)[0].clone();
                let emu = inp.emu.clone();
                span("core.reset", || core.reset_with(emu, cfg));
            }
        }
    }
}

pub fn run(ctx: &Ctx, tally: &mut Tally, m: &mut Metrics) {
    let mut yard = Yardstick::new();
    let (setup_s, (inputs, first_cores)) = crate::harness::repeated_setup(
        tally,
        Some(&mut yard),
        || build(ctx.seed),
        |(inputs, _)| {
            inputs
                .iter()
                .fold(0, |h, i| h ^ input_fingerprint(&i.emu).rotate_left(7))
        },
    );
    let n_ops = inputs.len() * 2;
    // Op `i`: kernel `i / 2`, Orinoco on even `i`, baseline on odd.
    let mut batch = Batch {
        inputs,
        first: Some(first_cores),
        reference: (0..n_ops).map(|_| None).collect(),
    };
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n_ops];
    let t_untraced = Instant::now();
    let passes = for_duration(ctx.budget(), || {
        batch.pass(tally, &mut yard, &mut times, false)
    });
    let untraced_s = secs(t_untraced);
    let per_op: Vec<f64> = times.iter().map(|t| median(t)).collect();
    let op_secs: f64 = per_op.iter().sum();
    let factor = yard.factor();
    let committed: u64 = batch
        .reference
        .iter()
        .flatten()
        .map(|o| o.stats.committed)
        .sum();
    let orinoco_ipc: Vec<f64> = batch
        .reference
        .iter()
        .step_by(2)
        .flatten()
        .map(|o| o.stats.ipc())
        .collect();
    let ratios: Vec<f64> = batch
        .reference
        .chunks(2)
        .filter_map(|pair| match pair {
            [Some(a), Some(b)] => Some(a.stats.ipc() / b.stats.ipc()),
            _ => None,
        })
        .collect();
    let ratio = geomean(&ratios);
    println!(
        "detail: {passes} passes in {untraced_s:.2} s, {n_ops} runs per pass, {committed} committed insts per pass, \
         {:.4} Minst/s as measured, host speed factor {factor:.3}",
        committed as f64 / op_secs / 1e6,
    );
    println!(
        "detail: orinoco_gain_pct {:+.2}% over {} kernels (paper: +14.8%, gem5 + SPEC CPU2017)",
        (ratio - 1.0) * 100.0,
        ratios.len()
    );
    m.set("setup_s", setup_s);
    m.set("minst_per_s", committed as f64 / op_secs * factor / 1e6);
    m.set("ipc", geomean(&orinoco_ipc));
    m.set("orinoco_ipc_ratio", ratio);
    if !ctx.traced {
        return;
    }

    m.set("host.speed_factor", factor);
    m.set("host.raw_minst_per_s", committed as f64 / op_secs / 1e6);
    m.set("jobs_per_s", n_ops as f64 / op_secs);
    job_latency(m, &times.concat());
    m.set("orinoco_gain_pct", (ratio - 1.0) * 100.0);

    trace::enable();
    let mut traced_times: Vec<Vec<f64>> = vec![Vec::new(); n_ops];
    span("bench.detail", || {
        for_duration(ctx.budget(), || {
            batch.pass(tally, &mut yard, &mut traced_times, true)
        });
    });
    let traced: Vec<f64> = traced_times.iter().map(|t| median(t)).collect();
    m.set(
        "trace.overhead_pct",
        (traced.iter().sum::<f64>() / op_secs - 1.0) * 100.0,
    );

    let spans = trace::spans();
    let mut agg = CoreAgg::default();
    let mut base_secs = 0.0;
    let mut base_committed = 0u64;
    for (i, out) in batch.reference.iter().enumerate() {
        let Some(out) = out else { continue };
        if i % 2 == 0 {
            let kernel = batch.inputs[i / 2].kernel;
            let ns = traced[i] * 1e9 / out.stats.committed.max(1) as f64;
            m.set(ns_per_inst_metric(kernel), ns);
            agg.add(&out.stats);
        } else {
            base_secs += traced[i];
            base_committed += out.stats.committed;
        }
    }
    m.set(
        "core.ns_per_inst.baseline",
        base_secs * 1e9 / base_committed.max(1) as f64,
    );
    agg.report(m);
    m.set("core.new_us", trace::median_dur(&spans, "core.new") * 1e6);
    m.set(
        "core.reset_us",
        trace::median_dur(&spans, "core.reset") * 1e6,
    );
    m.set(
        "workloads.build_ms",
        trace::median_dur(&spans, "workloads.build") * 1e3,
    );
    span("bench.matrix_probe", || {
        matrix_probe(&agg, &configs(0)[0], m)
    });
}

/// Times the paper's two matrix operations at the mean IQ and ROB
/// occupancy the Orinoco runs reported.
fn matrix_probe(agg: &CoreAgg, cfg: &CoreConfig, m: &mut Metrics) {
    let (iq_occ, rob_occ, ready) = agg.occupancy();
    let iq_n = cfg.iq_entries;
    let rob_n = cfg.rob_entries;
    let occ = (iq_occ.round() as usize).clamp(1, iq_n);
    let ready_n = (ready.round() as usize).clamp(1, occ);
    let mut age = AgeMatrix::new(iq_n);
    for slot in 0..occ {
        age.dispatch(slot);
    }
    let request = BitVec64::from_indices(iq_n, (0..ready_n).map(|k| k * occ / ready_n));
    let mut out = Vec::with_capacity(iq_n);
    m.set(
        "matrix.age_select_ns",
        span("matrix.age_select", || {
            time_per_call(|| {
                age.select_oldest_into(black_box(&request), cfg.width, &mut out);
                black_box(out.len());
            })
        }) * 1e9,
    );

    let rocc = (rob_occ.round() as usize).clamp(1, rob_n);
    let mut rob = CommitScheduler::new(rob_n);
    for slot in 0..rocc {
        rob.dispatch(slot, slot % 5 == 0);
    }
    for slot in (0..rocc).step_by(10) {
        rob.mark_safe(slot);
    }
    let completed = BitVec64::from_indices(rob_n, (0..rocc).step_by(2));
    let mut candidates = BitVec64::new(rob_n);
    m.set(
        "matrix.commit_grant_ns",
        span("matrix.commit_grants", || {
            time_per_call(|| {
                rob.commit_grants_into(
                    black_box(&completed),
                    cfg.commit_width,
                    &mut candidates,
                    &mut out,
                );
                black_box(out.len());
            })
        }) * 1e9,
    );
}

/// Median seconds per call of `f` over batches of a few thousand calls.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    const CALLS: usize = 4096;
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            secs(t) / CALLS as f64
        })
        .collect();
    median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprints(seed: u64) -> Vec<u64> {
        build(seed)
            .0
            .iter()
            .map(|i| input_fingerprint(&i.emu))
            .collect()
    }

    #[test]
    fn the_seed_alone_determines_the_inputs() {
        assert_eq!(fingerprints(7), fingerprints(7));
        let other = fingerprints(8);
        assert!(fingerprints(7).iter().zip(&other).all(|(a, b)| a != b));
    }
}
