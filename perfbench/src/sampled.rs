//! `sampled`: one long phased program estimated by stratified
//! checkpointed sampling with full functional warming on `nproc`
//! threads, checked against a full-detail run of the same program.

use crate::detail::configs;
use crate::harness::{
    derive, for_duration, input_fingerprint, median, nproc, secs, Metrics, Tally, Yardstick,
};
use crate::trace::{self, span};
use crate::{job_latency, Ctx};
use orinoco_core::{
    run_sampled, Core, CoreConfig, IntervalSample, SampleConfig, SampledStats, SimStats,
};
use orinoco_isa::{EmuCheckpoint, Emulator};
use orinoco_workloads::long_program;
use std::hint::black_box;
use std::time::Instant;

/// Dynamic instructions of the program (`long_program` overshoots by up
/// to ~2%).
const INSTS: u64 = 12_000_000;
/// Sampling geometry: warmup, measured window and period, in
/// instructions. 12M / 400k gives 30 strata, so at least 30 intervals,
/// and makes functional warming the larger share of the serial sampled
/// time (at 9M / 300k it was just under half).
const WARMUP: u64 = 2_000;
const DETAIL: u64 = 10_000;
const PERIOD: u64 = 400_000;
const MAX_CYCLES: u64 = 2_000_000_000;
/// Largest IPC difference, in percent, between the sampled windows and
/// the full-detail run over the same windows: the 3% limit of the
/// repository's own sampled-accuracy gate (`sampled_check`). Over 33
/// seeds (1, 2, 101-110, 1001-1010, 2001-2010 and 168134648) the
/// difference was at most 0.81%.
const WINDOW_TOL_PCT: f64 = 3.0;

fn sample_config(seed: u64, threads: usize) -> SampleConfig {
    SampleConfig::new(WARMUP, DETAIL, PERIOD)
        .with_jitter_seed(derive(seed, &[1]))
        .with_threads(threads)
}

/// One sampled run: host seconds and the estimate.
fn sample(
    tally: &mut Tally,
    what: &str,
    emu: &Emulator,
    cfg: &CoreConfig,
    scfg: &SampleConfig,
) -> Option<(f64, SampledStats)> {
    let emu = emu.clone();
    tally.attempt(what, || {
        let t = Instant::now();
        let stats = span("sample.run", || run_sampled(emu, cfg.clone(), scfg));
        (secs(t), stats)
    })
}

pub fn run(ctx: &Ctx, tally: &mut Tally, m: &mut Metrics) {
    let pseed = derive(ctx.seed, &[0]);
    let mut yard = Yardstick::new();
    let (setup_s, emu) = crate::harness::repeated_setup(
        tally,
        Some(&mut yard),
        || long_program(pseed, INSTS),
        input_fingerprint,
    );
    let [orinoco, baseline] = configs(pseed);
    let threads = nproc();
    let par = sample_config(ctx.seed, threads);

    let mut reference_summary: Option<String> = None;
    let timed = |tally: &mut Tally,
                 yard: &mut Yardstick,
                 reference: &mut Option<String>,
                 times: &mut Vec<f64>| {
        let (out, _) = yard.time(|| sample(tally, "sampled run", &emu, &orinoco, &par));
        if let Some((t, stats)) = out {
            times.push(t);
            let summary = stats.summary();
            match reference {
                None => *reference = Some(summary),
                Some(r) => {
                    tally.check(*r == summary, || {
                        format!("sampled summary changed: {r} vs {summary}")
                    });
                }
            }
        }
    };
    let mut par_times = Vec::new();
    let passes = for_duration(ctx.budget(), || {
        timed(tally, &mut yard, &mut reference_summary, &mut par_times)
    });
    let parallel_s = median(&par_times);
    let factor = yard.factor();

    // Outside the timed window: the serial run (byte-identity check), the
    // baseline estimate (Orinoco gain) and the full-detail reference.
    let serial = sample(
        tally,
        "serial sampled run",
        &emu,
        &orinoco,
        &sample_config(ctx.seed, 1),
    );
    let base = sample(tally, "baseline sampled run", &emu, &baseline, &par);
    let full = serial.as_ref().and_then(|(_, serial)| {
        let emu = emu.clone();
        let cfg = orinoco.clone();
        tally.attempt("full-detail reference", || {
            let t = Instant::now();
            let run = span("core.run", || reference(emu, cfg, &serial.intervals));
            (secs(t), run)
        })
    });
    let (
        Some((serial_s, serial)),
        Some((_, base)),
        Some((reference_s, (full, window_ipc))),
        Some(summary),
    ) = (serial, base, full, reference_summary.clone())
    else {
        println!("sampled: a reference run failed; no estimate to report");
        return;
    };
    let est = serial.est_ipc();
    let err_pct = (est - full.ipc()).abs() / full.ipc() * 100.0;
    let ci_pct = serial.rel_ci95() * 100.0;
    let window_err_pct = (est - window_ipc).abs() / window_ipc * 100.0;
    tally.check(serial.summary() == summary, || {
        format!(
            "summary differs between 1 and {threads} threads: {} vs {summary}",
            serial.summary()
        )
    });
    tally.check(serial.total_insts == full.committed, || {
        format!(
            "sampler covered {} insts, full detail committed {}",
            serial.total_insts, full.committed
        )
    });
    // The estimate against the full-detail run over the windows it
    // measured: this isolates what the sampler models (warm state,
    // wrong-path pollution) from which windows it happened to draw. The
    // whole-program error also carries the draw: about 10% of this
    // program's 10k windows run at 1.2-1.8x the median CPI, and 31
    // windows can miss them all, so it is reported (`ipc_err_pct`) but
    // not checked.
    tally.check(window_err_pct <= WINDOW_TOL_PCT, || {
        format!(
            "sampled IPC {est:.4} is {window_err_pct:.2}% from full detail {window_ipc:.4} \
             over the same windows (limit {WINDOW_TOL_PCT}%)"
        )
    });
    let ratio = est / base.est_ipc();
    println!(
        "sampled: {passes} sampled runs on {threads} threads, median {parallel_s:.3} s, \
         {:.4} Minst/s as measured, host speed factor {factor:.3}; {summary}",
        serial.total_insts as f64 / parallel_s / 1e6
    );
    println!(
        "sampled: full detail IPC {:.4} in {reference_s:.2} s, error {err_pct:.2}% (CI95 {ci_pct:.2}%), \
         {window_err_pct:.2}% over the sampled windows; serial {serial_s:.3} s; orinoco_gain_pct {:+.2}%",
        full.ipc(),
        (ratio - 1.0) * 100.0
    );
    m.set("setup_s", setup_s);
    m.set(
        "minst_per_s",
        serial.total_insts as f64 / parallel_s * factor / 1e6,
    );
    m.set("ipc", est);
    m.set("orinoco_ipc_ratio", ratio);
    if !ctx.traced {
        return;
    }

    m.set("host.speed_factor", factor);
    m.set(
        "host.raw_minst_per_s",
        serial.total_insts as f64 / parallel_s / 1e6,
    );
    m.set("jobs_per_s", 1.0 / parallel_s);
    job_latency(m, &par_times);
    m.set("orinoco_gain_pct", (ratio - 1.0) * 100.0);
    m.set("ipc_err_pct", err_pct);
    m.set("ci95_pct", ci_pct);
    m.set("sample.window_err_pct", window_err_pct);
    m.set("sample.serial_s", serial_s);
    m.set("sample.parallel_s", parallel_s);
    m.set("sample.par_speedup", serial_s / parallel_s);
    m.set("sample.intervals", serial.intervals.len() as f64);
    m.set("sample.detail_frac", serial.detail_fraction());
    m.set("sample.reference_s", reference_s);
    m.set("sample.speedup", reference_s / parallel_s);

    trace::enable();
    let mut traced_times = Vec::new();
    span("bench.sampled", || {
        for_duration(ctx.budget(), || {
            timed(tally, &mut yard, &mut reference_summary, &mut traced_times)
        });
    });
    m.set(
        "trace.overhead_pct",
        (median(&traced_times) / parallel_s - 1.0) * 100.0,
    );
    span("bench.probes", || {
        let rebuilt = span("workloads.build", || long_program(pseed, INSTS));
        tally.check(
            input_fingerprint(&rebuilt) == input_fingerprint(&emu),
            || "rebuilt program differs".into(),
        );
        let warm_s = warm_pass(&emu, &orinoco);
        m.set("sample.warm_s", warm_s);
        m.set("sample.warm_frac", warm_s / serial_s);
        isa_probe(tally, &emu, m);
    });
    let spans = trace::spans();
    m.set(
        "workloads.build_ms",
        trace::median_dur(&spans, "workloads.build") * 1e3,
    );
    m.set("core.new_us", trace::median_dur(&spans, "core.new") * 1e6);
}

/// The full-detail run of the whole program, paused at the boundaries of
/// each sampled window to read the clock: its statistics, and its IPC
/// over the instructions the sampler measured (window starts agree to
/// within the few instructions one commit cycle can overshoot by).
/// Pausing leaves the run cycle-identical to an unpaused one.
fn reference(emu: Emulator, cfg: CoreConfig, windows: &[IntervalSample]) -> (SimStats, f64) {
    let mut core = Core::new(emu, cfg);
    let (mut cycles, mut insts) = (0, 0);
    for w in windows {
        let from = w.start_inst + WARMUP;
        core.run_to_commit(from, MAX_CYCLES);
        let (c0, k0) = (core.cycle(), core.stats().committed);
        core.run_to_commit(from + w.insts, MAX_CYCLES);
        cycles += core.cycle() - c0;
        insts += core.stats().committed - k0;
    }
    let stats = core.run(MAX_CYCLES).clone();
    (stats, insts as f64 / cycles.max(1) as f64)
}

/// One functional-warming pass over the whole program, the sampler's
/// serial floor: every instruction is emulated and fed to `warm_step`.
fn warm_pass(emu: &Emulator, cfg: &CoreConfig) -> f64 {
    let mut warm = span("core.new", || Core::new(emu.clone(), cfg.clone())).save_warm_state();
    let mut master = emu.clone();
    let t = Instant::now();
    span("sample.warm", || {
        while let Some(d) = master.step() {
            warm.warm_step(&d);
        }
    });
    black_box(&warm);
    secs(t)
}

/// Functional emulation speed, and the checkpoint and codec costs at
/// each sample-period boundary.
fn isa_probe(tally: &mut Tally, emu: &Emulator, m: &mut Metrics) {
    let mut master = emu.clone();
    let program = emu.program().clone();
    let (mut emu_s, mut stepped) = (0.0, 0u64);
    let (mut ckpt, mut codec) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        let n = span("isa.emu_pass", || {
            master.by_ref().take(PERIOD as usize).count()
        });
        emu_s += secs(t);
        stepped += n as u64;
        if master.halt_reason().is_some() {
            break;
        }
        let t = Instant::now();
        let ck = span("isa.ckpt", || {
            let ck = master.checkpoint();
            black_box(Emulator::restore(program.clone(), &ck));
            ck
        });
        ckpt.push(secs(t));
        let t = Instant::now();
        let back = span("isa.ckpt_codec", || {
            EmuCheckpoint::from_file_bytes(&ck.to_file_bytes())
        });
        codec.push(secs(t));
        tally.check(back.as_ref() == Ok(&ck), || {
            "checkpoint did not survive its file encoding".into()
        });
    }
    m.set("isa.emu_minst_per_s", stepped as f64 / emu_s / 1e6);
    m.set("isa.ckpt_us", median(&ckpt) * 1e6);
    m.set("isa.ckpt_codec_us", median(&codec) * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pausing the full-detail run at the sampled windows leaves it
    /// cycle-identical to an unpaused run, and over those windows the
    /// sampler agrees with it.
    #[test]
    fn paused_reference_matches_an_unpaused_run() {
        let emu = long_program(3, 400_000);
        let [cfg, _] = configs(3);
        let scfg = SampleConfig::new(WARMUP, DETAIL, 40_000);
        let est = run_sampled(emu.clone(), cfg.clone(), &scfg);
        let (paused, window_ipc) = reference(emu.clone(), cfg.clone(), &est.intervals);
        let plain = Core::new(emu, cfg).run(MAX_CYCLES).clone();
        assert!(est.intervals.len() >= 10);
        assert_eq!(format!("{paused:?}"), format!("{plain:?}"));
        assert_eq!(est.total_insts, plain.committed);
        let err_pct = (est.est_ipc() - window_ipc).abs() / window_ipc * 100.0;
        assert!(err_pct <= WINDOW_TOL_PCT, "{err_pct:.2}%");
    }
}
