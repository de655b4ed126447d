//! The Orinoco simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <detail|sampled|sweep|multicore> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, measures for the given
//! number of seconds, checks the outputs, and prints one JSON result as
//! the last line of standard output: the end-to-end metrics untraced, the
//! per-layer metrics with `--trace 1`. See `README.md` beside this file.

mod corestats;
mod detail;
mod harness;
mod metrics;
mod multicore;
mod sampled;
mod sweep;
mod trace;

use harness::{median, quantile, tail_percentile, Metrics, Tally};
use std::process::ExitCode;
use std::time::Instant;

/// What one run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Ctx {
    /// Seconds of each measured phase: a traced run spends half its time
    /// untraced (the reference for `trace.overhead_pct`) and half traced.
    pub fn budget(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Reports per-op host latency: the median and the highest percentile
/// with at least ten samples beyond it, with the sample count.
pub fn job_latency(m: &mut Metrics, secs: &[f64]) {
    let n = secs.len();
    let p50 = median(secs) * 1e3;
    m.set("job_p50_ms", p50);
    m.set("job_samples", n as f64);
    match tail_percentile(n) {
        Some(p) => {
            let tail = quantile(secs, p.min(95.0) / 100.0) * 1e3;
            m.set("job_p95_ms", tail);
            m.set("job_tail_pct", p.min(95.0));
            println!(
                "latency: n={n} p50={p50:.3} ms, tail p{}={tail:.3} ms",
                p.min(95.0)
            );
        }
        None => println!("latency: n={n} p50={p50:.3} ms (too few samples for a tail percentile)"),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: orinoco-perfbench --workload <detail|sampled|sweep|multicore> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage();
    };
    let run: fn(&Ctx, &mut Tally, &mut Metrics) = match workload.as_str() {
        "detail" => detail::run,
        "sampled" => sampled::run,
        "sweep" => sweep::run,
        "multicore" => multicore::run,
        _ => return usage(),
    };
    // Failures are counted and reported, not printed as they happen.
    std::panic::set_hook(Box::new(|_| {}));
    let ctx = Ctx {
        seed,
        seconds,
        traced,
    };
    println!("host: {}", harness::host_fingerprint());
    println!(
        "run: workload={workload} seed={seed} seconds={seconds} trace={}",
        u8::from(traced)
    );

    let started = Instant::now();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    run(&ctx, &mut tally, &mut m);
    if traced {
        report_trace(&ctx, &workload, &mut m);
        m.set("error_rate", tally.error_rate());
    } else {
        m.set("peak_rss_mb", harness::peak_rss_mb());
    }
    let mut distinct: Vec<(&String, usize)> = Vec::new();
    for msg in &tally.messages {
        match distinct.iter_mut().find(|(m, _)| *m == msg) {
            Some((_, n)) => *n += 1,
            None => distinct.push((msg, 1)),
        }
    }
    for (msg, n) in distinct {
        println!("failure ({n}x): {}", msg.replace('\n', " "));
    }
    println!(
        "summary: {} attempted, {} failed (error_rate {:.4}), {} check mismatches, {:.1} s",
        tally.attempted,
        tally.failed,
        tally.error_rate(),
        tally.mismatches,
        harness::secs(started)
    );
    for (name, value) in &m.0 {
        println!("metric: {name} = {value}");
    }
    if traced {
        // The end-to-end figures are printed above; the result line of a
        // traced run carries the per-layer list only.
        for (name, _, _) in metrics::END_TO_END {
            m.0.remove(name);
        }
    }
    println!("{}", metrics::result_line(&tally, &m, traced));
    ExitCode::SUCCESS
}

/// Per-layer self times from the recorded spans, written out as JSON
/// lines under `perfbench/out/`.
fn report_trace(ctx: &Ctx, workload: &str, m: &mut Metrics) {
    let spans = trace::spans();
    let (layers, wall) = trace::layer_self_times(&spans);
    let mut self_sum = 0.0;
    for layer in metrics::LAYERS {
        let t = layers.get(layer).copied().unwrap_or(0.0);
        self_sum += t;
        m.set(format!("self_ms.{layer}"), t * 1e3);
    }
    for (layer, t) in &layers {
        if !metrics::LAYERS.contains(layer) {
            eprintln!(
                "trace: span layer {layer} is not reported ({:.3} ms)",
                t * 1e3
            );
        }
    }
    m.set("trace.wall_ms", wall * 1e3);
    m.set("trace.self_sum_ms", self_sum * 1e3);
    m.set("trace.spans", spans.len() as f64);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-seed{}.jsonl", ctx.seed));
    match trace::write_jsonl(&path, &spans) {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}
