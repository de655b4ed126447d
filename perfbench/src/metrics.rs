//! The metric lists `BENCHMARK.json` declares, and the result line.
//!
//! Every workload reports every metric: untraced runs the end-to-end
//! list, traced runs the per-layer list. A per-layer metric of a layer a
//! workload does not run reads 0 there (no work was done in it).

use crate::harness::{json_str, Metrics, Tally};
use orinoco_core::StallCause;
use orinoco_workloads::Workload;

/// `(name, unit, better)` of each end-to-end metric.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("minst_per_s", "Minst/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ipc", "IPC", "higher"),
    ("orinoco_ipc_ratio", "x", "higher"),
];

/// Layers whose self time the traced run reports (`self_ms.<layer>`).
pub const LAYERS: [&str; 10] = [
    "bench",
    "workloads",
    "isa",
    "core",
    "matrix",
    "sample",
    "system",
    "server",
    "net",
    "protocol",
];

/// Fixed-name per-layer metrics; the per-kernel, per-stall-cause and
/// per-layer self-time names are generated in [`per_layer`].
const PER_LAYER_FIXED: &[(&str, &str, &str)] = &[
    ("error_rate", "fraction", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p95_ms", "ms", "lower"),
    ("job_tail_pct", "%", "higher"),
    ("job_samples", "count", "higher"),
    ("orinoco_gain_pct", "%", "higher"),
    ("ipc_err_pct", "%", "lower"),
    ("ci95_pct", "%", "lower"),
    ("host.speed_factor", "x", "lower"),
    ("host.raw_minst_per_s", "Minst/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.self_sum_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("workloads.build_ms", "ms", "lower"),
    ("isa.emu_minst_per_s", "Minst/s", "higher"),
    ("isa.ckpt_us", "us", "lower"),
    ("isa.ckpt_codec_us", "us", "lower"),
    ("core.ns_per_inst.baseline", "ns", "lower"),
    ("core.cycles", "count", "lower"),
    ("core.committed", "count", "higher"),
    ("core.squashed", "count", "lower"),
    ("core.issued", "count", "lower"),
    ("core.replays", "count", "lower"),
    ("core.useful_frac", "fraction", "higher"),
    ("core.ooo_commit_frac", "fraction", "higher"),
    ("core.issue_conflict_frac", "fraction", "lower"),
    ("core.rob_occ", "entries", "lower"),
    ("core.iq_occ", "entries", "lower"),
    ("core.iq_ready_per_cycle", "entries", "higher"),
    ("core.new_us", "us", "lower"),
    ("core.reset_us", "us", "lower"),
    ("matrix.age_select_ns", "ns", "lower"),
    ("matrix.commit_grant_ns", "ns", "lower"),
    ("mem.l1_miss_rate", "fraction", "lower"),
    ("mem.dram_per_kinst", "1/kinst", "lower"),
    ("mem.mshr_reject_per_kinst", "1/kinst", "lower"),
    ("mem.prefetch_per_kinst", "1/kinst", "lower"),
    ("frontend.mpki", "1/kinst", "lower"),
    ("frontend.wrong_path_per_kinst", "1/kinst", "lower"),
    ("sample.serial_s", "s", "lower"),
    ("sample.parallel_s", "s", "lower"),
    ("sample.par_speedup", "x", "higher"),
    ("sample.warm_s", "s", "lower"),
    ("sample.warm_frac", "fraction", "lower"),
    ("sample.intervals", "count", "higher"),
    ("sample.detail_frac", "fraction", "lower"),
    ("sample.window_err_pct", "%", "lower"),
    ("sample.reference_s", "s", "lower"),
    ("sample.speedup", "x", "higher"),
    ("system.ns_per_cycle", "ns", "lower"),
    ("system.failed_runs", "count", "lower"),
    ("coh.inv_per_kinst", "1/kinst", "lower"),
    ("coh.acks_withheld", "count", "lower"),
    ("coh.downgrades", "count", "lower"),
    ("coh.second_round", "count", "lower"),
    ("server.accept_ms", "ms", "lower"),
    ("server.service_ms", "ms", "lower"),
    ("server.oneshot_ms", "ms", "lower"),
    ("server.harvest_ms", "ms", "lower"),
    ("server.hit_p50_ms", "ms", "lower"),
    ("server.cache_hit_frac", "fraction", "higher"),
    ("server.job_panics", "count", "lower"),
    ("net.ping_rtt_us", "us", "lower"),
    ("net.tcp_overhead_ms", "ms", "lower"),
    ("protocol.frame_us", "us", "lower"),
];

/// Metric name of a stall cause: `core.stall.<label>`.
pub fn stall_metric(c: StallCause) -> String {
    format!("core.stall.{}", c.label().replace('-', "_"))
}

/// Metric name of a kernel's host time per committed instruction.
pub fn ns_per_inst_metric(w: Workload) -> String {
    format!("core.ns_per_inst.{}", w.name())
}

/// Every per-layer metric as `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &str, &str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    v.extend(
        LAYERS
            .iter()
            .map(|l| (format!("self_ms.{l}"), "ms", "lower")),
    );
    v.extend(
        Workload::ALL
            .iter()
            .map(|&w| (ns_per_inst_metric(w), "ns", "lower")),
    );
    v.extend(
        StallCause::ALL
            .iter()
            .map(|&c| (stall_metric(c), "fraction", "lower")),
    );
    v
}

/// The result line: exactly the declared metrics of this mode, each with
/// its unit. Metrics a workload did not produce read 0.
///
/// # Panics
///
/// Panics if `m` holds a metric the declared list does not name (a
/// benchmark bug: the result would not match `BENCHMARK.json`).
pub fn result_line(tally: &Tally, m: &Metrics, traced: bool) -> String {
    let declared: Vec<(String, &str)> = if traced {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u))
            .collect()
    };
    for name in m.0.keys() {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "undeclared metric {name}"
        );
    }
    let body: Vec<String> = declared
        .iter()
        .map(|(n, u)| {
            let v = m.0.get(n).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.mismatches == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists in code and in `BENCHMARK.json` agree exactly.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names_in = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layer: Vec<String> = per_layer().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names_in("per_layer"), layer);
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _, _)| n));
        let mut seen = std::collections::HashSet::new();
        for n in &all {
            assert!(seen.insert(n.clone()), "duplicate {n}");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn result_line_fills_every_declared_metric() {
        let mut m = Metrics::default();
        m.set("ipc", 1.5);
        let t = Tally {
            attempted: 3,
            failed: 1,
            ..Tally::default()
        };
        let line = result_line(&t, &m, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1"));
        for (n, u, _) in END_TO_END {
            assert!(
                line.contains(&format!("\"{n}\": {{\"value\": ")),
                "{n} missing"
            );
            assert!(line.contains(&format!("\"unit\": \"{u}\"")));
        }
        assert!(line.contains("\"ipc\": {\"value\": 1.5"));
    }
}
