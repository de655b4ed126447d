//! Shared machinery: failure accounting, seed derivation, order
//! statistics, the metric registry and the host fingerprint.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Ops attempted and failed in one run. A failure is a panic, a `Failed`
/// server response or an output-check mismatch; only mismatches make the
/// run's outputs incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Runs one op under `catch_unwind`, counting it as attempted and, if
    /// it panics, as failed with the panic message recorded.
    pub fn attempt<R>(&mut self, what: &str, f: impl FnOnce() -> R) -> Option<R> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(payload) => {
                self.fail(format!("{what}: panic: {}", panic_message(&*payload)));
                None
            }
        }
    }

    /// Counts an op that was attempted elsewhere (a server job) as failed.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.messages.push(message);
    }

    /// Records an output check on an already attempted op; a mismatch
    /// fails that op and marks the run's outputs incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.mismatches += 1;
            self.fail(format!("check failed: {}", what()));
        }
        ok
    }

    /// Failed ops over attempted ops.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Folds another tally (a worker thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.messages.extend(other.messages);
    }
}

/// The message carried by a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// splitmix64 step: the benchmark's only source of randomness, so its
/// inputs never shift when a crate's own generator changes.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sub-seed for input `parts` of the run seeded with `seed`.
pub fn derive(seed: u64, parts: &[u64]) -> u64 {
    let mut state = seed;
    let mut out = splitmix64(&mut state);
    for &p in parts {
        state ^= p.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        out = splitmix64(&mut state);
    }
    out
}

/// FNV-1a, for input fingerprints.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    })
}

/// Fingerprint of a generated program and its initial architectural
/// state: equal fingerprints mean byte-identical simulator inputs.
pub fn input_fingerprint(emu: &orinoco_isa::Emulator) -> u64 {
    let code = format!("{:?}", emu.program().insts());
    fnv64(code.as_bytes())
        ^ emu.mem_fingerprint().rotate_left(17)
        ^ fnv64(format!("{:?}", emu.regs()).as_bytes())
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Median seconds of one yardstick measurement on the reference host;
/// throughputs are quoted at this speed (see [`Yardstick`]).
pub const YARDSTICK_REF_S: f64 = 0.0115;

/// Resident KiB the yardstick tables added, kept out of `peak_rss_mb`.
static YARDSTICK_KB: AtomicU64 = AtomicU64::new(0);

/// A fixed, repository-independent yardstick of host speed.
///
/// On a shared machine the host's speed drifts by tens of percent in
/// regimes lasting from seconds to minutes, so two runs of a few dozen
/// seconds can see different machines. Random updates of a hash table
/// larger than a core's private caches, so held in the last-level cache
/// other tenants share, slow down with the simulator under that drift
/// (over 10 s windows their time ratio held within 3% where each alone
/// moved by 12%). A run measures the yardstick after every op and scales
/// its throughput by the median measurement over [`YARDSTICK_REF_S`].
/// The yardstick's code lives here, not in the repository's crates, and
/// each measurement first brings the whole table back into the caches,
/// so what the preceding op left in them does not move it.
pub struct Yardstick {
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    samples: Vec<f64>,
}

impl Yardstick {
    const KEYS: u64 = 1 << 18;
    const UPDATES: u64 = 120_000;

    /// Fills the table, which stays resident until the yardstick is
    /// dropped; its footprint is recorded so `peak_rss_mb` leaves it out.
    pub fn new() -> Self {
        let before = status_kb("VmRSS:");
        let mut table = HashMap::default();
        table.reserve(Self::KEYS as usize);
        for k in 0..Self::KEYS {
            table.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), 0);
        }
        let grown = status_kb("VmRSS:").saturating_sub(before);
        YARDSTICK_KB.fetch_add(grown, Ordering::Relaxed);
        Self {
            table,
            samples: Vec::new(),
        }
    }

    /// One measurement: a fixed sequence of random table updates, timed
    /// after an untimed pass over the whole table.
    fn measure(&mut self) {
        let warm = self.table.values().fold(0u64, |a, &v| a ^ v);
        std::hint::black_box(warm);
        let t = Instant::now();
        let mut x = 7u64;
        for i in 0..Self::UPDATES {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = (x >> 40) % Self::KEYS;
            *self
                .table
                .entry(key.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .or_insert(0) += i;
        }
        std::hint::black_box(self.table.len());
        self.samples.push(secs(t));
    }

    /// Runs `op`, then measures the yardstick; returns the op's result
    /// and host seconds.
    pub fn time<R>(&mut self, op: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let r = op();
        let dt = secs(t);
        self.measure();
        (r, dt)
    }

    /// Median measurement over the reference: 1.0 on a host as fast as the
    /// reference, 1.5 on one 1.5 times slower. Multiplies a throughput.
    pub fn factor(&self) -> f64 {
        median(&self.samples) / YARDSTICK_REF_S
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The tail percentile a sample of `n` supports: the highest of the
/// candidates with at least ten samples beyond it, or `None` when even
/// p50 has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Candidates in per mille, so the count beyond is exact.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&pm| n * (1000 - pm) >= 10 * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Calls `pass` repeatedly while another pass of the mean length so far
/// still fits in `budget` seconds (at least once) and returns the number
/// of passes.
pub fn for_duration(budget: f64, mut pass: impl FnMut()) -> usize {
    let t = Instant::now();
    let mut n = 0;
    while n == 0 || secs(t) * (n + 1) as f64 / n as f64 <= budget {
        pass();
        n += 1;
    }
    n
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 25;

/// Runs `setup` [`SETUP_REPS`] times, timing each, and returns the median time
/// with the last result. With a yardstick each repetition's time is quoted
/// at the reference speed, as measured right after it. Every
/// repetition regenerates the inputs from the seed, so `fingerprint`
/// checks that all of them agree byte for byte.
pub fn repeated_setup<T>(
    tally: &mut Tally,
    mut yard: Option<&mut Yardstick>,
    mut setup: impl FnMut() -> T,
    fingerprint: impl Fn(&T) -> u64,
) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let mut first_fp = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (v, dt) = match yard.as_deref_mut() {
            Some(y) => {
                let (v, dt) = y.time(&mut setup);
                // The measurement scales this repetition only; the run's
                // factor covers the measured passes.
                let after = y.samples.pop().expect("time records a measurement");
                (v, dt * YARDSTICK_REF_S / after)
            }
            None => {
                let t = Instant::now();
                (setup(), secs(t))
            }
        };
        times.push(dt);
        let fp = fingerprint(&v);
        match first_fp {
            None => first_fp = Some(fp),
            Some(f) => {
                tally.check(f == fp, || {
                    "regenerating inputs from the same seed changed them".into()
                });
            }
        }
        last = Some(v);
    }
    (median(&times), last.expect("at least one setup repetition"))
}

/// Process high-water resident set (VmHWM) in MiB, less the yardstick's
/// table, which is resident from before set-up to the end of the run.
pub fn peak_rss_mb() -> f64 {
    let kb = status_kb("VmHWM:").saturating_sub(YARDSTICK_KB.load(Ordering::Relaxed));
    kb as f64 / 1024.0
}

/// A KiB field of `/proc/self/status` (0 if absent).
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(field)).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

/// Worker threads the benchmark may use: `available_parallelism`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Host fingerprint printed with every result: absolute times are host
/// artefacts and mean nothing without it.
pub fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"available_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": {}}}",
        nproc(),
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Metric values by name. Reporting checks them against the declared
/// lists in `metrics.rs`, so a result always carries exactly the metrics
/// `BENCHMARK.json` names.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..5000 {
            let p = tail_percentile(n).expect("n >= 20 supports p50");
            let beyond = n * (1000 - (p * 10.0) as usize);
            assert!(beyond >= 10 * 1000, "n={n} p={p}");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn a_panicking_op_counts_as_failed_with_its_message() {
        let mut t = Tally::default();
        assert_eq!(t.attempt("ok", || 7), Some(7));
        let r: Option<()> = t.attempt("boom", || panic!("deliberate"));
        assert!(r.is_none());
        assert_eq!((t.attempted, t.failed, t.mismatches), (2, 1, 0));
        assert!(t.messages[0].contains("boom") && t.messages[0].contains("deliberate"));
        t.check(false, || "bad output".into());
        assert_eq!((t.failed, t.mismatches), (2, 1));
        assert!((t.error_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive(7, &[1, 2]), derive(7, &[1, 2]));
        assert_ne!(derive(7, &[1, 2]), derive(7, &[2, 1]));
        assert_ne!(derive(7, &[1]), derive(8, &[1]));
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
