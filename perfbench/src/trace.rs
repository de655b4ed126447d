//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, the span that
//! caused it and the thread it ran on. Spans are kept in memory while
//! the benchmark runs and written out when it ends. Tracing is off until
//! [`enable`] is called; an untraced [`span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span; times are seconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub thread: u32,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU32,
    next_thread: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        on: AtomicBool::new(false),
        next_id: AtomicU32::new(1),
        next_thread: AtomicU32::new(0),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Open spans on this thread (innermost last) and the thread's number.
    static STACK: RefCell<(Option<u32>, Vec<u32>)> = const { RefCell::new((None, Vec::new())) };
}

/// Starts recording spans.
pub fn enable() {
    recorder().on.store(true, Ordering::SeqCst);
}

/// Runs `f` inside a span named `name` whose parent is the innermost
/// open span on this thread.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let rec = recorder();
    if !rec.on.load(Ordering::Relaxed) {
        return f();
    }
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let (parent, thread) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let thread =
            *s.0.get_or_insert_with(|| rec.next_thread.fetch_add(1, Ordering::Relaxed));
        let parent = s.1.last().copied();
        s.1.push(id);
        (parent, thread)
    });
    let start = rec.epoch.elapsed().as_secs_f64();
    // The span closes even if `f` unwinds: a failed op's time stays
    // attributed to the layer it failed in.
    struct Close<'a> {
        rec: &'a Recorder,
        span: Option<Span>,
    }
    impl Drop for Close<'_> {
        fn drop(&mut self) {
            if let Some(mut s) = self.span.take() {
                s.end = self.rec.epoch.elapsed().as_secs_f64();
                STACK.with(|st| st.borrow_mut().1.pop());
                if let Ok(mut spans) = self.rec.spans.lock() {
                    spans.push(s);
                }
            }
        }
    }
    let _close = Close {
        rec,
        span: Some(Span {
            id,
            parent,
            thread,
            name,
            start,
            end: start,
        }),
    };
    f()
}

/// Every span recorded so far, ordered by id.
pub fn spans() -> Vec<Span> {
    let mut v = recorder().spans.lock().expect("span list poisoned").clone();
    v.sort_by_key(|s| s.id);
    v
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(f64, f64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur() - covered
        })
        .collect()
}

/// Self time summed per layer, and the summed duration of the root
/// spans (the traced wall time, per thread).
pub fn layer_self_times(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut by_layer = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer()).or_insert(0.0) += t;
    }
    let wall = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur)
        .sum();
    (by_layer, wall)
}

/// Median duration in seconds of the spans named `name` (0 if none).
pub fn median_dur(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect();
    crate::harness::median(&d)
}

/// Writes the spans as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"thread\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            s.id,
            s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.thread,
            s.name,
            s.start * 1e6,
            s.end * 1e6,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            thread: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_covered_children() {
        let spans = vec![
            sp(1, None, "bench.root", 0.0, 10.0),
            sp(2, Some(1), "core.run", 1.0, 4.0),
            sp(3, Some(1), "core.run", 3.0, 6.0), // overlaps the previous child
            sp(4, Some(1), "workloads.build", 8.0, 12.0), // runs past the parent
            sp(5, Some(2), "matrix.probe", 2.0, 3.0),
        ];
        let t = self_times(&spans);
        assert!(
            (t[0] - (10.0 - 5.0 - 2.0)).abs() < 1e-12,
            "root self {}",
            t[0]
        );
        assert!((t[1] - 2.0).abs() < 1e-12);
        assert!((t[2] - 3.0).abs() < 1e-12);
        assert!((t[4] - 1.0).abs() < 1e-12);
        let (layers, wall) = layer_self_times(&spans);
        assert_eq!(wall, 10.0);
        assert!((layers["core"] - 5.0).abs() < 1e-12);
        assert!((layers["bench"] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_sum_to_the_root_duration() {
        let spans = vec![
            sp(1, None, "bench.root", 0.0, 5.0),
            sp(2, Some(1), "core.new", 0.5, 1.0),
            sp(3, Some(1), "core.run", 1.0, 4.5),
            sp(4, Some(3), "matrix.probe", 2.0, 2.5),
        ];
        let total: f64 = self_times(&spans).iter().sum();
        assert!((total - 5.0).abs() < 1e-12);
    }

    #[test]
    fn recorded_spans_nest_by_thread() {
        enable();
        span("bench.test_root", || {
            span("core.test_child", || std::hint::black_box(1 + 1));
        });
        let all = spans();
        let root = all
            .iter()
            .find(|s| s.name == "bench.test_root")
            .expect("root recorded");
        let child = all
            .iter()
            .find(|s| s.name == "core.test_child")
            .expect("child recorded");
        assert_eq!(child.parent, Some(root.id));
        assert!(child.start >= root.start && child.end <= root.end);
        assert_eq!(child.layer(), "core");
    }
}
