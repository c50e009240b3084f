//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into a layer's public functions from the
//! benchmark's own code. Each span holds its name, start, end, parent and
//! run id; they stay in memory until the run ends and are then written out
//! as one tab-separated file. A span's layer is its name up to the first
//! `.`, and a layer's self time is the part of its spans' intervals that no
//! child span covers.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `gbdt.train`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which set-up or pass of the benchmark the span belongs to.
    pub run: u32,
}

impl Span {
    /// The layer the span times: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    /// The innermost open span on this thread: the parent of the next one.
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    run: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            run: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Stamp spans opened from now on with `run`.
    pub fn set_run(&self, run: u32) {
        self.run.store(run, Ordering::Relaxed);
    }

    /// Run `f` inside a span named `name`, a child of this thread's
    /// innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = CURRENT.with(Cell::get);
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span list lock");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                run: self.run.load(Ordering::Relaxed),
            });
            spans.len() - 1
        };
        CURRENT.with(|c| c.set(Some(id)));
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(parent));
        self.spans.lock().expect("span list lock")[id].end_ns = end_ns;
        out
    }

    /// The innermost open span on this thread, to hand to work that runs on
    /// another thread (see [`Recorder::under`]).
    pub fn current(&self) -> Option<usize> {
        CURRENT.with(Cell::get)
    }

    /// Run `f` with `parent` as this thread's innermost open span, so spans
    /// opened by pool workers nest under the span that fanned out.
    pub fn under<R>(&self, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let saved = CURRENT.with(|c| c.replace(parent));
        let out = f();
        CURRENT.with(|c| c.set(saved));
        out
    }

    /// All spans recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Write every span as `run id parent name start_ns end_ns` lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "run\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.run, id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The spans `keep` selects, with parent links renumbered; a span whose
/// parent is dropped becomes a root.
pub fn select(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Vec<Span> {
    let mut new_id = vec![None; spans.len()];
    let mut out = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if keep(s) {
            new_id[i] = Some(out.len());
            out.push(Span {
                parent: s.parent.and_then(|p| new_id[p]),
                ..s.clone()
            });
        }
    }
    out
}

/// Self time of every span in seconds: its duration minus the union of its
/// children's intervals (clipped to the span). Children may overlap when
/// they ran on different threads.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 * 1e-9
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += t;
    }
    out
}

/// Total duration of the spans named `name`, in seconds.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Per-span self time in nanoseconds of every span named `name`.
pub fn self_ns_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| (t * 1e9).round() as u64)
        .collect()
}

/// Duration in nanoseconds of every span named `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("sim.run", 0, 100, None),
            span("core.place", 10, 40, Some(0)),
            span("gbdt.predict", 15, 35, Some(1)),
            span("core.place", 50, 60, Some(0)),
        ];
        let t: Vec<u64> = self_times(&spans)
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(t, vec![60, 10, 20, 10]);
        let layers = layer_self_times(&spans);
        assert_eq!((layers["sim"] * 1e9).round(), 60.0);
        assert_eq!((layers["core"] * 1e9).round(), 20.0);
        assert_eq!((layers["gbdt"] * 1e9).round(), 20.0);
        assert_eq!(self_ns_of(&spans, "core.place"), vec![10, 10]);
        assert_eq!(durations_ns(&spans, "core.place"), vec![30, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two children ran in parallel (overlap 30..50) and one ran past the
        // parent's end: covered = [20, 80) = 60 of the parent's 80.
        let spans = vec![
            span("bench.pass", 0, 80, None),
            span("sim.run", 20, 50, Some(0)),
            span("sim.run", 30, 70, Some(0)),
            span("sim.run", 60, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!((t[0] * 1e9).round(), 20.0);
        assert_eq!((total_secs(&spans, "sim.run") * 1e9).round(), 100.0);
    }

    #[test]
    fn select_renumbers_parents() {
        let mut spans = vec![
            span("bench.setup", 0, 10, None),
            span("trace.generate", 1, 9, Some(0)),
            span("bench.pass", 20, 40, None),
            span("sim.run", 21, 39, Some(2)),
        ];
        spans[2].run = 1;
        spans[3].run = 1;
        let passes = select(&spans, |s| s.run > 0);
        assert_eq!(passes.len(), 2);
        assert_eq!(passes[0].parent, None);
        assert_eq!(passes[1].parent, Some(0));
        let orphans = select(&spans, |s| s.name != "bench.setup");
        assert_eq!(orphans[0].parent, None);
        assert_eq!(orphans[2].parent, Some(1));
    }

    #[test]
    fn recorder_nests_spans_and_adopts_parents_across_threads() {
        let rec = Recorder::default();
        rec.set_run(3);
        rec.span("bench.pass", || {
            rec.span("gbdt.train", || ());
            let parent = rec.current();
            std::thread::scope(|s| {
                s.spawn(|| rec.under(parent, || rec.span("sim.run", || ())));
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert_eq!(spans[1].layer(), "gbdt");
        assert_eq!(rec.current(), None);
    }
}
