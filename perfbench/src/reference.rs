//! Host-speed reference: a fixed slice of work, timed again and again
//! between and during a run's measured work, by which the run's end-to-end
//! timings are scaled.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by tens
//! of percent within minutes: while other tenants are busy, every decision,
//! training round and replay of a run takes longer, and the run-to-run
//! spread of raw timings reaches the bounds. The slice here slows down with
//! the host the same way, so a timing divided by the run's speed factor
//! (median slice time ÷ [`NOMINAL_SLICE_NS`]) moves only when the program
//! does. The slice is this package's own code, with no call into the
//! workspace crates: a change to the program never changes it, and shows
//! in full in the scaled timings.
//!
//! A slice walks a synthetic forest as large as a 50-round, 15-class,
//! depth-6 ensemble, the work that dominates a placement decision. Each
//! timed slice follows an untimed one over other rows, so it measures the
//! host's speed on warm caches rather than how much of the forest the
//! measured work evicted.
//!
//! Sampling is off until [`enable`] is called, which untraced runs do;
//! traced runs report raw timings.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// About the median slice time on the benchmark's reference machine (a
/// 2-vCPU Xeon virtual machine) while its host was quiet, so that scaled
/// timings read close to raw ones there. A fixed constant: it only sets the
/// scale.
pub const NOMINAL_SLICE_NS: f64 = 1.5e6;
/// Placement decisions between two slices during a timed replay.
pub const EVERY_DECISIONS: usize = 2_048;
/// Slices taken at each boundary between set-ups and passes.
pub const BOUNDARY_SLICES: usize = 4;
/// Fewest slices an untraced run must time for a steady median.
pub const MIN_SLICES: usize = 40;

/// Trees of the synthetic forest: 50 rounds × 15 classes.
const TREES: usize = 750;
/// Full depth-6 trees: 63 splits and 64 leaves.
const TREE_NODES: usize = 127;
const SPLITS: usize = 63;
/// Features per forest row.
const FEATURES: usize = 16;
/// Distinct forest rows; a slice walks the next [`WALK_ROWS`] of them.
const ROWS: usize = 256;
const WALK_ROWS: usize = 20;
/// The warm-up before slice `round` walks the rows of slice
/// `round + WARM_UP_OFFSET`.
const WARM_UP_OFFSET: usize = 7;

/// A split or a leaf, laid out as `byom_gbdt::Node` is (40 bytes).
#[derive(Clone, Copy)]
struct Node {
    feature: u32,
    threshold: f64,
    left: i32,
    right: i32,
    value: f64,
    _gain: f64,
}

struct Kernel {
    /// Every tree's nodes, tree after tree, root first.
    nodes: Vec<Node>,
    rows: Vec<[f64; FEATURES]>,
}

/// xorshift64: the kernel's inputs are fixed, not drawn from the run seed.
fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn unit(s: &mut u64) -> f64 {
    (next(s) >> 11) as f64 / (1u64 << 53) as f64
}

impl Kernel {
    fn new() -> Self {
        let mut s = 0x9E37_79B9_7F4A_7C15;
        let mut nodes = Vec::with_capacity(TREES * TREE_NODES);
        for _ in 0..TREES {
            for i in 0..TREE_NODES {
                let split = i < SPLITS;
                let child = |k: usize| if split { (2 * i + k) as i32 } else { -1 };
                nodes.push(Node {
                    feature: (next(&mut s) % FEATURES as u64) as u32,
                    threshold: unit(&mut s),
                    left: child(1),
                    right: child(2),
                    value: unit(&mut s) - 0.5,
                    _gain: 0.0,
                });
            }
        }
        let rows = (0..ROWS)
            .map(|_| std::array::from_fn(|_| unit(&mut s)))
            .collect();
        Kernel { nodes, rows }
    }

    /// Sum of every tree's leaf value for `row`.
    fn walk(&self, row: &[f64; FEATURES]) -> f64 {
        let mut sum = 0.0;
        for tree in self.nodes.chunks_exact(TREE_NODES) {
            let mut i = 0;
            loop {
                let node = tree[i];
                if node.left < 0 {
                    sum += node.value;
                    break;
                }
                let goes_left = row[node.feature as usize] <= node.threshold;
                i = if goes_left { node.left } else { node.right } as usize;
            }
        }
        sum
    }

    /// One slice: walk the forest for the `WALK_ROWS` rows that `round`
    /// picks; returns the sum of the walks.
    fn slice(&self, round: usize) -> f64 {
        (0..WALK_ROWS)
            .map(|k| {
                self.walk(std::hint::black_box(
                    &self.rows[(round * WALK_ROWS + k) % ROWS],
                ))
            })
            .sum()
    }
}

#[derive(Default)]
struct Samples {
    slices_ns: Vec<f64>,
    spent_ns: u128,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Slices started so far; picks each slice's rows.
static ROUND: AtomicUsize = AtomicUsize::new(0);
static KERNEL: OnceLock<Kernel> = OnceLock::new();
static SAMPLES: Mutex<Samples> = Mutex::new(Samples {
    slices_ns: Vec::new(),
    spent_ns: 0,
});

fn samples() -> std::sync::MutexGuard<'static, Samples> {
    SAMPLES.lock().unwrap_or_else(|e| e.into_inner())
}

/// Build the kernel (untimed) and start sampling.
pub fn enable() {
    KERNEL.get_or_init(Kernel::new);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Time `n` slices on each of `threads` threads at once (this one and
/// `threads - 1` more), when sampling is enabled; returns their times. Next
/// to a phase that runs on several threads, so the slices share the host
/// the way the phase does.
pub fn sample_on(threads: usize, n: usize) -> Vec<f64> {
    if !ENABLED.load(Ordering::Relaxed) {
        return Vec::new();
    }
    let kernel = KERNEL.get_or_init(Kernel::new);
    let start = Instant::now();
    let slices = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads)
            .map(|_| scope.spawn(|| time_slices(kernel, n)))
            .collect();
        let mut slices = time_slices(kernel, n);
        for other in others {
            slices.extend(other.join().expect("a reference slice thread panicked"));
        }
        slices
    });
    let mut s = samples();
    s.slices_ns.extend(&slices);
    s.spent_ns += start.elapsed().as_nanos();
    slices
}

/// Run `f` between two rounds of [`BOUNDARY_SLICES`] slices on `threads`
/// threads; returns its result and the speed factor of those slices alone
/// (1 when sampling is off), for a timing that is one long call.
pub fn around<R>(threads: usize, f: impl FnOnce() -> R) -> (R, f64) {
    let mut slices = sample_on(threads, BOUNDARY_SLICES);
    let out = f();
    slices.extend(sample_on(threads, BOUNDARY_SLICES));
    (out, speed(&slices))
}

/// Median of `slices_ns` ÷ [`NOMINAL_SLICE_NS`]; 1 for no slices.
fn speed(slices_ns: &[f64]) -> f64 {
    if slices_ns.is_empty() {
        1.0
    } else {
        crate::stats::median(slices_ns) / NOMINAL_SLICE_NS
    }
}

/// Time `n` slices, each after an untimed warm-up; nanoseconds per slice.
fn time_slices(kernel: &Kernel, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let round = ROUND.fetch_add(1, Ordering::Relaxed);
            std::hint::black_box(kernel.slice(round + WARM_UP_OFFSET));
            let start = Instant::now();
            std::hint::black_box(kernel.slice(round));
            start.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Seconds spent in slices, warm-ups included, so far;
/// [`crate::common::timed`] leaves them out.
pub fn spent_secs() -> f64 {
    samples().spent_ns as f64 / 1e9
}

/// The run's speed factor, median slice time ÷ [`NOMINAL_SLICE_NS`] (above
/// 1 on a slower host), and the slice count; 1 when no slice was timed.
pub fn factor() -> (f64, usize) {
    let s = samples();
    (speed(&s.slices_ns), s.slices_ns.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_fixed_work() {
        let kernel = Kernel::new();
        assert_eq!(kernel.slice(3).to_bits(), Kernel::new().slice(3).to_bits());
        assert_ne!(kernel.slice(3).to_bits(), kernel.slice(4).to_bits());
        assert_eq!(std::mem::size_of::<Node>(), 40);
    }

    #[test]
    fn no_factor_without_slices() {
        // Sampling is never enabled in unit tests.
        sample_on(2, 3);
        assert_eq!(around(2, || 7), (7, 1.0));
        assert_eq!(factor(), (1.0, 0));
        assert_eq!(spent_secs(), 0.0);
    }
}
