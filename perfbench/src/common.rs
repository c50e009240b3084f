//! Settings, seeds and helpers shared by the workloads.

use crate::reference;
use crate::report::{Checks, Measure, Outcome, LAYERS, OVERHEAD_OF};
use crate::spans::{self, Recorder};
use crate::stats;
use byom_core::ByomPipeline;
use byom_cost::{CostModel, CostRates};
use byom_gbdt::GradientBoostedTrees;
use byom_sim::{Device, SimulationResult};
use byom_trace::{ClusterSpec, Trace, TraceGenerator};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Fewest set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Set-ups continue until this many seconds have passed, so that a cheap
/// set-up is sampled often enough for a steady median.
const SETUP_SECONDS: f64 = 2.0;

/// Run `setup` at least [`SETUP_REPS`] times and until [`SETUP_SECONDS`]
/// have passed, freeing each result before the next set-up so set-ups do
/// not stack up in peak memory. Checks that every result has the same
/// `digest` and returns the last one.
pub fn repeated_setup<T>(
    checks: &mut Checks,
    mut setup: impl FnMut() -> T,
    digest: impl Fn(&T) -> u64,
) -> T {
    let start = Instant::now();
    let mut digests = Vec::new();
    let mut last = None;
    while digests.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(last.take());
        reference::sample_on(1, reference::BOUNDARY_SLICES);
        let s = setup();
        digests.push(digest(&s));
        last = Some(s);
    }
    reference::sample_on(1, reference::BOUNDARY_SLICES);
    check_same(checks, "set-up", &digests);
    last.expect("at least one set-up")
}

/// Hours of history every category model the benchmark trains itself
/// learns from (`retrain`'s models and the set-up model of
/// `online_placement` and `faulted_placement`): short enough that a run,
/// with its set-ups and at least [`MIN_PASSES`] measured passes, stays well
/// under a minute on two cores.
pub const TRAIN_HOURS: f64 = 6.0;
/// Importance categories (paper default).
pub const NUM_CATEGORIES: usize = 15;
/// Boosting rounds of every category model.
pub const GBDT_TREES: usize = 50;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds of measured passes (at least [`MIN_PASSES`] always run).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Thread budget of the parallel phases: `min(2, nproc)`.
    pub threads: usize,
}

/// Input streams derived from the run seed.
pub mod stream {
    /// Training history of a single-cluster workload.
    pub const TRAIN: u64 = 1;
    /// Test trace of a single-cluster workload.
    pub const TEST: u64 = 2;
    /// Fault plan of `faulted_placement`.
    pub const FAULTS: u64 = 3;
    /// Training history of `retrain` cluster `i` is `CLUSTER_TRAIN + i`.
    pub const CLUSTER_TRAIN: u64 = 10;
    /// Held-out trace of `retrain` cluster `i` is `CLUSTER_HELDOUT + i`.
    pub const CLUSTER_HELDOUT: u64 = 20;
}

/// The seed of input stream `stream` of run seed `seed` (splitmix64).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The BYOM pipeline with the paper's 15 categories and depth 6, trained
/// for exactly 50 rounds: without a validation split there is no early
/// stopping, so the model's size, and with it the cost of training and of
/// every prediction, does not depend on where early stopping would land for
/// a given seed.
pub fn pipeline() -> ByomPipeline {
    ByomPipeline::builder()
        .num_categories(NUM_CATEGORIES)
        .gbdt_trees(GBDT_TREES)
        .valid_fraction(0.0)
        .build()
}

/// The default cost model.
pub fn cost_model() -> CostModel {
    CostModel::new(CostRates::default())
}

/// Run `f` in a span when tracing, plainly otherwise.
pub fn span<R>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => rec.span(name, f),
        None => f(),
    }
}

/// `f`'s result and its wall time in seconds, less the time of any
/// host-speed reference slices taken meanwhile.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let reference_s = reference::spent_secs();
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    (out, secs - (reference::spent_secs() - reference_s))
}

/// Generate `hours` of `spec` from `seed`.
pub fn generate(rec: Option<&Recorder>, seed: u64, spec: &ClusterSpec, hours: f64) -> Trace {
    span(rec, "trace.generate", || {
        TraceGenerator::new(seed).generate(spec, hours * 3_600.0)
    })
}

/// Fewest measured passes of an untraced run, so that the check that passes
/// repeat bit for bit always compares at least two, however long a pass is.
pub const MIN_PASSES: usize = 2;

/// Run passes until `seconds` have elapsed, and at least [`MIN_PASSES`].
pub fn for_seconds<T>(seconds: f64, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        reference::sample_on(1, reference::BOUNDARY_SLICES);
        out.push(pass(out.len()));
    }
    reference::sample_on(1, reference::BOUNDARY_SLICES);
    out
}

/// A replay produced one outcome per job and never held more on the SSD
/// than its capacity.
pub fn check_replay(checks: &mut Checks, what: &str, result: &SimulationResult, jobs: usize) {
    checks.check(result.outcomes.len() == jobs, || {
        format!("{what}: {} outcomes for {jobs} jobs", result.outcomes.len())
    });
    checks.check(
        result.peak_ssd_occupancy_bytes <= result.ssd_capacity_bytes,
        || {
            format!(
                "{what}: peak SSD occupancy {} exceeds capacity {}",
                result.peak_ssd_occupancy_bytes, result.ssd_capacity_bytes
            )
        },
    );
}

/// Digest of a replay: savings and every job's placement.
pub fn digest_result(result: &SimulationResult) -> u64 {
    let mut h = DefaultHasher::new();
    result.policy_name.hash(&mut h);
    result.tco_savings_percent().to_bits().hash(&mut h);
    result.tcio_savings_percent().to_bits().hash(&mut h);
    result.peak_ssd_occupancy_bytes.hash(&mut h);
    for o in &result.outcomes {
        o.job_id.0.hash(&mut h);
        (o.scheduled == Device::Ssd).hash(&mut h);
        o.ssd_fraction.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Digest of a trained ensemble.
pub fn digest_model(model: &GradientBoostedTrees) -> u64 {
    digest_str(&serde_json::to_string(model).expect("models serialize"))
}

/// Digest of a string.
pub fn digest_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Digest of a trace: every job's id, arrival and size.
pub fn digest_trace(trace: &Trace) -> u64 {
    let mut h = DefaultHasher::new();
    for j in trace.iter() {
        j.id.0.hash(&mut h);
        j.arrival.to_bits().hash(&mut h);
        j.size_bytes.hash(&mut h);
    }
    h.finish()
}

/// Every element of `digests` equals the first.
pub fn check_same(checks: &mut Checks, what: &str, digests: &[u64]) {
    for (i, d) in digests.iter().enumerate().skip(1) {
        checks.check(*d == digests[0], || {
            format!("{what}: repetition {i} differs from repetition 0")
        });
    }
}

/// Fill the end-to-end metrics of an untraced run. Timings are scaled to
/// the reference host speed (see [`reference`]); the raw ones are noted on
/// stderr. `tco` is the paper method's TCO savings at the workload's
/// tightest quota; it is printed but is not an end-to-end metric (see
/// `perfbench/README.md`).
pub fn end_to_end(out: &mut Outcome, m: Measure, top1: f64, tco: f64) {
    let n = m.place_ns.len();
    let raw = m.timing_metrics(&mut out.checks);
    let (factor, slices) = reference::factor();
    check_factor(&mut out.checks, factor, slices);
    // Times shrink and rates grow by the factor; each training is scaled
    // by the factor measured around it.
    let timing: BTreeMap<&str, f64> = raw
        .iter()
        .map(|(&name, &v)| {
            let scaled = match name {
                "train_jobs_per_s" => stats::median(&m.scaled_train_jobs_per_s),
                "placements_per_s" => v * factor,
                _ => v / factor,
            };
            (name, scaled)
        })
        .collect();
    for (name, v) in &timing {
        out.set(*name, *v);
    }
    out.notes.push(format!(
        "host speed factor {factor:.4} (median of {slices} reference slices / {} ns); \
         raw timings: {}",
        reference::NOMINAL_SLICE_NS,
        raw.iter()
            .map(|(name, v)| format!("{name} {v:.6}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.set("top1_accuracy", top1);
    out.set("peak_rss_mb", crate::procfs::peak_rss_mb());
    out.notes.push(format!(
        "tco_savings_pct (paper method, tightest quota): {tco}"
    ));
    let q = stats::highest_percentile(n).map_or(0.0, |q| q as f64 / 100.0);
    out.notes.push(format!(
        "place_p50_us over {n} decisions (highest percentile with >= {} beyond: p{q}); \
         tails are medians over {} blocks of >= {} consecutive decisions: \
         p90 {:.3} us, p99 {:.3} us, p99.9 {:.3} us",
        stats::MIN_BEYOND,
        n / stats::BLOCK,
        stats::BLOCK,
        timing["place_p90_us"],
        timing["place_p99_us"],
        timing["place_p999_us"],
    ));
}

/// The speed factor rests on enough slices and is a plausible speed.
fn check_factor(checks: &mut Checks, factor: f64, slices: usize) {
    checks.check(slices >= reference::MIN_SLICES, || {
        format!(
            "{slices} reference slices, fewer than {}",
            reference::MIN_SLICES
        )
    });
    checks.check(factor.is_finite() && factor > 0.0, || {
        format!("host speed factor {factor}")
    });
}

/// The per-layer state of a traced run, filled by the workload.
#[derive(Debug, Default)]
pub struct LayerRun {
    /// Counters summed over the traced passes; reported per pass.
    pub counts: BTreeMap<&'static str, f64>,
    /// Traced passes made.
    pub passes: usize,
    /// Thread budget of the measured phase.
    pub threads: usize,
    /// Pool tasks executed during the traced passes.
    pub tasks: usize,
    /// Process CPU seconds used during the traced passes.
    pub cpu_secs: f64,
    /// Wall seconds of the traced passes.
    pub wall: f64,
}

impl LayerRun {
    /// Add to a per-pass counter.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Run one traced pass (span `bench.pass`, run id = pass number),
    /// accounting its wall time, CPU time and pool tasks.
    pub fn pass<T>(&mut self, rec: &Recorder, pass: impl FnOnce(&mut Self) -> T) -> T {
        self.passes += 1;
        rec.set_run(self.passes as u32);
        let tasks = byom_exec::pool_tasks_executed();
        let cpu = crate::procfs::cpu_secs();
        let start = Instant::now();
        let out = rec.span("bench.pass", || pass(self));
        self.wall += start.elapsed().as_secs_f64();
        self.cpu_secs += crate::procfs::cpu_secs() - cpu;
        self.tasks += byom_exec::pool_tasks_executed().saturating_sub(tasks);
        out
    }
}

/// Alternate untraced and traced passes until `seconds` have elapsed and
/// each has run at least once, so neither side gets all the warm caches.
pub fn alternate<A, B>(
    seconds: f64,
    mut untraced: impl FnMut() -> A,
    mut traced: impl FnMut() -> B,
) -> (Vec<A>, Vec<B>) {
    let start = Instant::now();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    while b.is_empty() || start.elapsed().as_secs_f64() < seconds {
        if a.len() <= b.len() {
            a.push(untraced());
        } else {
            b.push(traced());
        }
    }
    (a, b)
}

/// Span names whose total time is reported per pass, and their metric.
const SPAN_SECS: [(&str, &str); 18] = [
    ("trace.encode", "trace.encode_s"),
    ("cost.cost_trace", "cost.cost_trace_s"),
    ("labels.fit", "labels.fit_s"),
    ("labels.label_all", "labels.label_all_s"),
    ("gbdt.bin", "gbdt.bin_s"),
    ("gbdt.train", "gbdt.train_s"),
    ("policies.ml_baseline.train", "policies.ml_baseline.train_s"),
    ("solver.oracle_solve.tco", "solver.oracle_solve_s.tco"),
    ("solver.oracle_solve.tcio", "solver.oracle_solve_s.tcio"),
    ("chaos.apply_trace_faults", "chaos.apply_s"),
    ("sim.run.first_fit", "sim.run_s.first_fit"),
    ("sim.run.heuristic", "sim.run_s.heuristic"),
    ("sim.run.ml_baseline", "sim.run_s.ml_baseline"),
    ("sim.run.adaptive_hash", "sim.run_s.adaptive_hash"),
    ("sim.run.adaptive_ranking", "sim.run_s.adaptive_ranking"),
    ("sim.run.oracle_tcio", "sim.run_s.oracle_tcio"),
    ("sim.run.oracle_tco", "sim.run_s.oracle_tco"),
    ("sim.run.ladder_ranking", "sim.run_s.ladder_ranking"),
];

/// The span name of a simulator run of the policy named `policy`.
pub fn sim_span(policy: &str) -> &'static str {
    match policy {
        "FirstFit" => "sim.run.first_fit",
        "Heuristic" => "sim.run.heuristic",
        "ML Baseline" => "sim.run.ml_baseline",
        "Adaptive Hash" => "sim.run.adaptive_hash",
        "Adaptive Ranking" => "sim.run.adaptive_ranking",
        "Oracle TCIO" => "sim.run.oracle_tcio",
        "Oracle TCO" => "sim.run.oracle_tco",
        "Ladder Ranking" => "sim.run.ladder_ranking",
        _ => "sim.run.other",
    }
}

/// Count a replay's decisions into the `sim.*` counters.
pub fn count_replay(t: &mut LayerRun, result: &SimulationResult) {
    t.add("sim.runs", 1.0);
    t.add("sim.jobs_to_ssd", result.jobs_scheduled_to_ssd() as f64);
    t.add("sim.jobs_spilled", result.jobs_spilled() as f64);
}

fn p50_us(mut ns: Vec<u64>) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    stats::percentile(&ns, 5_000) as f64 / 1e3
}

/// Fill the per-layer metrics of a traced run and write its spans out.
pub fn per_layer(
    out: &mut Outcome,
    rec: &Recorder,
    t: LayerRun,
    untraced: Measure,
    traced: Measure,
    workload: &str,
) {
    let all = rec.spans();
    let setup_spans = spans::select(&all, |s| s.run == 0);
    let pass_spans = spans::select(&all, |s| s.run > 0);
    let k = t.passes.max(1) as f64;

    out.set(
        "trace.generate_s",
        spans::total_secs(&setup_spans, "trace.generate"),
    );
    for (name, metric) in SPAN_SECS {
        out.set(metric, spans::total_secs(&pass_spans, name) / k);
    }
    let predict = spans::durations_ns(&pass_spans, "gbdt.predict");
    out.set("gbdt.predict_calls", predict.len() as f64 / k);
    out.set("gbdt.predict_p50_us", p50_us(predict));
    let place_self = spans::self_ns_of(&pass_spans, "core.place");
    out.set("core.place_calls", place_self.len() as f64 / k);
    out.set("core.place_self_p50_us", p50_us(place_self));
    out.set(
        "trace.encode_rows",
        spans::durations_ns(&pass_spans, "trace.encode").len() as f64 / k,
    );
    let self_times = spans::layer_self_times(&pass_spans);
    for layer in LAYERS {
        out.set(
            format!("self_s.{layer}"),
            self_times.get(layer).copied().unwrap_or(0.0) / k,
        );
    }

    let setup_counters = ["trace.jobs", "trace.cache_hit_ratio"];
    for (&name, &v) in &t.counts {
        if setup_counters.contains(&name) {
            out.set(name, v);
        } else {
            out.add(name, v / k);
        }
    }
    let get = |out: &Outcome, n: &str| out.metrics.get(n).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let spill = ratio(get(out, "sim.jobs_spilled"), get(out, "sim.jobs_to_ssd"));
    out.set("sim.spill_ratio", spill);
    out.set("exec.tasks", t.tasks as f64 / k);
    out.set("exec.threads", t.threads as f64);
    out.set(
        "exec.cpu_util",
        ratio(t.cpu_secs, t.wall * t.threads as f64),
    );

    let mut scratch = Checks::default();
    let before = untraced.timing_metrics(&mut scratch);
    out.set("place.samples", untraced.place_ns.len() as f64);
    out.set("place.p99_us", before["place_p99_us"]);
    out.set("place.p999_us", before["place_p999_us"]);
    let after = traced.timing_metrics(&mut scratch);
    for name in OVERHEAD_OF {
        out.set(format!("overhead.{name}"), after[name] - before[name]);
    }

    let path = std::path::Path::new(".bench_out").join(format!("{workload}.spans.tsv"));
    match rec.write_tsv(&path) {
        Ok(()) => out
            .notes
            .push(format!("{} spans written to {}", all.len(), path.display())),
        Err(e) => out.checks.check(false, || format!("writing spans: {e}")),
    }
}
