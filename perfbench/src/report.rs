//! Metric catalogs, output checks, and the result line.

use crate::stats::{self, P90, P99, P999};
use std::collections::BTreeMap;
use std::io::Write;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("train_jobs_per_s", "1/s"),
    ("top1_accuracy", "ratio"),
    ("place_p50_us", "us"),
    ("place_p90_us", "us"),
    ("placements_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose self time the traced run reports as `self_s.<layer>`.
pub const LAYERS: [&str; 11] = [
    "bench", "harness", "trace", "cost", "labels", "gbdt", "core", "sim", "policies", "solver",
    "chaos",
];

/// Timing metrics whose tracing overhead the traced run reports as
/// `overhead.<metric>` (traced minus untraced).
pub const OVERHEAD_OF: [&str; 6] = [
    "setup_s",
    "pass_s",
    "train_jobs_per_s",
    "place_p50_us",
    "place_p90_us",
    "placements_per_s",
];

/// Per-layer metrics other than `self_s.*` and `overhead.*`, printed by every
/// traced run: `(name, unit)`. A layer a workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("trace.generate_s", "s"),
    ("trace.jobs", "count"),
    ("trace.cache_hit_ratio", "ratio"),
    ("trace.encode_s", "s"),
    ("trace.encode_rows", "count"),
    ("cost.cost_trace_s", "s"),
    ("cost.jobs", "count"),
    ("labels.fit_s", "s"),
    ("labels.label_all_s", "s"),
    ("gbdt.bin_s", "s"),
    ("gbdt.train_s", "s"),
    ("gbdt.rounds", "count"),
    ("gbdt.trees", "count"),
    ("gbdt.rows", "count"),
    ("gbdt.kept_ratio", "ratio"),
    ("gbdt.predict_p50_us", "us"),
    ("gbdt.predict_calls", "count"),
    ("core.place_self_p50_us", "us"),
    ("core.place_calls", "count"),
    ("core.act_moves", "count"),
    ("sim.run_s.first_fit", "s"),
    ("sim.run_s.heuristic", "s"),
    ("sim.run_s.ml_baseline", "s"),
    ("sim.run_s.adaptive_hash", "s"),
    ("sim.run_s.adaptive_ranking", "s"),
    ("sim.run_s.oracle_tcio", "s"),
    ("sim.run_s.oracle_tco", "s"),
    ("sim.run_s.ladder_ranking", "s"),
    ("sim.runs", "count"),
    ("sim.jobs_to_ssd", "count"),
    ("sim.jobs_spilled", "count"),
    ("sim.spill_ratio", "ratio"),
    ("policies.ml_baseline.train_s", "s"),
    ("policies.ml_baseline.train_calls", "count"),
    ("policies.ml_baseline.useful_ratio", "ratio"),
    ("solver.oracle_solve_s.tco", "s"),
    ("solver.oracle_solve_s.tcio", "s"),
    ("solver.jobs_selected", "count"),
    ("exec.tasks", "count"),
    ("exec.threads", "count"),
    ("exec.cpu_util", "ratio"),
    ("chaos.apply_s", "s"),
    ("chaos.faults_injected", "count"),
    ("chaos.admission_failures", "count"),
    ("ladder.rung.model", "count"),
    ("ladder.rung.hash", "count"),
    ("ladder.rung.heuristic", "count"),
    ("ladder.rung.first_fit", "count"),
    ("ladder.demotions", "count"),
    ("ladder.promotions", "count"),
    ("place.samples", "count"),
    ("place.p99_us", "us"),
    ("place.p999_us", "us"),
    ("quality.tco_savings_pct", "%"),
];

/// Every per-layer metric in print order, with its unit.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(LAYERS.iter().map(|l| (format!("self_s.{l}"), "s")));
    for name in OVERHEAD_OF {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("s", |&(_, u)| u);
        out.push((format!("overhead.{name}"), unit));
    }
    out
}

/// Output checks: each compares a result against a fact established
/// independently of the number being timed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed, with what failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Timings gathered over a run's set-ups and passes.
#[derive(Debug, Default)]
pub struct Measure {
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall time of each measured pass.
    pub pass_s: Vec<f64>,
    /// Training-trace jobs per second of category-model training, one
    /// value per set-up or pass.
    pub train_jobs_per_s: Vec<f64>,
    /// The same rates with each training's time scaled to the reference
    /// host speed by the factor measured around it (see
    /// [`crate::reference::around`]).
    pub scaled_train_jobs_per_s: Vec<f64>,
    /// Wall time of every timed placement decision.
    pub place_ns: Vec<u64>,
    /// Placements per second of replay wall time, one value per pass.
    pub placements_per_s: Vec<f64>,
}

impl Measure {
    /// Record trainings on `jobs` jobs in all that took `secs`, or
    /// `scaled_secs` at the reference host speed.
    pub fn train(&mut self, jobs: usize, secs: f64, scaled_secs: f64) {
        self.train_jobs_per_s.push(jobs as f64 / secs);
        self.scaled_train_jobs_per_s.push(jobs as f64 / scaled_secs);
    }

    /// The timing metrics: medians over set-ups and passes, the median of
    /// all placement decisions, and the median over blocks of
    /// [`stats::BLOCK`] consecutive decisions of each block's p90, p99 and
    /// p99.9.
    pub fn timing_metrics(&self, checks: &mut Checks) -> BTreeMap<&'static str, f64> {
        let n = self.place_ns.len();
        let tail = |q| stats::block_percentile(&self.place_ns, stats::BLOCK, q);
        let (p90, p99, p999) = (tail(P90), tail(P99), tail(P999));
        checks.check(p999.is_some(), || {
            format!("a block p99.9 needs >= {} decisions, got {n}", stats::BLOCK)
        });
        let mut sorted = self.place_ns.clone();
        sorted.sort_unstable();
        let p50 = if n == 0 {
            0.0
        } else {
            stats::percentile(&sorted, 5_000) as f64
        };
        BTreeMap::from([
            ("setup_s", stats::median(&self.setup_s)),
            ("pass_s", stats::median(&self.pass_s)),
            ("train_jobs_per_s", stats::median(&self.train_jobs_per_s)),
            ("place_p50_us", p50 / 1e3),
            ("place_p90_us", p90.map_or(0.0, |(t, _)| t / 1e3)),
            ("place_p99_us", p99.map_or(0.0, |(t, _)| t / 1e3)),
            ("place_p999_us", p999.map_or(0.0, |(t, _)| t / 1e3)),
            ("placements_per_s", stats::median(&self.placements_per_s)),
        ])
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// Metric values by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Set a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Add to a metric (starting from 0).
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.metrics.entry(name.into()).or_insert(0.0) += value;
    }

    /// Print the table to stderr and the result line to stdout; returns
    /// whether every check passed.
    pub fn emit(mut self, catalog: &[(String, &str)], require_all: bool) -> bool {
        let mut err = std::io::stderr().lock();
        for note in &self.notes {
            let _ = writeln!(err, "{note}");
        }
        let mut json = Vec::new();
        for (name, unit) in catalog {
            let value = self.metrics.get(name).copied();
            let ok = value.is_some_and(f64::is_finite);
            if require_all || value.is_some() {
                self.checks
                    .check(ok, || format!("metric {name} missing or not finite"));
            }
            // `+ 0.0` turns an empty sum's -0.0 into 0.0.
            let value = value.filter(|v| v.is_finite()).unwrap_or(0.0) + 0.0;
            let _ = writeln!(err, "  {name:<36} {value:>16.6} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        for f in &self.checks.failures {
            let _ = writeln!(err, "CHECK FAILED: {f}");
        }
        let correct = self.checks.failures.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.attempted,
            self.checks.failures.len(),
            json.join(", ")
        );
        correct
    }
}

/// A finite float as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer_catalog().into_iter().map(|(n, _)| n));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n}"
            );
        }
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse_value(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(serde_json::Value::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| match m.get(k) {
                            Some(serde_json::Value::Str(s)) => s.clone(),
                            other => panic!("{key}.{k}: {other:?}"),
                        };
                        (s("name"), s("unit"))
                    })
                    .collect(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_catalog()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1234567891234), "0.1234567891234");
        assert_eq!(json_number(1e-12), "0.000000000001");
    }
}
