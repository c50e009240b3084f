//! Wrappers that time each placement decision from outside the library.
//!
//! [`Probe`] wraps any policy and times every `place` call, either as a
//! sample or as a span; it forwards every other call unchanged, so a wrapped
//! replay is bit-identical to an unwrapped one. [`TracedModel`] is the
//! category model taken apart into its two layer calls (feature encoding,
//! then GBDT inference), each in its own span.

use crate::common::{sim_span, span};
use crate::reference;
use crate::spans::Recorder;
use byom_core::Categorizer;
use byom_cost::JobCost;
use byom_gbdt::GradientBoostedTrees;
use byom_sim::{
    Device, JobOutcome, PlacementPolicy, ResilienceReport, SimulationResult, Simulator, SystemState,
};
use byom_trace::{FeatureEncoder, ShuffleJob, Trace};
use std::time::Instant;

/// A policy whose `place` calls are timed: as `core.place` spans when a
/// recorder is given, otherwise into `samples_ns` when that is given. Timed
/// into `samples_ns`, every [`reference::EVERY_DECISIONS`]th decision is
/// preceded, outside its timing, by a host-speed reference slice.
pub struct Probe<'a, P> {
    /// The wrapped policy.
    pub inner: P,
    samples_ns: Option<&'a mut Vec<u64>>,
    rec: Option<&'a Recorder>,
    decisions: usize,
}

impl<'a, P: PlacementPolicy> Probe<'a, P> {
    /// Wrap `inner`.
    pub fn new(inner: P, rec: Option<&'a Recorder>, samples_ns: Option<&'a mut Vec<u64>>) -> Self {
        Probe {
            inner,
            samples_ns,
            rec,
            decisions: 0,
        }
    }
}

impl<P: PlacementPolicy> PlacementPolicy for Probe<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(&mut self, job: &ShuffleJob, cost: &JobCost, state: &SystemState) -> Device {
        let inner = &mut self.inner;
        if let Some(rec) = self.rec {
            return rec.span("core.place", || inner.place(job, cost, state));
        }
        if self.samples_ns.is_some() {
            if self.decisions % reference::EVERY_DECISIONS == 0 {
                reference::sample_on(1, 1);
            }
            self.decisions += 1;
        }
        let start = Instant::now();
        let device = inner.place(job, cost, state);
        if let Some(samples) = self.samples_ns.as_mut() {
            samples.push(start.elapsed().as_nanos() as u64);
        }
        device
    }

    fn observe(&mut self, outcome: &JobOutcome) {
        self.inner.observe(outcome);
    }

    fn fill_resilience(&self, report: &mut ResilienceReport) {
        self.inner.fill_resilience(report);
    }
}

/// Replay `test` on `sim` through `policy` wrapped in a [`Probe`], in a
/// `sim.run.<policy>` span when tracing. Returns the result and the policy.
pub fn replay<P: PlacementPolicy>(
    sim: &Simulator,
    test: &Trace,
    policy: P,
    rec: Option<&Recorder>,
    samples_ns: Option<&mut Vec<u64>>,
) -> (SimulationResult, P) {
    let mut probe = Probe::new(policy, rec, samples_ns);
    let result = span(rec, sim_span(probe.name()), || sim.run(test, &mut probe));
    (result, probe.inner)
}

/// The category model as two traced layer calls: `trace.encode` turns the
/// job's features into a row, `gbdt.predict` scores the pre-encoded row.
/// It must decide exactly as `byom_core::CategoryModel` does; the benchmark
/// checks that it does.
pub struct TracedModel<'a> {
    encoder: FeatureEncoder,
    gbdt: &'a GradientBoostedTrees,
    rec: &'a Recorder,
}

impl<'a> TracedModel<'a> {
    /// Take `model` apart into its encoder and ensemble.
    pub fn new(model: &'a byom_core::CategoryModel, rec: &'a Recorder) -> Self {
        TracedModel {
            encoder: *model.encoder(),
            gbdt: model.gbdt(),
            rec,
        }
    }

    /// Build from an encoder and an ensemble trained outside a
    /// `CategoryModel`.
    pub fn from_parts(
        encoder: FeatureEncoder,
        gbdt: &'a GradientBoostedTrees,
        rec: &'a Recorder,
    ) -> Self {
        TracedModel { encoder, gbdt, rec }
    }

    fn encode(&self, job: &ShuffleJob) -> Vec<f64> {
        self.rec
            .span("trace.encode", || self.encoder.encode(&job.features))
    }

    /// Class probabilities for `job`.
    pub fn predict_proba(&self, job: &ShuffleJob) -> Vec<f64> {
        let row = self.encode(job);
        self.rec
            .span("gbdt.predict", || self.gbdt.predict_proba(&row))
    }
}

/// Index of the largest value; `max_by` keeps the last of equal maxima,
/// which is how `CategoryModel` breaks ties.
pub fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

impl Categorizer for TracedModel<'_> {
    fn name(&self) -> &str {
        "Ranking"
    }

    fn categorize(&self, job: &ShuffleJob) -> usize {
        let row = self.encode(job);
        self.rec.span("gbdt.predict", || self.gbdt.predict(&row))
    }

    fn categorize_with_confidence(&self, job: &ShuffleJob) -> (usize, f64) {
        let proba = self.predict_proba(job);
        let category = argmax(&proba);
        (category, proba.get(category).copied().unwrap_or(0.0))
    }

    fn num_categories(&self) -> usize {
        self.gbdt.num_classes()
    }
}
