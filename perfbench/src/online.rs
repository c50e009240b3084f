//! `online_placement` and `faulted_placement`: one category model is trained
//! in set-up, then a 24 h test trace is replayed through the simulator, one
//! caller issuing one decision at a time (a closed loop on one thread).

use crate::common::{
    alternate, check_replay, check_same, cost_model, count_replay, derive_seed, digest_model,
    digest_result, end_to_end, for_seconds, generate, per_layer, pipeline, repeated_setup, span,
    stream, timed, LayerRun, Run, TRAIN_HOURS,
};
use crate::placement::{replay, Probe, TracedModel};
use crate::reference;
use crate::report::{Checks, Measure, Outcome};
use crate::spans::{self, Recorder};
use byom_chaos::{apply_trace_faults, FaultPlan, FaultyCategorizer, FaultyDevice};
use byom_core::{AdaptivePolicy, Categorizer, LadderConfig, TrainedByom};
use byom_sim::{PlacementPolicy, SimConfig, SimulationResult, Simulator};
use byom_trace::{ClusterSpec, Trace};

/// Hours of the replayed test trace.
const TEST_HOURS: f64 = 24.0;
/// Hours of the test trace that `top1_accuracy` is scored on.
const EVAL_HOURS: f64 = 6.0;
/// `online_placement` replays at the tightest quota of fig07 and at a
/// roomy one.
const ONLINE_QUOTAS: [f64; 2] = [0.01, 0.2];
/// The resilience experiments' quota.
const FAULT_QUOTA: f64 = 0.05;
/// Every fault surface at full strength.
const FAULT_INTENSITY: f64 = 1.0;

/// A trained model and the trace it is deployed on.
struct Setup {
    test: Trace,
    trained: TrainedByom,
    sims: Vec<Simulator>,
    generated_jobs: usize,
}

fn setup(run: &Run, rec: Option<&Recorder>, quotas: &[f64], m: &mut Measure) -> Setup {
    let (setup, secs) = timed(|| {
        let spec = ClusterSpec::balanced(0);
        let train = generate(
            rec,
            derive_seed(run.seed, stream::TRAIN),
            &spec,
            TRAIN_HOURS,
        );
        let test = generate(rec, derive_seed(run.seed, stream::TEST), &spec, TEST_HOURS);
        let cm = cost_model();
        // Trained on one thread, the workload's whole budget: a two-thread
        // training also times how busy the machine's other core is, which
        // varied far more between runs than anything single-threaded.
        let ((trained, train_s), speed) = reference::around(1, || {
            timed(|| {
                span(rec, "core.train", || {
                    byom_exec::install(1, || {
                        pipeline()
                            .train(&train, &cm)
                            .expect("training on a generated trace succeeds")
                    })
                })
            })
        });
        m.train(train.len(), train_s, train_s / speed);
        let sims = quotas
            .iter()
            .map(|&q| {
                let config = SimConfig::try_from_quota_fraction(&test, q).expect("valid quota");
                Simulator::new(config, cm)
            })
            .collect();
        Setup {
            generated_jobs: train.len() + test.len(),
            test,
            trained,
            sims,
        }
    });
    m.setup_s.push(secs);
    setup
}

/// Top-1 accuracy of the set-up model on the first `EVAL_HOURS` of the
/// test trace.
fn top1(s: &Setup, checks: &mut Checks) -> f64 {
    let start = s.test.time_span().0;
    let (heldout, _) = s.test.split_at(start + EVAL_HOURS * 3_600.0);
    let costs = cost_model().cost_trace(&heldout);
    let eval = s
        .trained
        .model()
        .evaluate(&heldout, &costs, s.trained.labeler());
    checks.check(
        eval.num_examples == heldout.len() && (0.0..=1.0).contains(&eval.top1_accuracy),
        || {
            format!(
                "evaluation covered {} of {} jobs",
                eval.num_examples,
                heldout.len()
            )
        },
    );
    eval.top1_accuracy
}

/// One pass of `online_placement`: a replay per quota, each with a fresh
/// `policy()`.
fn online_pass<P: PlacementPolicy>(
    s: &Setup,
    policy: impl Fn() -> P,
    rec: Option<&Recorder>,
    m: &mut Measure,
) -> Vec<(SimulationResult, P)> {
    let (runs, secs) = timed(|| {
        byom_exec::install(1, || {
            s.sims
                .iter()
                .map(|sim| {
                    let samples = rec.is_none().then_some(&mut m.place_ns);
                    replay(sim, &s.test, policy(), rec, samples)
                })
                .collect::<Vec<_>>()
        })
    });
    m.pass_s.push(secs);
    m.placements_per_s
        .push((s.test.len() * s.sims.len()) as f64 / secs);
    runs
}

fn results<P>(runs: Vec<(SimulationResult, P)>) -> Vec<SimulationResult> {
    runs.into_iter().map(|(r, _)| r).collect()
}

fn check_online(checks: &mut Checks, s: &Setup, passes: &[Vec<SimulationResult>]) {
    for results in passes {
        for (r, q) in results.iter().zip(ONLINE_QUOTAS) {
            check_replay(
                checks,
                &format!("Adaptive Ranking at quota {q}"),
                r,
                s.test.len(),
            );
        }
    }
    let digests: Vec<u64> = passes
        .iter()
        .map(|rs| {
            crate::common::digest_str(&format!(
                "{:?}",
                rs.iter().map(digest_result).collect::<Vec<_>>()
            ))
        })
        .collect();
    check_same(checks, "online replay results", &digests);
}

/// The `online_placement` workload.
pub fn online(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    if !run.trace {
        let mut m = Measure::default();
        let s = repeated_setup(
            &mut out.checks,
            || setup(run, None, &ONLINE_QUOTAS, &mut m),
            |s| digest_model(s.trained.model().gbdt()),
        );
        let passes = for_seconds(run.seconds, |_| {
            results(online_pass(
                &s,
                || s.trained.adaptive_ranking_policy(),
                None,
                &mut m,
            ))
        });
        check_online(&mut out.checks, &s, &passes);
        let tco = passes[0][0].tco_savings_percent();
        let top1 = top1(&s, &mut out.checks);
        end_to_end(&mut out, m, top1, tco);
        return out;
    }

    let rec = Recorder::default();
    let (mut untraced, mut traced) = (Measure::default(), Measure::default());
    let su = setup(run, None, &ONLINE_QUOTAS, &mut untraced);
    let st = setup(run, Some(&rec), &ONLINE_QUOTAS, &mut traced);
    // A second untraced set-up, so the process's cold first one does not
    // count as tracing overhead.
    setup(run, None, &ONLINE_QUOTAS, &mut untraced);
    let mut t = LayerRun {
        threads: 1,
        ..LayerRun::default()
    };
    t.add("trace.jobs", st.generated_jobs as f64);
    let (public, decomposed) = alternate(
        run.seconds,
        || {
            let policy = || su.trained.adaptive_ranking_policy();
            results(online_pass(&su, policy, None, &mut untraced))
        },
        || {
            t.pass(&rec, |t| {
                let policy = || {
                    let model = TracedModel::new(st.trained.model(), &rec);
                    AdaptivePolicy::new(model, *st.trained.adaptive_config())
                };
                let runs = online_pass(&st, policy, Some(&rec), &mut traced);
                for (result, policy) in &runs {
                    t.add("core.act_moves", policy.adaptation_trace().len() as f64);
                    count_replay(t, result);
                }
                results(runs)
            })
        },
    );
    check_online(&mut out.checks, &su, &public);
    for results in &decomposed {
        out.checks.check(results == &public[0], || {
            "traced replay (encode -> predict) differs from the public-API replay".into()
        });
    }
    traced.place_ns = spans::durations_ns(&pass_spans(&rec), "core.place");
    per_layer(&mut out, &rec, t, untraced, traced, "online_placement");
    out.set(
        "quality.tco_savings_pct",
        public[0][0].tco_savings_percent(),
    );
    out
}

/// The spans of the traced passes.
fn pass_spans(rec: &Recorder) -> Vec<spans::Span> {
    spans::select(&rec.spans(), |s| s.run > 0)
}

/// A ladder replay rebuilt from the public parts of
/// `byom_chaos::run_ladder_with`.
struct LadderRun {
    result: SimulationResult,
    jobs: usize,
    demotions: u64,
    promotions: u64,
}

fn ladder_replay<C: Categorizer>(
    s: &Setup,
    plan: &FaultPlan,
    model: C,
    rec: Option<&Recorder>,
    samples_ns: Option<&mut Vec<u64>>,
) -> LadderRun {
    let (faulted, counts) = span(rec, "chaos.apply_trace_faults", || {
        apply_trace_faults(s.test.clone(), plan)
    });
    let faulty = FaultyCategorizer::new(model, plan.model, plan.seed);
    let config = LadderConfig {
        adaptive: *s.trained.adaptive_config(),
        ..LadderConfig::default()
    };
    let mut probe = Probe::new(
        s.trained.ladder_policy_with(faulty, config),
        rec,
        samples_ns,
    );
    let mut device = FaultyDevice::new(plan.device.clone(), plan.seed);
    let mut result = span(rec, "sim.run.ladder_ranking", || {
        s.sims[0].run_with_device(&faulted, &mut probe, &mut device)
    });
    let ladder = &probe.inner;
    let report = &mut result.resilience;
    report.jobs_dropped = counts.jobs_dropped;
    report.jobs_duplicated = counts.jobs_duplicated;
    report.jobs_corrupted = counts.jobs_corrupted;
    report.features_blanked = counts.features_blanked;
    report.model_blackouts = ladder.model().blackouts();
    report.labels_flipped = ladder.model().labels_flipped();
    LadderRun {
        jobs: faulted.len(),
        demotions: ladder.health().demotions(),
        promotions: ladder.health().promotions(),
        result,
    }
}

fn faulted_pass<C: Categorizer>(
    s: &Setup,
    plan: &FaultPlan,
    model: C,
    rec: Option<&Recorder>,
    m: &mut Measure,
) -> LadderRun {
    let (run, secs) = timed(|| {
        byom_exec::install(1, || {
            let samples = rec.is_none().then_some(&mut m.place_ns);
            ladder_replay(s, plan, model, rec, samples)
        })
    });
    m.pass_s.push(secs);
    m.placements_per_s.push(run.jobs as f64 / secs);
    run
}

fn check_ladder(checks: &mut Checks, runs: &[LadderRun]) {
    for run in runs {
        check_replay(checks, "faulted ladder", &run.result, run.jobs);
        let occupancy: u64 = run.result.resilience.fallback_occupancy.iter().sum();
        checks.check(occupancy == run.result.outcomes.len() as u64, || {
            format!(
                "ladder rung occupancy sums to {occupancy}, placements {}",
                run.result.outcomes.len()
            )
        });
    }
    let digests: Vec<u64> = runs.iter().map(|r| digest_result(&r.result)).collect();
    check_same(checks, "faulted ladder results", &digests);
}

/// Count a traced ladder replay into the `sim.*`, `ladder.*` and `chaos.*`
/// counters.
fn count_ladder(t: &mut LayerRun, run: &LadderRun) {
    count_replay(t, &run.result);
    let report = &run.result.resilience;
    let rungs = [
        "ladder.rung.model",
        "ladder.rung.hash",
        "ladder.rung.heuristic",
        "ladder.rung.first_fit",
    ];
    for (name, n) in rungs.into_iter().zip(&report.fallback_occupancy) {
        t.add(name, *n as f64);
    }
    t.add("ladder.demotions", run.demotions as f64);
    t.add("ladder.promotions", run.promotions as f64);
    t.add("chaos.faults_injected", report.faults_injected() as f64);
    t.add("chaos.admission_failures", report.admission_failures as f64);
}

/// The `faulted_placement` workload.
pub fn faulted(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let plan = FaultPlan::at_intensity(derive_seed(run.seed, stream::FAULTS), FAULT_INTENSITY);
    if !run.trace {
        let mut m = Measure::default();
        let s = repeated_setup(
            &mut out.checks,
            || setup(run, None, &[FAULT_QUOTA], &mut m),
            |s| digest_model(s.trained.model().gbdt()),
        );
        let runs = for_seconds(run.seconds, |_| {
            faulted_pass(&s, &plan, s.trained.model().clone(), None, &mut m)
        });
        check_ladder(&mut out.checks, &runs);
        let public = byom_chaos::run_ladder(&s.trained, &s.sims[0], &s.test, &plan);
        out.checks.check(runs[0].result == public, || {
            "rebuilt ladder replay differs from byom_chaos::run_ladder".into()
        });
        let tco = runs[0].result.tco_savings_percent();
        let top1 = top1(&s, &mut out.checks);
        end_to_end(&mut out, m, top1, tco);
        return out;
    }

    let rec = Recorder::default();
    let (mut untraced, mut traced) = (Measure::default(), Measure::default());
    let su = setup(run, None, &[FAULT_QUOTA], &mut untraced);
    let st = setup(run, Some(&rec), &[FAULT_QUOTA], &mut traced);
    setup(run, None, &[FAULT_QUOTA], &mut untraced);
    let mut t = LayerRun {
        threads: 1,
        ..LayerRun::default()
    };
    t.add("trace.jobs", st.generated_jobs as f64);
    let (rebuilt, decomposed) = alternate(
        run.seconds,
        || faulted_pass(&su, &plan, su.trained.model().clone(), None, &mut untraced),
        || {
            t.pass(&rec, |t| {
                let model = TracedModel::new(st.trained.model(), &rec);
                let run = faulted_pass(&st, &plan, model, Some(&rec), &mut traced);
                count_ladder(t, &run);
                run
            })
        },
    );
    check_ladder(&mut out.checks, &rebuilt);
    let public = byom_chaos::run_ladder(&su.trained, &su.sims[0], &su.test, &plan);
    out.checks.check(rebuilt[0].result == public, || {
        "rebuilt ladder replay differs from byom_chaos::run_ladder".into()
    });
    for run in &decomposed {
        out.checks.check(run.result == public, || {
            "traced ladder replay (encode -> predict) differs from byom_chaos::run_ladder".into()
        });
    }
    traced.place_ns = spans::durations_ns(&pass_spans(&rec), "core.place");
    per_layer(&mut out, &rec, t, untraced, traced, "faulted_placement");
    out.set("quality.tco_savings_pct", public.tco_savings_percent());
    out
}
