//! `retrain`: three clusters each train their own category model on a 6 h
//! history, score it on a 6 h held-out trace, and redeploy it on that trace.

use crate::common::{
    alternate, check_replay, check_same, cost_model, count_replay, derive_seed, digest_model,
    digest_result, digest_str, digest_trace, end_to_end, for_seconds, generate, per_layer,
    pipeline, repeated_setup, stream, timed, LayerRun, Run, NUM_CATEGORIES, TRAIN_HOURS,
};
use crate::placement::{argmax, replay, TracedModel};
use crate::reference;
use crate::report::{Checks, Measure, Outcome};
use crate::spans::{self, Recorder};
use crate::stats;
use byom_core::{AdaptiveConfig, CategoryLabeler};
use byom_gbdt::{BinMapper, Dataset, GbdtParams, GradientBoostedTrees};
use byom_sim::{SimConfig, SimulationResult, Simulator};
use byom_trace::{Archetype, ClusterSpec, Trace};
use rand::SeedableRng;

/// Hours of each held-out trace.
const HELDOUT_HOURS: f64 = 6.0;
/// Each redeployed model places its held-out trace at fig07's tightest
/// quota and at a roomy one, which also gives every pass enough decisions
/// for a steady p99.9.
const DEPLOY_QUOTAS: [f64; 2] = [0.01, 0.2];

fn clusters() -> [ClusterSpec; 3] {
    [
        ClusterSpec::balanced(0),
        ClusterSpec::skewed(1, Archetype::QueryJoin),
        ClusterSpec::specialized(3),
    ]
}

struct Cluster {
    train: Trace,
    heldout: Trace,
    sims: Vec<Simulator>,
}

fn setup(run: &Run, rec: Option<&Recorder>, m: &mut Measure) -> Vec<Cluster> {
    let (clusters, secs) = timed(|| {
        clusters()
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let i = i as u64;
                let train_seed = derive_seed(run.seed, stream::CLUSTER_TRAIN + i);
                let heldout_seed = derive_seed(run.seed, stream::CLUSTER_HELDOUT + i);
                let train = generate(rec, train_seed, spec, TRAIN_HOURS);
                let heldout = generate(rec, heldout_seed, spec, HELDOUT_HOURS);
                let sims = DEPLOY_QUOTAS
                    .iter()
                    .map(|&q| {
                        let config =
                            SimConfig::try_from_quota_fraction(&heldout, q).expect("valid quota");
                        Simulator::new(config, cost_model())
                    })
                    .collect();
                Cluster {
                    sims,
                    train,
                    heldout,
                }
            })
            .collect()
    });
    m.setup_s.push(secs);
    clusters
}

/// What one cluster's retrain produced.
#[derive(Debug, Clone, PartialEq)]
struct Retrained {
    model: GradientBoostedTrees,
    thresholds: Vec<f64>,
    top1: f64,
    deployed: Vec<SimulationResult>,
}

/// Retrain, score and redeploy through the public API.
fn public_pass(run: &Run, clusters: &[Cluster], m: &mut Measure) -> Vec<Retrained> {
    let cm = cost_model();
    let mut replay_s = 0.0;
    let mut placements = 0;
    let (mut train_jobs, mut train_secs, mut scaled_train_secs) = (0, 0.0, 0.0);
    let (out, secs) = timed(|| {
        clusters
            .iter()
            .map(|c| {
                let ((trained, train_s), speed) = reference::around(run.threads, || {
                    timed(|| {
                        byom_exec::install(run.threads, || {
                            pipeline()
                                .train(&c.train, &cm)
                                .expect("training on a generated trace succeeds")
                        })
                    })
                });
                train_jobs += c.train.len();
                train_secs += train_s;
                scaled_train_secs += train_s / speed;
                let costs = cm.cost_trace(&c.heldout);
                let eval = trained
                    .model()
                    .evaluate(&c.heldout, &costs, trained.labeler());
                let (deployed, secs) = timed(|| {
                    byom_exec::install(1, || {
                        c.sims
                            .iter()
                            .map(|sim| {
                                let policy = trained.adaptive_ranking_policy();
                                let samples = Some(&mut m.place_ns);
                                replay(sim, &c.heldout, policy, None, samples).0
                            })
                            .collect()
                    })
                });
                replay_s += secs;
                placements += c.heldout.len() * c.sims.len();
                Retrained {
                    model: trained.model().gbdt().clone(),
                    thresholds: trained.labeler().thresholds().to_vec(),
                    top1: eval.top1_accuracy,
                    deployed,
                }
            })
            .collect()
    });
    m.pass_s.push(secs);
    m.train(train_jobs, train_secs, scaled_train_secs);
    m.placements_per_s.push(placements as f64 / replay_s);
    out
}

/// The same pass with every layer call made from here, each in a span:
/// `ByomPipeline::train` becomes cost → labels → encode → `Dataset` →
/// split → `GradientBoostedTrees::train` (plus one separately timed
/// binning of the training split), and `CategoryModel::evaluate` and the
/// deployed policy become encode → predict per job.
fn traced_pass(
    run: &Run,
    clusters: &[Cluster],
    rec: &Recorder,
    t: &mut LayerRun,
    m: &mut Measure,
) -> Vec<Retrained> {
    let cm = cost_model();
    let config = pipeline().model_config();
    let params = GbdtParams {
        num_classes: config.num_categories,
        ..config.gbdt
    };
    let mut replay_s = 0.0;
    let mut placements = 0;
    let (mut train_jobs, mut train_secs) = (0, 0.0);
    let (out, secs) = timed(|| {
        clusters
            .iter()
            .map(|c| {
                let ((labeler, model), train_s) = timed(|| {
                    rec.span("core.train", || {
                        byom_exec::install(run.threads, || {
                            let costs = rec.span("cost.cost_trace", || cm.cost_trace(&c.train));
                            let labeler = rec.span("labels.fit", || {
                                CategoryLabeler::fit(&costs, NUM_CATEGORIES)
                            });
                            let rows: Vec<Vec<f64>> = c
                                .train
                                .iter()
                                .map(|j| {
                                    rec.span("trace.encode", || config.encoder.encode(&j.features))
                                })
                                .collect();
                            let labels = rec.span("labels.label_all", || labeler.label_all(&costs));
                            let data = rec.span("gbdt.dataset", || {
                                Dataset::from_rows(rows, labels).expect("rows and labels agree")
                            });
                            // `CategoryModel::train` holds out a validation
                            // split only when asked to and given >= 20 rows.
                            let (train, valid) = if config.valid_fraction > 0.0 && data.len() >= 20
                            {
                                let (train, valid) = rec.span("gbdt.split", || {
                                    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
                                    data.split(&mut rng, config.valid_fraction)
                                });
                                (train, Some(valid))
                            } else {
                                (data, None)
                            };
                            rec.span("gbdt.bin", || {
                                let mapper = BinMapper::fit(&train, params.max_bins);
                                std::hint::black_box(mapper.bin_dataset(&train));
                            });
                            let model = rec.span("gbdt.train", || {
                                GradientBoostedTrees::train(&params, &train, valid.as_ref())
                                    .expect("training on a generated trace succeeds")
                            });
                            t.add("cost.jobs", costs.len() as f64);
                            t.add("gbdt.rows", train.len() as f64);
                            t.add("gbdt.rounds", model.report().train_loss.len() as f64);
                            t.add("gbdt.trees", model.num_trees() as f64);
                            (labeler, model)
                        })
                    })
                });
                train_jobs += c.train.len();
                train_secs += train_s;

                let scorer = TracedModel::from_parts(config.encoder, &model, rec);
                let costs = rec.span("cost.cost_trace", || cm.cost_trace(&c.heldout));
                t.add("cost.jobs", costs.len() as f64);
                let truth = rec.span("labels.label_all", || labeler.label_all(&costs));
                let predicted: Vec<usize> = c
                    .heldout
                    .iter()
                    .map(|j| argmax(&scorer.predict_proba(j)))
                    .collect();
                let top1 = byom_gbdt::accuracy(&predicted, &truth);

                let adaptive = AdaptiveConfig {
                    num_categories: NUM_CATEGORIES,
                    ..AdaptiveConfig::default()
                };
                let (runs, secs) = timed(|| {
                    byom_exec::install(1, || {
                        c.sims
                            .iter()
                            .map(|sim| {
                                let policy = byom_core::AdaptivePolicy::new(
                                    TracedModel::from_parts(config.encoder, &model, rec),
                                    adaptive,
                                );
                                replay(sim, &c.heldout, policy, Some(rec), None)
                            })
                            .collect::<Vec<_>>()
                    })
                });
                replay_s += secs;
                placements += c.heldout.len() * c.sims.len();
                let mut deployed = Vec::new();
                for (result, policy) in runs {
                    t.add("core.act_moves", policy.adaptation_trace().len() as f64);
                    count_replay(t, &result);
                    deployed.push(result);
                }
                Retrained {
                    thresholds: labeler.thresholds().to_vec(),
                    model,
                    top1,
                    deployed,
                }
            })
            .collect()
    });
    m.pass_s.push(secs);
    m.train(train_jobs, train_secs, train_secs);
    m.placements_per_s.push(placements as f64 / replay_s);
    out
}

fn digest(pass: &[Retrained]) -> u64 {
    let parts: Vec<(u64, u64, u64)> = pass
        .iter()
        .map(|r| {
            (
                digest_model(&r.model),
                r.top1.to_bits(),
                digest_str(&format!(
                    "{:?}",
                    r.deployed.iter().map(digest_result).collect::<Vec<_>>()
                )),
            )
        })
        .collect();
    digest_str(&format!("{parts:?}"))
}

fn check_passes(checks: &mut Checks, clusters: &[Cluster], passes: &[Vec<Retrained>]) {
    for pass in passes {
        for (r, c) in pass.iter().zip(clusters) {
            for deployed in &r.deployed {
                check_replay(
                    checks,
                    "redeployed Adaptive Ranking",
                    deployed,
                    c.heldout.len(),
                );
            }
            checks.check((0.0..=1.0).contains(&r.top1), || {
                format!("top-1 accuracy {} outside [0, 1]", r.top1)
            });
        }
    }
    let digests: Vec<u64> = passes.iter().map(|p| digest(p)).collect();
    check_same(checks, "retrained models and savings", &digests);
}

/// The `retrain` workload.
pub fn retrain(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    if !run.trace {
        let mut m = Measure::default();
        let clusters = repeated_setup(
            &mut out.checks,
            || setup(run, None, &mut m),
            |clusters| {
                let traces: Vec<u64> = clusters
                    .iter()
                    .flat_map(|c| [digest_trace(&c.train), digest_trace(&c.heldout)])
                    .collect();
                digest_str(&format!("{traces:?}"))
            },
        );
        let passes = for_seconds(run.seconds, |_| public_pass(run, &clusters, &mut m));
        check_passes(&mut out.checks, &clusters, &passes);
        let top1: Vec<f64> = passes[0].iter().map(|r| r.top1).collect();
        let tco: Vec<f64> = passes[0]
            .iter()
            .map(|r| r.deployed[0].tco_savings_percent())
            .collect();
        end_to_end(&mut out, m, stats::mean(&top1), stats::mean(&tco));
        return out;
    }

    let rec = Recorder::default();
    let (mut untraced, mut traced) = (Measure::default(), Measure::default());
    let cu = setup(run, None, &mut untraced);
    let ct = setup(run, Some(&rec), &mut traced);
    // A second untraced set-up, so the process's cold first one does not
    // count as tracing overhead.
    setup(run, None, &mut untraced);
    let mut t = LayerRun {
        threads: run.threads,
        ..LayerRun::default()
    };
    let jobs: usize = ct.iter().map(|c| c.train.len() + c.heldout.len()).sum();
    t.add("trace.jobs", jobs as f64);
    let (public, decomposed) = alternate(
        run.seconds,
        || public_pass(run, &cu, &mut untraced),
        || t.pass(&rec, |t| traced_pass(run, &ct, &rec, t, &mut traced)),
    );
    check_passes(&mut out.checks, &cu, &public);
    for pass in &decomposed {
        for (i, (d, p)) in pass.iter().zip(&public[0]).enumerate() {
            out.checks.check(d == p, || {
                format!("cluster {i}: decomposed training, scoring or deployment differs from the public API")
            });
        }
    }
    let pass_spans = spans::select(&rec.spans(), |s| s.run > 0);
    traced.place_ns = spans::durations_ns(&pass_spans, "core.place");
    let rounds = t.counts.get("gbdt.rounds").copied().unwrap_or(0.0);
    let trees = t.counts.get("gbdt.trees").copied().unwrap_or(0.0);
    let kept = if rounds > 0.0 {
        trees / (rounds * NUM_CATEGORIES as f64)
    } else {
        0.0
    };
    let tco: Vec<f64> = public[0]
        .iter()
        .map(|r| r.deployed[0].tco_savings_percent())
        .collect();
    per_layer(&mut out, &rec, t, untraced, traced, "retrain");
    out.set("quality.tco_savings_pct", stats::mean(&tco));
    out.set("gbdt.kept_ratio", kept);
    out
}
