//! `quota_sweep`: the fig07 experiment shape. Every compared method runs at
//! four quotas through `run_quotas_parallel`, oracles included.

use crate::common::{
    alternate, check_replay, check_same, cost_model, count_replay, derive_seed, digest_model,
    digest_str, end_to_end, for_seconds, per_layer, repeated_setup, sim_span, span, stream, timed,
    LayerRun, Run,
};
use crate::placement::{replay, TracedModel};
use crate::reference;
use crate::report::{Checks, Measure, Outcome};
use crate::spans::Recorder;
use byom_bench::{run_quotas_parallel, ExperimentContext, ExperimentParams, MethodResult};
use byom_core::AdaptivePolicy;
use byom_exec::prelude::*;
use byom_gbdt::GbdtParams;
use byom_policies::{
    CategoryHeuristic, FirstFit, LifetimeMlBaseline, LifetimeModelConfig, OraclePolicy,
};
use byom_sim::{PlacementPolicy, SimulationResult};
use byom_solver::{Oracle, OracleObjective};
use byom_trace::{cached_trace_count, clear_trace_cache, ClusterSpec, JobId, TraceGenerator};

/// fig07's tightest quota first: the savings the benchmark guards.
const QUOTAS: [f64; 4] = [0.01, 0.05, 0.2, 0.6];

/// Timed Adaptive Ranking replays per quota and pass: the 6 h test trace
/// is short, and two rounds give each run enough blocks of decisions for a
/// steady tail.
const REPLAY_ROUNDS: usize = 2;

/// Boosting rounds of the sweep's category model. `prepare` trains with
/// early stopping, which on 12 h histories keeps 21–27 rounds depending on
/// the seed; a cap just below that keeps 20 on nearly every seed, so the
/// model's size and inference cost do not vary with the seed. The ML
/// baseline trains `min(this, 40)` trees.
const SWEEP_TREES: usize = 20;

/// The methods of one sweep row, in the paper's order.
const PAPER_ORDER: [&str; 7] = [
    "FirstFit",
    "Heuristic",
    "ML Baseline",
    "Adaptive Hash",
    "Adaptive Ranking",
    "Oracle TCIO",
    "Oracle TCO",
];

fn params(run: &Run) -> ExperimentParams {
    ExperimentParams {
        train_seed: derive_seed(run.seed, stream::TRAIN),
        test_seed: derive_seed(run.seed, stream::TEST),
        gbdt_trees: SWEEP_TREES,
        parallelism: run.threads,
        ..ExperimentParams::default()
    }
}

/// Set-up: generate both traces into the (cleared) process-wide cache, then
/// `ExperimentContext::prepare`, which finds them there, so its time is the
/// category model's training plus two trace copies.
fn setup(
    run: &Run,
    rec: Option<&Recorder>,
    t: &mut LayerRun,
    m: &mut Measure,
) -> ExperimentContext {
    let params = params(run);
    let spec = ClusterSpec::balanced(0);
    let (ctx, secs) = timed(|| {
        clear_trace_cache();
        let jobs = span(rec, "trace.generate", || {
            [
                (params.train_seed, params.train_hours),
                (params.test_seed, params.test_hours),
            ]
            .iter()
            .map(|&(seed, hours)| {
                TraceGenerator::new(seed)
                    .generate_cached(&spec, hours * 3_600.0)
                    .len()
            })
            .sum::<usize>()
        });
        let cached = cached_trace_count();
        let ((ctx, prepare_s), speed) = reference::around(run.threads, || {
            timed(|| {
                span(rec, "harness.prepare", || {
                    ExperimentContext::prepare(spec.clone(), params)
                })
            })
        });
        // `prepare` asks the cache for its two traces; any it had to
        // generate show up as new entries.
        let generated = cached_trace_count().saturating_sub(cached);
        t.add("trace.jobs", jobs as f64);
        t.add(
            "trace.cache_hit_ratio",
            (2.0 - generated as f64).max(0.0) / 2.0,
        );
        m.train(ctx.train.len(), prepare_s, prepare_s / speed);
        ctx
    });
    m.setup_s.push(secs);
    ctx
}

/// Results of one sweep pass.
#[derive(Debug, Clone, PartialEq)]
struct Sweep {
    rows: Vec<Vec<MethodResult>>,
    ranking: Vec<SimulationResult>,
}

/// Replay Adaptive Ranking at every quota, `REPLAY_ROUNDS` times, with each
/// decision timed; each replay must reproduce the sweep's Adaptive Ranking
/// row.
fn ranking_replays<P: PlacementPolicy>(
    ctx: &ExperimentContext,
    policy: impl Fn() -> P,
    rec: Option<&Recorder>,
    m: &mut Measure,
) -> Vec<SimulationResult> {
    let (results, secs) = timed(|| {
        byom_exec::install(1, || {
            QUOTAS
                .iter()
                .cycle()
                .take(QUOTAS.len() * REPLAY_ROUNDS)
                .map(|&q| {
                    let samples = rec.is_none().then_some(&mut m.place_ns);
                    replay(&ctx.simulator(q), &ctx.test, policy(), rec, samples).0
                })
                .collect::<Vec<_>>()
        })
    });
    m.placements_per_s
        .push((ctx.test.len() * QUOTAS.len() * REPLAY_ROUNDS) as f64 / secs);
    results
}

/// The public sweep, then the timed Adaptive Ranking replays.
fn public_pass(run: &Run, ctx: &ExperimentContext, m: &mut Measure) -> Sweep {
    let (sweep, secs) = timed(|| {
        reference::sample_on(run.threads, reference::BOUNDARY_SLICES);
        let rows = run_quotas_parallel(ctx, &QUOTAS, true, run.threads);
        reference::sample_on(run.threads, reference::BOUNDARY_SLICES);
        let ranking = ranking_replays(ctx, || ctx.trained.adaptive_ranking_policy(), None, m);
        Sweep { rows, ranking }
    });
    m.pass_s.push(secs);
    sweep
}

/// The lifetime baseline's configuration in `ExperimentContext::run_all_methods`.
fn ml_config(ctx: &ExperimentContext) -> LifetimeModelConfig {
    LifetimeModelConfig {
        gbdt: GbdtParams {
            num_classes: 8,
            num_trees: ctx.params.gbdt_trees.min(40),
            ..GbdtParams::default()
        },
        ..LifetimeModelConfig::default()
    }
}

/// Counters of one quota's decomposed methods.
#[derive(Debug, Default)]
struct QuotaCounts {
    ml_model: u64,
    jobs_selected: f64,
    costed: f64,
    replays: Vec<(f64, f64)>,
}

/// `ExperimentContext::run_all_methods` called layer by layer, each call in
/// a span.
fn all_methods_traced(
    ctx: &ExperimentContext,
    quota: f64,
    rec: &Recorder,
) -> (Vec<MethodResult>, QuotaCounts) {
    let mut counts = QuotaCounts::default();
    let mut rows = Vec::new();
    let run = |policy: &mut dyn PlacementPolicy, counts: &mut QuotaCounts| {
        let result = rec.span(sim_span(policy.name()), || ctx.run_policy(quota, policy));
        counts.replays.push((
            result.jobs_scheduled_to_ssd() as f64,
            result.jobs_spilled() as f64,
        ));
        ctx.to_result(result)
    };
    rows.push(run(&mut FirstFit::new(), &mut counts));
    rows.push(run(&mut CategoryHeuristic::default(), &mut counts));
    let mut baseline = rec.span("policies.ml_baseline.train", || {
        LifetimeMlBaseline::train(ml_config(ctx), &ctx.train).expect("baseline trains")
    });
    counts.ml_model = digest_str(&format!("{baseline:?}"));
    rows.push(run(&mut baseline, &mut counts));
    rows.push(run(&mut ctx.trained.adaptive_hash_policy(), &mut counts));
    rows.push(run(&mut ctx.trained.adaptive_ranking_policy(), &mut counts));
    for (objective, name, solve) in [
        (
            OracleObjective::Tcio,
            "Oracle TCIO",
            "solver.oracle_solve.tcio",
        ),
        (
            OracleObjective::Tco,
            "Oracle TCO",
            "solver.oracle_solve.tco",
        ),
    ] {
        let costs = rec.span("cost.cost_trace", || ctx.cost_model.cost_trace(&ctx.test));
        counts.costed += costs.len() as f64;
        let capacity = (ctx.test.peak_space_usage() as f64 * quota) as u64;
        let solution = rec.span(solve, || Oracle::new(objective, capacity).solve(&costs));
        counts.jobs_selected += solution.num_on_ssd() as f64;
        let ids: Vec<JobId> = ctx.test.iter().map(|j| j.id).collect();
        let mut policy = OraclePolicy::from_selection(name, &ids, &solution.on_ssd);
        rows.push(run(&mut policy, &mut counts));
    }
    (rows, counts)
}

fn traced_pass(
    run: &Run,
    ctx: &ExperimentContext,
    rec: &Recorder,
    t: &mut LayerRun,
    m: &mut Measure,
) -> Sweep {
    let parent = rec.current();
    let (sweep, secs) = timed(|| {
        let per_quota: Vec<(Vec<MethodResult>, QuotaCounts)> =
            byom_exec::install(run.threads, || {
                QUOTAS[..]
                    .par_iter()
                    .with_max_threads(run.threads)
                    .map(|&q| rec.under(parent, || all_methods_traced(ctx, q, rec)))
                    .collect()
            });
        let policy = || {
            let model = TracedModel::new(ctx.trained.model(), rec);
            AdaptivePolicy::new(model, *ctx.trained.adaptive_config())
        };
        let ranking = ranking_replays(ctx, policy, Some(rec), m);
        ranking.iter().for_each(|r| count_replay(t, r));
        let mut models = Vec::new();
        let mut rows = Vec::new();
        for (row, c) in per_quota {
            models.push(c.ml_model);
            t.add("solver.jobs_selected", c.jobs_selected);
            t.add("cost.jobs", c.costed);
            for (to_ssd, spilled) in c.replays {
                t.add("sim.runs", 1.0);
                t.add("sim.jobs_to_ssd", to_ssd);
                t.add("sim.jobs_spilled", spilled);
            }
            rows.push(row);
        }
        t.add("policies.ml_baseline.train_calls", models.len() as f64);
        models.sort_unstable();
        models.dedup();
        t.add("policies.ml_baseline.distinct", models.len() as f64);
        Sweep { rows, ranking }
    });
    m.pass_s.push(secs);
    sweep
}

fn check_sweeps(checks: &mut Checks, ctx: &ExperimentContext, sweeps: &[Sweep]) {
    for s in sweeps {
        checks.check(s.rows.len() == QUOTAS.len(), || {
            format!("{} sweep rows for {} quotas", s.rows.len(), QUOTAS.len())
        });
        for (row, q) in s.rows.iter().zip(QUOTAS) {
            let names: Vec<&str> = row.iter().map(|r| r.method.as_str()).collect();
            checks.check(names == PAPER_ORDER, || {
                format!("quota {q}: methods {names:?}, expected the paper's seven in order")
            });
        }
        let rows = s.rows.iter().zip(QUOTAS).cycle();
        for (replayed, (row, q)) in s.ranking.iter().zip(rows) {
            check_replay(checks, "Adaptive Ranking replay", replayed, ctx.test.len());
            let swept = row.get(4).map(|r| r.tco_savings_percent.to_bits());
            checks.check(swept == Some(replayed.tco_savings_percent().to_bits()), || {
                format!("quota {q}: the sweep's Adaptive Ranking savings differ from a direct replay")
            });
        }
    }
    let digests: Vec<u64> = sweeps
        .iter()
        .map(|s| digest_str(&format!("{:?}", s.rows)))
        .collect();
    check_same(checks, "sweep results", &digests);
}

fn tightest_ranking_tco(s: &Sweep) -> f64 {
    s.rows[0][4].tco_savings_percent
}

fn top1(ctx: &ExperimentContext, checks: &mut Checks) -> f64 {
    let costs = cost_model().cost_trace(&ctx.test);
    let eval = ctx
        .trained
        .model()
        .evaluate(&ctx.test, &costs, ctx.trained.labeler());
    checks.check(eval.num_examples == ctx.test.len(), || {
        format!(
            "evaluation covered {} of {} jobs",
            eval.num_examples,
            ctx.test.len()
        )
    });
    eval.top1_accuracy
}

/// The `quota_sweep` workload.
pub fn quota_sweep(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut scratch = LayerRun::default();
    if !run.trace {
        let mut m = Measure::default();
        let ctx = repeated_setup(
            &mut out.checks,
            || setup(run, None, &mut scratch, &mut m),
            |c| digest_model(c.trained.model().gbdt()),
        );
        let sweeps = for_seconds(run.seconds, |_| public_pass(run, &ctx, &mut m));
        check_sweeps(&mut out.checks, &ctx, &sweeps);
        let top1 = top1(&ctx, &mut out.checks);
        end_to_end(&mut out, m, top1, tightest_ranking_tco(&sweeps[0]));
        return out;
    }

    let rec = Recorder::default();
    let (mut untraced, mut traced) = (Measure::default(), Measure::default());
    let mut t = LayerRun {
        threads: run.threads,
        ..LayerRun::default()
    };
    let cu = setup(run, None, &mut scratch, &mut untraced);
    let ct = setup(run, Some(&rec), &mut t, &mut traced);
    // A second untraced set-up, so the process's cold first one does not
    // count as tracing overhead.
    setup(run, None, &mut scratch, &mut untraced);
    let (public, decomposed) = alternate(
        run.seconds,
        || public_pass(run, &cu, &mut untraced),
        || t.pass(&rec, |t| traced_pass(run, &ct, &rec, t, &mut traced)),
    );
    check_sweeps(&mut out.checks, &cu, &public);
    for s in &decomposed {
        out.checks.check(s == &public[0], || {
            "layer-by-layer sweep differs from run_quotas_parallel".into()
        });
    }
    let calls = t
        .counts
        .get("policies.ml_baseline.train_calls")
        .copied()
        .unwrap_or(0.0);
    let distinct = t
        .counts
        .remove("policies.ml_baseline.distinct")
        .unwrap_or(0.0);
    let pass_spans: Vec<crate::spans::Span> = crate::spans::select(&rec.spans(), |s| s.run > 0);
    traced.place_ns = crate::spans::durations_ns(&pass_spans, "core.place");
    per_layer(&mut out, &rec, t, untraced, traced, "quota_sweep");
    out.set("quality.tco_savings_pct", tightest_ranking_tco(&public[0]));
    out.set(
        "policies.ml_baseline.useful_ratio",
        if calls > 0.0 { distinct / calls } else { 0.0 },
    );
    out
}
