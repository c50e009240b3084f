//! Parallel-vs-sequential wall-clock benchmarks for the two fan-out levels:
//! GBDT category-model training (per-class trees within each boosting round)
//! and the per-cluster experiment sweep.
//!
//! Run with `cargo bench --bench parallel`. On a machine with 4+ cores the
//! parallel configurations should show a >= 2x speedup over `parallelism = 1`;
//! on a single-core machine both configurations collapse to the same inline
//! execution. Set `BYOM_BENCH_QUICK=1` to shrink the workload for a fast
//! smoke run.
//!
//! Both levels produce bit-identical results regardless of parallelism (see
//! `tests/parallel_equivalence.rs`), so these benchmarks measure pure
//! scheduling gains.

use byom_bench::{run_clusters_parallel, ExperimentContext, ExperimentParams};
use byom_core::ByomPipeline;
use byom_cost::{CostModel, CostRates};
use byom_trace::{ClusterSpec, TraceGenerator};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

fn quick() -> bool {
    std::env::var("BYOM_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Default experiment parameters (50 GBDT trees), shrunk in quick mode.
fn bench_params() -> ExperimentParams {
    if quick() {
        ExperimentParams {
            train_hours: 2.0,
            test_hours: 1.0,
            num_categories: 4,
            gbdt_trees: 8,
            ..Default::default()
        }
    } else {
        ExperimentParams::default()
    }
}

fn time_once<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    criterion::black_box(f());
    start.elapsed().as_secs_f64()
}

/// GBDT training on the default experiment's training trace: 50 boosting
/// rounds over `num_categories` classes, sequential vs all cores.
fn bench_gbdt_training(c: &mut Criterion) {
    let params = bench_params();
    let spec = ClusterSpec::balanced(0);
    let train =
        TraceGenerator::new(params.train_seed).generate_cached(&spec, params.train_hours * 3600.0);
    let cost_model = CostModel::new(CostRates::default());
    let train_with = |threads: usize| {
        byom_exec::install(threads, || {
            ByomPipeline::builder()
                .num_categories(params.num_categories)
                .gbdt_trees(params.gbdt_trees)
                .build()
                .train(&train, &cost_model)
                .expect("training succeeds")
        })
    };

    let mut group = c.benchmark_group("gbdt_training_50_trees");
    group.sample_size(2);
    group.bench_function("sequential", |b| b.iter(|| train_with(1)));
    group.bench_function("parallel_all_cores", |b| b.iter(|| train_with(0)));
    group.finish();

    let sequential = time_once(|| train_with(1));
    let parallel = time_once(|| train_with(0));
    println!(
        "gbdt_training_50_trees speedup: {:.2}x on {} cores ({:.2}s -> {:.2}s)\n",
        sequential / parallel.max(1e-9),
        byom_exec::current_num_threads(),
        sequential,
        parallel,
    );
}

/// The compared-methods sweep over a 4-cluster fleet: prepare each context
/// (trace generation + training) and run every method at a 5% quota.
fn bench_cluster_sweep(c: &mut Criterion) {
    let params = bench_params();
    let specs: Vec<ClusterSpec> = ClusterSpec::evaluation_fleet()
        .into_iter()
        .take(4)
        .collect();
    let sweep = |parallelism: usize| {
        run_clusters_parallel(&specs, parallelism, |i, spec| {
            let ctx = ExperimentContext::prepare(
                spec.clone(),
                ExperimentParams {
                    train_seed: params.train_seed + i as u64,
                    test_seed: params.test_seed + i as u64,
                    parallelism: 1,
                    ..params
                },
            );
            ctx.run_all_methods(0.05, false)
        })
    };

    let mut group = c.benchmark_group("cluster_sweep_4_clusters");
    group.sample_size(2);
    group.bench_function("sequential", |b| b.iter(|| sweep(1)));
    group.bench_function("parallel_all_cores", |b| b.iter(|| sweep(0)));
    group.finish();

    let sequential = time_once(|| sweep(1));
    let parallel = time_once(|| sweep(0));
    println!(
        "cluster_sweep_4_clusters speedup: {:.2}x on {} cores ({:.2}s -> {:.2}s)\n",
        sequential / parallel.max(1e-9),
        byom_exec::current_num_threads(),
        sequential,
        parallel,
    );
}

criterion_group!(benches, bench_gbdt_training, bench_cluster_sweep);
criterion_main!(benches);
