//! Tree-fit throughput of the histogram engine vs the frozen pre-engine
//! implementation (`byom_bench::legacy_tree`).
//!
//! Run with `cargo bench --bench train`. The workload is the paper-default
//! tree shape (depth 6, 64 bins) on a synthetic multi-feature regression
//! problem. Measured configurations:
//!
//! * `legacy_row_major` — the pre-engine fit: row-major bins, every node
//!   rebuilds its histograms from its rows;
//! * `engine_subtraction` — `Tree::fit` under `byom_exec::install(1, ..)`:
//!   column-major bins, histogram pool, build the smaller child and derive
//!   the sibling as `parent − child`;
//! * `engine_subtraction_parallel` — the same fit under
//!   `byom_exec::install(0, ..)`, with column-parallel histogram fills on
//!   the ambient budget (all cores unless `BYOM_THREADS` says otherwise).
//!
//! The engine rows include score harvesting: `Tree::fit` also records the
//! leaf value of every row, which the legacy fit does not. The acceptance
//! target is >= 2x single-thread throughput for the engine over the legacy
//! baseline. Set `BYOM_BENCH_QUICK=1` to shrink the
//! workload for a fast smoke run.

use byom_bench::legacy_tree;
use byom_gbdt::{BinMapper, Dataset, Tree, TreeParams};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

fn quick() -> bool {
    std::env::var("BYOM_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Deterministic synthetic regression workload: `num_features` mixed-scale
/// features, a smooth nonlinear target, and dense rows (no dataset crate
/// dependency — the bench pins the tree layer alone).
fn workload(num_rows: usize, num_features: usize) -> (Dataset, Vec<f64>, Vec<f64>) {
    let mut state = 0x243F_6A88_85A3_08D3u64; // splitmix-style, fixed seed
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    let mut rows = Vec::with_capacity(num_rows);
    let mut target = Vec::with_capacity(num_rows);
    for _ in 0..num_rows {
        let row: Vec<f64> = (0..num_features)
            .map(|f| next() * (10.0 + f as f64))
            .collect();
        let y: f64 = row
            .iter()
            .enumerate()
            .map(|(f, v)| ((f + 1) as f64 * 0.37 * v).sin())
            .sum();
        rows.push(row);
        target.push(y);
    }
    let labels = vec![0usize; num_rows];
    let data = Dataset::from_rows(rows, labels).expect("synthetic rows are rectangular");
    // Squared loss at prediction 0: grad = -y, hess = 1.
    let grad: Vec<f64> = target.iter().map(|y| -y).collect();
    let hess = vec![1.0; num_rows];
    (data, grad, hess)
}

fn time_once<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    criterion::black_box(f());
    start.elapsed().as_secs_f64()
}

fn bench_tree_fit(c: &mut Criterion) {
    let (num_rows, num_features) = if quick() { (2_000, 8) } else { (20_000, 16) };
    let (data, grad, hess) = workload(num_rows, num_features);
    let mapper = BinMapper::fit(&data, 64);
    let binned = mapper.bin_dataset(&data);
    let binned_row_major = legacy_tree::bin_dataset_row_major(&mapper, &data);
    let rows: Vec<usize> = (0..num_rows).collect();
    let params = TreeParams::default(); // depth 6, the paper's tree shape

    let legacy = || {
        legacy_tree::fit_legacy(
            &binned_row_major,
            num_features,
            &mapper,
            &grad,
            &hess,
            &rows,
            params,
        )
    };
    let engine = |threads: usize| {
        byom_exec::install(threads, || {
            Tree::fit(&binned, &mapper, &grad, &hess, &rows, params)
        })
    };

    let mut group = c.benchmark_group("tree_fit_depth6");
    group.sample_size(10);
    group.bench_function("legacy_row_major", |b| b.iter(legacy));
    group.bench_function("engine_subtraction", |b| b.iter(|| engine(1)));
    group.bench_function("engine_subtraction_parallel", |b| b.iter(|| engine(0)));
    group.finish();

    // Median-of-3 single-shot timings for the printed speedup summary.
    let median = |f: &dyn Fn()| {
        let mut ts = [time_once(f), time_once(f), time_once(f)];
        ts.sort_by(|a, b| a.total_cmp(b));
        ts[1]
    };
    let t_legacy = median(&|| {
        legacy();
    });
    let t_sub = median(&|| {
        engine(1);
    });
    let t_sub_par = median(&|| {
        engine(0);
    });
    println!(
        "tree_fit_depth6 ({num_rows} rows x {num_features} features, 64 bins):\n\
         \x20 legacy_row_major            {:.1} ms\n\
         \x20 engine_subtraction          {:.1} ms ({:.2}x vs legacy, target >= 2x)\n\
         \x20 engine_subtraction_parallel {:.1} ms ({:.2}x vs legacy, {} cores)\n",
        t_legacy * 1e3,
        t_sub * 1e3,
        t_legacy / t_sub.max(1e-9),
        t_sub_par * 1e3,
        t_legacy / t_sub_par.max(1e-9),
        byom_exec::current_num_threads(),
    );
}

criterion_group!(benches, bench_tree_fit);
criterion_main!(benches);
