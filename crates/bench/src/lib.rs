//! Shared experiment harness used by the per-figure binaries and the
//! Criterion benchmarks.
//!
//! Every table and figure of the paper has a corresponding binary in
//! `src/bin/`, named after it (`fig07_quota_sweep` reproduces Figure 7,
//! `tab04_category_count` Table 4; `fig_resilience` and `ablation_labels`
//! go beyond the paper). They all build on the helpers in
//! this crate: generating train/test traces, training a BYOM deployment, and
//! running the full set of compared methods (FirstFit, Heuristic, ML
//! Baseline, Adaptive Hash, Adaptive Ranking, Oracle TCIO, Oracle TCO)
//! through the simulator at a given SSD quota.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod harness;
pub mod legacy_tree;
pub mod report;
pub mod resilience;

pub use harness::{
    run_clusters_parallel, run_quotas_parallel, ExperimentContext, ExperimentParams, MethodResult,
};
pub use report::{print_table, Table};
pub use resilience::{run_resilience_sweep, ResiliencePoint, ResilienceSweep};
