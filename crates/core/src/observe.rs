//! Glue between the search layer and `mwsj-obs`.
//!
//! The hot loops keep their plain `u64` counters in [`RunStats`], the one
//! record of a run's work; nothing else counts it. The `metrics` event's
//! snapshot is derived from finished runs' `RunStats` by [`metrics_of`]
//! where a caller reports it. Event emission (incumbent improvements, stop
//! reasons) happens at already-cold points, so a disabled [`ObsHandle`]
//! costs one branch per run, not per step.

use crate::budget::BudgetClock;
use crate::instance::Instance;
use crate::result::{RunOutcome, RunStats};
use mwsj_obs::{HistogramSnapshot, MetricsSnapshot, ObsHandle, ResourceReport, RunEvent};

/// Canonical metric names every search algorithm reports under.
pub mod metric {
    /// Counter: algorithm steps consumed (budget units).
    pub const STEPS: &str = "search.steps";
    /// Counter: ILS restarts / SEA generations.
    pub const RESTARTS: &str = "search.restarts";
    /// Counter: local maxima reached.
    pub const LOCAL_MAXIMA: &str = "search.local_maxima";
    /// Counter: R*-tree nodes visited by index-driven traversals.
    pub const NODE_ACCESSES: &str = "search.node_accesses";
    /// Counter: incumbent improvements.
    pub const IMPROVEMENTS: &str = "search.improvements";
    /// Histogram: steps per run (one record per finished run).
    pub const STEPS_PER_RUN: &str = "search.steps_per_run";
    /// Counter: window-cache queries answered without a traversal.
    pub const CACHE_HITS: &str = "cache.hits";
    /// Counter: window-cache queries that ran the index traversal.
    pub const CACHE_MISSES: &str = "cache.misses";
    /// Counter: cached results invalidated by a neighbour reassignment.
    pub const CACHE_INVALIDATIONS_REASSIGN: &str = "cache.invalidations.reassign";
    /// Counter: cached results invalidated by a penalty-version bump.
    pub const CACHE_INVALIDATIONS_PENALTY: &str = "cache.invalidations.penalty";
    /// Counter: window-cache resident bytes at run end (sums across
    /// merged restarts — the aggregate cache working set).
    pub const CACHE_BYTES: &str = "cache.bytes";

    /// Per-variable counter name, e.g. `cache.var003.hits`. `kind` is one
    /// of `hits` / `misses` / `invalidations.reassign` /
    /// `invalidations.penalty`.
    pub fn cache_var(var: usize, kind: &str) -> String {
        format!("cache.var{var:03}.{kind}")
    }
}

/// The `metrics` snapshot of a set of finished runs, named per
/// [`metric`]: one snapshot per run, folded with
/// [`MetricsSnapshot::merge`], so counters sum and
/// [`metric::STEPS_PER_RUN`] holds one sample per run. Cache counters
/// appear only for runs that used the window cache. Fold portfolio
/// restarts in seed order; the result is then independent of the thread
/// count under a step budget.
pub fn metrics_of<'a>(runs: impl IntoIterator<Item = &'a RunStats>) -> MetricsSnapshot {
    let mut total = MetricsSnapshot::default();
    for stats in runs {
        total.merge(&run_metrics(stats));
    }
    total
}

/// One run's snapshot, unsorted: [`MetricsSnapshot::merge`] sorts it.
fn run_metrics(stats: &RunStats) -> MetricsSnapshot {
    let named = |(name, value): (&str, u64)| (name.to_string(), value);
    let mut counters: Vec<(String, u64)> = [
        (metric::STEPS, stats.steps),
        (metric::RESTARTS, stats.restarts),
        (metric::LOCAL_MAXIMA, stats.local_maxima),
        (metric::NODE_ACCESSES, stats.node_accesses),
        (metric::IMPROVEMENTS, stats.improvements),
    ]
    .map(named)
    .into();
    let cache = &stats.cache;
    if !cache.per_var.is_empty() {
        counters.extend(
            [
                (metric::CACHE_HITS, cache.hits()),
                (metric::CACHE_MISSES, cache.misses()),
                (
                    metric::CACHE_INVALIDATIONS_REASSIGN,
                    cache.invalidations_reassign(),
                ),
                (
                    metric::CACHE_INVALIDATIONS_PENALTY,
                    cache.invalidations_penalty(),
                ),
                (metric::CACHE_BYTES, cache.bytes),
            ]
            .map(named),
        );
        for (var, v) in cache.per_var.iter().enumerate() {
            counters.extend(
                [
                    ("hits", v.hits),
                    ("misses", v.misses),
                    ("invalidations.reassign", v.invalidations_reassign),
                    ("invalidations.penalty", v.invalidations_penalty),
                ]
                .map(|(kind, n)| (metric::cache_var(var, kind), n)),
            );
        }
    }
    let mut steps_per_run = HistogramSnapshot::default();
    steps_per_run.record(stats.steps);
    MetricsSnapshot {
        counters,
        histograms: vec![(metric::STEPS_PER_RUN.to_string(), steps_per_run)],
    }
}

/// The `run_end` summary event of a finished outcome: its best solution's
/// quality and its [`RunStats`] totals.
pub fn run_end_event(outcome: &RunOutcome) -> RunEvent {
    RunEvent::RunEnd {
        best_violations: outcome.best_violations as u64,
        best_similarity: outcome.best_similarity,
        steps: outcome.stats.steps,
        node_accesses: outcome.stats.node_accesses,
        local_maxima: outcome.stats.local_maxima,
        improvements: outcome.stats.improvements,
        restarts: outcome.stats.restarts,
        elapsed_secs: outcome.stats.elapsed.as_secs_f64(),
        proven_optimal: outcome.proven_optimal,
    }
}

/// Emits an incumbent-improvement event (no-op without a sink).
pub(crate) fn emit_improvement(clock: &BudgetClock, violations: usize, edges: usize) {
    let obs = clock.obs();
    if !obs.has_sink() {
        return;
    }
    obs.emit(RunEvent::Improvement {
        restart: obs.restart(),
        step: clock.steps(),
        violations: violations as u64,
        similarity: 1.0 - violations as f64 / edges as f64,
        elapsed_secs: clock.elapsed().as_secs_f64(),
    });
}

/// Emits the `explain_report` estimate-vs-actual audit for a finished run
/// (no-op without a sink). Follows the `run_end` ownership rule: one
/// report per top-level run, emitted just before its `resource_report`.
pub(crate) fn emit_explain_report(obs: &ObsHandle, instance: &Instance, outcome: &RunOutcome) {
    if !obs.has_sink() {
        return;
    }
    let report = crate::explain::explain_report_for_run(instance, &outcome.stats);
    obs.emit(RunEvent::ExplainReport { report });
}

/// Emits the `resource_report` memory table for a finished run (no-op
/// without a sink). Follows the `run_end` ownership rule: one report per
/// top-level run, emitted just before its `run_end`. Components: the
/// instance's index structures (unique datasets only — self-joins share
/// one), the window cache(s) and the retained top solutions.
pub(crate) fn emit_resource_report(obs: &ObsHandle, instance: &Instance, outcome: &RunOutcome) {
    if !obs.has_sink() {
        return;
    }
    let mut report = ResourceReport::new();
    instance.fill_resource_report(&mut report);
    if outcome.stats.cache.bytes > 0 {
        report.record("window_cache", outcome.stats.cache.bytes);
    }
    report.record(
        "top_solutions",
        crate::result::solutions_bytes(&outcome.top_solutions),
    );
    // The observability layer accounts for itself: a retaining sink (the
    // flight recorder) reports its ring bytes here.
    obs.fill_sink_resources(&mut report);
    obs.emit(RunEvent::ResourceReport { report });
}

/// Emits the `run_end` summary event for a finished outcome (no-op without
/// a sink). Ownership rule: exactly **one** `run_end` per top-level run —
/// the search driver emits it for standalone runs, composites
/// ([`crate::TwoStep`], [`crate::ParallelPortfolio`]) emit one merged event
/// and mark their component runs nested instead.
pub(crate) fn emit_run_end(obs: &ObsHandle, outcome: &RunOutcome) {
    if obs.has_sink() {
        obs.emit(run_end_event(outcome));
    }
}
