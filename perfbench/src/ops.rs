//! The measured operations of one pass, each a call (or a fixed-budget
//! series of calls) into the library's public API.
//!
//! A pass starts with the cold, CLI-`solve`-equivalent solve from the CSV
//! files and then runs ILS, the ILS portfolio and the exact joins on the
//! instance that solve built. Each operation reports its wall time, the work it did, the
//! deterministic counters the run compares across passes, and the layer
//! values the traced run reports.

use crate::checks;
use crate::spans::Recorder;
use crate::workload::Inputs;
use mwsj_core::{
    derive_seed, Ils, IlsConfig, Instance, ParallelPortfolio, Pjm, PortfolioConfig, RunOutcome,
    RunStats, SearchBudget, WindowReduction,
};
use mwsj_datagen::{estimate_workload, Dataset};
use mwsj_query::{QueryGraph, Solution};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Step budgets shared by every workload; each operation runs for a few
/// hundred milliseconds at N = 100k.
const COLD_ILS_STEPS: u64 = 8_000;
pub const ILS_STEPS: u64 = 80_000;
pub const PORTFOLIO_STEPS: u64 = 150_000;
/// Restarts of the ILS portfolio.
const PORTFOLIO_RESTARTS: usize = 4;
/// Seeded runs a series splits its budget into: the rate of a heuristic
/// depends on its trajectory, so each pass averages several.
pub const SERIES_RUNS: u64 = 8;

/// The seed stream of operation `k` of a pass.
pub fn op_seed(seed: u64, k: usize) -> u64 {
    derive_seed(seed, 1000 + k)
}

/// Everything one pass measured and checked.
#[derive(Debug, Default)]
pub struct PassOut {
    /// End-to-end values by metric name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Layer values by metric name (reported from traced passes).
    pub layer: BTreeMap<&'static str, f64>,
    /// Deterministic counters per operation, compared across passes.
    pub counters: Vec<(&'static str, Vec<u64>)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Wall time of the whole pass.
    pub wall_s: f64,
}

impl PassOut {
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    pub fn check_best(&mut self, inputs: &Inputs, sol: &Solution, violations: usize) {
        self.check(checks::check_reported_violations(
            &inputs.graph,
            &inputs.rects,
            sol,
            violations,
        ));
    }
}

/// Runs one pass. Returns the instance the cold solve built, so the traced
/// run can probe its layers before dropping it.
pub fn run_pass(
    inputs: &Inputs,
    seed: u64,
    rec: &mut Recorder,
) -> Result<(PassOut, Instance), String> {
    let mut out = PassOut::default();
    rec.begin_pass();
    let start = Instant::now();
    let instance = rec.span("pass", "cold", |rec| {
        cold_solve(inputs, seed, rec, &mut out)
    })?;
    rec.span("pass", "searches", |rec| {
        search_ops(&instance, inputs, seed, rec, &mut out)
    });
    out.wall_s = start.elapsed().as_secs_f64();
    Ok((out, instance))
}

/// Counters of a search outcome: steps, node accesses, best violations,
/// window-cache hits and misses.
fn run_counters(stats: &RunStats, best_violations: usize) -> Vec<u64> {
    vec![
        stats.steps,
        stats.node_accesses,
        best_violations as u64,
        stats.cache.hits(),
        stats.cache.misses(),
    ]
}

pub fn cache_hit_rate(stats: &RunStats) -> f64 {
    let (hits, misses) = (stats.cache.hits(), stats.cache.misses());
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

pub fn per(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// The cold solve, as `mwsj solve --query chain --iterations N` runs it:
/// parse every CSV file, build the instance, estimate the workload, search,
/// and format the answer.
fn cold_solve(
    inputs: &Inputs,
    seed: u64,
    rec: &mut Recorder,
    out: &mut PassOut,
) -> Result<Instance, String> {
    let start = Instant::now();
    let mut datasets = Vec::with_capacity(inputs.csv_paths.len());
    for path in &inputs.csv_paths {
        let name = path
            .file_name()
            .map_or(String::new(), |f| f.to_string_lossy().into_owned());
        let ds = rec.span("parse", &name, |_| Dataset::read_csv_file(path));
        datasets.push(ds.map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let graph = QueryGraph::chain(datasets.len());
    let instance = rec
        .span("build", "instance", |_| Instance::new(graph, datasets))
        .map_err(|e| e.to_string())?;
    let setup_s = start.elapsed().as_secs_f64();

    let n = instance.n_vars();
    let cards: Vec<usize> = (0..n).map(|v| instance.cardinality(v)).collect();
    let extents: Vec<f64> = (0..n).map(|v| instance.avg_extent(v)).collect();
    let estimate = rec.span("estimate", "", |_| {
        estimate_workload(instance.graph(), &cards, &extents)
    });
    black_box(&estimate);

    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0));
    let outcome = rec.span("search", "ils", |_| {
        Ils::new(IlsConfig::default()).run(
            &instance,
            &SearchBudget::iterations(COLD_ILS_STEPS),
            &mut rng,
        )
    });
    let answer = rec.span("emit", "", |_| format_answer(&instance, &outcome));
    black_box(answer);
    let cold_solve_s = start.elapsed().as_secs_f64();

    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("cold_solve_s", cold_solve_s);
    if let Some(bytes) = crate::host::peak_rss_bytes() {
        out.e2e.insert("peak_rss_mb", bytes as f64 / 1e6);
    }
    out.check_best(inputs, &outcome.best, outcome.best_violations);
    out.counters.push((
        "cold",
        run_counters(&outcome.stats, outcome.best_violations),
    ));
    Ok(instance)
}

/// The two lines `mwsj solve` prints for its answer.
fn format_answer(instance: &Instance, outcome: &RunOutcome) -> String {
    format!(
        "best solution: {} (similarity {:.3}, {} of {} conditions violated)\n\
         stats: {:?} elapsed, {} steps, {} node accesses, {} local maxima\n",
        outcome.best,
        outcome.best_similarity,
        outcome.best_violations,
        instance.graph().edge_count(),
        outcome.stats.elapsed,
        outcome.stats.steps,
        outcome.stats.node_accesses,
        outcome.stats.local_maxima
    )
}

/// Totals of a series of runs that together spend one step budget.
#[derive(Debug, Default)]
pub struct Series {
    pub wall_s: f64,
    /// Sum of the runs' own `RunStats`.
    pub stats: RunStats,
    best_violations: u64,
    runs: u64,
}

impl Series {
    fn counters(&self) -> Vec<u64> {
        let mut c = run_counters(&self.stats, self.best_violations as usize);
        c.push(self.runs);
        c
    }
}

fn absorb(total: &mut RunStats, s: &RunStats) {
    total.elapsed += s.elapsed;
    total.steps += s.steps;
    total.node_accesses += s.node_accesses;
    total.cache.absorb(&s.cache);
}

/// Runs `search` with fresh derived seeds until `budget` steps are spent,
/// giving each run at most a `runs`-th of the budget. A search that finds
/// an exact solution ends early; the next seed takes over, so the
/// measured work is the same on every workload and seed.
pub fn series(
    budget: u64,
    runs: u64,
    seed: u64,
    inputs: &Inputs,
    out: &mut PassOut,
    mut search: impl FnMut(SearchBudget, u64) -> RunOutcome,
) -> Series {
    let mut total = Series {
        best_violations: u64::MAX,
        ..Series::default()
    };
    let share = budget.div_ceil(runs);
    let start = Instant::now();
    while total.stats.steps < budget {
        let steps = share.min(budget - total.stats.steps);
        let outcome = search(
            SearchBudget::iterations(steps),
            derive_seed(seed, total.runs as usize),
        );
        total.runs += 1;
        out.check_best(inputs, &outcome.best, outcome.best_violations);
        total.best_violations = total.best_violations.min(outcome.best_violations as u64);
        absorb(&mut total.stats, &outcome.stats);
        if outcome.stats.steps == 0 {
            out.check(Err(
                "a search made no progress on a positive step budget".into()
            ));
            break;
        }
    }
    total.wall_s = start.elapsed().as_secs_f64();
    total
}

fn search_ops(
    instance: &Instance,
    inputs: &Inputs,
    seed: u64,
    rec: &mut Recorder,
    out: &mut PassOut,
) {
    let ils = rec.span("search", "ils", |_| {
        series(
            ILS_STEPS,
            SERIES_RUNS,
            op_seed(seed, 1),
            inputs,
            out,
            |budget, s| {
                Ils::new(IlsConfig::default()).run(instance, &budget, &mut StdRng::seed_from_u64(s))
            },
        )
    });
    record_series(out, "ils", &ils);
    out.e2e
        .insert("ils_steps_per_s", ils.stats.steps as f64 / ils.wall_s);
    out.layer.insert("core.ils.s", ils.wall_s);
    out.layer.insert(
        "core.ils.node_accesses_per_step",
        per(ils.stats.node_accesses, ils.stats.steps),
    );
    out.layer
        .insert("core.ils.cache_hit_rate", cache_hit_rate(&ils.stats));

    let (p, restart_s) = portfolio(
        instance,
        inputs,
        PORTFOLIO_STEPS,
        op_seed(seed, 4),
        1,
        rec,
        out,
    );
    out.e2e
        .insert("portfolio_steps_per_s", p.stats.steps as f64 / p.wall_s);
    out.layer.insert("core.portfolio.s", p.wall_s);
    out.layer
        .insert("core.portfolio.overhead_s", p.wall_s - restart_s);
    exact_joins(instance, inputs, rec, out);
}

pub fn record_series(out: &mut PassOut, op: &'static str, s: &Series) {
    out.counters.push((op, s.counters()));
}

/// A 4-restart ILS portfolio on `threads` worker threads, repeated with
/// fresh master seeds until its step budget is spent. Returns the series
/// and the summed wall time of the restarts themselves.
pub fn portfolio(
    instance: &Instance,
    inputs: &Inputs,
    steps: u64,
    seed: u64,
    threads: usize,
    rec: &mut Recorder,
    out: &mut PassOut,
) -> (Series, f64) {
    let runner = ParallelPortfolio::new(
        Ils::new(IlsConfig::default()),
        PortfolioConfig::new(PORTFOLIO_RESTARTS, threads),
    );
    let mut restart_s = 0.0;
    let detail = format!("portfolio-{threads}t");
    let s = rec.span("search", &detail, |_| {
        series(steps, SERIES_RUNS, seed, inputs, out, |budget, s| {
            let result = runner.run(instance, &budget, s);
            restart_s += result
                .restarts
                .iter()
                .map(|r| r.outcome.stats.elapsed.as_secs_f64())
                .sum::<f64>();
            result.merged
        })
    });
    // Results are bit-identical at any thread count, so both runs share
    // one counter record.
    record_series(out, "portfolio", &s);
    (s, restart_s)
}

/// WR and PJM, each enumerating every exact solution.
fn exact_joins(instance: &Instance, inputs: &Inputs, rec: &mut Recorder, out: &mut PassOut) {
    let unlimited = SearchBudget::iterations(u64::MAX);
    let start = Instant::now();
    let wr = rec.span("search", "wr", |_| {
        WindowReduction::new().run(instance, &unlimited, usize::MAX)
    });
    let wr_s = start.elapsed().as_secs_f64();
    let pjm = rec.span("search", "pjm", |_| {
        Pjm::default().run(instance, &unlimited, usize::MAX)
    });
    let exact_join_s = start.elapsed().as_secs_f64();

    for (name, o) in [("WR", &wr), ("PJM", &pjm)] {
        out.check(if o.complete {
            Ok(())
        } else {
            Err(format!("{name} did not finish its enumeration"))
        });
    }
    out.check(checks::check_exact_sets(
        &inputs.graph,
        &inputs.rects,
        &inputs.planted,
        &wr.solutions,
        &pjm.solutions,
    ));
    out.counters.push((
        "exact_joins",
        vec![
            wr.stats.steps,
            wr.stats.node_accesses,
            wr.solutions.len() as u64,
            pjm.stats.steps,
            pjm.stats.node_accesses,
            pjm.solutions.len() as u64,
        ],
    ));
    out.e2e.insert("exact_join_s", exact_join_s);
    out.layer.insert("core.wr.s", wr_s);
    out.layer.insert("core.wr.steps", wr.stats.steps as f64);
    out.layer
        .insert("core.wr.node_accesses", wr.stats.node_accesses as f64);
    out.layer.insert("core.pjm.s", exact_join_s - wr_s);
    out.layer.insert("core.pjm.steps", pjm.stats.steps as f64);
    out.layer
        .insert("core.pjm.node_accesses", pjm.stats.node_accesses as f64);
}
