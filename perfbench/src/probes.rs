//! Layer probes of the traced run: seeded replays and single-layer calls
//! on the instance a pass built, each timed from outside the library.

use crate::checks;
use crate::ops::{self, PassOut};
use crate::spans::Recorder;
use crate::workload::Inputs;
use mwsj_core::obs::{JsonlSink, MemoryFootprint, ObsHandle, ResourceReport};
use mwsj_core::{
    build_explain_report, derive_seed, find_best_value, BackendKind, Gils, GilsConfig, Ibb,
    IbbConfig, Ils, IlsConfig, Instance, LeafLayout, Sea, SeaConfig, SearchBudget, SearchContext,
    TwoStep, TwoStepConfig,
};
use mwsj_geom::Rect;
use mwsj_query::Solution;
use mwsj_rtree::{AccessCounter, RTree, RTreeParams, UniformGrid};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// GILS steps per traced pass.
const GILS_STEPS: u64 = 400_000;
/// IBB steps per traced pass.
const IBB_STEPS: u64 = 200_000;
/// Two-step: ILS steps of step one, and the cap on IBB steps of step two.
const TWO_STEP_ILS_STEPS: u64 = 50_000;
const TWO_STEP_IBB_STEPS: u64 = 1_000_000;
/// Replayed calls per probe.
const FIND_BEST_CALLS: usize = 20_000;
const WINDOW_QUERIES: usize = 50_000;
const EVALUATIONS: usize = 50_000;

type Layer = BTreeMap<&'static str, f64>;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

fn items(rects: &[Rect]) -> Vec<(Rect, u32)> {
    rects.iter().copied().zip(0u32..).collect()
}

/// Runs every probe under one `pass` span, adding layer values, checks
/// and counters to the traced pass's `out`. `scratch` is a directory the
/// event-sink probe may write to.
pub fn probe_layers(
    instance: &Instance,
    inputs: &Inputs,
    sea_generations: u64,
    seed: u64,
    scratch: &Path,
    rec: &mut Recorder,
    out: &mut PassOut,
) -> Result<(), String> {
    let objects = inputs.rects.iter().map(Vec::len).sum::<usize>() as f64;
    rec.span("pass", "probes", |rec| {
        gils_and_sea(instance, inputs, sea_generations, seed, rec, out);
        two_step(instance, inputs, derive_seed(seed, 4000), rec, out);
        ibb(instance, inputs, seed, rec, out);
        two_thread_portfolio(instance, inputs, seed, rec, out);
        let layer = &mut out.layer;
        index_build(inputs, objects, rec, layer);
        memory(instance, objects, layer);
        replays(instance, seed, rec, layer);
        let (report, s) = timed(|| rec.span("explain", "", |_| build_explain_report(instance)));
        black_box(report);
        layer.insert("core.explain.build_s", s);
        ils_variants(instance, inputs, seed, scratch, rec, out)
    })
}

/// The pass ran the portfolio on one thread; the same portfolio on two
/// threads shows what a second core buys on this host.
fn two_thread_portfolio(
    instance: &Instance,
    inputs: &Inputs,
    seed: u64,
    rec: &mut Recorder,
    out: &mut PassOut,
) {
    let one_thread_s = out.layer["core.portfolio.s"];
    let (p, restart_s) = ops::portfolio(
        instance,
        inputs,
        ops::PORTFOLIO_STEPS,
        ops::op_seed(seed, 4),
        2,
        rec,
        out,
    );
    out.layer.insert("core.portfolio.two_thread_s", p.wall_s);
    out.layer
        .insert("core.portfolio.two_thread_speedup", one_thread_s / p.wall_s);
    out.layer.insert(
        "core.portfolio.parallel_efficiency",
        restart_s / (2.0 * p.wall_s),
    );
}

/// Two-step processing as the paper's Fig. 11 runs it: ILS, then IBB
/// bounded by the ILS answer, up to a step cap. How long IBB needs depends
/// on how good the ILS answer is, so this is a layer probe, not a gated
/// end-to-end metric.
fn two_step(
    instance: &Instance,
    inputs: &Inputs,
    seed: u64,
    rec: &mut Recorder,
    out: &mut PassOut,
) {
    let pipeline = TwoStep::new(TwoStepConfig::Ils(
        IlsConfig::default(),
        SearchBudget::iterations(TWO_STEP_ILS_STEPS),
    ));
    let ibb_budget = SearchBudget::iterations(TWO_STEP_IBB_STEPS);
    let (result, s) = timed(|| {
        rec.span("search", "two_step", |_| {
            pipeline.run(instance, &ibb_budget, &mut StdRng::seed_from_u64(seed))
        })
    });
    let best = &result.best;
    out.check_best(inputs, &best.best, best.best_violations);
    out.check(checks::check_two_step(
        result.heuristic.best_violations,
        best.best_violations,
        best.proven_optimal,
    ));
    let total = result.total_stats();
    out.counters.push((
        "two_step",
        vec![
            total.steps,
            total.node_accesses,
            best.best_violations as u64,
        ],
    ));
    let layer = &mut out.layer;
    layer.insert("core.two_step.s", s);
    layer.insert(
        "core.two_step.heuristic_s",
        result.heuristic.stats.elapsed.as_secs_f64(),
    );
    layer.insert(
        "core.two_step.ibb_s",
        result
            .systematic
            .as_ref()
            .map_or(0.0, |r| r.stats.elapsed.as_secs_f64()),
    );
    layer.insert("core.two_step.steps", total.steps as f64);
    layer.insert("core.two_step.best_violations", best.best_violations as f64);
}

/// GILS and SEA, each as a series of seeded runs like the pass's ILS. Their
/// steps are cheap and memory-bound, so host contention moves their rates
/// about twice as much as ILS's: layer probes, not gated metrics.
fn gils_and_sea(
    instance: &Instance,
    inputs: &Inputs,
    sea_generations: u64,
    seed: u64,
    rec: &mut Recorder,
    out: &mut PassOut,
) {
    let gils = Gils::new(GilsConfig::default());
    let s = rec.span("search", "gils", |_| {
        ops::series(
            GILS_STEPS,
            ops::SERIES_RUNS,
            ops::op_seed(seed, 2),
            inputs,
            out,
            |budget, s| gils.run(instance, &budget, &mut StdRng::seed_from_u64(s)),
        )
    });
    ops::record_series(out, "gils", &s);
    out.layer.insert("core.gils.s", s.wall_s);
    out.layer
        .insert("core.gils.steps_per_s", s.stats.steps as f64 / s.wall_s);
    out.layer.insert(
        "core.gils.node_accesses_per_step",
        ops::per(s.stats.node_accesses, s.stats.steps),
    );
    out.layer
        .insert("core.gils.cache_hit_rate", ops::cache_hit_rate(&s.stats));

    let sea = Sea::new(SeaConfig::default_for(instance));
    let s = rec.span("search", "sea", |_| {
        ops::series(
            sea_generations,
            ops::SERIES_RUNS,
            ops::op_seed(seed, 3),
            inputs,
            out,
            |budget, s| sea.run(instance, &budget, &mut StdRng::seed_from_u64(s)),
        )
    });
    ops::record_series(out, "sea", &s);
    out.layer.insert("core.sea.s", s.wall_s);
    out.layer.insert(
        "core.sea.generations_per_s",
        s.stats.steps as f64 / s.wall_s,
    );
    out.layer.insert(
        "core.sea.node_accesses_per_generation",
        ops::per(s.stats.node_accesses, s.stats.steps),
    );
    out.layer
        .insert("core.sea.cache_hit_rate", ops::cache_hit_rate(&s.stats));
}

/// IBB asked to beat a 2-violation incumbent: it explores every assignment
/// with at most one violation, so its steps spread over the datasets
/// instead of one corner of a depth-first subtree. Its step rate still
/// depends on the data (0.61 to 1.25M steps/s across ten seeds of the exact
/// workload), so it is a layer probe, not a gated end-to-end metric.
fn ibb(instance: &Instance, inputs: &Inputs, seed: u64, rec: &mut Recorder, out: &mut PassOut) {
    let s = rec.span("search", "ibb", |_| {
        ops::series(
            IBB_STEPS,
            1,
            ops::op_seed(seed, 5),
            inputs,
            out,
            |budget, _| {
                Ibb::new(IbbConfig {
                    initial: Some(inputs.ibb_incumbent.clone()),
                    stop_at_exact: false,
                })
                .run(instance, &budget)
            },
        )
    });
    ops::record_series(out, "ibb", &s);
    out.layer.insert("core.ibb.s", s.wall_s);
    out.layer
        .insert("core.ibb.steps_per_s", s.stats.steps as f64 / s.wall_s);
    out.layer.insert(
        "core.ibb.node_accesses_per_step",
        ops::per(s.stats.node_accesses, s.stats.steps),
    );
}

/// STR bulk load, leaf freeze and uniform-grid build on the parsed
/// rectangles, per variable.
fn index_build(inputs: &Inputs, objects: f64, rec: &mut Recorder, layer: &mut Layer) {
    let (mut load_s, mut freeze_s, mut grid_s, mut grid_bytes) = (0.0, 0.0, 0.0, 0u64);
    for (v, rects) in inputs.rects.iter().enumerate() {
        let detail = format!("var{v:02}");
        let input = items(rects);
        let (tree, s) = timed(|| {
            rec.span("bulk_load", &detail, |_| {
                RTree::bulk_load_with_params(RTreeParams::default(), input)
            })
        });
        load_s += s;
        let (flat, s) = timed(|| rec.span("freeze_leaves", &detail, |_| tree.flat_leaves()));
        freeze_s += s;
        black_box((tree, flat));
        let input = items(rects);
        let (grid, s) = timed(|| rec.span("grid_build", &detail, |_| UniformGrid::build(&input)));
        grid_s += s;
        grid_bytes += grid.memory_bytes();
    }
    layer.insert("rtree.bulk.load_s", load_s);
    layer.insert("rtree.flat.freeze_s", freeze_s);
    layer.insert("rtree.grid.build_s", grid_s);
    layer.insert("rtree.grid.bytes_per_object", grid_bytes as f64 / objects);
}

/// Resource-report components of the instance, per indexed object.
fn memory(instance: &Instance, objects: f64, layer: &mut Layer) {
    let mut report = ResourceReport::new();
    instance.fill_resource_report(&mut report);
    for (prefix, name) in [
        ("rects.", "core.instance.rects_bytes_per_object"),
        ("rtree.", "core.instance.tree_bytes_per_object"),
        ("flat_leaves.", "core.instance.flat_bytes_per_object"),
    ] {
        let bytes: u64 = report
            .components()
            .iter()
            .filter(|(c, _)| c.starts_with(prefix))
            .map(|(_, b)| b)
            .sum();
        layer.insert(name, bytes as f64 / objects);
    }
}

/// Seeded replays of the kernel calls: `find_best_value` on random
/// (solution, variable) pairs, window queries with random objects of a
/// neighbouring dataset, and from-scratch solution evaluation.
fn replays(instance: &Instance, seed: u64, rec: &mut Recorder, layer: &mut Layer) {
    let n = instance.n_vars();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 2000));

    let pairs: Vec<(Solution, usize)> = (0..FIND_BEST_CALLS)
        .map(|_| (instance.random_solution(&mut rng), rng.random_range(0..n)))
        .collect();
    let mut nodes = 0u64;
    let (_, s) = timed(|| {
        rec.span("replay", "find_best_value", |_| {
            for (sol, var) in &pairs {
                black_box(find_best_value(instance, sol, *var, None, &mut nodes));
            }
        })
    });
    layer.insert(
        "rtree.multiwindow.find_best_ns",
        s * 1e9 / FIND_BEST_CALLS as f64,
    );
    layer.insert(
        "rtree.multiwindow.nodes_per_call",
        nodes as f64 / FIND_BEST_CALLS as f64,
    );

    // Window of an object of variable v against the tree of v's chain
    // neighbour, the queries WR makes.
    let windows: Vec<(Rect, usize)> = (0..WINDOW_QUERIES)
        .map(|_| {
            let v = rng.random_range(0..n);
            let target = if v + 1 < n { v + 1 } else { v - 1 };
            (
                instance.rect(v, rng.random_range(0..instance.cardinality(v))),
                target,
            )
        })
        .collect();
    let counter = AccessCounter::new();
    let (_, s) = timed(|| {
        rec.span("replay", "window", |_| {
            for (w, target) in &windows {
                black_box(instance.tree(*target).window_counted(w, &counter).count());
            }
        })
    });
    layer.insert("rtree.query.window_ns", s * 1e9 / WINDOW_QUERIES as f64);
    layer.insert(
        "rtree.query.nodes_per_window",
        counter.get() as f64 / WINDOW_QUERIES as f64,
    );

    let sols: Vec<Solution> = (0..EVALUATIONS)
        .map(|_| instance.random_solution(&mut rng))
        .collect();
    let (_, s) = timed(|| {
        rec.span("replay", "evaluate", |_| {
            for sol in &sols {
                black_box(instance.evaluate(sol).total_violations());
            }
        })
    });
    layer.insert("query.conflicts.evaluate_ns", s * 1e9 / EVALUATIONS as f64);
}

/// The pass's ILS series (same seeds, same budget) on `instance` under
/// `obs`, in a `search` span named `detail`.
fn ils_series(
    detail: &str,
    instance: &Instance,
    obs: &ObsHandle,
    inputs: &Inputs,
    seed: u64,
    rec: &mut Recorder,
    out: &mut PassOut,
) -> ops::Series {
    let ils = Ils::new(IlsConfig::default());
    rec.span("search", detail, |_| {
        let op_seed = ops::op_seed(seed, 1);
        ops::series(
            ops::ILS_STEPS,
            ops::SERIES_RUNS,
            op_seed,
            inputs,
            out,
            |budget, s| {
                let ctx = SearchContext::local(budget).with_obs(obs.clone());
                ils.search(instance, &ctx, &mut StdRng::seed_from_u64(s))
            },
        )
    })
}

/// The pass's ILS series on the paths off the default one. Observability,
/// a JSONL event sink (what `--metrics-out` costs a user) and the entry
/// leaf layout must leave every counter of the R*-tree ILS unchanged; the
/// grid backend breaks score ties its own way, so it has its own record.
fn ils_variants(
    instance: &Instance,
    inputs: &Inputs,
    seed: u64,
    scratch: &Path,
    rec: &mut Recorder,
    out: &mut PassOut,
) -> Result<(), String> {
    let mut run = |detail, instance: &Instance, obs: &ObsHandle, out: &mut PassOut| {
        ils_series(detail, instance, obs, inputs, seed, rec, out)
    };
    let off = run("ils-obs-off", instance, &ObsHandle::disabled(), out);
    ops::record_series(out, "ils", &off);

    let path = scratch.join("events.jsonl");
    let sink = Arc::new(JsonlSink::create(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    let on = run(
        "ils-jsonl-sink",
        instance,
        &ObsHandle::enabled().with_sink(sink.clone()),
        out,
    );
    sink.flush();
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    let _ = std::fs::remove_file(&path);
    ops::record_series(out, "ils", &on);
    out.layer
        .insert("obs.sink_overhead_ratio", on.wall_s / off.wall_s);
    out.layer.insert("obs.jsonl_bytes", bytes as f64);

    let entry = instance.clone().with_leaf_layout(LeafLayout::Entry);
    let s = run("ils-entry-layout", &entry, &ObsHandle::disabled(), out);
    ops::record_series(out, "ils", &s);
    out.layer.insert(
        "rtree.entry.ils_steps_per_s",
        s.stats.steps as f64 / s.wall_s,
    );

    // Last: the grid stays attached to the instance's shared datasets.
    let grid = instance.clone().with_backend(BackendKind::Grid);
    let s = run("ils-grid", &grid, &ObsHandle::disabled(), out);
    ops::record_series(out, "ils-grid", &s);
    out.layer.insert(
        "rtree.grid.ils_steps_per_s",
        s.stats.steps as f64 / s.wall_s,
    );
    Ok(())
}
