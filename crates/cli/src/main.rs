//! `mwsj` — command-line multiway spatial join processing.
//!
//! ```text
//! mwsj generate --out rivers.csv --n 10000 --density 0.05 [--distribution uniform|clustered|skewed|zipf] [--seed 1]
//! mwsj info     --data rivers.csv
//! mwsj solve    --data a.csv --data b.csv --data c.csv --query chain
//!               [--algo ils|gils|sea|sea-hybrid|ibb|two-step] [--seconds 2] [--iterations N]
//!               [--seed 42] [--top 5] [--restarts K] [--threads T]
//!               [--backend rtree|grid]
//! mwsj join     --data a.csv --data b.csv --query 0-1 [--algo wr|st|pjm] [--limit 100]
//!               [--backend rtree|grid]
//! mwsj explain  --data a.csv --data b.csv --query chain [--backend rtree|grid] [--metrics-out est.jsonl]
//! mwsj report   run.jsonl|BENCH_label.json
//! mwsj watch    run.jsonl [--poll-ms 50] [--timeout-secs 600] [--no-tty]
//! mwsj bench    snapshot [--tier base|large] [--label ci] [--reps 3] [--out FILE]
//! mwsj bench    compare BENCH_baseline.json BENCH_ci.json [--wall-tolerance 0.25] [--wall-slack-ms 5.0]
//! mwsj hard-density --shape chain|clique|star|cycle|random --vars 5 --n 100000 [--target 1]
//! ```
//!
//! Datasets are CSV files of `min_x,min_y,max_x,max_y` rows (see
//! `mwsj-datagen`); `generate` produces them synthetically. `solve` and
//! `join` accept `--metrics-out FILE` (structured JSONL run events, see
//! `DESIGN.md` "Observability") and `solve` additionally `--trace-out
//! FILE` (the convergence trace as `trace_point` lines), `--profile-out
//! FILE` (the per-phase wall-clock breakdown as folded stacks) and
//! `--flight-recorder-out FILE` (a byte-bounded ring of the most recent
//! run events, drained after the run — see `DESIGN.md` "Resource
//! observability"); `report` validates and summarises a JSONL file. `bench
//! snapshot` runs the pinned benchmark suite into a schema-validated
//! `BENCH_<label>.json` performance snapshot, and `bench compare` is the
//! noise-aware regression gate over two such snapshots.

mod args;
mod query_spec;
mod watch;

use args::Args;
use mwsj_core::obs::{
    compare, schema, to_folded, BenchSnapshot, CompareConfig, ExplainReport, PhaseSnapshot,
    DEFAULT_WALL_SLACK_MS, DEFAULT_WALL_TOLERANCE,
};
use mwsj_core::{
    metrics_of, AnytimeSearch, BackendKind, EventSink, FanoutSink, FlightRecorder, FlushPolicy,
    Gils, GilsConfig, Ibb, IbbConfig, Ils, IlsConfig, Instance, JsonlSink, MetricsSnapshot,
    ObsHandle, ParallelPortfolio, Pjm, PortfolioConfig, RunEvent, RunOutcome, Sea, SeaConfig,
    SearchBudget, SearchContext, SynchronousTraversal, TelemetryConfig, TwoStep, TwoStepConfig,
    WindowReduction,
};
use mwsj_datagen::{Dataset, DatasetSpec, Distribution, QueryShape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroU64;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_deref() {
        Some("generate") => cmd_generate(&args),
        Some("info") => cmd_info(&args),
        Some("solve") => cmd_solve(&args),
        Some("explain") => cmd_explain(&args),
        Some("join") => cmd_join(&args),
        Some("report") => cmd_report(&args),
        Some("watch") => watch::cmd_watch(&args),
        Some("bench") => cmd_bench(&args),
        Some("hard-density") => cmd_hard_density(&args),
        Some("help") | None => {
            print!("{}", HELP);
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try 'mwsj help')")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
mwsj — approximate multiway spatial join processing (EDBT 2002)

USAGE:
  mwsj generate --out FILE --n N --density D [--distribution uniform|clustered|skewed|zipf] [--seed S]
  mwsj info --data FILE
  mwsj solve --data FILE... --query SPEC [--algo ils|gils|sea|sea-hybrid|ibb|two-step]
             [--seconds S | --iterations I] [--seed S] [--top K]
             [--restarts K] [--threads T]   parallel portfolio of K seeded restarts
                                            (heuristics only; T=0 -> all cores)
             [--backend rtree|grid]         spatial index backend: R*-trees (default) or a
                                            PBSM-style uniform grid (identical results,
                                            different cost profile; see mwsj explain)
             [--metrics-out FILE]           structured JSONL run events + metrics
             [--trace-out FILE]             convergence trace as JSONL trace points
             [--profile-out FILE]           per-phase wall-clock profile (folded stacks,
                                            flamegraph-ready)
             [--flight-recorder-out FILE]   byte-bounded ring of the most recent run
                                            events, drained to JSONL after the run
             [--flight-recorder-bytes N]    ring byte budget (default 65536, min 4096)
             [--progress-every N]           emit a 'progress' heartbeat event every N
                                            steps (requires --metrics-out)
             [--stall-steps N | --stall-secs S]
                                            watchdog: emit 'stall_detected' after N steps
                                            (or S seconds) without improvement
             [--stall-abort]                stop a stalled run via the cutoff machinery
                                            (stop reason 'stall_aborted')
             [--follow]                     flush each event line immediately so the
                                            metrics file can be tailed live
  mwsj join --data FILE... --query SPEC [--algo wr|st|pjm] [--limit K] [--seconds S]
            [--backend rtree|grid] [--metrics-out FILE]
  mwsj explain --data FILE... --query SPEC [--backend rtree|grid] [--metrics-out FILE]
                                            pre-run cost & selectivity report, no solving:
                                            per-edge selectivity estimates (with exact
                                            observed selectivities when the pair count is
                                            affordable), per-variable window hit rates,
                                            predicted node accesses per window query, and
                                            R*-tree structural quality per level (plus grid
                                            cell-occupancy stats and predicted scan cost
                                            with --backend grid); output is byte-stable
                                            for a fixed dataset. --metrics-out writes the
                                            same report as one schema-validated
                                            'explain_report' JSONL event
  mwsj report FILE                          validate + summarise a metrics JSONL file
                                            (or a BENCH_*.json bench snapshot)
  mwsj watch FILE [--poll-ms MS] [--timeout-secs S] [--no-tty]
                                            tail a live metrics JSONL file (written with
                                            solve --follow): in-place status view on a
                                            TTY, one line per update with --no-tty;
                                            exits when the run ends
  mwsj bench snapshot [--tier base|large] [--label L] [--reps N] [--out FILE]
                                            run a pinned suite tier (ILS/GILS/SEA/two-step)
                                            into BENCH_<L>.json: anytime curves, quality AUC,
                                            time-to-tau, counters, phase timings. base = n=4
                                            toy scale; large = paper scale (N>=10k, n<=10,
                                            all shapes, plus an ILS entry-layout A/B record)
  mwsj bench compare BASELINE CANDIDATE [--wall-tolerance T] [--wall-slack-ms S]
                                            regression gate: deterministic counters must match
                                            exactly, wall medians within tolerance (default +25%
                                            or +5ms absolute, whichever is larger)
  mwsj hard-density --shape chain|clique|star|cycle|random --vars N --n CARD [--target SOL]

QUERY SPECS:
  chain | clique | cycle | star            sized by the number of --data files
  \"0-1,1-2:contains,0-2:within:0.05\"       explicit edges with optional predicates
";

fn load_datasets(args: &Args) -> Result<Vec<Dataset>, String> {
    let paths = args.values("data");
    if paths.is_empty() {
        return Err("at least one --data FILE is required".into());
    }
    paths
        .iter()
        .map(|p| Dataset::read_csv_file(p).map_err(|e| format!("{p}: {e}")))
        .collect()
}

/// The search budget from `--seconds` and `--iterations` (either, both,
/// or neither for the command's `default`). Zero iterations and any
/// `--seconds` that is not a positive, finite, representable duration are
/// rejected.
fn budget_from(args: &Args, default: SearchBudget) -> Result<SearchBudget, String> {
    let time = args.secs("seconds").map_err(|e| e.to_string())?;
    let steps = args
        .parse_opt::<NonZeroU64>("iterations", "a positive iteration count")
        .map_err(|e| e.to_string())?;
    Ok(match (time, steps) {
        (Some(time), Some(steps)) => SearchBudget::time_and_iterations(time, steps.get()),
        (None, Some(steps)) => SearchBudget::iterations(steps.get()),
        (Some(time), None) => SearchBudget::time(time),
        (None, None) => default,
    })
}

/// Applies `--backend rtree|grid` to a freshly built instance — shared by
/// `solve`, `join` and `explain`.
fn apply_backend(args: &Args, instance: Instance) -> Result<Instance, String> {
    let backend = match args.value("backend") {
        None => BackendKind::RTree,
        Some(name) => BackendKind::parse(name)
            .ok_or_else(|| format!("unknown backend '{name}' (expected rtree|grid)"))?,
    };
    Ok(instance.with_backend(backend))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    args.no_positionals().map_err(|e| e.to_string())?;
    let out = args.required("out").map_err(|e| e.to_string())?.to_string();
    let n: usize = args
        .parse_or("n", 10_000, "an object count")
        .map_err(|e| e.to_string())?;
    let density: f64 = args
        .parse_or("density", 0.05, "a density")
        .map_err(|e| e.to_string())?;
    let seed: u64 = args
        .parse_or("seed", 0, "a seed")
        .map_err(|e| e.to_string())?;
    let distribution = match args.value("distribution").unwrap_or("uniform") {
        "uniform" => Distribution::Uniform,
        "clustered" => Distribution::Clustered {
            clusters: 9,
            sigma: 0.03,
        },
        "skewed" => Distribution::Skewed { exponent: 2.0 },
        "zipf" => Distribution::ZipfClustered {
            clusters: 16,
            sigma: 0.02,
            exponent: 1.1,
        },
        other => return Err(format!("unknown distribution '{other}'")),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = DatasetSpec {
        cardinality: n,
        density,
        distribution,
        constant_extent: false,
    }
    .generate(&mut rng);
    ds.write_csv_file(&out).map_err(|e| e.to_string())?;
    println!("wrote {n} objects (density {density}) to {out}");
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    args.no_positionals().map_err(|e| e.to_string())?;
    for path in args.values("data") {
        let ds = Dataset::read_csv_file(path).map_err(|e| format!("{path}: {e}"))?;
        let bbox = ds
            .rects()
            .iter()
            .fold(mwsj_geom::Rect::EMPTY, |acc, r| acc.union(r));
        println!(
            "{path}: {} objects, realized density {:.4}, bbox {}",
            ds.len(),
            ds.realized_density(),
            bbox
        );
    }
    if args.values("data").is_empty() {
        return Err("at least one --data FILE is required".into());
    }
    Ok(())
}

fn cmd_solve(args: &Args) -> Result<(), String> {
    args.no_positionals().map_err(|e| e.to_string())?;
    let datasets = load_datasets(args)?;
    let n_vars = datasets.len();
    let query = args.required("query").map_err(|e| e.to_string())?;
    let graph = query_spec::parse_query(query, n_vars).map_err(|e| e.to_string())?;
    let instance = apply_backend(
        args,
        Instance::new(graph, datasets).map_err(|e| e.to_string())?,
    )?;
    let budget = budget_from(args, SearchBudget::seconds(2.0))?;
    let seed: u64 = args
        .parse_or("seed", 42, "a seed")
        .map_err(|e| e.to_string())?;
    let top: usize = args
        .parse_or("top", 1, "a count")
        .map_err(|e| e.to_string())?;
    let restarts: usize = args
        .parse_or("restarts", 1, "a restart count")
        .map_err(|e| e.to_string())?;
    let threads: usize = args
        .parse_or("threads", 0, "a thread count")
        .map_err(|e| e.to_string())?;
    if restarts == 0 {
        return Err("--restarts must be at least 1".into());
    }
    let mut rng = StdRng::seed_from_u64(seed);

    let algo = args.value("algo").unwrap_or("ils");
    let portfolio = restarts > 1;

    let metrics_path = args.value("metrics-out").map(str::to_string);
    let trace_path = args.value("trace-out").map(str::to_string);
    let profile_path = args.value("profile-out").map(str::to_string);
    let flight_path = args.value("flight-recorder-out").map(str::to_string);

    // Live telemetry: progress heartbeats and the stall watchdog.
    let progress_every: u64 = args
        .parse_or("progress-every", 0, "a step count")
        .map_err(|e| e.to_string())?;
    let stall_steps: u64 = args
        .parse_or("stall-steps", 0, "a step count")
        .map_err(|e| e.to_string())?;
    let stall_secs: f64 = args
        .parse_or("stall-secs", 0.0, "a number of seconds")
        .map_err(|e| e.to_string())?;
    let stall_abort = args.flag("stall-abort");
    if stall_abort && stall_steps == 0 && stall_secs <= 0.0 {
        return Err(
            "--stall-abort needs a stall window (--stall-steps N or --stall-secs S)".into(),
        );
    }
    let telemetry = TelemetryConfig {
        progress_every: (progress_every > 0).then_some(progress_every),
        stall_window_steps: (stall_steps > 0).then_some(stall_steps),
        stall_window_secs: (stall_secs > 0.0).then_some(stall_secs),
        stall_abort,
    };
    if telemetry.progress_every.is_some() && metrics_path.is_none() {
        return Err("--progress-every needs --metrics-out FILE to stream to".into());
    }
    // `--follow` streams each event line the moment it happens (per-event
    // flush) so `mwsj watch FILE` can tail the run live.
    let follow = args.flag("follow");
    if follow && metrics_path.is_none() {
        return Err("--follow needs --metrics-out FILE to stream to".into());
    }
    let flush_policy = if follow {
        FlushPolicy::PerEvent
    } else {
        FlushPolicy::Buffered
    };

    // The flight recorder rides alongside any JSONL sink (or alone): a
    // byte-bounded ring of the most recent run events, drained after the
    // run (see DESIGN.md "Resource observability").
    let recorder_bytes: u64 = args
        .parse_or(
            "flight-recorder-bytes",
            mwsj_core::DEFAULT_FLIGHT_RECORDER_BYTES as u64,
            "a byte budget",
        )
        .map_err(|e| e.to_string())?;
    if recorder_bytes < 4096 {
        return Err(format!(
            "--flight-recorder-bytes {recorder_bytes}: the ring needs at least 4096 bytes \
             to hold a useful event window"
        ));
    }
    if args.value("flight-recorder-bytes").is_some() && flight_path.is_none() {
        return Err("--flight-recorder-bytes needs --flight-recorder-out FILE".into());
    }
    let recorder = flight_path
        .as_ref()
        .map(|_| Arc::new(FlightRecorder::with_capacity_bytes(recorder_bytes as usize)));
    let obs = match (&metrics_path, &recorder) {
        (Some(path), recorder) => {
            let sink =
                JsonlSink::create_with(path, flush_policy).map_err(|e| format!("{path}: {e}"))?;
            match recorder {
                Some(rec) => ObsHandle::enabled()
                    .with_sink(Arc::new(FanoutSink::new(vec![Arc::new(sink), rec.clone()]))),
                None => ObsHandle::enabled().with_sink(Arc::new(sink)),
            }
        }
        (None, Some(rec)) => ObsHandle::enabled().with_sink(rec.clone()),
        // No event sink requested, but the profile still needs live phase
        // timers; a fully disabled handle records nothing.
        (None, None) if profile_path.is_some() => ObsHandle::enabled(),
        (None, None) => ObsHandle::disabled(),
    };
    obs.emit(RunEvent::RunStart {
        algo: algo.to_string(),
        n_vars: n_vars as u64,
        edges: instance.graph().edge_count() as u64,
        restarts: restarts as u64,
        threads: threads as u64,
        seed,
        budget_steps: budget.max_steps,
        budget_secs: budget.time_limit.map(|d| d.as_secs_f64()),
    });
    let ctx = SearchContext::local(budget)
        .with_obs(obs.clone())
        .with_telemetry(telemetry);

    // Each arm yields the reported outcome, the `metrics` snapshot of the
    // runs it consists of and, for portfolios (which merge per-restart
    // phase timers themselves), its phase profile.
    let single = |outcome: RunOutcome| {
        let metrics = metrics_of([&outcome.stats]);
        (outcome, metrics, None)
    };
    let (outcome, metrics, portfolio_phases) = match algo {
        "ils" if portfolio => run_portfolio(
            Ils::new(IlsConfig::default()),
            &instance,
            &budget,
            seed,
            restarts,
            threads,
            telemetry,
            &obs,
        ),
        "gils" if portfolio => run_portfolio(
            Gils::new(GilsConfig::default()),
            &instance,
            &budget,
            seed,
            restarts,
            threads,
            telemetry,
            &obs,
        ),
        "sea" if portfolio => run_portfolio(
            Sea::new(SeaConfig::default_for(&instance)),
            &instance,
            &budget,
            seed,
            restarts,
            threads,
            telemetry,
            &obs,
        ),
        "sea-hybrid" if portfolio => run_portfolio(
            Sea::new(SeaConfig::default_for(&instance).with_ils_seeding()),
            &instance,
            &budget,
            seed,
            restarts,
            threads,
            telemetry,
            &obs,
        ),
        "ils" => single(Ils::new(IlsConfig::default()).search(&instance, &ctx, &mut rng)),
        "gils" => single(Gils::new(GilsConfig::default()).search(&instance, &ctx, &mut rng)),
        "sea" => {
            single(Sea::new(SeaConfig::default_for(&instance)).search(&instance, &ctx, &mut rng))
        }
        "sea-hybrid" => single(
            Sea::new(SeaConfig::default_for(&instance).with_ils_seeding())
                .search(&instance, &ctx, &mut rng),
        ),
        "ibb" | "two-step" if portfolio => {
            return Err(format!(
                "--restarts applies to the anytime heuristics, not '{algo}'"
            ))
        }
        "ibb" => single(Ibb::new(IbbConfig::new()).search(&instance, &ctx)),
        "two-step" => {
            let heuristic_budget = SearchBudget::seconds(0.5);
            let two = TwoStep::new(TwoStepConfig::Ils(IlsConfig::default(), heuristic_budget))
                .with_telemetry(telemetry);
            let out = two.run_with_obs(&instance, &budget, &mut rng, &obs);
            let metrics = metrics_of(out.stages().map(|stage| &stage.stats));
            (out.best, metrics, None)
        }
        other => return Err(format!("unknown algorithm '{other}'")),
    };
    let phases = portfolio_phases.unwrap_or_else(|| obs.timer.snapshot());
    obs.emit(RunEvent::Metrics { snapshot: metrics });
    obs.emit(RunEvent::Phases {
        phases: phases.clone(),
    });
    // `run_end` is emitted by the search itself: standalone algorithms via
    // the driver, the two-step pipeline and the portfolio as one combined
    // event each.
    if let Some(path) = &trace_path {
        let sink = JsonlSink::create(path).map_err(|e| format!("{path}: {e}"))?;
        for p in &outcome.trace {
            sink.emit(&RunEvent::TracePoint {
                step: p.step,
                similarity: p.similarity,
                elapsed_secs: p.elapsed.as_secs_f64(),
            });
        }
    }

    println!(
        "best solution: {} (similarity {:.3}, {} of {} conditions violated{})",
        outcome.best,
        outcome.best_similarity,
        outcome.best_violations,
        instance.graph().edge_count(),
        if outcome.proven_optimal {
            ", proven optimal"
        } else {
            ""
        }
    );
    println!(
        "stats: {:?} elapsed, {} steps, {} node accesses, {} local maxima",
        outcome.stats.elapsed,
        outcome.stats.steps,
        outcome.stats.node_accesses,
        outcome.stats.local_maxima
    );
    if top > 1 {
        println!(
            "top {} distinct solutions:",
            top.min(outcome.top_solutions.len())
        );
        for (rank, (sol, violations)) in outcome.top_solutions.iter().take(top).enumerate() {
            println!("  {:>2}. {} ({} violations)", rank + 1, sol, violations);
        }
    }
    if let Some(path) = &metrics_path {
        println!("wrote run events to {path} (inspect with 'mwsj report {path}')");
    }
    if let Some(path) = &trace_path {
        println!("wrote {} trace points to {path}", outcome.trace.len());
    }
    if let (Some(path), Some(rec)) = (&flight_path, &recorder) {
        let written = rec.write_jsonl(path).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "wrote {written} recent run events to {path} (flight recorder, \
             {} byte budget)",
            rec.capacity_bytes()
        );
    }
    if let Some(path) = &profile_path {
        let folded = to_folded(&phases);
        std::fs::write(path, &folded).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "wrote phase profile to {path} ({} folded stack lines, flamegraph-ready)",
            folded.lines().count()
        );
    }
    Ok(())
}

/// Runs a portfolio and returns its merged outcome, the `metrics` of its
/// restarts folded in seed order, and its merged phase profile.
#[allow(clippy::too_many_arguments)] // thin CLI plumbing over PortfolioConfig
fn run_portfolio<A: AnytimeSearch>(
    algo: A,
    instance: &Instance,
    budget: &SearchBudget,
    master_seed: u64,
    restarts: usize,
    threads: usize,
    telemetry: TelemetryConfig,
    obs: &ObsHandle,
) -> (RunOutcome, MetricsSnapshot, Option<Vec<PhaseSnapshot>>) {
    let mut config = PortfolioConfig::new(restarts, threads);
    config.telemetry = telemetry;
    let portfolio = ParallelPortfolio::new(algo, config);
    let outcome = portfolio.run_with_obs(instance, budget, master_seed, obs);
    println!(
        "portfolio: {} restarts on {} thread{} (per-restart best: {})",
        outcome.restarts.len(),
        outcome.threads_used,
        if outcome.threads_used == 1 { "" } else { "s" },
        outcome
            .restarts
            .iter()
            .map(|r| r.outcome.best_violations.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let metrics = metrics_of(outcome.restarts.iter().map(|r| &r.outcome.stats));
    (outcome.merged, metrics, Some(outcome.phases))
}

/// `mwsj explain` — the pre-run side of the cost & selectivity audit:
/// builds the instance, prints the estimate report, and never solves.
/// Deterministic: repeated invocations on the same inputs are
/// byte-identical (the report is a pure function of the datasets).
fn cmd_explain(args: &Args) -> Result<(), String> {
    args.no_positionals().map_err(|e| e.to_string())?;
    let datasets = load_datasets(args)?;
    let n_vars = datasets.len();
    let query = args.required("query").map_err(|e| e.to_string())?;
    let graph = query_spec::parse_query(query, n_vars).map_err(|e| e.to_string())?;
    let instance = apply_backend(
        args,
        Instance::new(graph, datasets).map_err(|e| e.to_string())?,
    )?;
    let report = mwsj_core::build_explain_report(&instance);
    print_explain(&report);
    if let Some(path) = args.value("metrics-out") {
        let sink = JsonlSink::create(path).map_err(|e| format!("{path}: {e}"))?;
        sink.emit(&RunEvent::ExplainReport {
            report: report.clone(),
        });
        println!("wrote explain report to {path} (inspect with 'mwsj report {path}')");
    }
    Ok(())
}

/// Renders an [`ExplainReport`] — shared by `mwsj explain` (estimates
/// only) and `mwsj report` (estimate vs actual when the run attached the
/// observed side).
fn print_explain(report: &ExplainReport) {
    println!(
        "explain: {} model, E[solutions] = {:.4}",
        report.model, report.expected_solutions
    );
    println!("edges (estimated vs observed selectivity):");
    println!(
        "  {:<6} {:<12} {:>13} {:>13} {:>10} {:>8}",
        "edge", "predicate", "estimated", "observed", "pairs", "error"
    );
    for e in &report.edges {
        let (obs, pairs, err) = match (e.observed_selectivity, e.observed_pairs) {
            (Some(sel), Some(pairs)) => (
                format!("{sel:.6e}"),
                pairs.to_string(),
                e.error_factor().map_or("-".into(), |f| format!("{f:.2}x")),
            ),
            _ => ("-".into(), "-".into(), "-".into()),
        };
        println!(
            "  {:<6} {:<12} {:>13} {:>13} {:>10} {:>8}",
            format!("{}-{}", e.a, e.b),
            e.predicate,
            format!("{:.6e}", e.estimated_selectivity),
            obs,
            pairs,
            err
        );
    }
    println!("variables (window cost model and R*-tree quality):");
    for v in &report.vars {
        println!(
            "  var{}: N={}, avg extent {:.6}, E[window hits] {:.4}, \
             predicted accesses/query {:.2}",
            v.var,
            v.cardinality,
            v.avg_extent,
            v.expected_window_hits,
            v.predicted_accesses_per_query
        );
        let t = &v.tree;
        println!(
            "    tree: height {}, {} nodes, avg fill {:.3}",
            t.height, t.nodes, t.avg_fill
        );
        let fmt3 = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "    per level (leaf->root): fill [{}], overlap [{}], dead space [{}], perimeter [{}]",
            fmt3(&t.fill_per_level),
            fmt3(&t.overlap_factor_per_level),
            fmt3(&t.dead_space_per_level),
            fmt3(&t.perimeter_per_level)
        );
        if let Some(g) = &v.grid {
            println!(
                "    grid: {} cells ({} occupied), replication {:.3}, occupancy avg {:.1} max {}, \
                 predicted cells/query {:.2}, predicted cost/query {:.2}",
                g.cells,
                g.occupied_cells,
                g.replication_factor,
                g.avg_occupancy,
                g.max_occupancy,
                g.predicted_cells_per_query,
                g.predicted_cost_per_query
            );
        }
    }
    if let Some(total) = report.observed_node_accesses {
        println!(
            "observed node accesses: {total} total, {} attributed per variable",
            report.attributed_accesses()
        );
        for v in &report.vars {
            let levels = v
                .accesses_per_level
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            println!(
                "  var{}: {} accesses (per level, leaf->root: {levels})",
                v.var, v.observed_accesses
            );
        }
    }
}

fn cmd_join(args: &Args) -> Result<(), String> {
    args.no_positionals().map_err(|e| e.to_string())?;
    let datasets = load_datasets(args)?;
    let n_vars = datasets.len();
    let query = args.required("query").map_err(|e| e.to_string())?;
    let graph = query_spec::parse_query(query, n_vars).map_err(|e| e.to_string())?;
    let instance = apply_backend(
        args,
        Instance::new(graph, datasets).map_err(|e| e.to_string())?,
    )?;
    // Exact joins default to a generous budget.
    let budget = budget_from(args, SearchBudget::seconds(60.0))?;
    let limit: usize = args
        .parse_or("limit", 100, "a solution limit")
        .map_err(|e| e.to_string())?;

    let algo = args.value("algo").unwrap_or("wr");
    let metrics_path = args.value("metrics-out").map(str::to_string);
    let obs = match &metrics_path {
        Some(path) => {
            let sink = JsonlSink::create(path).map_err(|e| format!("{path}: {e}"))?;
            ObsHandle::enabled().with_sink(Arc::new(sink))
        }
        None => ObsHandle::disabled(),
    };
    obs.emit(RunEvent::RunStart {
        algo: algo.to_string(),
        n_vars: n_vars as u64,
        edges: instance.graph().edge_count() as u64,
        restarts: 1,
        threads: 1,
        seed: 0, // exact joins are deterministic; no RNG is involved
        budget_steps: budget.max_steps,
        budget_secs: budget.time_limit.map(|d| d.as_secs_f64()),
    });
    let outcome = match algo {
        "wr" => WindowReduction::new().run_with_obs(&instance, &budget, limit, &obs),
        "st" => SynchronousTraversal::new().run_with_obs(&instance, &budget, limit, &obs),
        "pjm" => Pjm::default().run_with_obs(&instance, &budget, limit, &obs),
        other => return Err(format!("unknown exact algorithm '{other}'")),
    };
    obs.emit(RunEvent::Metrics {
        snapshot: metrics_of([&outcome.stats]),
    });
    obs.emit(RunEvent::Phases {
        phases: obs.timer.snapshot(),
    });
    let found = !outcome.solutions.is_empty();
    obs.emit(RunEvent::RunEnd {
        best_violations: if found {
            0
        } else {
            instance.graph().edge_count() as u64
        },
        best_similarity: if found { 1.0 } else { 0.0 },
        steps: outcome.stats.steps,
        node_accesses: outcome.stats.node_accesses,
        local_maxima: outcome.stats.local_maxima,
        improvements: outcome.stats.improvements,
        restarts: outcome.stats.restarts,
        elapsed_secs: outcome.stats.elapsed.as_secs_f64(),
        proven_optimal: outcome.complete,
    });

    println!(
        "{} exact solutions{} in {:?} ({} node accesses)",
        outcome.solutions.len(),
        if outcome.complete { "" } else { " (truncated)" },
        outcome.stats.elapsed,
        outcome.stats.node_accesses
    );
    for sol in outcome.solutions.iter().take(limit) {
        println!("  {sol}");
    }
    if let Some(path) = &metrics_path {
        println!("wrote run events to {path} (inspect with 'mwsj report {path}')");
    }
    Ok(())
}

/// Validates a metrics JSONL file against the documented schema and
/// renders a human-readable summary of its contents.
fn cmd_report(args: &Args) -> Result<(), String> {
    let path = args
        .arg()
        .ok_or("usage: mwsj report FILE (a --metrics-out JSONL file or a bench snapshot)")?;
    if let Some(extra) = args.positionals.get(1) {
        return Err(format!(
            "unexpected argument '{extra}' (mwsj report takes exactly one file)"
        ));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if text.trim().is_empty() {
        return Err(format!(
            "{path}: empty metrics file — the run wrote no events \
             (interrupted before the first event, or the wrong file?)"
        ));
    }
    // A bench snapshot is a single pretty-printed JSON object, not JSONL;
    // summarise it directly instead of failing schema validation.
    if let Ok(snapshot) = BenchSnapshot::parse(&text) {
        return report_snapshot(path, &snapshot);
    }
    let events = schema::parse_jsonl(&text).map_err(|(line, e)| {
        // A file cut off mid-write ends in a partial JSON line with no
        // trailing newline; point that out instead of a bare parse error.
        let last_line = text.trim_end().lines().count();
        if line == last_line && !text.ends_with('\n') {
            format!("{path}:{line}: {e} (the file ends mid-line and appears truncated)")
        } else {
            format!("{path}:{line}: {e}")
        }
    })?;
    println!("{path}: {} events, schema OK", events.len());

    for event in &events {
        match event {
            RunEvent::RunStart {
                algo,
                n_vars,
                edges,
                restarts,
                seed,
                budget_steps,
                budget_secs,
                ..
            } => {
                print!("run: {algo} on {n_vars} variables / {edges} edges, seed {seed}");
                if *restarts > 1 {
                    print!(", {restarts} portfolio restarts");
                }
                if let Some(steps) = budget_steps {
                    print!(", budget {steps} steps");
                }
                if let Some(secs) = budget_secs {
                    print!(", budget {secs}s");
                }
                println!();
            }
            RunEvent::StallAborted {
                steps,
                elapsed_secs,
                ..
            } => println!(
                "stall abort: run stopped after {steps} steps ({elapsed_secs:.3}s) without improvement"
            ),
            RunEvent::Metrics { snapshot } => {
                println!("counters:");
                for (name, value) in &snapshot.counters {
                    println!("  {name:<24} {value}");
                }
                for (name, h) in &snapshot.histograms {
                    println!(
                        "histogram {name}: {} samples in [{}, {}]",
                        h.count, h.min, h.max
                    );
                }
            }
            RunEvent::ExplainReport { report } => print_explain(report),
            RunEvent::ResourceReport { report } => {
                println!("memory:");
                for (name, bytes) in report.components() {
                    println!("  {name:<24} {bytes:>12} bytes");
                }
                println!("  {:<24} {:>12} bytes", "total", report.total_bytes());
            }
            RunEvent::Phases { phases } => {
                if !phases.is_empty() {
                    println!("phases:");
                }
                for p in phases {
                    let wall = p.wall.as_secs_f64();
                    println!(
                        "  {:<28} {:>6} calls {:>10} steps {wall:>9.4}s",
                        p.path, p.calls, p.steps
                    );
                }
            }
            RunEvent::RunEnd {
                best_violations,
                best_similarity,
                steps,
                node_accesses,
                elapsed_secs,
                proven_optimal,
                ..
            } => println!(
                "result: similarity {best_similarity:.3} ({best_violations} violations{}), \
                 {steps} steps, {node_accesses} node accesses, {elapsed_secs:.3}s",
                if *proven_optimal { ", proven optimal" } else { "" }
            ),
            _ => {}
        }
    }
    let lifecycle: Vec<String> = [
        ("improvement", "improvements"),
        ("restart_end", "restarts finished"),
        ("budget_exhausted", "budget exhaustions"),
        ("cutoff_fired", "cutoff firings"),
        ("trace_point", "trace points"),
        ("progress", "progress heartbeats"),
        ("stall_detected", "stalls detected"),
        ("stall_aborted", "stall aborts"),
        ("stagnation_reseed", "stagnation reseeds"),
    ]
    .iter()
    .filter_map(|(kind, label)| {
        let n = events.iter().filter(|e| e.kind() == *kind).count();
        (n > 0).then(|| format!("{n} {label}"))
    })
    .collect();
    if !lifecycle.is_empty() {
        println!("events: {}", lifecycle.join(", "));
    }
    Ok(())
}

/// Summarises a `BENCH_*.json` snapshot for `mwsj report`, ordered by
/// parsed suite key — numeric on the variable count, so `chain-n10-…`
/// sorts after `chain-n4-…` instead of between `n1` and `n2` as a naive
/// lexicographic (single-digit-assuming) ordering would.
fn report_snapshot(path: &str, snapshot: &BenchSnapshot) -> Result<(), String> {
    use mwsj_core::obs::SuiteKey;
    println!(
        "{path}: bench snapshot '{}', {} instances, {} reps",
        snapshot.label,
        snapshot.instances.len(),
        snapshot.reps
    );
    let mut order: Vec<usize> = (0..snapshot.instances.len()).collect();
    order.sort_by_key(|&i| {
        let inst = &snapshot.instances[i];
        match SuiteKey::parse(&inst.name) {
            Some(k) => (k.shape, k.n_vars, k.qualifier),
            // Unkeyed instances sort after keyed ones, by raw name.
            None => ("~".to_string(), u64::MAX, inst.name.clone()),
        }
    });
    for &i in &order {
        let inst = &snapshot.instances[i];
        if let Some(key) = SuiteKey::parse(&inst.name) {
            if key.n_vars != inst.n_vars || key.shape != inst.shape {
                println!(
                    "warning: {} — suite key ({} n={}) contradicts record metadata ({} n={})",
                    inst.name, key.shape, key.n_vars, inst.shape, inst.n_vars
                );
            }
        }
        println!(
            "  {} ({} n={} N={} seed={})",
            inst.name, inst.shape, inst.n_vars, inst.cardinality, inst.seed
        );
        for algo in &inst.algos {
            let steps = algo.counter("steps").unwrap_or(0);
            let accesses = algo.counter("node_accesses").unwrap_or(0);
            println!(
                "    {:<18} similarity {:.3}  {steps} steps  {accesses} node accesses  {:.2}ms",
                algo.algo, algo.best_similarity, algo.wall_ms_median
            );
        }
        for mem in snapshot.memory.iter().filter(|m| m.instance == inst.name) {
            println!("    memory: {} bytes resident", mem.total_bytes);
        }
        for cache in snapshot.cache.iter().filter(|c| c.instance == inst.name) {
            println!(
                "    {:<18} cache: {} hits, {} misses, {} reassign / {} penalty \
                 invalidations, {} bytes",
                cache.algo,
                cache.hits,
                cache.misses,
                cache.invalidations_reassign,
                cache.invalidations_penalty,
                cache.bytes
            );
        }
        for rec in snapshot.explain.iter().filter(|e| e.instance == inst.name) {
            let worst = rec
                .report
                .edges
                .iter()
                .filter_map(|e| e.error_factor())
                .fold(None::<f64>, |acc, f| Some(acc.map_or(f, |a| a.max(f))));
            println!(
                "    explain: {} model, E[solutions] {:.4}, worst edge estimate error {}",
                rec.report.model,
                rec.report.expected_solutions,
                worst.map_or("-".into(), |f| format!("{f:.2}x"))
            );
        }
    }
    Ok(())
}

/// Dispatches `mwsj bench <snapshot|compare>`.
fn cmd_bench(args: &Args) -> Result<(), String> {
    const USAGE: &str =
        "usage: mwsj bench snapshot [--tier base|large] [--label L] [--reps N] [--out FILE]\n   \
                         or: mwsj bench compare BASELINE.json CANDIDATE.json \
                         [--wall-tolerance T] [--wall-slack-ms S]";
    match args.arg() {
        Some("snapshot") => cmd_bench_snapshot(args),
        Some("compare") => cmd_bench_compare(args),
        Some(other) => Err(format!("unknown bench subcommand '{other}'\n{USAGE}")),
        None => Err(USAGE.into()),
    }
}

/// Runs the pinned benchmark suite and writes a `BENCH_<label>.json`
/// performance snapshot (see `DESIGN.md` "Benchmark snapshots").
fn cmd_bench_snapshot(args: &Args) -> Result<(), String> {
    if let Some(extra) = args.positionals.get(1) {
        return Err(format!(
            "unexpected argument '{extra}' (bench snapshot takes options only)"
        ));
    }
    let tier = match args.value("tier") {
        None => mwsj_bench::BenchTier::Base,
        Some(name) => mwsj_bench::BenchTier::parse(name)
            .ok_or_else(|| format!("unknown tier '{name}' (expected 'base' or 'large')"))?,
    };
    // The default label/output track the tier, so `--tier large` writes
    // BENCH_large.json next to the base tier's BENCH_baseline.json.
    let default_label = match tier {
        mwsj_bench::BenchTier::Base => "snapshot",
        mwsj_bench::BenchTier::Large => "large",
    };
    let label = args.value("label").unwrap_or(default_label);
    let reps: usize = args
        .parse_or("reps", mwsj_bench::DEFAULT_REPS, "a repetition count")
        .map_err(|e| e.to_string())?;
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    let out = args
        .value("out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("BENCH_{label}.json"));
    let snapshot = mwsj_bench::run_suite(tier, label, reps, |case, algo| {
        eprintln!("bench: {case} / {algo}");
    })?;
    std::fs::write(&out, snapshot.to_string_pretty()).map_err(|e| format!("{out}: {e}"))?;
    let records: usize = snapshot.instances.iter().map(|i| i.algos.len()).sum();
    println!(
        "wrote benchmark snapshot '{label}' to {out} ({} instances, {records} algo records, {} reps)",
        snapshot.instances.len(),
        snapshot.reps,
    );
    println!("gate a change with 'mwsj bench compare BENCH_baseline.json {out}'");
    Ok(())
}

/// Compares two benchmark snapshots: deterministic work counters must
/// match exactly; wall-clock medians may drift up to the tolerance band.
fn cmd_bench_compare(args: &Args) -> Result<(), String> {
    let (baseline_path, candidate_path) = match &args.positionals[..] {
        [_, b, c] => (b.as_str(), c.as_str()),
        _ => {
            return Err("usage: mwsj bench compare BASELINE.json CANDIDATE.json \
                 [--wall-tolerance T] [--wall-slack-ms S]"
                .into())
        }
    };
    let tolerance: f64 = args
        .parse_or(
            "wall-tolerance",
            DEFAULT_WALL_TOLERANCE,
            "a fraction (e.g. 0.25 for +25%)",
        )
        .map_err(|e| e.to_string())?;
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err("--wall-tolerance must be a non-negative fraction".into());
    }
    let slack_ms: f64 = args
        .parse_or(
            "wall-slack-ms",
            DEFAULT_WALL_SLACK_MS,
            "a duration in milliseconds (e.g. 5.0)",
        )
        .map_err(|e| e.to_string())?;
    if !slack_ms.is_finite() || slack_ms < 0.0 {
        return Err("--wall-slack-ms must be a non-negative duration".into());
    }
    let load = |path: &str| -> Result<BenchSnapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        BenchSnapshot::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = load(baseline_path)?;
    let candidate = load(candidate_path)?;
    println!(
        "comparing '{}' ({baseline_path}) -> '{}' ({candidate_path}), \
         wall tolerance +{:.0}% or +{:.1}ms",
        baseline.label,
        candidate.label,
        tolerance * 100.0,
        slack_ms
    );
    let report = compare(
        &baseline,
        &candidate,
        CompareConfig {
            wall_tolerance: tolerance,
            wall_slack_ms: slack_ms,
        },
    );
    print!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "{} regression check(s) failed (see report above)",
            report.failures()
        ))
    }
}

fn cmd_hard_density(args: &Args) -> Result<(), String> {
    args.no_positionals().map_err(|e| e.to_string())?;
    let shape = match args.required("shape").map_err(|e| e.to_string())? {
        "chain" => QueryShape::Chain,
        "clique" => QueryShape::Clique,
        "star" => QueryShape::Star,
        "cycle" => QueryShape::Cycle,
        "random" => QueryShape::Random,
        other => return Err(format!("unknown shape '{other}'")),
    };
    let vars: usize = args
        .parse_or("vars", 5, "a variable count")
        .map_err(|e| e.to_string())?;
    let n: usize = args
        .parse_or("n", 100_000, "a cardinality")
        .map_err(|e| e.to_string())?;
    let target: f64 = args
        .parse_or("target", 1.0, "a solution count")
        .map_err(|e| e.to_string())?;
    let d = mwsj_datagen::hard_region_density(shape, vars, n, target);
    println!(
        "{} query over {vars} datasets of {n} objects: density {d:.6} gives E[solutions] = {target}",
        shape.name()
    );
    println!(
        "(average per-axis extent |r| = {:.6})",
        mwsj_datagen::extent_for_density(n, d)
    );
    Ok(())
}
