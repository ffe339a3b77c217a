//! End-to-end and per-layer benchmark of the mwsj library crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-chain6-100k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A closed loop: one process runs one pass after another on the seeded
//! workload until `--seconds` have passed (at least three passes), and
//! reports the median of each metric over the passes. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it runs every pass both
//! untraced and traced, probes each layer, and prints the per-layer metrics
//! and a table of span self times. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. Run
//! artifacts (result files, span logs) go under `.perfbench/`.

mod checks;
mod host;
mod ops;
mod probes;
mod report;
mod spans;
mod workload;

use host::Fingerprint;
use mwsj_core::obs::json::{escape, fmt_f64};
use mwsj_core::obs::ResourceReport;
use ops::PassOut;
use spans::Recorder;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Inputs, WorkloadDef};

/// Fewest passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
const OUT_DIR: &str = ".perfbench";

/// End-to-end metrics (untraced runs), in output order, with the
/// direction that is better.
const END_TO_END: &[(&str, &str, Better)] = &[
    ("setup_s", "s", Better::Lower),
    ("cold_solve_s", "s", Better::Lower),
    ("ils_steps_per_s", "1/s", Better::Higher),
    ("portfolio_steps_per_s", "1/s", Better::Higher),
    ("exact_join_s", "s", Better::Lower),
    ("index_bytes_per_object", "B", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Better {
    Lower,
    Higher,
}

/// Per-layer metrics (traced runs), in output order.
const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.io.parse_s", "s"),
    ("datagen.io.parse_mb_per_s", "MB/s"),
    ("datagen.estimator.estimate_s", "s"),
    ("rtree.bulk.load_s", "s"),
    ("rtree.flat.freeze_s", "s"),
    ("core.instance.new_s", "s"),
    ("core.instance.rects_bytes_per_object", "B"),
    ("core.instance.tree_bytes_per_object", "B"),
    ("core.instance.flat_bytes_per_object", "B"),
    ("rtree.multiwindow.find_best_ns", "ns"),
    ("rtree.multiwindow.nodes_per_call", "count"),
    ("rtree.query.window_ns", "ns"),
    ("rtree.query.nodes_per_window", "count"),
    ("query.conflicts.evaluate_ns", "ns"),
    ("core.ils.s", "s"),
    ("core.ils.node_accesses_per_step", "count"),
    ("core.ils.cache_hit_rate", "ratio"),
    ("core.gils.s", "s"),
    ("core.gils.steps_per_s", "1/s"),
    ("core.gils.node_accesses_per_step", "count"),
    ("core.gils.cache_hit_rate", "ratio"),
    ("core.sea.s", "s"),
    ("core.sea.generations_per_s", "1/s"),
    ("core.sea.node_accesses_per_generation", "count"),
    ("core.sea.cache_hit_rate", "ratio"),
    ("core.portfolio.s", "s"),
    ("core.portfolio.overhead_s", "s"),
    ("core.portfolio.two_thread_s", "s"),
    ("core.portfolio.two_thread_speedup", "ratio"),
    ("core.portfolio.parallel_efficiency", "ratio"),
    ("core.two_step.s", "s"),
    ("core.two_step.heuristic_s", "s"),
    ("core.two_step.ibb_s", "s"),
    ("core.two_step.steps", "count"),
    ("core.two_step.best_violations", "count"),
    ("core.ibb.s", "s"),
    ("core.ibb.steps_per_s", "1/s"),
    ("core.ibb.node_accesses_per_step", "count"),
    ("core.wr.s", "s"),
    ("core.wr.steps", "count"),
    ("core.wr.node_accesses", "count"),
    ("core.pjm.s", "s"),
    ("core.pjm.steps", "count"),
    ("core.pjm.node_accesses", "count"),
    ("core.explain.build_s", "s"),
    ("rtree.grid.build_s", "s"),
    ("rtree.grid.bytes_per_object", "B"),
    ("rtree.grid.ils_steps_per_s", "1/s"),
    ("rtree.entry.ils_steps_per_s", "1/s"),
    ("obs.sink_overhead_ratio", "ratio"),
    ("obs.jsonl_bytes", "B"),
    ("trace.cold.search_s", "s"),
    ("trace.cold.emit_s", "s"),
    ("trace.cold.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
];

const USAGE: &str = "usage: mwsj-perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
workloads: cold-chain6-100k | anytime-chain15-100k | exact-chain5-100k";

#[derive(Debug)]
struct Args {
    workload: &'static WorkloadDef,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workload::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed needs a whole number".to_string())?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds needs a whole number".to_string())?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Generates the inputs, measures, removes the inputs again, and returns
/// the result line.
fn run(args: &Args) -> Result<String, String> {
    let def = args.workload;
    let host = Fingerprint::detect();
    println!("host: {}", host.to_json());
    let scratch = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-pid{}",
        def.name,
        args.seed,
        std::process::id()
    ));
    let inputs = def
        .write_inputs(args.seed, &scratch.join("data"))
        .map_err(|e| format!("writing the inputs under {}: {e}", scratch.display()))?;
    let result = measure(args, &inputs, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let m = result?;
    m.finish(args, &host)
}

/// What a run measured.
#[derive(Default)]
struct Measured {
    untraced: Vec<PassOut>,
    /// Traced passes, with the layer probes of the same pass merged in.
    traced: Vec<PassOut>,
    overhead: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    index_bytes_per_object: f64,
    spans: Option<Recorder>,
    /// Each operation's deterministic counters, as first recorded.
    counters: Counters,
}

fn measure(args: &Args, inputs: &Inputs, scratch: &Path) -> Result<Measured, String> {
    let def = args.workload;
    let mut rec = Recorder::new(false);
    let mut m = Measured::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while m.untraced.len() < MIN_PASSES || Instant::now() < deadline {
        let (out, instance) = ops::run_pass(inputs, args.seed, &mut rec)?;
        if m.untraced.is_empty() {
            let mut report = ResourceReport::new();
            instance.fill_resource_report(&mut report);
            let objects: usize = inputs.rects.iter().map(Vec::len).sum();
            m.index_bytes_per_object = report.total_bytes() as f64 / objects as f64;
        }
        drop(instance);
        m.absorb_checks(&out);
        m.compare_counters(&out);
        if args.trace {
            rec.set_enabled(true);
            let (mut traced, instance) = ops::run_pass(inputs, args.seed, &mut rec)?;
            let probed = probes::probe_layers(
                &instance,
                inputs,
                def.sea_generations,
                args.seed,
                scratch,
                &mut rec,
                &mut traced,
            );
            rec.set_enabled(false);
            drop(instance);
            probed?;
            traced
                .layer
                .extend(cold_stage_metrics(rec.spans(), inputs.csv_bytes));
            m.absorb_checks(&traced);
            m.compare_counters(&traced);
            m.overhead.push(traced.wall_s / out.wall_s);
            m.traced.push(traced);
        }
        m.untraced.push(out);
    }
    if args.trace {
        m.spans = Some(rec);
    }
    Ok(m)
}

/// Stage self times of the latest traced cold solve (the `pass` span with
/// detail `cold`): its parse, build, estimate, search and emit children.
fn cold_stage_metrics(all: &[spans::Span], csv_bytes: u64) -> BTreeMap<&'static str, f64> {
    let root = all
        .iter()
        .rev()
        .find(|s| s.name == "pass" && s.detail == "cold")
        .expect("a traced pass records its cold solve");
    let selfs = spans::self_times_ns(all);
    let stage = |name: &str| -> f64 {
        all.iter()
            .filter(|s| s.parent == Some(root.id) && s.name == name)
            .map(|s| selfs[s.id] as f64 / 1e9)
            .sum()
    };
    let (parse, build, search) = (stage("parse"), stage("build"), stage("search"));
    BTreeMap::from([
        ("datagen.io.parse_s", parse),
        ("datagen.io.parse_mb_per_s", csv_bytes as f64 / 1e6 / parse),
        ("datagen.estimator.estimate_s", stage("estimate")),
        ("core.instance.new_s", build),
        ("trace.cold.search_s", search),
        ("trace.cold.emit_s", stage("emit")),
        (
            "trace.cold.coverage",
            (parse + build + search) / (root.duration_ns() as f64 / 1e9),
        ),
    ])
}

type Counters = BTreeMap<&'static str, Vec<u64>>;

impl Measured {
    fn absorb_checks(&mut self, out: &PassOut) {
        self.attempted += out.attempted;
        self.failures.extend(out.failures.iter().cloned());
    }

    /// Checks each operation's counters against the first pass that ran
    /// the operation.
    fn compare_counters(&mut self, out: &PassOut) {
        for (op, now) in &out.counters {
            match self.counters.get(op) {
                None => {
                    self.counters.insert(op, now.clone());
                }
                Some(before) => {
                    self.attempted += 1;
                    if let Err(e) = checks::check_counters(op, before, now) {
                        self.failures.push(e);
                    }
                }
            }
        }
    }

    /// The metric's value in every pass.
    fn values_of(
        passes: &[PassOut],
        pick: impl Fn(&PassOut) -> Option<f64>,
        name: &str,
    ) -> Result<Vec<f64>, String> {
        let values: Vec<f64> = passes.iter().filter_map(pick).collect();
        if values.len() != passes.len() || values.is_empty() {
            return Err(format!("metric {name} was not measured in every pass"));
        }
        Ok(values)
    }

    /// Aggregates, writes the run's artifacts, prints the tables and
    /// returns the result line.
    fn finish(self, args: &Args, host: &Fingerprint) -> Result<String, String> {
        let def = args.workload;
        let failed = self.failures.len() as u64;
        let mut rows: Vec<(&str, &str, f64)> = Vec::new();
        if args.trace {
            for &(name, unit) in PER_LAYER {
                let value = match name {
                    "trace.overhead_ratio" => report::median(&self.overhead),
                    "error_rate" => failed as f64 / self.attempted.max(1) as f64,
                    _ => report::median(&Self::values_of(
                        &self.traced,
                        |p| p.layer.get(name).copied(),
                        name,
                    )?),
                };
                rows.push((name, unit, value));
            }
        } else {
            for &(name, unit, better) in END_TO_END {
                let value = match name {
                    "index_bytes_per_object" => self.index_bytes_per_object,
                    // The high-water mark once the first cold solve is done:
                    // later passes only re-allocate what it freed.
                    "peak_rss_mb" => self.untraced[0]
                        .e2e
                        .get(name)
                        .copied()
                        .ok_or("no VmHWM reading")?,
                    // Every pass does the same deterministic work, and other
                    // load on the host only ever slows a pass down: the
                    // fastest pass is the steadiest estimate of its cost.
                    _ => {
                        let values =
                            Self::values_of(&self.untraced, |p| p.e2e.get(name).copied(), name)?;
                        let best = if better == Better::Lower {
                            f64::min
                        } else {
                            f64::max
                        };
                        values.into_iter().reduce(best).expect("at least one pass")
                    }
                };
                rows.push((name, unit, value));
            }
        }
        for (name, _, value) in &rows {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
        }

        let passes = self.untraced.len();
        let title = format!(
            "{} seed {} trace {}: {} passes, {} per metric",
            def.name,
            args.seed,
            args.trace as u8,
            passes,
            if args.trace { "median" } else { "fastest pass" }
        );
        print!("{}", report::table(&title, &rows));
        for f in self.failures.iter().take(10) {
            eprintln!("check failed: {f}");
        }

        let out_dir = Path::new(OUT_DIR);
        let stem = format!("{}-seed{}-trace{}", def.name, args.seed, args.trace as u8);
        if let Some(rec) = &self.spans {
            let wall: u64 = rec
                .spans()
                .iter()
                .filter(|s| s.parent.is_none())
                .map(spans::Span::duration_ns)
                .sum();
            let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
            for (s, self_ns) in rec.spans().iter().zip(spans::self_times_ns(rec.spans())) {
                let e = totals.entry(span_key(s)).or_default();
                e.0 += 1;
                e.1 += self_ns;
            }
            print!(
                "{}",
                report::self_time_table("span self times over all traced passes", &totals, wall)
            );
            write_file(
                &out_dir.join("spans").join(format!("{stem}.jsonl")),
                &rec.to_jsonl(),
            )?;
        }
        let metrics = report::metrics_json(&rows);
        // Every pass's value of each metric, for judging a run's own spread.
        let per_pass: Vec<String> = rows
            .iter()
            .filter_map(|(name, _, _)| {
                let values: Vec<String> = (self.untraced.iter().map(|p| p.e2e.get(name)))
                    .chain(self.traced.iter().map(|p| p.layer.get(name)))
                    .map(|v| v.map(|x| fmt_f64(*x)))
                    .collect::<Option<_>>()?;
                Some(format!("\"{name}\": [{}]", values.join(", ")))
            })
            .collect();
        let result = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"passes\": {passes}, \"host\": {}, \"failures\": [{}], \"metrics\": {metrics}, \"per_pass\": {{{}}}, \"counters\": {{{}}}}}\n",
            def.name,
            args.seed,
            args.trace,
            host.to_json(),
            self.failures.iter().map(|f| escape(f)).collect::<Vec<_>>().join(", "),
            per_pass.join(", "),
            self.counters
                .iter()
                .map(|(op, c)| format!("\"{op}\": {c:?}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        write_file(
            &out_dir.join("results").join(format!("{stem}.json")),
            &result,
        )?;
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
            failed == 0,
            self.attempted.max(1)
        ))
    }
}

/// Table row of a span: per-variable spans fold into their stage.
fn span_key(s: &spans::Span) -> String {
    if s.detail.is_empty() || s.detail.starts_with("var") {
        s.name.to_string()
    } else {
        format!("{}/{}", s.name, s.detail)
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_are_strict() {
        let a = parse_args(&argv(
            "--workload exact-chain5-100k --seed 3 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("exact-chain5-100k", 3, 5, true)
        );
        for bad in [
            "--workload nope --seed 1",
            "--workload exact-chain5-100k",
            "--workload exact-chain5-100k --seed x",
            "--workload exact-chain5-100k --seed 1 --trace 2",
            "--workload exact-chain5-100k --seed 1 --seconds 0",
            "--workload exact-chain5-100k --seed 1 --extra",
            "--workload exact-chain5-100k --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        use mwsj_core::obs::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json is valid JSON");
        let declared = |key: &str, field: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Json::as_str)
                        .expect(field)
                        .to_string()
                })
                .collect()
        };
        let ours =
            |table: Vec<&str>| -> Vec<String> { table.into_iter().map(String::from).collect() };
        assert_eq!(
            declared("end_to_end", "name"),
            ours(END_TO_END.iter().map(|m| m.0).collect())
        );
        assert_eq!(
            declared("end_to_end", "unit"),
            ours(END_TO_END.iter().map(|m| m.1).collect())
        );
        let better = |m: &(&str, &str, Better)| {
            if m.2 == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        };
        assert_eq!(
            declared("end_to_end", "better"),
            ours(END_TO_END.iter().map(better).collect())
        );
        assert_eq!(
            declared("per_layer", "name"),
            ours(PER_LAYER.iter().map(|m| m.0).collect())
        );
        assert_eq!(
            declared("per_layer", "unit"),
            ours(PER_LAYER.iter().map(|m| m.1).collect())
        );
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, workload::WORKLOADS.map(|w| w.name.to_string()));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
