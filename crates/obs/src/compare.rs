//! Noise-aware comparison of two benchmark snapshots — the regression
//! gate behind `mwsj bench compare`.
//!
//! The gate is one generic walk over the two snapshots' JSON trees
//! ([`BenchSnapshot::to_json`]), not one comparator per section. It
//! follows the workspace determinism contract — everything a snapshot
//! records is deterministic under its step budgets except an explicit
//! list of measured fields:
//!
//! * **Deterministic fields** — every field not listed below: work
//!   counters, `best_similarity`, `auc_steps`, `steps_to`, the instance
//!   metadata and seed, the anytime curve's `step`/`similarity`, the phase
//!   `path`/`calls`/`steps`, and the whole `memory`, `cache` and `explain`
//!   sections. Integers must match *exactly*, floats to round-off
//!   (`FLOAT_EPS` = 1e-9), strings, booleans and `null` exactly. Any drift
//!   means the algorithms themselves changed and fails the gate outright,
//!   one finding per drifted field, named by its path.
//! * **Measured fields** — [`MEASURED`]: the label and rep count, the
//!   per-rep wall times, steps/sec, the wall-axis AUC, `time_to_ms`, and
//!   the wall-clock members of the curve and the phase table. They are
//!   too noisy on shared runners to gate and never fail the comparison.
//! * **The wall-clock median** alone is gated, with a relative tolerance
//!   band (default +25%) widened by an absolute slack (default +5ms): a
//!   candidate fails only when it exceeds both, so sub-millisecond jitter
//!   on tiny workloads does not read as a regression.
//!
//! Arrays of records are matched by identity ([`KEYED`]): suite
//! instances by `instance`, their algorithms by `algo`, `memory` and
//! `explain` records by `instance`, `cache` records by
//! (`instance`, `algo`). Missing and extra records fail — a disappearing
//! benchmark is a regression of coverage, not noise. Every other array is
//! compared by position.

use crate::json::Json;
use crate::snapshot::BenchSnapshot;
use std::fmt::Write as _;

/// Relative wall-clock slowdown tolerated by default (0.25 = +25%).
pub const DEFAULT_WALL_TOLERANCE: f64 = 0.25;

/// Absolute wall-clock slack tolerated by default, in milliseconds.
///
/// Sub-10ms medians on shared runners jitter by fractions of a
/// millisecond, which a purely relative band misreads as a regression
/// (0.01ms on a 0.04ms median is +25%). A candidate therefore fails the
/// wall gate only when it exceeds **both** the relative band and this
/// absolute slack over the baseline.
pub const DEFAULT_WALL_SLACK_MS: f64 = 5.0;

/// Absolute tolerance for derived deterministic floats (round-off only).
const FLOAT_EPS: f64 = 1e-9;

/// Noise floor for the wall gate, in milliseconds: the relative band is
/// evaluated against `max(baseline, floor)`, because a percentage of a
/// 0.02ms median is pure scheduler jitter under *any* tolerance — this is
/// what lets `--wall-slack-ms 0` (relative-band-only gating, used by the
/// large-tier CI job) stay flake-free on instances that converge in
/// microseconds. A genuine regression still fails: the candidate must
/// exceed both `max(baseline, floor)·(1+tolerance)` and
/// `baseline + slack`.
pub const WALL_NOISE_FLOOR_MS: f64 = 1.0;

/// Comparison configuration.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Maximum tolerated relative wall-clock slowdown of the median
    /// (`0.25` fails candidates more than 25% slower than baseline).
    pub wall_tolerance: f64,
    /// Absolute wall-clock slack in milliseconds; a candidate median
    /// within `baseline + wall_slack_ms` never fails the wall gate even
    /// when the relative band is exceeded (noise floor for tiny
    /// workloads).
    pub wall_slack_ms: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            wall_tolerance: DEFAULT_WALL_TOLERANCE,
            wall_slack_ms: DEFAULT_WALL_SLACK_MS,
        }
    }
}

/// Severity of one comparison line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or informational only).
    Ok,
    /// A regression or determinism violation; fails the gate.
    Fail,
}

/// One finding of the comparison.
#[derive(Debug, Clone)]
pub struct CompareLine {
    /// `instance/algo` scope (empty for snapshot-level findings).
    pub scope: String,
    /// Severity.
    pub verdict: Verdict,
    /// Human-readable description.
    pub message: String,
}

/// The full comparison result.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Every finding, in suite order.
    pub lines: Vec<CompareLine>,
}

impl CompareReport {
    fn push(&mut self, scope: &str, verdict: Verdict, message: String) {
        self.lines.push(CompareLine {
            scope: scope.to_string(),
            verdict,
            message,
        });
    }

    /// Number of failing findings.
    pub fn failures(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| l.verdict == Verdict::Fail)
            .count()
    }

    /// `true` when no finding fails the gate.
    pub fn passed(&self) -> bool {
        self.failures() == 0
    }

    /// Renders the report as the text `mwsj bench compare` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let tag = match line.verdict {
                Verdict::Ok => "ok  ",
                Verdict::Fail => "FAIL",
            };
            if line.scope.is_empty() {
                let _ = writeln!(out, "{tag}  {}", line.message);
            } else {
                let _ = writeln!(out, "{tag}  {}: {}", line.scope, line.message);
            }
        }
        let _ = match self.failures() {
            0 => writeln!(out, "\nresult: PASS ({} checks)", self.lines.len()),
            n => writeln!(
                out,
                "\nresult: FAIL ({n} of {} checks failed)",
                self.lines.len()
            ),
        };
        out
    }
}

/// Arrays whose elements are records matched by identity: the array's
/// schema path (`[]` marks "any element") and the identity fields.
pub const KEYED: &[(&str, &[&str])] = &[
    ("suite", &["instance"]),
    ("suite[].algos", &["algo"]),
    ("memory", &["instance"]),
    ("cache", &["instance", "algo"]),
    ("explain", &["instance"]),
];

/// Measured fields, by schema path: reported nowhere and never gated.
pub const MEASURED: &[&str] = &[
    "label",
    "reps",
    "suite[].algos[].wall_ms_reps",
    "suite[].algos[].steps_per_sec",
    "suite[].algos[].auc_wall",
    "suite[].algos[].time_to_ms",
    "suite[].algos[].curve[].wall_ms",
    "suite[].algos[].phases[].wall_secs",
];

/// The one measured field that is gated, by the wall tolerance band.
const WALL_MEDIAN: &str = "suite[].algos[].wall_ms_median";

/// Compares `candidate` against `baseline` under `cfg` (see module docs
/// for the semantics).
pub fn compare(
    baseline: &BenchSnapshot,
    candidate: &BenchSnapshot,
    cfg: CompareConfig,
) -> CompareReport {
    let mut report = CompareReport::default();
    // Suite-keyed instances must tell the truth about themselves:
    // `random-n10-hard` recording `n_vars: 1` means some tool sliced the
    // key instead of parsing it (see [`crate::suite_key`]). Both sides are
    // checked — a poisoned baseline is as useless as a poisoned candidate.
    for (side, snap) in [("baseline", baseline), ("candidate", candidate)] {
        for inst in &snap.instances {
            let Some(key) = crate::suite_key::SuiteKey::parse(&inst.name) else {
                continue;
            };
            if key.n_vars != inst.n_vars {
                report.push(
                    &inst.name,
                    Verdict::Fail,
                    format!(
                        "{side} suite key declares n={} but the record says n_vars={}",
                        key.n_vars, inst.n_vars
                    ),
                );
            }
            if key.shape != inst.shape {
                report.push(
                    &inst.name,
                    Verdict::Fail,
                    format!(
                        "{side} suite key declares shape '{}' but the record says '{}'",
                        key.shape, inst.shape
                    ),
                );
            }
        }
    }
    let mut walk = Walk {
        cfg,
        report: &mut report,
    };
    let mut drift = Vec::new();
    walk.value(
        "",
        "",
        "",
        &baseline.to_json(),
        &candidate.to_json(),
        &mut drift,
    );
    for message in drift {
        report.push("", Verdict::Fail, message);
    }
    report
}

/// The generic tree walk. `schema` is the path with array elements as
/// `[]` (what [`KEYED`] and [`MEASURED`] name); `field` is the path inside
/// the current record, with keys and indices spelled out, for messages.
struct Walk<'a> {
    cfg: CompareConfig,
    report: &'a mut CompareReport,
}

impl Walk<'_> {
    /// Compares one keyed record and reports its verdict under `scope`.
    fn record(&mut self, scope: &str, schema: &str, base: &Json, cand: &Json) {
        let mut drift = Vec::new();
        self.value(scope, schema, "", base, cand, &mut drift);
        if drift.is_empty() {
            self.report
                .push(scope, Verdict::Ok, "deterministic fields identical".into());
        }
        for message in drift {
            self.report.push(scope, Verdict::Fail, message);
        }
    }

    fn value(
        &mut self,
        scope: &str,
        schema: &str,
        field: &str,
        base: &Json,
        cand: &Json,
        drift: &mut Vec<String>,
    ) {
        if MEASURED.contains(&schema) {
            return;
        }
        if schema == WALL_MEDIAN {
            self.wall(scope, base, cand);
            return;
        }
        match (base, cand) {
            (Json::Obj(b), Json::Obj(c)) => {
                for (key, bv) in b {
                    let (sub, path) = (join(schema, key), join(field, key));
                    match c.iter().find(|(k, _)| k == key) {
                        Some((_, cv)) => self.value(scope, &sub, &path, bv, cv, drift),
                        None if MEASURED.contains(&sub.as_str()) => {}
                        None => drift.push(format!("{path} {} -> <absent>", show(bv))),
                    }
                }
                for (key, cv) in c {
                    let sub = join(schema, key);
                    if !b.iter().any(|(k, _)| k == key) && !MEASURED.contains(&sub.as_str()) {
                        drift.push(format!("{} <absent> -> {}", join(field, key), show(cv)));
                    }
                }
            }
            (Json::Arr(b), Json::Arr(c)) => {
                let element = format!("{schema}[]");
                if let Some((_, keys)) = KEYED.iter().find(|(path, _)| *path == schema) {
                    let prefix = if scope.is_empty() {
                        String::new()
                    } else {
                        format!("{scope}.")
                    };
                    self.keyed(&format!("{prefix}{field}"), &element, keys, b, c);
                } else if b.len() != c.len() {
                    drift.push(format!("{field} {} -> {}", show(base), show(cand)));
                } else {
                    for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                        self.value(scope, &element, &format!("{field}[{i}]"), bv, cv, drift);
                    }
                }
            }
            (Json::U64(_) | Json::Num(_), Json::U64(_) | Json::Num(_)) => {
                let drifted = match (base, cand) {
                    (Json::U64(b), Json::U64(c)) => b != c,
                    _ => {
                        let (b, c) = (base.as_f64().unwrap_or(0.0), cand.as_f64().unwrap_or(0.0));
                        (b - c).abs() > FLOAT_EPS
                    }
                };
                if drifted {
                    drift.push(format!("{field} {} -> {}", show(base), show(cand)));
                }
            }
            _ if base == cand => {}
            _ => drift.push(format!("{field} {} -> {}", show(base), show(cand))),
        }
    }

    /// Matches the records of two keyed arrays by their identity fields;
    /// records present on one side only fail.
    fn keyed(&mut self, array: &str, element: &str, keys: &[&str], base: &[Json], cand: &[Json]) {
        let identity = |record: &Json| {
            keys.iter()
                .map(|k| record.get(k).and_then(Json::as_str).unwrap_or("?"))
                .collect::<Vec<_>>()
                .join("/")
        };
        for b in base {
            let id = identity(b);
            let scope = format!("{array}[{id}]");
            match cand.iter().find(|c| identity(c) == id) {
                Some(c) => self.record(&scope, element, b, c),
                None => self.report.push(
                    &scope,
                    Verdict::Fail,
                    "missing from candidate snapshot".into(),
                ),
            }
        }
        for c in cand {
            let id = identity(c);
            if !base.iter().any(|b| identity(b) == id) {
                self.report.push(
                    &format!("{array}[{id}]"),
                    Verdict::Fail,
                    "not present in baseline (re-snapshot the baseline)".into(),
                );
            }
        }
    }

    /// Measured wall clock: median within the tolerance band. The band is
    /// relative-OR-absolute — a candidate fails only when it exceeds both
    /// `baseline * (1 + tolerance)` and `baseline + slack`, so sub-slack
    /// jitter on tiny workloads never trips the gate.
    fn wall(&mut self, scope: &str, base: &Json, cand: &Json) {
        let (b, c) = (base.as_f64().unwrap_or(0.0), cand.as_f64().unwrap_or(0.0));
        if b > 0.0 {
            let cfg = self.cfg;
            let msg = format!(
                "wall median {b:.2}ms -> {c:.2}ms ({:+.1}%, tolerance +{:.0}% or +{:.1}ms)",
                (c / b - 1.0) * 100.0,
                cfg.wall_tolerance * 100.0,
                cfg.wall_slack_ms
            );
            let verdict = if c > b.max(WALL_NOISE_FLOOR_MS) * (1.0 + cfg.wall_tolerance)
                && c > b + cfg.wall_slack_ms
            {
                Verdict::Fail
            } else {
                Verdict::Ok
            };
            self.report.push(scope, verdict, msg);
        } else {
            self.report.push(
                scope,
                Verdict::Ok,
                format!("wall median {b:.2}ms -> {c:.2}ms (baseline too small to gate)"),
            );
        }
    }
}

fn join(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

/// A value as drift messages show it; arrays by length only.
fn show(value: &Json) -> String {
    match value {
        Json::Arr(items) => format!("[{} items]", items.len()),
        Json::Str(s) => format!("{s:?}"),
        other => other.dump(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::AnytimeCurve;
    use crate::snapshot::{AlgoRecord, InstanceRecord, TAUS};

    fn record(algo: &str, steps: u64, wall_ms: f64) -> AlgoRecord {
        let mut curve = AnytimeCurve::new();
        curve.record(0, 0.0, 0.5);
        curve.record(steps / 2, wall_ms / 2.0, 1.0);
        curve.set_totals(steps, steps * 3, wall_ms);
        AlgoRecord::from_curve(
            algo,
            vec![("steps".into(), steps), ("node_accesses".into(), steps * 3)],
            1.0,
            &curve,
            vec![wall_ms],
            vec![],
        )
    }

    fn snapshot(label: &str, algos: Vec<AlgoRecord>) -> BenchSnapshot {
        BenchSnapshot {
            label: label.into(),
            reps: 1,
            instances: vec![InstanceRecord {
                name: "chain-4".into(),
                shape: "chain".into(),
                n_vars: 4,
                cardinality: 100,
                seed: 1,
                algos,
            }],
            memory: vec![],
            cache: vec![],
            explain: vec![],
        }
    }

    #[test]
    fn identical_snapshots_pass() {
        let a = snapshot("a", vec![record("ILS", 100, 10.0)]);
        let b = snapshot("b", vec![record("ILS", 100, 10.0)]);
        let report = compare(&a, &b, CompareConfig::default());
        assert!(report.passed(), "{}", report.render());
        assert!(report.render().contains("result: PASS"));
    }

    #[test]
    fn counter_drift_fails() {
        let a = snapshot("a", vec![record("ILS", 100, 10.0)]);
        let b = snapshot("b", vec![record("ILS", 101, 10.0)]);
        let report = compare(&a, &b, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report
                .render()
                .contains("suite[chain-4].algos[ILS]: counters.steps 100 -> 101"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn wall_slowdown_within_band_passes_beyond_fails() {
        // Baselines well above the absolute slack, so the relative band
        // is what decides.
        let a = snapshot("a", vec![record("ILS", 100, 100.0)]);
        let mut fast = record("ILS", 100, 100.0);
        fast.wall_ms_median = 120.0; // +20% < +25%
        let report = compare(&a, &snapshot("b", vec![fast]), CompareConfig::default());
        assert!(report.passed(), "{}", report.render());

        let mut slow = record("ILS", 100, 100.0);
        slow.wall_ms_median = 130.0; // +30% > +25%, +30ms > slack
        let report = compare(&a, &snapshot("b", vec![slow]), CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report.render().contains("wall median"),
            "{}",
            report.render()
        );

        // A wider band admits it.
        let mut slow = record("ILS", 100, 100.0);
        slow.wall_ms_median = 130.0;
        let report = compare(
            &a,
            &snapshot("b", vec![slow]),
            CompareConfig {
                wall_tolerance: 0.5,
                ..CompareConfig::default()
            },
        );
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn absolute_slack_floors_the_relative_band_on_tiny_workloads() {
        // +75% relative, but only +0.03ms absolute: inside the slack.
        let a = snapshot("a", vec![record("ILS", 100, 0.04)]);
        let mut jittery = record("ILS", 100, 0.04);
        jittery.wall_ms_median = 0.07;
        let report = compare(&a, &snapshot("b", vec![jittery]), CompareConfig::default());
        assert!(report.passed(), "{}", report.render());

        // The slack is additive, not a substitute: past both bounds fails.
        let mut slow = record("ILS", 100, 0.04);
        slow.wall_ms_median = 8.0;
        let report = compare(&a, &snapshot("b", vec![slow]), CompareConfig::default());
        assert!(!report.passed(), "{}", report.render());

        // Zero slack restores the purely relative gate — for medians
        // above the noise floor.
        let a = snapshot("a", vec![record("ILS", 100, 4.0)]);
        let mut slow = record("ILS", 100, 4.0);
        slow.wall_ms_median = 7.0; // +75% > +25%, above the 1ms floor
        let report = compare(
            &a,
            &snapshot("b", vec![slow]),
            CompareConfig {
                wall_slack_ms: 0.0,
                ..CompareConfig::default()
            },
        );
        assert!(!report.passed(), "{}", report.render());
    }

    #[test]
    fn sub_millisecond_medians_never_flake_the_relative_gate() {
        // Relative-band-only config (the large-tier CI job): an 87%
        // "regression" on a 0.02ms median is scheduler jitter, not signal
        // — the noise floor absorbs it.
        let relative_only = CompareConfig {
            wall_tolerance: 0.6,
            wall_slack_ms: 0.0,
        };
        let a = snapshot("a", vec![record("ILS", 100, 0.02)]);
        let mut jittery = record("ILS", 100, 0.02);
        jittery.wall_ms_median = 0.04; // +100%, far below the floor
        let report = compare(&a, &snapshot("b", vec![jittery]), relative_only);
        assert!(report.passed(), "{}", report.render());

        // A genuine blow-up from a tiny baseline still fails: the floor
        // caps the denominator, it does not waive the gate.
        let mut blown = record("ILS", 100, 0.02);
        blown.wall_ms_median = 5.0; // > 1ms·1.6 and > baseline + 0
        let report = compare(&a, &snapshot("b", vec![blown]), relative_only);
        assert!(!report.passed(), "{}", report.render());
    }

    #[test]
    fn speedups_always_pass_the_wall_gate() {
        let a = snapshot("a", vec![record("ILS", 100, 10.0)]);
        let mut fast = record("ILS", 100, 10.0);
        fast.wall_ms_median = 2.0;
        let report = compare(&a, &snapshot("b", vec![fast]), CompareConfig::default());
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn missing_and_extra_records_fail() {
        let a = snapshot("a", vec![record("ILS", 100, 10.0), record("GILS", 50, 5.0)]);
        let b = snapshot("b", vec![record("ILS", 100, 10.0), record("SEA", 70, 7.0)]);
        let report = compare(&a, &b, CompareConfig::default());
        let rendered = report.render();
        assert_eq!(report.failures(), 2, "{rendered}");
        assert!(rendered.contains("GILS"), "{rendered}");
        assert!(rendered.contains("SEA"), "{rendered}");

        let empty = BenchSnapshot {
            label: "e".into(),
            reps: 1,
            instances: vec![],
            memory: vec![],
            cache: vec![],
            explain: vec![],
        };
        let report = compare(&a, &empty, CompareConfig::default());
        assert!(!report.passed());
    }

    #[test]
    fn derived_float_and_threshold_drift_fail() {
        let a = snapshot("a", vec![record("ILS", 100, 10.0)]);
        let mut drifted = record("ILS", 100, 10.0);
        drifted.auc_steps += 0.01;
        let report = compare(&a, &snapshot("b", vec![drifted]), CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report
                .render()
                .contains("suite[chain-4].algos[ILS]: auc_steps 0.75 -> 0.76"),
            "{}",
            report.render()
        );

        let mut drifted = record("ILS", 100, 10.0);
        drifted.steps_to = TAUS.iter().map(|&t| (format!("{t:.2}"), None)).collect();
        let report = compare(&a, &snapshot("b", vec![drifted]), CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report.render().contains("steps_to.0.50 0 -> null"),
            "{}",
            report.render()
        );
    }

    fn keyed_snapshot(label: &str, name: &str, n_vars: u64, shape: &str) -> BenchSnapshot {
        BenchSnapshot {
            label: label.into(),
            reps: 1,
            instances: vec![InstanceRecord {
                name: name.into(),
                shape: shape.into(),
                n_vars,
                cardinality: 10_000,
                seed: 1,
                algos: vec![record("ILS", 100, 10.0)],
            }],
            memory: vec![],
            cache: vec![],
            explain: vec![],
        }
    }

    #[test]
    fn multi_digit_suite_keys_validate_against_record_metadata() {
        // Consistent n=10 key: passes — a parser slicing one digit would
        // have read n=1 and failed this.
        let a = keyed_snapshot("a", "random-n10-hard", 10, "random");
        let b = keyed_snapshot("b", "random-n10-hard", 10, "random");
        assert!(compare(&a, &b, CompareConfig::default()).passed());

        // A record whose metadata contradicts its key fails the gate.
        let bad = keyed_snapshot("b", "random-n10-hard", 1, "random");
        let report = compare(&a, &bad, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report.render().contains("suite key declares n=10"),
            "{}",
            report.render()
        );

        let bad = keyed_snapshot("b", "random-n10-hard", 10, "chain");
        let report = compare(&a, &bad, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report.render().contains("suite key declares shape"),
            "{}",
            report.render()
        );
    }

    fn with_sections(mut snap: BenchSnapshot) -> BenchSnapshot {
        snap.memory = vec![crate::snapshot::MemoryRecord {
            instance: "chain-4".into(),
            components: vec![("rtree.var000".into(), 4096)],
            total_bytes: 4096,
        }];
        snap.cache = vec![crate::snapshot::CacheRecord {
            instance: "chain-4".into(),
            algo: "ILS".into(),
            hits: 10,
            misses: 20,
            invalidations_reassign: 3,
            invalidations_penalty: 0,
            bytes: 512,
        }];
        snap.explain = vec![crate::snapshot::ExplainRecord {
            instance: "chain-4".into(),
            report: crate::explain::tests::sample_report(false),
        }];
        snap
    }

    #[test]
    fn identical_memory_and_cache_sections_pass() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100, 10.0)]));
        let b = with_sections(snapshot("b", vec![record("ILS", 100, 10.0)]));
        let report = compare(&a, &b, CompareConfig::default());
        assert!(report.passed(), "{}", report.render());
        let rendered = report.render();
        for scope in ["memory[chain-4]", "cache[chain-4/ILS]", "explain[chain-4]"] {
            assert!(
                rendered.contains(&format!("ok    {scope}: deterministic fields identical")),
                "{rendered}"
            );
        }
    }

    #[test]
    fn explain_estimate_drift_fails_exactly() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100, 10.0)]));
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100, 10.0)]));
        b.explain[0].report.edges[0].estimated_selectivity += 0.001;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report
                .render()
                .contains("explain[chain-4]: edges[0].estimated_selectivity 0.04 -> 0.041"),
            "{}",
            report.render()
        );

        // Round-off-scale float differences stay inside the gate.
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100, 10.0)]));
        b.explain[0].report.vars[0].avg_extent += 1e-12;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn explain_tree_quality_drift_fails() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100, 10.0)]));
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100, 10.0)]));
        b.explain[0].report.vars[1].tree.overlap_factor_per_level[0] += 0.1;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report
                .render()
                .contains("vars[1].tree.overlap_factor_per_level[0] 0.4 -> 0.5"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn memory_byte_drift_fails_exactly() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100, 10.0)]));
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100, 10.0)]));
        b.memory[0].components[0].1 += 1;
        b.memory[0].total_bytes += 1;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(!report.passed());
        let rendered = report.render();
        assert!(
            rendered.contains("memory[chain-4]: components.rtree.var000 4096 -> 4097")
                && rendered.contains("memory[chain-4]: total_bytes 4096 -> 4097"),
            "{rendered}"
        );
    }

    #[test]
    fn cache_counter_drift_fails_exactly() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100, 10.0)]));
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100, 10.0)]));
        b.cache[0].hits += 1;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report
                .render()
                .contains("cache[chain-4/ILS]: hits 10 -> 11"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn missing_memory_or_cache_section_fails_both_ways() {
        let with = with_sections(snapshot("a", vec![record("ILS", 100, 10.0)]));
        let without = snapshot("b", vec![record("ILS", 100, 10.0)]);
        // Baseline has the sections, candidate lost them: regression.
        let report = compare(&with, &without, CompareConfig::default());
        assert_eq!(report.failures(), 3, "{}", report.render());
        assert!(report.render().contains("missing from candidate"));
        // Candidate grew sections the baseline lacks: re-snapshot.
        let report = compare(&without, &with, CompareConfig::default());
        assert_eq!(report.failures(), 3, "{}", report.render());
        assert!(report.render().contains("not present in baseline"));
    }

    #[test]
    fn workload_metadata_drift_between_snapshots_fails() {
        // Same (unkeyed) instance name, different workload parameters:
        // the counters are not comparable, so the gate must fail even
        // though each snapshot is self-consistent.
        let a = snapshot("a", vec![record("ILS", 100, 10.0)]);
        let mut b = snapshot("b", vec![record("ILS", 100, 10.0)]);
        b.instances[0].n_vars = 5;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report.render().contains("suite[chain-4]: n_vars 4 -> 5"),
            "{}",
            report.render()
        );
    }

    fn with_phase(mut algo: AlgoRecord) -> AlgoRecord {
        algo.phases = vec![crate::timer::PhaseSnapshot {
            path: "ils".into(),
            calls: 1,
            steps: 100,
            wall: std::time::Duration::from_millis(9),
        }];
        algo
    }

    #[test]
    fn measured_fields_are_never_gated() {
        let a = snapshot("a", vec![with_phase(record("ILS", 100, 10.0))]);
        let mut b = snapshot("b", vec![with_phase(record("ILS", 100, 10.0))]);
        b.reps = 5;
        let algo = &mut b.instances[0].algos[0];
        algo.wall_ms_reps = vec![1.0, 2.0, 3.0];
        algo.steps_per_sec *= 7.0;
        algo.auc_wall = 0.1;
        algo.time_to_ms = TAUS.iter().map(|&t| (format!("{t:.2}"), None)).collect();
        for point in &mut algo.curve {
            point.wall_ms += 40.0;
        }
        algo.phases[0].wall *= 3;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn seed_curve_and_phase_counts_are_gated() {
        let a = snapshot("a", vec![with_phase(record("ILS", 100, 10.0))]);
        let mut b = snapshot("b", vec![with_phase(record("ILS", 100, 10.0))]);
        b.instances[0].seed = 2;
        let algo = &mut b.instances[0].algos[0];
        algo.curve[1].step += 1;
        algo.curve[1].similarity = 0.9;
        algo.phases[0].calls = 2;
        let report = compare(&a, &b, CompareConfig::default());
        let rendered = report.render();
        assert_eq!(report.failures(), 4, "{rendered}");
        for finding in [
            "suite[chain-4]: seed 1 -> 2",
            "suite[chain-4].algos[ILS]: curve[1].step 50 -> 51",
            "suite[chain-4].algos[ILS]: curve[1].similarity 1 -> 0.9",
            "suite[chain-4].algos[ILS]: phases[0].calls 1 -> 2",
        ] {
            assert!(rendered.contains(finding), "{finding}\n{rendered}");
        }
    }
}
