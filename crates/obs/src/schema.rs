//! Validation of JSONL run-event files.
//!
//! The authoritative schema is the `run_events!` declaration in
//! [`crate::events`]: a line is valid exactly when it decodes into a
//! [`RunEvent`]. This module is the line- and file-level front end used by
//! tests, CI (via the `mwsj-schema-check` binary), `mwsj report` and
//! `mwsj watch`; [`render_table`] renders the declaration as the
//! `DESIGN.md` §5c table. Validation is deliberately *open*: unknown extra
//! fields are allowed (forward compatibility), but the `event`
//! discriminator must be known and every required field must be present
//! with the right JSON type.

use crate::events::RunEvent;
use crate::json::{Json, JsonError};
use crate::wire::FieldError;
use std::fmt;

/// A schema violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The line is not valid JSON.
    Json(JsonError),
    /// The line is valid JSON but not an object.
    NotAnObject,
    /// The object has no `"event"` string field.
    MissingEventField,
    /// The `"event"` value names no known event kind.
    UnknownEvent(String),
    /// A required field is missing.
    MissingField {
        /// The event kind.
        event: String,
        /// The missing field.
        field: String,
    },
    /// A field is present with the wrong JSON type.
    WrongType {
        /// The event kind.
        event: String,
        /// The offending field.
        field: String,
        /// The expected type, human-readable.
        expected: &'static str,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Json(e) => write!(f, "{e}"),
            SchemaError::NotAnObject => write!(f, "line is not a JSON object"),
            SchemaError::MissingEventField => write!(f, "missing \"event\" string field"),
            SchemaError::UnknownEvent(kind) => write!(f, "unknown event kind {kind:?}"),
            SchemaError::MissingField { event, field } => {
                write!(f, "event {event:?} missing required field {field:?}")
            }
            SchemaError::WrongType {
                event,
                field,
                expected,
            } => write!(f, "event {event:?} field {field:?} must be a {expected}"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl SchemaError {
    /// Attributes a field-level decode failure to its event kind.
    pub(crate) fn field(event: &str, error: FieldError) -> SchemaError {
        let event = event.to_string();
        match error {
            FieldError::Missing(field) => SchemaError::MissingField { event, field },
            FieldError::WrongType(field, ty) => SchemaError::WrongType {
                event,
                field,
                expected: ty.name(),
            },
        }
    }
}

/// Parses and validates one JSONL line into its event.
pub fn parse_line(line: &str) -> Result<RunEvent, SchemaError> {
    RunEvent::from_json(&Json::parse(line).map_err(SchemaError::Json)?)
}

/// Validates one JSONL line; returns the event kind on success.
pub fn validate_line(line: &str) -> Result<&'static str, SchemaError> {
    parse_line(line).map(|event| event.kind())
}

/// Parses and validates a whole JSONL document (empty lines are ignored);
/// returns the events, or the 1-based line number of the first failure.
pub fn parse_jsonl(text: &str) -> Result<Vec<RunEvent>, (usize, SchemaError)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_line(line).map_err(|e| (i + 1, e)))
        .collect()
}

/// Validates a whole JSONL document (empty lines are ignored); returns the
/// number of events on success, or the 1-based line number of the first
/// failure.
pub fn validate_jsonl(text: &str) -> Result<usize, (usize, SchemaError)> {
    parse_jsonl(text).map(|events| events.len())
}

/// Renders the event declaration as the canonical markdown table of
/// `DESIGN.md` §5c: one row per kind, fields in wire order, `?` marking
/// optional ones.
pub fn render_table() -> String {
    let mut out = String::from("| `event` | fields |\n|---|---|\n");
    for (kind, fields) in RunEvent::schema() {
        let fields: Vec<String> = fields
            .iter()
            .map(|f| {
                let optional = if f.optional { "?" } else { "" };
                format!("`{}` {}{optional}", f.name, f.ty.short())
            })
            .collect();
        out.push_str(&format!("| `{kind}` | {} |\n", fields.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RunEvent;
    use crate::metrics::MetricsSnapshot;

    #[test]
    fn emitted_events_validate() {
        let events = vec![
            RunEvent::RunStart {
                algo: "GILS".into(),
                n_vars: 4,
                edges: 3,
                restarts: 1,
                threads: 0,
                seed: 1,
                budget_steps: None,
                budget_secs: Some(2.0),
            },
            RunEvent::Improvement {
                restart: None,
                step: 5,
                violations: 1,
                similarity: 0.66,
                elapsed_secs: 0.01,
            },
            RunEvent::Progress {
                restart: Some(2),
                step: 100,
                steps_per_sec: 9000.0,
                elapsed_secs: 0.011,
                best_violations: Some(0),
                best_similarity: Some(1.0),
                node_accesses: 77,
                cache_hits: 5,
                cache_misses: 2,
                resident_bytes: 4096,
            },
            RunEvent::Progress {
                restart: None,
                step: 100,
                steps_per_sec: 0.0,
                elapsed_secs: 0.0,
                best_violations: None,
                best_similarity: None,
                node_accesses: 0,
                cache_hits: 0,
                cache_misses: 0,
                resident_bytes: 0,
            },
            RunEvent::StallDetected {
                restart: None,
                step: 700,
                steps_since_improvement: 600,
                secs_since_improvement: 0.4,
                elapsed_secs: 0.5,
            },
            RunEvent::StallAborted {
                restart: Some(1),
                steps: 710,
                elapsed_secs: 0.51,
            },
            RunEvent::StagnationReseed {
                restart: Some(0),
                step: 340,
                rounds: 64,
                elapsed_secs: 0.2,
            },
            RunEvent::Metrics {
                snapshot: MetricsSnapshot::default(),
            },
            RunEvent::Phases { phases: vec![] },
            RunEvent::ExplainReport {
                report: crate::explain::ExplainReport {
                    model: "acyclic".into(),
                    expected_solutions: 1.0,
                    edges: vec![crate::explain::EdgeExplain {
                        a: 0,
                        b: 1,
                        predicate: "intersects".into(),
                        estimated_selectivity: 0.04,
                        observed_selectivity: Some(0.05),
                        observed_pairs: Some(2_000),
                    }],
                    vars: vec![crate::explain::VarExplain {
                        var: 0,
                        cardinality: 200,
                        avg_extent: 0.05,
                        expected_window_hits: 8.0,
                        predicted_accesses_per_query: 3.5,
                        observed_accesses: 42,
                        accesses_per_level: vec![32, 10],
                        tree: crate::explain::TreeQuality::default(),
                        grid: Some(crate::explain::GridQuality::default()),
                    }],
                    observed_node_accesses: Some(42),
                },
            },
            RunEvent::ResourceReport {
                report: {
                    let mut r = crate::resource::ResourceReport::new();
                    r.record("rtree.var000", 2048);
                    r
                },
            },
            RunEvent::RunEnd {
                best_violations: 1,
                best_similarity: 0.66,
                steps: 100,
                node_accesses: 42,
                local_maxima: 2,
                improvements: 1,
                restarts: 3,
                elapsed_secs: 0.1,
                proven_optimal: false,
            },
        ];
        for event in &events {
            assert_eq!(validate_line(&event.to_json()), Ok(event.kind()));
        }
    }

    #[test]
    fn rejects_unknown_event() {
        let err = validate_line(r#"{"event":"nope"}"#).unwrap_err();
        assert_eq!(err, SchemaError::UnknownEvent("nope".into()));
    }

    #[test]
    fn rejects_missing_and_mistyped_fields() {
        let err = validate_line(r#"{"event":"restart_start","restart":0}"#).unwrap_err();
        assert_eq!(
            err,
            SchemaError::MissingField {
                event: "restart_start".into(),
                field: "seed".into()
            }
        );
        let err = validate_line(r#"{"event":"restart_start","restart":0,"seed":-1}"#).unwrap_err();
        assert!(matches!(err, SchemaError::WrongType { .. }));
        // Optional field with the wrong type is still an error.
        let err = validate_line(
            r#"{"event":"improvement","step":1,"violations":0,"similarity":1,"elapsed_secs":0,"restart":"x"}"#,
        )
        .unwrap_err();
        assert!(matches!(err, SchemaError::WrongType { .. }));
    }

    #[test]
    fn rejects_non_json_and_non_objects() {
        assert!(matches!(
            validate_line("not json"),
            Err(SchemaError::Json(_))
        ));
        assert_eq!(validate_line("[1,2]"), Err(SchemaError::NotAnObject));
        assert_eq!(validate_line("{}"), Err(SchemaError::MissingEventField));
    }

    #[test]
    fn validate_jsonl_counts_events_and_reports_line_numbers() {
        let good = "{\"event\":\"phases\",\"phases\":[]}\n\n{\"event\":\"phases\",\"phases\":[]}\n";
        assert_eq!(validate_jsonl(good), Ok(2));
        let bad = "{\"event\":\"phases\",\"phases\":[]}\nbroken\n";
        assert_eq!(validate_jsonl(bad).unwrap_err().0, 2);
    }

    #[test]
    fn integers_above_u64_max_are_wrong_type() {
        let line = r#"{"event":"restart_start","restart":0,"seed":18446744073709551616}"#;
        assert_eq!(
            validate_line(line),
            Err(SchemaError::WrongType {
                event: "restart_start".into(),
                field: "seed".into(),
                expected: "non-negative integer",
            })
        );
        let line = r#"{"event":"restart_start","restart":0,"seed":18446744073709551615}"#;
        assert_eq!(
            parse_line(line),
            Ok(RunEvent::RestartStart {
                restart: 0,
                seed: u64::MAX
            })
        );
    }

    #[test]
    fn payload_members_are_checked_to_the_leaves() {
        assert_eq!(
            validate_line(r#"{"event":"phases","phases":[{"path":"a"}]}"#),
            Err(SchemaError::MissingField {
                event: "phases".into(),
                field: "phases[0].calls".into(),
            })
        );
        assert_eq!(
            validate_line(r#"{"event":"resource_report","total_bytes":1,"components":{"a":-1}}"#),
            Err(SchemaError::WrongType {
                event: "resource_report".into(),
                field: "components.a".into(),
                expected: "non-negative integer",
            })
        );
    }

    #[test]
    fn design_doc_table_is_rendered_from_the_declaration() {
        let design = include_str!("../../../DESIGN.md");
        let table = render_table();
        assert!(
            design.contains(&table),
            "DESIGN.md §5c event table is out of date; replace it with:\n{table}"
        );
    }

    #[test]
    fn unknown_extra_fields_are_allowed() {
        assert!(validate_line(r#"{"event":"phases","phases":[],"extra":1}"#).is_ok());
    }
}
