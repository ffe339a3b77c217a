//! Dependency-free observability layer for the multiway-spatial-join
//! workspace.
//!
//! The paper's whole evaluation (Figs. 10a–c, 11 of *Papadias &
//! Arkoumanis, EDBT 2002*) is instrumentation: similarity-over-time
//! convergence, node accesses and step counts. This crate centralises that
//! bookkeeping behind two cooperating pieces:
//!
//! * [`PhaseTimer`] — hierarchical wall-clock spans
//!   (`solve > restart[3] > find_best_value`) with per-phase call counts
//!   and step attribution.
//!   Disabled timers never call [`std::time::Instant::now`].
//! * [`RunEvent`] / [`EventSink`] — a structured run-event stream (run
//!   start/end, incumbent improvements, restart lifecycle, budget
//!   exhaustion, cutoff firings) serialised as JSON Lines. The schema is
//!   the one `run_events!` declaration in [`events`]: it generates the
//!   encoder, the decoder [`RunEvent::from_json`] behind
//!   [`schema::validate_line`] (also available as the `mwsj-schema-check`
//!   binary), and the `DESIGN.md` table, which a unit test keeps in sync.
//!   Nested records declare their wire form once with [`wire`]'s
//!   `wire_record!`, and [`Json`] is the one encoder underneath.
//!
//! [`ObsHandle`] bundles the two for threading through search contexts.
//! Work counters are not one of them: the search layer keeps its own
//! per-run counter record and derives the `metrics` event's
//! [`MetricsSnapshot`] (named counters and log₂-bucketed histograms) from
//! it when a run is reported.
//!
//! On top of the raw streams sit the performance-trajectory tools:
//! [`AnytimeCurve`] folds improvement events into the paper's
//! similarity-vs-cost convergence curves (with quality-AUC and
//! time-to-τ summaries), [`BenchSnapshot`] is the schema-validated
//! `BENCH_<label>.json` format produced by `mwsj bench snapshot`,
//! [`compare`](mod@compare) is the noise-aware regression gate behind
//! `mwsj bench compare`, and [`profile::to_folded`] exports phase timers as
//! flamegraph-ready folded stacks.
//!
//! **Determinism contract.** Metric *values* reported by the search layer
//! are pure counters of algorithmic work (steps, node accesses, …) and are
//! bit-identical across thread counts under a step budget; wall-clock
//! lives only in timers and events, which are exempt. See
//! [`MetricsSnapshot::merge`] for the portfolio reduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod curve;
pub mod events;
pub mod explain;
pub mod handle;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod resource;
pub mod schema;
pub mod snapshot;
pub mod suite_key;
pub mod timer;
pub mod wire;

pub use compare::{
    compare, CompareConfig, CompareReport, Verdict, DEFAULT_WALL_SLACK_MS, DEFAULT_WALL_TOLERANCE,
};
pub use curve::{AnytimeCurve, CurvePoint};
pub use events::{EventSink, FanoutSink, FlushPolicy, JsonlSink, RunEvent, VecSink};
pub use explain::{EdgeExplain, ExplainReport, GridQuality, TreeQuality, VarExplain};
pub use handle::ObsHandle;
pub use json::Json;
pub use metrics::{HistogramSnapshot, MetricsSnapshot};
pub use profile::{folded_root_totals, parse_folded, to_folded};
pub use resource::{
    FlightRecorder, MemoryFootprint, ResourceReport, DEFAULT_FLIGHT_RECORDER_BYTES,
};
pub use snapshot::{
    AlgoRecord, BenchSnapshot, CacheRecord, ExplainRecord, InstanceRecord, MemoryRecord,
    SnapshotError, SNAPSHOT_FORMAT, SNAPSHOT_SECTIONS, SNAPSHOT_VERSION,
};
pub use suite_key::SuiteKey;
pub use timer::{merge_phase_snapshots, PhaseSnapshot, PhaseSpan, PhaseTimer};
