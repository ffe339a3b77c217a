//! Golden-bytes guard for the observability wire formats.
//!
//! Pins the exact JSONL line written for one event of every kind — each
//! optional field both present and absent, `explain_report` with and
//! without its `grid` and `observed_*` parts, non-integral and
//! non-finite floats, 64-bit integers above 2⁵³ — and checks that both
//! committed benchmark snapshots re-serialise byte for byte. Any change
//! to these bytes is a wire-format change that every reader (CI
//! assertions, committed baselines, downstream tooling) has to follow.

use mwsj_obs::{
    schema, BenchSnapshot, EdgeExplain, ExplainReport, GridQuality, HistogramSnapshot,
    MetricsSnapshot, PhaseSnapshot, ResourceReport, RunEvent, TreeQuality, VarExplain,
};
use std::time::Duration;

fn explain(observed: bool, grid: bool) -> ExplainReport {
    ExplainReport {
        model: "acyclic".into(),
        expected_solutions: 0.015625,
        edges: vec![
            EdgeExplain {
                a: 0,
                b: 1,
                predicate: "intersects".into(),
                estimated_selectivity: 0.0036,
                observed_selectivity: observed.then_some(0.00415),
                observed_pairs: observed.then_some(166),
            },
            EdgeExplain {
                a: 1,
                b: 2,
                predicate: "intersects".into(),
                estimated_selectivity: 1e-7,
                observed_selectivity: None,
                observed_pairs: observed.then_some(0),
            },
        ],
        vars: (0..2)
            .map(|v| VarExplain {
                var: v,
                cardinality: 200,
                avg_extent: 0.03,
                expected_window_hits: 1.44,
                predicted_accesses_per_query: 3.5,
                observed_accesses: if observed { 41 + v } else { 0 },
                accesses_per_level: if observed {
                    vec![30, 11 + v]
                } else {
                    vec![0, 0]
                },
                tree: TreeQuality {
                    height: 2,
                    nodes: 14,
                    avg_fill: 0.9,
                    fill_per_level: vec![0.93, 0.8125],
                    overlap_factor_per_level: vec![0.4, 0.0],
                    dead_space_per_level: vec![0.3, 1.0],
                    perimeter_per_level: vec![5.25, 2.0],
                },
                grid: (grid && v == 1).then_some(GridQuality {
                    cells: 16,
                    occupied_cells: 12,
                    replication_factor: 1.4,
                    avg_occupancy: 23.3,
                    max_occupancy: 61,
                    predicted_cells_per_query: 5.5,
                    predicted_cost_per_query: 128.15,
                }),
            })
            .collect(),
        observed_node_accesses: observed.then_some(9_007_199_254_740_993),
    }
}

/// One event of every kind, each optional field both set and unset.
fn events() -> Vec<RunEvent> {
    let mut steps_per_run = HistogramSnapshot::default();
    steps_per_run.record(5);
    steps_per_run.record(1000);
    let metrics = MetricsSnapshot {
        counters: vec![
            ("search.node_accesses".into(), 420),
            ("search.steps".into(), 12_345_678_901_234_567_890),
        ],
        histograms: vec![("search.steps_per_run".into(), steps_per_run)],
    };
    let mut resources = ResourceReport::new();
    resources.record("rtree.var000", 8192);
    resources.record("window_cache", 96);
    vec![
        RunEvent::RunStart {
            algo: "ILS".into(),
            n_vars: 5,
            edges: 4,
            restarts: 4,
            threads: 0,
            seed: 12_345_678_901_234_567_890,
            budget_steps: Some(1000),
            budget_secs: None,
        },
        RunEvent::RunStart {
            algo: "two-step \"q\"".into(),
            n_vars: 3,
            edges: 2,
            restarts: 1,
            threads: 1,
            seed: 0,
            budget_steps: None,
            budget_secs: Some(2.5),
        },
        RunEvent::RestartStart {
            restart: 3,
            seed: u64::MAX,
        },
        RunEvent::Improvement {
            restart: Some(1),
            step: 12,
            violations: 2,
            similarity: 2.0 / 3.0,
            elapsed_secs: 0.001234,
        },
        RunEvent::Improvement {
            restart: None,
            step: 0,
            violations: 0,
            similarity: 1.0,
            elapsed_secs: 0.0,
        },
        RunEvent::RestartEnd {
            restart: 0,
            best_violations: 1,
            steps: 250,
            elapsed_secs: 0.1,
        },
        RunEvent::BudgetExhausted {
            restart: Some(2),
            steps: 1000,
            elapsed_secs: 0.2,
        },
        RunEvent::BudgetExhausted {
            restart: None,
            steps: 1000,
            elapsed_secs: 12.75,
        },
        RunEvent::CutoffFired {
            restart: Some(3),
            steps: 40,
            elapsed_secs: 0.05,
        },
        RunEvent::CutoffFired {
            restart: None,
            steps: 41,
            elapsed_secs: 0.06,
        },
        RunEvent::TracePoint {
            step: 10,
            similarity: 0.75,
            elapsed_secs: f64::NAN,
        },
        RunEvent::Progress {
            restart: Some(1),
            step: 200,
            steps_per_sec: 15384.615384615385,
            elapsed_secs: 0.013,
            best_violations: Some(1),
            best_similarity: Some(0.75),
            node_accesses: 512,
            cache_hits: 40,
            cache_misses: 12,
            resident_bytes: 65536,
        },
        RunEvent::Progress {
            restart: None,
            step: 50,
            steps_per_sec: 0.0,
            elapsed_secs: 0.0,
            best_violations: None,
            best_similarity: None,
            node_accesses: 0,
            cache_hits: 0,
            cache_misses: 0,
            resident_bytes: 1024,
        },
        RunEvent::StallDetected {
            restart: Some(0),
            step: 900,
            steps_since_improvement: 500,
            secs_since_improvement: 0.2,
            elapsed_secs: 0.3,
        },
        RunEvent::StallDetected {
            restart: None,
            step: 901,
            steps_since_improvement: 501,
            secs_since_improvement: 1e-7,
            elapsed_secs: 1e21,
        },
        RunEvent::StallAborted {
            restart: Some(1),
            steps: 950,
            elapsed_secs: 0.31,
        },
        RunEvent::StallAborted {
            restart: None,
            steps: 951,
            elapsed_secs: 0.32,
        },
        RunEvent::StagnationReseed {
            restart: Some(0),
            step: 430,
            rounds: 1000,
            elapsed_secs: 0.1,
        },
        RunEvent::StagnationReseed {
            restart: None,
            step: 431,
            rounds: 64,
            elapsed_secs: 0.15,
        },
        RunEvent::Metrics { snapshot: metrics },
        RunEvent::Metrics {
            snapshot: MetricsSnapshot::default(),
        },
        RunEvent::Phases {
            phases: vec![
                PhaseSnapshot {
                    path: "solve > restart[0]".into(),
                    calls: 1,
                    steps: 5,
                    wall: Duration::from_micros(1500),
                },
                PhaseSnapshot {
                    path: "solve".into(),
                    calls: 2,
                    steps: 0,
                    wall: Duration::from_secs(3),
                },
            ],
        },
        RunEvent::Phases { phases: vec![] },
        RunEvent::ExplainReport {
            report: explain(false, false),
        },
        RunEvent::ExplainReport {
            report: explain(true, true),
        },
        RunEvent::ResourceReport { report: resources },
        RunEvent::ResourceReport {
            report: ResourceReport::new(),
        },
        RunEvent::RunEnd {
            best_violations: 0,
            best_similarity: 1.0,
            steps: 1000,
            node_accesses: 345,
            local_maxima: 3,
            improvements: 4,
            restarts: 4,
            elapsed_secs: 0.2,
            proven_optimal: true,
        },
        RunEvent::RunEnd {
            best_violations: 2,
            best_similarity: 0.6,
            steps: 18_446_744_073_709_551_615,
            node_accesses: 9_007_199_254_740_993,
            local_maxima: 0,
            improvements: 0,
            restarts: 1,
            elapsed_secs: 1.5,
            proven_optimal: false,
        },
    ]
}

const GOLDEN: &[&str] = &[
    r#"{"event":"run_start","algo":"ILS","n_vars":5,"edges":4,"restarts":4,"threads":0,"seed":12345678901234567890,"budget_steps":1000}"#,
    r#"{"event":"run_start","algo":"two-step \"q\"","n_vars":3,"edges":2,"restarts":1,"threads":1,"seed":0,"budget_secs":2.5}"#,
    r#"{"event":"restart_start","restart":3,"seed":18446744073709551615}"#,
    r#"{"event":"improvement","restart":1,"step":12,"violations":2,"similarity":0.6666666666666666,"elapsed_secs":0.001234}"#,
    r#"{"event":"improvement","step":0,"violations":0,"similarity":1,"elapsed_secs":0}"#,
    r#"{"event":"restart_end","restart":0,"best_violations":1,"steps":250,"elapsed_secs":0.1}"#,
    r#"{"event":"budget_exhausted","restart":2,"steps":1000,"elapsed_secs":0.2}"#,
    r#"{"event":"budget_exhausted","steps":1000,"elapsed_secs":12.75}"#,
    r#"{"event":"cutoff_fired","restart":3,"steps":40,"elapsed_secs":0.05}"#,
    r#"{"event":"cutoff_fired","steps":41,"elapsed_secs":0.06}"#,
    r#"{"event":"trace_point","step":10,"similarity":0.75,"elapsed_secs":null}"#,
    r#"{"event":"progress","restart":1,"step":200,"steps_per_sec":15384.615384615385,"elapsed_secs":0.013,"best_violations":1,"best_similarity":0.75,"node_accesses":512,"cache_hits":40,"cache_misses":12,"resident_bytes":65536}"#,
    r#"{"event":"progress","step":50,"steps_per_sec":0,"elapsed_secs":0,"node_accesses":0,"cache_hits":0,"cache_misses":0,"resident_bytes":1024}"#,
    r#"{"event":"stall_detected","restart":0,"step":900,"steps_since_improvement":500,"secs_since_improvement":0.2,"elapsed_secs":0.3}"#,
    r#"{"event":"stall_detected","step":901,"steps_since_improvement":501,"secs_since_improvement":0.0000001,"elapsed_secs":1000000000000000000000}"#,
    r#"{"event":"stall_aborted","restart":1,"steps":950,"elapsed_secs":0.31}"#,
    r#"{"event":"stall_aborted","steps":951,"elapsed_secs":0.32}"#,
    r#"{"event":"stagnation_reseed","restart":0,"step":430,"rounds":1000,"elapsed_secs":0.1}"#,
    r#"{"event":"stagnation_reseed","step":431,"rounds":64,"elapsed_secs":0.15}"#,
    r#"{"event":"metrics","counters":{"search.node_accesses":420,"search.steps":12345678901234567890},"histograms":{"search.steps_per_run":{"count":2,"sum":1005,"min":5,"max":1000,"buckets":[[3,1],[10,1]]}}}"#,
    r#"{"event":"metrics","counters":{},"histograms":{}}"#,
    r#"{"event":"phases","phases":[{"path":"solve > restart[0]","calls":1,"steps":5,"wall_secs":0.0015},{"path":"solve","calls":2,"steps":0,"wall_secs":3}]}"#,
    r#"{"event":"phases","phases":[]}"#,
    r#"{"event":"explain_report","model":"acyclic","expected_solutions":0.015625,"edges":[{"a":0,"b":1,"predicate":"intersects","estimated_selectivity":0.0036},{"a":1,"b":2,"predicate":"intersects","estimated_selectivity":0.0000001}],"vars":[{"var":0,"cardinality":200,"avg_extent":0.03,"expected_window_hits":1.44,"predicted_accesses_per_query":3.5,"observed_accesses":0,"accesses_per_level":[0,0],"tree":{"height":2,"nodes":14,"avg_fill":0.9,"fill_per_level":[0.93,0.8125],"overlap_factor_per_level":[0.4,0],"dead_space_per_level":[0.3,1],"perimeter_per_level":[5.25,2]}},{"var":1,"cardinality":200,"avg_extent":0.03,"expected_window_hits":1.44,"predicted_accesses_per_query":3.5,"observed_accesses":0,"accesses_per_level":[0,0],"tree":{"height":2,"nodes":14,"avg_fill":0.9,"fill_per_level":[0.93,0.8125],"overlap_factor_per_level":[0.4,0],"dead_space_per_level":[0.3,1],"perimeter_per_level":[5.25,2]}}]}"#,
    r#"{"event":"explain_report","model":"acyclic","expected_solutions":0.015625,"edges":[{"a":0,"b":1,"predicate":"intersects","estimated_selectivity":0.0036,"observed_selectivity":0.00415,"observed_pairs":166},{"a":1,"b":2,"predicate":"intersects","estimated_selectivity":0.0000001,"observed_pairs":0}],"vars":[{"var":0,"cardinality":200,"avg_extent":0.03,"expected_window_hits":1.44,"predicted_accesses_per_query":3.5,"observed_accesses":41,"accesses_per_level":[30,11],"tree":{"height":2,"nodes":14,"avg_fill":0.9,"fill_per_level":[0.93,0.8125],"overlap_factor_per_level":[0.4,0],"dead_space_per_level":[0.3,1],"perimeter_per_level":[5.25,2]}},{"var":1,"cardinality":200,"avg_extent":0.03,"expected_window_hits":1.44,"predicted_accesses_per_query":3.5,"observed_accesses":42,"accesses_per_level":[30,12],"tree":{"height":2,"nodes":14,"avg_fill":0.9,"fill_per_level":[0.93,0.8125],"overlap_factor_per_level":[0.4,0],"dead_space_per_level":[0.3,1],"perimeter_per_level":[5.25,2]},"grid":{"cells":16,"occupied_cells":12,"replication_factor":1.4,"avg_occupancy":23.3,"max_occupancy":61,"predicted_cells_per_query":5.5,"predicted_cost_per_query":128.15}}],"observed_node_accesses":9007199254740993}"#,
    r#"{"event":"resource_report","total_bytes":8288,"components":{"rtree.var000":8192,"window_cache":96}}"#,
    r#"{"event":"resource_report","total_bytes":0,"components":{}}"#,
    r#"{"event":"run_end","best_violations":0,"best_similarity":1,"steps":1000,"node_accesses":345,"local_maxima":3,"improvements":4,"restarts":4,"elapsed_secs":0.2,"proven_optimal":true}"#,
    r#"{"event":"run_end","best_violations":2,"best_similarity":0.6,"steps":18446744073709551615,"node_accesses":9007199254740993,"local_maxima":0,"improvements":0,"restarts":1,"elapsed_secs":1.5,"proven_optimal":false}"#,
];

#[test]
fn every_event_kind_writes_its_pinned_line() {
    let lines: Vec<String> = events().iter().map(RunEvent::to_json).collect();
    assert_eq!(lines.len(), GOLDEN.len());
    for (line, golden) in lines.iter().zip(GOLDEN) {
        assert_eq!(line, golden);
    }
}

#[test]
fn metrics_lines_with_the_retired_gauges_member_still_decode() {
    // Files written before `metrics` dropped its `gauges` object carry it;
    // the open-schema rule (unknown members are ignored) keeps them
    // readable by `mwsj report`, `mwsj watch` and `mwsj-schema-check`.
    let old =
        r#"{"event":"metrics","counters":{"search.steps":7},"gauges":{"x":1},"histograms":{}}"#;
    assert_eq!(schema::validate_line(old), Ok("metrics"));
    let events = schema::parse_jsonl(old).unwrap();
    assert_eq!(
        events,
        vec![RunEvent::Metrics {
            snapshot: MetricsSnapshot {
                counters: vec![("search.steps".into(), 7)],
                histograms: Vec::new(),
            },
        }]
    );
}

#[test]
fn committed_snapshots_round_trip_byte_for_byte() {
    for name in ["BENCH_baseline.json", "BENCH_large.json"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name);
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = BenchSnapshot::parse(&text).unwrap();
        assert!(
            snapshot.to_string_pretty() == text,
            "{name} does not re-serialise byte for byte"
        );
    }
}
