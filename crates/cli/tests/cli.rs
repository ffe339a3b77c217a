//! End-to-end tests of the `mwsj` binary: generate → inspect → solve →
//! join over real files and processes.

use std::path::PathBuf;
use std::process::Command;

fn mwsj() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mwsj"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mwsj_cli_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(dir: &std::path::Path, name: &str, n: u32, density: f64, seed: u64) -> PathBuf {
    let path = dir.join(name);
    let out = mwsj()
        .args([
            "generate",
            "--out",
            path.to_str().unwrap(),
            "--n",
            &n.to_string(),
            "--density",
            &density.to_string(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .expect("run mwsj generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn help_runs() {
    let out = mwsj().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = mwsj().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_then_info() {
    let dir = temp_dir("info");
    let path = generate(&dir, "a.csv", 500, 0.1, 1);
    let out = mwsj()
        .args(["info", "--data", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("500 objects"), "{text}");
}

#[test]
fn solve_chain_with_ils() {
    let dir = temp_dir("solve");
    let a = generate(&dir, "a.csv", 400, 0.3, 1);
    let b = generate(&dir, "b.csv", 400, 0.3, 2);
    let c = generate(&dir, "c.csv", 400, 0.3, 3);
    let out = mwsj()
        .args([
            "solve",
            "--data",
            a.to_str().unwrap(),
            "--data",
            b.to_str().unwrap(),
            "--data",
            c.to_str().unwrap(),
            "--query",
            "chain",
            "--algo",
            "ils",
            "--iterations",
            "500",
            "--top",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("best solution"), "{text}");
    assert!(text.contains("top"), "{text}");
}

#[test]
fn solve_rejects_bad_query() {
    let dir = temp_dir("badquery");
    let a = generate(&dir, "a.csv", 50, 0.1, 1);
    let out = mwsj()
        .args(["solve", "--data", a.to_str().unwrap(), "--query", "0-0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// Unknown options and stray positionals fail loudly instead of being
/// ignored; the error names the offending argument. `--grid-threads` is
/// a retired option: grid queries are single-threaded.
#[test]
fn unknown_options_and_stray_positionals_are_rejected() {
    let dir = temp_dir("strict_args");
    let a = generate(&dir, "a.csv", 50, 0.1, 1);
    let a = a.to_str().unwrap();
    let cases: [(&[&str], &str); 5] = [
        (
            &["solve", "--backend", "grid", "--grid-threads", "2"],
            "--grid-threads",
        ),
        (&["solve", "--no-such-switch"], "--no-such-switch"),
        (&["solve", "stray"], "stray"),
        (&["join", "stray"], "stray"),
        (&["explain", "stray"], "stray"),
    ];
    for (extra, named) in cases {
        let out = mwsj()
            .args(&extra[..1])
            .args([
                "--data",
                a,
                "--data",
                a,
                "--query",
                "0-1",
                "--iterations",
                "10",
            ])
            .args(&extra[1..])
            .output()
            .unwrap();
        assert!(!out.status.success(), "expected {extra:?} to be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unexpected argument '{named}'")),
            "{extra:?}: {stderr}"
        );
    }
}

#[test]
fn exact_join_counts_solutions() {
    let dir = temp_dir("join");
    let a = generate(&dir, "a.csv", 100, 0.8, 4);
    let b = generate(&dir, "b.csv", 100, 0.8, 5);
    let out = mwsj()
        .args([
            "join",
            "--data",
            a.to_str().unwrap(),
            "--data",
            b.to_str().unwrap(),
            "--query",
            "0-1",
            "--algo",
            "wr",
            "--limit",
            "10",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("exact solutions"), "{text}");
}

#[test]
fn hard_density_prints_formula_result() {
    let out = mwsj()
        .args([
            "hard-density",
            "--shape",
            "chain",
            "--vars",
            "5",
            "--n",
            "100000",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // d = 1/(4·⁴√100000) ≈ 0.014
    assert!(text.contains("0.014"), "{text}");
}

/// Three sparse clique datasets: no exact solution exists, so heuristics
/// run their full step budget — progress heartbeats and stalls happen.
fn hard_trio(dir: &std::path::Path) -> [PathBuf; 3] {
    [
        generate(dir, "ha.csv", 400, 0.002, 11),
        generate(dir, "hb.csv", 400, 0.002, 12),
        generate(dir, "hc.csv", 400, 0.002, 13),
    ]
}

#[test]
fn follow_streams_progress_events_live() {
    let dir = temp_dir("follow");
    let [a, b, c] = hard_trio(&dir);
    let metrics = dir.join("run.jsonl");
    let out = mwsj()
        .args([
            "solve",
            "--data",
            a.to_str().unwrap(),
            "--data",
            b.to_str().unwrap(),
            "--data",
            c.to_str().unwrap(),
            "--query",
            "clique",
            "--iterations",
            "2000",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--follow",
            "--progress-every",
            "100",
            "--stall-steps",
            "400",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    let progress = text
        .lines()
        .filter(|l| l.contains("\"event\":\"progress\""))
        .count();
    assert_eq!(progress, 2000 / 100, "one heartbeat per cadence slot");
    // The stream must satisfy the documented schema end to end.
    let report = mwsj()
        .args(["report", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    let summary = String::from_utf8_lossy(&report.stdout);
    assert!(summary.contains("schema OK"), "{summary}");
    assert!(summary.contains("progress heartbeats"), "{summary}");
}

#[test]
fn stall_abort_stops_a_hopeless_run_early() {
    let dir = temp_dir("stallabort");
    let [a, b, c] = hard_trio(&dir);
    let metrics = dir.join("abort.jsonl");
    let out = mwsj()
        .args([
            "solve",
            "--data",
            a.to_str().unwrap(),
            "--data",
            b.to_str().unwrap(),
            "--data",
            c.to_str().unwrap(),
            "--query",
            "clique",
            "--iterations",
            "500000",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--stall-steps",
            "500",
            "--stall-abort",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        text.contains("\"event\":\"stall_detected\""),
        "detection precedes the abort"
    );
    assert!(
        text.contains("\"event\":\"stall_aborted\""),
        "the distinct stop reason is recorded"
    );
    assert!(
        !text.contains("\"event\":\"budget_exhausted\""),
        "the 500k budget was never reached"
    );
}

#[test]
fn watch_tails_a_finished_run_and_exits_cleanly() {
    let dir = temp_dir("watch");
    let [a, b, c] = hard_trio(&dir);
    let metrics = dir.join("watched.jsonl");
    let out = mwsj()
        .args([
            "solve",
            "--data",
            a.to_str().unwrap(),
            "--data",
            b.to_str().unwrap(),
            "--data",
            c.to_str().unwrap(),
            "--query",
            "clique",
            "--iterations",
            "1000",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--follow",
            "--progress-every",
            "100",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let watch = mwsj()
        .args([
            "watch",
            metrics.to_str().unwrap(),
            "--no-tty",
            "--timeout-secs",
            "30",
        ])
        .output()
        .unwrap();
    assert!(
        watch.status.success(),
        "{}",
        String::from_utf8_lossy(&watch.stderr)
    );
    let text = String::from_utf8_lossy(&watch.stdout);
    assert!(text.contains("run_start"), "{text}");
    assert!(text.contains("progress step="), "{text}");
    assert!(text.contains("run_end"), "{text}");
}

#[test]
fn watch_times_out_without_a_run_end() {
    let dir = temp_dir("watchtimeout");
    let orphan = dir.join("orphan.jsonl");
    std::fs::write(&orphan, "").unwrap();
    let watch = mwsj()
        .args([
            "watch",
            orphan.to_str().unwrap(),
            "--no-tty",
            "--poll-ms",
            "10",
            "--timeout-secs",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!watch.status.success());
    assert!(
        String::from_utf8_lossy(&watch.stderr).contains("no run_end"),
        "{}",
        String::from_utf8_lossy(&watch.stderr)
    );
}

#[test]
fn telemetry_flags_are_validated() {
    let dir = temp_dir("telemval");
    let a = generate(&dir, "a.csv", 50, 0.1, 1);
    let fr = dir.join("fr.jsonl");
    let run = |extra: &[&str]| {
        let out = mwsj()
            .args(["solve", "--data", a.to_str().unwrap(), "--data"])
            .arg(a.to_str().unwrap())
            .args(["--query", "0-1", "--iterations", "10"])
            .args(extra)
            .output()
            .unwrap();
        assert!(!out.status.success(), "expected {extra:?} to be rejected");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    assert!(run(&["--follow"]).contains("--follow needs --metrics-out"));
    assert!(run(&["--progress-every", "10"]).contains("needs --metrics-out"));
    assert!(run(&["--stall-abort"]).contains("needs a stall window"));
    assert!(run(&[
        "--flight-recorder-bytes",
        "100",
        "--flight-recorder-out",
        fr.to_str().unwrap(),
    ])
    .contains("at least 4096"));
    assert!(run(&["--flight-recorder-bytes", "8192"]).contains("needs --flight-recorder-out"));
}

#[test]
fn solve_with_mixed_predicates_via_edge_list() {
    let dir = temp_dir("mixed");
    let a = generate(&dir, "a.csv", 200, 0.9, 6);
    let b = generate(&dir, "b.csv", 200, 0.01, 7);
    let out = mwsj()
        .args([
            "solve",
            "--data",
            a.to_str().unwrap(),
            "--data",
            b.to_str().unwrap(),
            "--query",
            "0-1:contains",
            "--algo",
            "gils",
            "--iterations",
            "300",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sixty_four_bit_seeds_survive_the_metrics_round_trip() {
    // Above 2^53: an f64-backed reader prints 12345678901234567168.
    const MASTER: u64 = 12_345_678_901_234_567_890;
    let dir = temp_dir("seed64");
    let a = generate(&dir, "a.csv", 200, 0.3, 1);
    let b = generate(&dir, "b.csv", 200, 0.3, 2);
    let metrics = dir.join("run.jsonl");
    let out = mwsj()
        .args([
            "solve",
            "--data",
            a.to_str().unwrap(),
            "--data",
            b.to_str().unwrap(),
            "--query",
            "chain",
            "--iterations",
            "500",
            "--seed",
            &MASTER.to_string(),
            "--restarts",
            "2",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let report = mwsj()
        .args(["report", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(report.status.success());
    let summary = String::from_utf8_lossy(&report.stdout);
    assert!(summary.contains(&format!("seed {MASTER},")), "{summary}");

    let text = std::fs::read_to_string(&metrics).unwrap();
    let restart_seeds: Vec<(u64, u64)> = mwsj_core::obs::schema::parse_jsonl(&text)
        .unwrap()
        .into_iter()
        .filter_map(|event| match event {
            mwsj_core::obs::RunEvent::RestartStart { restart, seed } => Some((restart, seed)),
            _ => None,
        })
        .collect();
    assert_eq!(restart_seeds.len(), 2, "{text}");
    for (restart, seed) in restart_seeds {
        assert_eq!(
            seed,
            mwsj_core::derive_seed(MASTER, restart as usize),
            "restart {restart}"
        );
    }

    let watch = mwsj()
        .args(["watch", metrics.to_str().unwrap(), "--no-tty"])
        .output()
        .unwrap();
    assert!(watch.status.success());
    let log = String::from_utf8_lossy(&watch.stdout);
    let header = log.lines().next().unwrap_or_default();
    assert!(
        header.starts_with("run_start ") && header.contains(&format!("seed {MASTER},")),
        "{log}"
    );
}

#[test]
fn unusable_budget_flags_are_rejected() {
    let dir = temp_dir("budgetval");
    let a = generate(&dir, "a.csv", 100, 0.1, 1);
    let a = a.to_str().unwrap();
    let cases: [(&str, &str, &str); 8] = [
        ("solve", "seconds", "inf"),
        ("solve", "seconds", "1e300"),
        ("solve", "seconds", "nan"),
        ("solve", "seconds", "-1"),
        ("solve", "seconds", "0"),
        ("solve", "iterations", "0"),
        ("join", "seconds", "inf"),
        ("join", "iterations", "0"),
    ];
    for (command, flag, value) in cases {
        let out = mwsj()
            .args([command, "--data", a, "--data", a, "--query", "0-1"])
            .args([&format!("--{flag}"), value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{command} --{flag} {value} must fail cleanly: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(
            stderr.contains(&format!("--{flag} {value}: expected a positive")),
            "{command} --{flag} {value}: {stderr}"
        );
    }
}

/// The `budget_secs` of the `run_start` event in a metrics JSONL file.
fn budget_secs_of(metrics: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(metrics).unwrap();
    mwsj_core::obs::schema::parse_jsonl(&text)
        .unwrap()
        .into_iter()
        .find_map(|event| match event {
            mwsj_core::obs::RunEvent::RunStart { budget_secs, .. } => Some(budget_secs),
            _ => None,
        })
        .expect("run_start event")
}

#[test]
fn join_keeps_an_explicit_seconds_budget() {
    let dir = temp_dir("joinbudget");
    let a = generate(&dir, "a.csv", 200, 0.3, 1);
    let b = generate(&dir, "b.csv", 200, 0.3, 2);
    let metrics = dir.join("run.jsonl");
    let join = |extra: &[&str]| {
        let out = mwsj()
            .args(["join", "--data", a.to_str().unwrap(), "--data"])
            .arg(b.to_str().unwrap())
            .args(["--query", "0-1", "--metrics-out"])
            .arg(&metrics)
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        budget_secs_of(&metrics)
    };
    assert_eq!(join(&["--seconds", "2"]), Some(2.0));
    assert_eq!(join(&[]), Some(60.0), "exact joins default to 60 s");
}

#[test]
fn metrics_counters_equal_the_run_end_totals() {
    use mwsj_core::obs::{schema, RunEvent};
    use mwsj_core::{metric, MetricsSnapshot};

    let dir = temp_dir("counter_invariant");
    let dense: Vec<String> = [(1, 0.3), (2, 0.3), (3, 0.3)]
        .iter()
        .map(|&(seed, d)| {
            let name = format!("d{seed}.csv");
            generate(&dir, &name, 400, d, seed)
                .to_str()
                .unwrap()
                .to_string()
        })
        .collect();
    let sparse: Vec<String> = hard_trio(&dir)
        .iter()
        .map(|p| p.to_str().unwrap().to_string())
        .collect();
    // Runs the command and returns its `metrics` line, the snapshot, the
    // `run_end` (steps, node accesses) and the `phases` line.
    let run = |data: &[String], extra: &[&str]| -> (String, MetricsSnapshot, (u64, u64), String) {
        let metrics = dir.join("run.jsonl");
        let mut cmd = mwsj();
        cmd.arg(extra[0]);
        for d in data {
            cmd.args(["--data", d]);
        }
        let out = cmd
            .args(["--query", "chain", "--metrics-out"])
            .arg(&metrics)
            .args(&extra[1..])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&metrics).unwrap();
        let line = |kind: &str| {
            text.lines()
                .find(|l| l.starts_with(&format!("{{\"event\":\"{kind}\"")))
                .unwrap_or_else(|| panic!("{extra:?}: no {kind} line in {text}"))
                .to_string()
        };
        let mut snapshot = None;
        let mut totals = None;
        for event in schema::parse_jsonl(&text).unwrap() {
            match event {
                RunEvent::Metrics { snapshot: s } => snapshot = Some(s),
                RunEvent::RunEnd {
                    steps,
                    node_accesses,
                    ..
                } => totals = Some((steps, node_accesses)),
                _ => {}
            }
        }
        (
            line("metrics"),
            snapshot.expect("metrics event"),
            totals.expect("run_end event"),
            line("phases"),
        )
    };
    let steps_per_run = |snapshot: &MetricsSnapshot| {
        snapshot
            .histograms
            .iter()
            .find(|(name, _)| name == metric::STEPS_PER_RUN)
            .map(|(_, h)| h.count)
    };

    let ils = run(&dense, &["solve", "--algo", "ils", "--iterations", "2000"]);
    let portfolio = |threads: &str| {
        run(
            &dense,
            &[
                "solve",
                "--algo",
                "ils",
                "--iterations",
                "3000",
                "--restarts",
                "3",
                "--threads",
                threads,
            ],
        )
    };
    let (one_thread, two_threads) = (portfolio("1"), portfolio("2"));
    let two_step = run(
        &sparse,
        &["solve", "--algo", "two-step", "--iterations", "3000"],
    );
    assert!(
        two_step.3.contains("\"path\":\"systematic\""),
        "IBB must run: {}",
        two_step.3
    );
    let join = run(&dense[..2], &["join", "--algo", "wr"]);

    for (label, (_, snapshot, (steps, accesses), _), runs) in [
        ("ils", &ils, 1),
        ("portfolio t=1", &one_thread, 3),
        ("portfolio t=2", &two_threads, 3),
        ("two-step", &two_step, 2),
        ("join wr", &join, 1),
    ] {
        assert_eq!(snapshot.counter(metric::STEPS), Some(*steps), "{label}");
        assert_eq!(
            snapshot.counter(metric::NODE_ACCESSES),
            Some(*accesses),
            "{label}"
        );
        assert_eq!(steps_per_run(snapshot), Some(runs), "{label}");
    }
    assert_eq!(one_thread.0, two_threads.0, "metrics depend on --threads");
}
