//! Streaming metrics recorder for the experiment harness.
//!
//! Every experiment `main` records its individual algorithm runs to
//! `results/<experiment>.metrics.jsonl` in the same JSONL run-event schema
//! the CLI's `--metrics-out` produces (see `DESIGN.md` "Observability"),
//! so figure runs can be post-processed with `mwsj report` or any JSONL
//! tool. The library entry points (`run`/`run_shape`) used by tests take a
//! disabled recorder and write nothing.

use crate::Algo;
use mwsj_core::{
    metrics_of, run_end_event, Instance, JsonlSink, MetricsSnapshot, ObsHandle, RunOutcome,
    RunStats, SearchBudget, SearchContext,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Records experiment runs as JSONL run events plus one aggregate
/// metrics/phases snapshot per experiment.
#[derive(Debug)]
pub struct Recorder {
    obs: ObsHandle,
    path: Option<PathBuf>,
    /// [`metrics_of`] over every run recorded so far.
    metrics: Mutex<MetricsSnapshot>,
}

impl Recorder {
    /// A recorder streaming to `results/<experiment>.metrics.jsonl`. Falls
    /// back to a disabled recorder (with a warning) when the file cannot
    /// be created — observability must never fail an experiment.
    pub fn create(experiment: &str) -> Recorder {
        let name = format!("{experiment}.metrics.jsonl");
        match crate::io::results_file(&name).and_then(|path| {
            let sink = JsonlSink::create(&path)?;
            Ok((path, sink))
        }) {
            Ok((path, sink)) => Recorder {
                obs: ObsHandle::enabled().with_sink(Arc::new(sink)),
                path: Some(path),
                metrics: Mutex::default(),
            },
            Err(e) => {
                eprintln!("warning: cannot record {name}: {e}");
                Recorder::disabled()
            }
        }
    }

    /// A recorder that collects and writes nothing (used by the library
    /// entry points exercised in tests).
    pub fn disabled() -> Recorder {
        Recorder {
            obs: ObsHandle::disabled(),
            path: None,
            metrics: Mutex::default(),
        }
    }

    /// The observability handle to thread into algorithm runs.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Emits a `run_start` event for one upcoming algorithm run.
    pub fn start(&self, algo: &str, instance: &Instance, budget: &SearchBudget, seed: u64) {
        self.obs.emit(mwsj_core::RunEvent::RunStart {
            algo: algo.to_string(),
            n_vars: instance.n_vars() as u64,
            edges: instance.graph().edge_count() as u64,
            restarts: 1,
            threads: 1,
            seed,
            budget_steps: budget.max_steps,
            budget_secs: budget.time_limit.map(|d| d.as_secs_f64()),
        });
    }

    /// Emits the matching `run_end` event and counts the run into the
    /// experiment's `metrics` aggregate.
    pub fn end(&self, outcome: &RunOutcome) {
        self.absorb(&outcome.stats);
        self.obs.emit(run_end_event(outcome));
    }

    /// Counts one finished run into the experiment's `metrics` aggregate
    /// without emitting anything — for runs whose `run_end` a composite
    /// (the two-step pipeline) emits itself.
    pub fn absorb(&self, stats: &RunStats) {
        self.metrics
            .lock()
            .expect("recorder mutex")
            .merge(&metrics_of([stats]));
    }

    /// Runs `algo` with run-start/end events and full instrumentation.
    pub fn run(
        &self,
        algo: Algo,
        instance: &Instance,
        budget: &SearchBudget,
        seed: u64,
    ) -> RunOutcome {
        self.start(algo.name(), instance, budget, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        // Nested: the recorder owns the `run_start`/`run_end` pair, so the
        // driver must not emit its own `run_end`.
        let ctx = SearchContext::local(*budget)
            .with_obs(self.obs.clone())
            .nested();
        let outcome = algo.search(instance, &ctx, &mut rng);
        self.end(&outcome);
        outcome
    }

    /// Freezes the experiment-wide metrics/phase aggregates into the file
    /// and returns its path (when recording was active).
    pub fn finish(self) -> Option<PathBuf> {
        self.obs.emit(mwsj_core::RunEvent::Metrics {
            snapshot: self.metrics.into_inner().expect("recorder mutex"),
        });
        self.obs.emit(mwsj_core::RunEvent::Phases {
            phases: self.obs.timer.snapshot(),
        });
        self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.obs().is_enabled());
        assert!(rec.finish().is_none());
    }

    #[test]
    fn finish_reports_the_metrics_of_every_recorded_run() {
        use mwsj_core::{metric, RunEvent, VecSink};
        use mwsj_datagen::{Dataset, QueryShape};

        let mut rng = StdRng::seed_from_u64(5);
        let datasets: Vec<Dataset> = (0..3)
            .map(|_| Dataset::uniform(200, 0.01, &mut rng))
            .collect();
        let instance = Instance::new(QueryShape::Chain.graph(3), datasets).unwrap();
        let sink = Arc::new(VecSink::new());
        let rec = Recorder {
            obs: ObsHandle::enabled().with_sink(sink.clone()),
            path: None,
            metrics: Mutex::default(),
        };
        let budget = SearchBudget::iterations(300);
        let runs = [
            rec.run(Algo::Ils, &instance, &budget, 1),
            rec.run(Algo::Gils, &instance, &budget, 2),
        ];
        rec.finish();

        let reported = sink.events().into_iter().find_map(|e| match e {
            RunEvent::Metrics { snapshot } => Some(snapshot),
            _ => None,
        });
        let expected = metrics_of(runs.iter().map(|r| &r.stats));
        assert_eq!(reported.as_ref(), Some(&expected));
        assert_eq!(
            expected.counter(metric::STEPS),
            Some(runs[0].stats.steps + runs[1].stats.steps)
        );
        assert_eq!(expected.histograms[0].1.count, 2, "one sample per run");
    }
}
