//! Property test of the run-event wire format: for arbitrary events —
//! full-range `u64`s, arbitrary finite `f64`s, awkward strings, every
//! optional field present or absent — the encoded line validates as its
//! own kind and decodes back to the identical event.

use mwsj_obs::schema::{parse_line, validate_line};
use mwsj_obs::{
    EdgeExplain, ExplainReport, GridQuality, HistogramSnapshot, MetricsSnapshot, PhaseSnapshot,
    ResourceReport, RunEvent, TreeQuality, VarExplain,
};
use proptest::prelude::*;
use std::time::Duration;

/// A splitmix64 stream: each proptest case draws one seed and builds its
/// event from it, so every field gets independent full-range bits.
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.u64() % n
    }

    fn flag(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Any finite float: raw bit patterns (subnormals, huge magnitudes,
    /// negative zero) mixed with everyday values.
    fn f64(&mut self) -> f64 {
        loop {
            let v = match self.below(4) {
                0 => f64::from_bits(self.u64()),
                1 => self.below(1000) as f64,
                2 => self.u64() as f64 / u64::MAX as f64,
                _ => (self.u64() as i64) as f64 * 1e-3,
            };
            if v.is_finite() {
                return v;
            }
        }
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        if self.flag() {
            Some(f(self))
        } else {
            None
        }
    }

    fn vec<T>(&mut self, max: u64, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| f(self)).collect()
    }

    fn string(&mut self) -> String {
        const ALPHABET: &[char] = &[
            'a', 'z', 'Q', '0', ' ', '_', '.', '>', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}',
            'é', '→', '😀',
        ];
        (0..self.below(12))
            .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    /// Durations in whole microseconds below 2^40 (~12.7 days), which
    /// survive the trip through `f64` seconds; nanosecond residues may
    /// round, as they always have on this wire.
    fn duration(&mut self) -> Duration {
        Duration::from_micros(self.below(1 << 40))
    }

    fn histogram(&mut self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.u64(),
            sum: self.u64(),
            min: self.u64(),
            max: self.u64(),
            buckets: self.vec(4, |g| (g.u64() as u32, g.u64())),
        }
    }

    fn explain(&mut self) -> ExplainReport {
        ExplainReport {
            model: self.string(),
            expected_solutions: self.f64(),
            edges: self.vec(3, |g| EdgeExplain {
                a: g.u64(),
                b: g.u64(),
                predicate: g.string(),
                estimated_selectivity: g.f64(),
                observed_selectivity: g.opt(Gen::f64),
                observed_pairs: g.opt(Gen::u64),
            }),
            vars: self.vec(3, |g| VarExplain {
                var: g.u64(),
                cardinality: g.u64(),
                avg_extent: g.f64(),
                expected_window_hits: g.f64(),
                predicted_accesses_per_query: g.f64(),
                observed_accesses: g.u64(),
                accesses_per_level: g.vec(3, Gen::u64),
                tree: TreeQuality {
                    height: g.u64(),
                    nodes: g.u64(),
                    avg_fill: g.f64(),
                    fill_per_level: g.vec(3, Gen::f64),
                    overlap_factor_per_level: g.vec(3, Gen::f64),
                    dead_space_per_level: g.vec(3, Gen::f64),
                    perimeter_per_level: g.vec(3, Gen::f64),
                },
                grid: g.opt(|g| GridQuality {
                    cells: g.u64(),
                    occupied_cells: g.u64(),
                    replication_factor: g.f64(),
                    avg_occupancy: g.f64(),
                    max_occupancy: g.u64(),
                    predicted_cells_per_query: g.f64(),
                    predicted_cost_per_query: g.f64(),
                }),
            }),
            observed_node_accesses: self.opt(Gen::u64),
        }
    }

    /// One event of the kind `kind` (taken modulo the number of kinds).
    fn event(&mut self, kind: u64) -> RunEvent {
        match kind % 16 {
            0 => RunEvent::RunStart {
                algo: self.string(),
                n_vars: self.u64(),
                edges: self.u64(),
                restarts: self.u64(),
                threads: self.u64(),
                seed: self.u64(),
                budget_steps: self.opt(Gen::u64),
                budget_secs: self.opt(Gen::f64),
            },
            1 => RunEvent::RestartStart {
                restart: self.u64(),
                seed: self.u64(),
            },
            2 => RunEvent::Improvement {
                restart: self.opt(Gen::u64),
                step: self.u64(),
                violations: self.u64(),
                similarity: self.f64(),
                elapsed_secs: self.f64(),
            },
            3 => RunEvent::RestartEnd {
                restart: self.u64(),
                best_violations: self.u64(),
                steps: self.u64(),
                elapsed_secs: self.f64(),
            },
            4 => RunEvent::BudgetExhausted {
                restart: self.opt(Gen::u64),
                steps: self.u64(),
                elapsed_secs: self.f64(),
            },
            5 => RunEvent::CutoffFired {
                restart: self.opt(Gen::u64),
                steps: self.u64(),
                elapsed_secs: self.f64(),
            },
            6 => RunEvent::TracePoint {
                step: self.u64(),
                similarity: self.f64(),
                elapsed_secs: self.f64(),
            },
            7 => RunEvent::Progress {
                restart: self.opt(Gen::u64),
                step: self.u64(),
                steps_per_sec: self.f64(),
                elapsed_secs: self.f64(),
                best_violations: self.opt(Gen::u64),
                best_similarity: self.opt(Gen::f64),
                node_accesses: self.u64(),
                cache_hits: self.u64(),
                cache_misses: self.u64(),
                resident_bytes: self.u64(),
            },
            8 => RunEvent::StallDetected {
                restart: self.opt(Gen::u64),
                step: self.u64(),
                steps_since_improvement: self.u64(),
                secs_since_improvement: self.f64(),
                elapsed_secs: self.f64(),
            },
            9 => RunEvent::StallAborted {
                restart: self.opt(Gen::u64),
                steps: self.u64(),
                elapsed_secs: self.f64(),
            },
            10 => RunEvent::StagnationReseed {
                restart: self.opt(Gen::u64),
                step: self.u64(),
                rounds: self.u64(),
                elapsed_secs: self.f64(),
            },
            11 => RunEvent::Metrics {
                snapshot: MetricsSnapshot {
                    counters: self.vec(4, |g| (g.string(), g.u64())),
                    histograms: self.vec(3, |g| (g.string(), g.histogram())),
                },
            },
            12 => RunEvent::Phases {
                phases: self.vec(4, |g| PhaseSnapshot {
                    path: g.string(),
                    calls: g.u64(),
                    steps: g.u64(),
                    wall: g.duration(),
                }),
            },
            13 => RunEvent::ExplainReport {
                report: self.explain(),
            },
            14 => RunEvent::ResourceReport {
                report: {
                    let mut report = ResourceReport::new();
                    for _ in 0..self.below(5) {
                        // Small byte counts keep the derived total in range.
                        let (component, bytes) = (self.string(), self.u64() >> 8);
                        report.record(&component, bytes);
                    }
                    report
                },
            },
            _ => RunEvent::RunEnd {
                best_violations: self.u64(),
                best_similarity: self.f64(),
                steps: self.u64(),
                node_accesses: self.u64(),
                local_maxima: self.u64(),
                improvements: self.u64(),
                restarts: self.u64(),
                elapsed_secs: self.f64(),
                proven_optimal: self.flag(),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_event_validates_and_decodes_to_itself(kind in 0u64..16, seed in any::<u64>()) {
        let event = Gen(seed).event(kind);
        let line = event.to_json();
        prop_assert_eq!(validate_line(&line), Ok(event.kind()), "{}", line);
        prop_assert_eq!(parse_line(&line), Ok(event), "{}", line);
    }
}
