//! The benchmark's workloads and their seeded inputs.
//!
//! Every workload is a chain query over uniform datasets at the
//! hard-region density with one exact solution planted. Its CSV files are
//! generated from the `--seed` before any timing; the library then sees
//! only those files.

use mwsj_datagen::{Distribution, QueryShape, WorkloadSpec};
use mwsj_geom::Rect;
use mwsj_query::{QueryGraph, Solution};
use std::path::{Path, PathBuf};

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub n_vars: usize,
    pub cardinality: usize,
    /// Expected number of exact solutions the density is solved for.
    pub target_solutions: f64,
    /// SEA generations per pass. A generation's cost grows with `n`, so
    /// each workload sizes its own to keep SEA at a few hundred
    /// milliseconds; every other budget is shared (see `ops`).
    pub sea_generations: u64,
}

pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "cold-chain6-100k",
        n_vars: 6,
        cardinality: 100_000,
        target_solutions: 1.0,
        sea_generations: 1_600,
    },
    WorkloadDef {
        name: "anytime-chain15-100k",
        n_vars: 15,
        cardinality: 100_000,
        target_solutions: 1.0,
        sea_generations: 400,
    },
    WorkloadDef {
        name: "exact-chain5-100k",
        n_vars: 5,
        cardinality: 100_000,
        target_solutions: 4.0,
        sea_generations: 2_000,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload's generated inputs: the CSV files the library reads, and the
/// benchmark's own copy of the rectangles for the brute-force checks.
#[derive(Debug)]
pub struct Inputs {
    pub graph: QueryGraph,
    pub rects: Vec<Vec<Rect>>,
    pub planted: Solution,
    /// The planted solution with both chain ends reassigned so that it
    /// violates exactly two conditions: the incumbent IBB must beat.
    pub ibb_incumbent: Solution,
    pub csv_paths: Vec<PathBuf>,
    pub csv_bytes: u64,
}

impl WorkloadDef {
    /// Generates the datasets for `seed` and writes one CSV file per
    /// variable into `dir`.
    pub fn write_inputs(&self, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
        let spec = WorkloadSpec {
            shape: QueryShape::Chain,
            n_vars: self.n_vars,
            cardinality: self.cardinality,
            target_solutions: self.target_solutions,
            plant: true,
            distribution: Distribution::Uniform,
            seed,
        };
        let w = spec.generate();
        std::fs::create_dir_all(dir)?;
        let mut csv_paths = Vec::with_capacity(self.n_vars);
        let mut csv_bytes = 0;
        for (v, ds) in w.datasets.iter().enumerate() {
            let path = dir.join(format!("var{v:02}.csv"));
            ds.write_csv_file(&path)?;
            csv_bytes += std::fs::metadata(&path)?.len();
            csv_paths.push(path);
        }
        let rects: Vec<Vec<Rect>> = w.datasets.iter().map(|d| d.rects().to_vec()).collect();
        let planted = w.planted.expect("the spec plants a solution");
        let ibb_incumbent = break_chain_ends(&w.graph, &rects, &planted);
        Ok(Inputs {
            graph: w.graph,
            rects,
            planted,
            ibb_incumbent,
            csv_paths,
            csv_bytes,
        })
    }
}

/// Reassigns the first and the last variable of a chain solution to the
/// lowest-numbered objects that each break exactly their one condition.
fn break_chain_ends(graph: &QueryGraph, rects: &[Vec<Rect>], exact: &Solution) -> Solution {
    let mut sol = exact.clone();
    for (broken, var) in [0, graph.n_vars() - 1].into_iter().enumerate() {
        let obj = (0..rects[var].len())
            .find(|&obj| {
                let mut s = sol.clone();
                s.set(var, obj);
                crate::checks::brute_force_violations(graph, rects, &s) == Ok(broken + 1)
            })
            .expect("a uniform dataset has objects away from any given rectangle");
        sol.set(var, obj);
    }
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::brute_force_violations;

    #[test]
    fn incumbent_breaks_exactly_the_two_end_conditions() {
        let spec = WorkloadSpec {
            shape: QueryShape::Chain,
            n_vars: 5,
            cardinality: 2_000,
            target_solutions: 1.0,
            plant: true,
            distribution: Distribution::Uniform,
            seed: 9,
        };
        let w = spec.generate();
        let rects: Vec<Vec<Rect>> = w.datasets.iter().map(|d| d.rects().to_vec()).collect();
        let planted = w.planted.expect("planted");
        let incumbent = break_chain_ends(&w.graph, &rects, &planted);
        assert_eq!(brute_force_violations(&w.graph, &rects, &planted), Ok(0));
        assert_eq!(brute_force_violations(&w.graph, &rects, &incumbent), Ok(2));
        assert_eq!(incumbent.as_slice()[1..4], planted.as_slice()[1..4]);
    }

    #[test]
    fn workload_names_resolve() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }
}
