//! Correctness checks. Each returns `Err` with a one-line reason; the
//! caller counts every `Err` as one failed operation.
//!
//! Violations are recomputed by brute force over the benchmark's own copy
//! of the generated rectangles with the `mwsj-geom` predicates, never with
//! the library's conflict bookkeeping or indexes.

use mwsj_geom::Rect;
use mwsj_query::{QueryGraph, Solution};

/// Number of join conditions of `graph` that `sol` violates, evaluated
/// edge by edge over `rects[var][object]`.
pub fn brute_force_violations(
    graph: &QueryGraph,
    rects: &[Vec<Rect>],
    sol: &Solution,
) -> Result<usize, String> {
    if sol.len() != graph.n_vars() {
        return Err(format!(
            "solution binds {} of {} variables",
            sol.len(),
            graph.n_vars()
        ));
    }
    let rect = |v: usize| {
        rects[v]
            .get(sol.get(v))
            .ok_or_else(|| format!("object {} of variable {v} does not exist", sol.get(v)))
    };
    let mut violations = 0;
    for e in graph.edges() {
        if !e.pred.eval(rect(e.a)?, rect(e.b)?) {
            violations += 1;
        }
    }
    Ok(violations)
}

/// The reported violation count of a best solution equals the brute-force
/// recount.
pub fn check_reported_violations(
    graph: &QueryGraph,
    rects: &[Vec<Rect>],
    sol: &Solution,
    reported: usize,
) -> Result<(), String> {
    let actual = brute_force_violations(graph, rects, sol)?;
    if actual == reported {
        Ok(())
    } else {
        Err(format!(
            "solution {sol} reported {reported} violations, brute force counts {actual}"
        ))
    }
}

/// WR and PJM return the same complete solution set, every solution
/// satisfies every condition, and the planted solution is among them.
pub fn check_exact_sets(
    graph: &QueryGraph,
    rects: &[Vec<Rect>],
    planted: &Solution,
    wr: &[Solution],
    pjm: &[Solution],
) -> Result<(), String> {
    let sorted = |sols: &[Solution]| {
        let mut v: Vec<Vec<usize>> = sols.iter().map(|s| s.as_slice().to_vec()).collect();
        v.sort_unstable();
        v
    };
    let (wr_set, pjm_set) = (sorted(wr), sorted(pjm));
    if wr_set != pjm_set {
        return Err(format!(
            "WR found {} solutions and PJM {}, and the sets differ",
            wr_set.len(),
            pjm_set.len()
        ));
    }
    if wr_set.windows(2).any(|w| w[0] == w[1]) {
        return Err("an exact join returned a solution twice".into());
    }
    for sol in wr {
        let v = brute_force_violations(graph, rects, sol)?;
        if v != 0 {
            return Err(format!("exact-join solution {sol} violates {v} conditions"));
        }
    }
    if !wr_set.iter().any(|s| s.as_slice() == planted.as_slice()) {
        return Err(format!(
            "the planted solution {planted} is missing from the exact joins"
        ));
    }
    Ok(())
}

/// Two-step processing: the final answer is never worse than the
/// heuristic's, and when IBB proved its answer optimal the answer is exact
/// (the workload plants an exact solution).
pub fn check_two_step(
    heuristic_violations: usize,
    final_violations: usize,
    proven_optimal: bool,
) -> Result<(), String> {
    if final_violations > heuristic_violations {
        return Err(format!(
            "two-step ended at {final_violations} violations, worse than its heuristic's {heuristic_violations}"
        ));
    }
    if proven_optimal && final_violations != 0 {
        return Err(format!("two-step proved {final_violations} violations optimal, but an exact solution is planted"));
    }
    Ok(())
}

/// Deterministic counters of one operation are identical in every pass of
/// a run (same seeds, same budgets).
pub fn check_counters(op: &str, first: &[u64], now: &[u64]) -> Result<(), String> {
    if first == now {
        Ok(())
    } else {
        Err(format!(
            "{op}: deterministic counters changed between passes: {first:?} then {now:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chain a–b–c where objects 0 form an exact solution, object 1 of `c`
    /// misses `b`'s object 0.
    fn fixture() -> (QueryGraph, Vec<Vec<Rect>>) {
        let rects = vec![
            vec![Rect::new(0.0, 0.0, 0.2, 0.2)],
            vec![Rect::new(0.1, 0.1, 0.3, 0.3)],
            vec![
                Rect::new(0.25, 0.25, 0.4, 0.4),
                Rect::new(0.8, 0.8, 0.9, 0.9),
            ],
        ];
        (QueryGraph::chain(3), rects)
    }

    #[test]
    fn reported_violations_match_and_corruption_is_caught() {
        let (g, r) = fixture();
        let exact = Solution::new(vec![0, 0, 0]);
        let off = Solution::new(vec![0, 0, 1]);
        assert_eq!(check_reported_violations(&g, &r, &exact, 0), Ok(()));
        assert_eq!(check_reported_violations(&g, &r, &off, 1), Ok(()));
        assert!(check_reported_violations(&g, &r, &off, 0).is_err());
        assert!(check_reported_violations(&g, &r, &exact, 1).is_err());
        assert!(check_reported_violations(&g, &r, &Solution::new(vec![0, 0, 7]), 0).is_err());
        assert!(check_reported_violations(&g, &r, &Solution::new(vec![0, 0]), 0).is_err());
    }

    #[test]
    fn exact_sets_must_agree_be_exact_and_hold_the_planted_solution() {
        let (g, r) = fixture();
        let exact = Solution::new(vec![0, 0, 0]);
        let off = Solution::new(vec![0, 0, 1]);
        let ok = [exact.clone()];
        assert_eq!(check_exact_sets(&g, &r, &exact, &ok, &ok), Ok(()));
        // The sets differ.
        assert!(check_exact_sets(&g, &r, &exact, &ok, &[]).is_err());
        // A corrupted (non-exact) solution in both sets.
        let bad = [exact.clone(), off.clone()];
        assert!(check_exact_sets(&g, &r, &exact, &bad, &bad).is_err());
        // A duplicate.
        let dup = [exact.clone(), exact.clone()];
        assert!(check_exact_sets(&g, &r, &exact, &dup, &dup).is_err());
        // The planted solution is missing.
        assert!(check_exact_sets(&g, &r, &off, &ok, &ok).is_err());
    }

    #[test]
    fn two_step_must_not_regress_and_proven_answers_must_be_exact() {
        assert_eq!(check_two_step(2, 0, true), Ok(()));
        assert_eq!(check_two_step(2, 1, false), Ok(()));
        assert!(check_two_step(1, 2, false).is_err());
        assert!(check_two_step(2, 1, true).is_err());
    }

    #[test]
    fn counters_must_repeat_exactly() {
        assert_eq!(check_counters("ils", &[1, 2, 3], &[1, 2, 3]), Ok(()));
        assert!(check_counters("ils", &[1, 2, 3], &[1, 2, 4]).is_err());
        assert!(check_counters("ils", &[1, 2, 3], &[1, 2]).is_err());
    }
}
