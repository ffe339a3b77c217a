//! Structural invariant checking, used heavily by the test suite.

use crate::node::{NodeId, Payload};
use crate::tree::RTree;

impl<T> RTree<T> {
    /// Verifies every structural invariant of the tree:
    ///
    /// 1. node levels decrease by exactly one along child edges, leaves sit
    ///    at level 0 and the root at `height - 1`;
    /// 2. every internal entry's MBR equals (within fp tolerance) the tight
    ///    union of its child's entries;
    /// 3. occupancy: every node holds at most `M` entries and every
    ///    non-root node at least `max(⌊0.4·M⌋, 2)` — the BKSS90 minimum
    ///    fill, which STR packing meets; an internal root holds at least 2;
    /// 4. every slab node is reachable from the root exactly once;
    /// 5. the recorded `len` equals the number of reachable data entries.
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let max_entries = self.params.max_entries;
        let min_entries = ((max_entries as f64 * 0.4) as usize).max(2);
        let mut seen = vec![false; self.nodes.len()];
        let mut data_count = 0usize;

        let root = NodeId::ROOT;
        if self.node(root).level + 1 != self.height {
            return Err(format!(
                "root level {} inconsistent with height {}",
                self.node(root).level,
                self.height
            ));
        }

        let mut stack: Vec<NodeId> = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                return Err(format!("node {} reachable twice", id.0));
            }
            let node = self.node(id);

            // Occupancy.
            if node.entries.len() > max_entries {
                return Err(format!(
                    "node {} overflows: {} > M = {max_entries}",
                    id.0,
                    node.entries.len()
                ));
            }
            if id != root && node.entries.len() < min_entries {
                return Err(format!(
                    "node {} underflows: {} < m = {min_entries}",
                    id.0,
                    node.entries.len()
                ));
            }
            if id == root && !node.is_leaf() && node.entries.len() < 2 {
                return Err("internal root with fewer than 2 entries".into());
            }

            for (slot, e) in node.entries.iter().enumerate() {
                if !e.mbr.is_finite() && !e.mbr.is_empty() {
                    return Err(format!("node {} slot {slot}: non-finite MBR", id.0));
                }
                match &e.payload {
                    Payload::Data(_) => {
                        if !node.is_leaf() {
                            return Err(format!(
                                "data entry in internal node {} (level {})",
                                id.0, node.level
                            ));
                        }
                        data_count += 1;
                    }
                    Payload::Child(child_id) => {
                        if node.is_leaf() {
                            return Err(format!("child entry in leaf node {}", id.0));
                        }
                        let child = self.node(*child_id);
                        if child.level + 1 != node.level {
                            return Err(format!(
                                "child {} at level {} under parent {} at level {}",
                                child_id.0, child.level, id.0, node.level
                            ));
                        }
                        let tight = child.mbr();
                        if !rects_close(&e.mbr, &tight) {
                            return Err(format!(
                                "stale MBR for child {}: stored {} vs tight {}",
                                child_id.0, e.mbr, tight
                            ));
                        }
                        stack.push(*child_id);
                    }
                }
            }
        }

        let unreachable = seen.iter().filter(|&&s| !s).count();
        if unreachable > 0 {
            return Err(format!(
                "{unreachable} of {} slab nodes unreachable",
                self.nodes.len()
            ));
        }
        if data_count != self.len {
            return Err(format!(
                "len mismatch: recorded {}, reachable {}",
                self.len, data_count
            ));
        }
        Ok(())
    }
}

/// Exact equality is expected — MBRs are recomputed as exact unions — but a
/// tiny tolerance guards against platform fp quirks in future refactors.
fn rects_close(a: &mwsj_geom::Rect, b: &mwsj_geom::Rect) -> bool {
    if a.is_empty() && b.is_empty() {
        return true;
    }
    const EPS: f64 = 1e-12;
    (a.min.x - b.min.x).abs() <= EPS
        && (a.min.y - b.min.y).abs() <= EPS
        && (a.max.x - b.max.x).abs() <= EPS
        && (a.max.y - b.max.y).abs() <= EPS
}

#[cfg(test)]
mod proptests {
    use crate::{RTree, RTreeParams};
    use mwsj_geom::Rect;
    use proptest::prelude::*;

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.1, 0.0f64..0.1)
            .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// STR packing at any capacity and size keeps every invariant and
        /// makes every rectangle findable by a window query on itself.
        /// Sizes are exactly `M` (one leaf), `M + 1` (the first split into
        /// two levels), or anything up to `min(M³ + 1, 600)` (heights 1–4).
        #[test]
        fn str_packing_preserves_invariants(
            m in prop_oneof![Just(4usize), Just(8), Just(16), Just(32)],
            boundary in 0u8..3,
            pool in prop::collection::vec(arb_rect(), 33..=600),
        ) {
            let n = match boundary {
                0 => m,
                1 => m + 1,
                _ => pool.len() % (m * m * m + 2).min(601),
            };
            let rects = &pool[..n];
            let tree = RTree::bulk_load_with_params(
                RTreeParams::new(m),
                rects.iter().copied().zip(0usize..).collect(),
            );
            prop_assert_eq!(tree.check_invariants(), Ok(()));
            prop_assert_eq!(tree.len(), rects.len());
            if rects.len() == m {
                prop_assert_eq!(tree.height(), 1);
            }
            if rects.len() == m + 1 {
                prop_assert_eq!(tree.height(), 2);
            }
            for (i, r) in rects.iter().enumerate() {
                prop_assert!(
                    tree.window(r).any(|(_, v)| *v == i),
                    "rect {i} not found by self-window"
                );
            }
        }
    }
}
