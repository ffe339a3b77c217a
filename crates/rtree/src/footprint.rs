//! [`MemoryFootprint`] accounting for the index structures.
//!
//! Byte counts follow the trait's contract (`mwsj_obs::resource`):
//! length-based, never capacity-based, so the same logical tree always
//! reports the same bytes regardless of allocator growth. The numbers are the
//! regression-gated working-set cost of keeping an index resident, not an
//! allocator measurement.

use crate::flat::FlatLeaves;
use crate::node::{Entry, Node};
use crate::tree::RTree;
use mwsj_obs::MemoryFootprint;
use std::mem::size_of;

impl<T> MemoryFootprint for RTree<T> {
    /// Heap bytes of the node arena: one node header per slab slot and
    /// the stored entries counted by `len`.
    fn memory_bytes(&self) -> u64 {
        let headers = self.nodes.len() as u64 * size_of::<Node<T>>() as u64;
        let entries: u64 = self
            .nodes
            .iter()
            .map(|node| node.entries.len() as u64)
            .sum::<u64>()
            * size_of::<Entry<T>>() as u64;
        headers + entries
    }
}

impl<T> MemoryFootprint for FlatLeaves<T> {
    /// Delegates to [`FlatLeaves::memory_bytes`]: the SoA coordinate
    /// streams, the value array and the per-node span table.
    fn memory_bytes(&self) -> u64 {
        FlatLeaves::memory_bytes(self) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTreeParams;
    use mwsj_geom::Rect;
    use proptest::prelude::*;

    fn items(seed: u64, n: usize) -> Vec<(Rect, u32)> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x = rng.random_range(0.0..1.0);
                let y = rng.random_range(0.0..1.0);
                (Rect::new(x, y, x + 0.03, y + 0.03), i as u32)
            })
            .collect()
    }

    proptest! {
        /// Deterministic accounting: building the same tree twice from the
        /// same items reports identical bytes, for the tree and for two
        /// independently frozen flat-leaf snapshots.
        #[test]
        fn footprint_is_deterministic_across_rebuilds(
            seed in 0u64..1_000,
            n in 1usize..400,
            m in prop_oneof![Just(4usize), Just(8), Just(16), Just(32)],
        ) {
            let data = items(seed, n);
            let a = RTree::bulk_load_with_params(RTreeParams::new(m), data.clone());
            let b = RTree::bulk_load_with_params(RTreeParams::new(m), data);
            prop_assert_eq!(
                MemoryFootprint::memory_bytes(&a),
                MemoryFootprint::memory_bytes(&b)
            );
            prop_assert_eq!(
                MemoryFootprint::memory_bytes(&a.flat_leaves()),
                MemoryFootprint::memory_bytes(&b.flat_leaves())
            );
        }

        /// `FlatLeaves` can never report less than its four coordinate
        /// streams: 4 × len × size_of::<f64>.
        #[test]
        fn flat_leaves_lower_bound_is_the_coordinate_streams(
            seed in 0u64..1_000,
            n in 0usize..400,
        ) {
            let tree = RTree::bulk_load_with_params(RTreeParams::new(8), items(seed, n));
            let flat = tree.flat_leaves();
            let streams = 4 * flat.len() as u64 * size_of::<f64>() as u64;
            prop_assert!(MemoryFootprint::memory_bytes(&flat) >= streams);
        }
    }

    /// The accounting is length-based: at every capacity an empty tree
    /// charges one root header, and more entries charge more bytes.
    #[test]
    fn tree_bytes_track_contents() {
        for m in [4, 8, 16, 32] {
            let bytes = |n: usize| {
                let tree = RTree::bulk_load_with_params(RTreeParams::new(m), items(7, n));
                MemoryFootprint::memory_bytes(&tree)
            };
            assert_eq!(bytes(0), size_of::<Node<u32>>() as u64, "M = {m}");
            assert!(bytes(0) < bytes(50), "M = {m}");
            assert!(bytes(50) < bytes(200), "M = {m}");
        }
    }
}
