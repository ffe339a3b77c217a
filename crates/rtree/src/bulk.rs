//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR packs a static dataset into a fully-built tree in `O(N log N)`:
//! sort by x-center, cut into `⌈√P⌉` vertical slices (P = number of leaves),
//! sort each slice by y-center and pack runs of `M` entries into leaves;
//! repeat one level up until a single node remains. It is the only way a
//! tree is built: every index in this workspace is packed once over a
//! static dataset (10⁴–10⁵ objects per dataset) and only read afterwards.

use crate::node::{Entry, Node, NodeId};
use crate::params::RTreeParams;
use crate::tree::RTree;
use mwsj_geom::Rect;

impl<T> RTree<T> {
    /// Builds a tree over `items` using STR packing and default parameters.
    pub fn bulk_load(items: Vec<(Rect, T)>) -> Self {
        Self::bulk_load_with_params(RTreeParams::default(), items)
    }

    /// Builds a tree over `items` using STR packing.
    pub fn bulk_load_with_params(params: RTreeParams, items: Vec<(Rect, T)>) -> Self {
        let len = items.len();
        debug_assert!(items.iter().all(|(r, _)| r.is_finite()));
        let mut current: Vec<Entry<T>> = items
            .into_iter()
            .map(|(mbr, v)| Entry::data(mbr, v))
            .collect();

        // Slot 0 is held for the root, which is packed last; every other
        // node takes the next slot in packing order.
        let mut nodes = vec![Node {
            level: 0,
            entries: Vec::new(),
        }];
        // Pack level by level until everything fits in one node.
        let mut level = 0u32;
        while current.len() > params.max_entries {
            let groups = str_partition(current, params.max_entries);
            current = Vec::with_capacity(groups.len());
            for entries in groups {
                let node = Node { level, entries };
                current.push(Entry::child(node.mbr(), NodeId(nodes.len() as u32)));
                nodes.push(node);
            }
            level += 1;
        }
        nodes[NodeId::ROOT.index()] = Node {
            level,
            entries: current,
        };
        RTree {
            params,
            nodes,
            height: level + 1,
            len,
        }
    }
}

/// Partitions entries into groups of at most `cap` using the STR tiling.
///
/// Group sizes are distributed evenly (instead of filling nodes to `cap`
/// and leaving a short tail), which guarantees every group holds at least
/// `⌊cap/2⌋` members (see [`RTree::check_invariants`] for the bound the
/// tests hold it to).
fn str_partition<T>(mut entries: Vec<Entry<T>>, cap: usize) -> Vec<Vec<Entry<T>>> {
    let n = entries.len();
    debug_assert!(n > cap);
    let group_count = n.div_ceil(cap);
    let slice_count = (group_count as f64).sqrt().ceil() as usize;

    // Vertical slices by x-center.
    entries.sort_by(|a, b| {
        a.mbr
            .center()
            .x
            .partial_cmp(&b.mbr.center().x)
            .expect("finite MBRs")
    });

    let mut groups = Vec::with_capacity(group_count);
    for mut slice in even_chunks(entries, slice_count) {
        // Within the slice, horizontal runs by y-center.
        slice.sort_by(|a, b| {
            a.mbr
                .center()
                .y
                .partial_cmp(&b.mbr.center().y)
                .expect("finite MBRs")
        });
        let slice_groups = slice.len().div_ceil(cap);
        groups.extend(even_chunks(slice, slice_groups));
    }
    groups
}

/// Splits `items` into `k` contiguous chunks whose sizes differ by at most 1.
fn even_chunks<T>(mut items: Vec<T>, k: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let k = k.clamp(1, n.max(1));
    let base = n / k;
    let extra = n % k;
    let mut chunks = Vec::with_capacity(k);
    for i in 0..k {
        let take = base + usize::from(i < extra);
        chunks.push(items.drain(..take).collect());
    }
    debug_assert!(items.is_empty());
    chunks
}

#[cfg(test)]
mod tests {
    use crate::{RTree, RTreeParams};
    use mwsj_geom::Rect;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_items(n: usize, seed: u64) -> Vec<(Rect, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.random_range(0.0..1.0);
                let y: f64 = rng.random_range(0.0..1.0);
                (Rect::new(x, y, x + 0.01, y + 0.01), i)
            })
            .collect()
    }

    #[test]
    fn bulk_load_empty() {
        let tree: RTree<usize> = RTree::bulk_load(Vec::new());
        assert!(tree.is_empty());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_single_leaf() {
        let items = random_items(10, 1);
        let tree = RTree::bulk_load_with_params(RTreeParams::new(16), items);
        assert_eq!(tree.len(), 10);
        assert_eq!(tree.height(), 1);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_large_preserves_everything() {
        let items = random_items(10_000, 2);
        let tree = RTree::bulk_load_with_params(RTreeParams::new(32), items);
        assert_eq!(tree.len(), 10_000);
        tree.check_invariants().unwrap();
        let mut ids: Vec<usize> = tree.iter().map(|(_, v)| *v).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_exact_capacity_boundary() {
        // Exactly M entries => height 1; M+1 entries => height 2.
        let m = 16;
        let tree = RTree::bulk_load_with_params(RTreeParams::new(m), random_items(m, 4));
        assert_eq!(tree.height(), 1);
        let tree = RTree::bulk_load_with_params(RTreeParams::new(m), random_items(m + 1, 5));
        assert_eq!(tree.height(), 2);
        tree.check_invariants().unwrap();
    }
}
