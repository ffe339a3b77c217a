//! Bulk-load equivalence at paper scale: STR packing over a 100k-entry
//! dataset must produce a structurally valid tree holding exactly the
//! input entry set and answering window queries like a linear scan.

use mwsj_geom::Rect;
use mwsj_rtree::{RTree, RTreeParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const N: usize = 100_000;

fn dataset(seed: u64) -> Vec<(Rect, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N as u32)
        .map(|i| {
            let x = rng.random_range(0.0..1.0);
            let y = rng.random_range(0.0..1.0);
            let w = rng.random_range(0.0..0.01);
            let h = rng.random_range(0.0..0.01);
            (Rect::new(x, y, x + w, y + h), i)
        })
        .collect()
}

/// Every entry of the tree, as `(id, rect)` sorted by id.
fn sorted_entries(tree: &RTree<u32>) -> Vec<(u32, Rect)> {
    let everything = Rect::new(
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::INFINITY,
    );
    let mut out: Vec<(u32, Rect)> = tree.window(&everything).map(|(r, v)| (*v, *r)).collect();
    out.sort_unstable_by_key(|(v, _)| *v);
    out
}

#[test]
fn str_packing_indexes_exactly_the_hundred_thousand_input_entries() {
    let items = dataset(0xb01d);
    let tree = RTree::bulk_load_with_params(RTreeParams::new(32), items.clone());

    tree.check_invariants().expect("STR invariants");
    assert_eq!(tree.len(), N);

    // Same entry set, id for id, rect for rect.
    let entries = sorted_entries(&tree);
    assert_eq!(entries.len(), N);
    for (i, (id, rect)) in entries.iter().enumerate() {
        assert_eq!(*id, i as u32, "ids must be dense 0..N");
        assert_eq!(*rect, items[i].0);
    }

    // Window queries agree with a linear scan across a sweep of sizes and
    // positions.
    let mut rng = StdRng::seed_from_u64(0xcafe);
    for trial in 0..40 {
        let side = [0.001, 0.01, 0.05, 0.25][trial % 4];
        let x = rng.random_range(0.0..1.0 - side);
        let y = rng.random_range(0.0..1.0 - side);
        let window = Rect::new(x, y, x + side, y + side);
        let mut got: Vec<u32> = tree.window(&window).map(|(_, v)| *v).collect();
        got.sort_unstable();
        let expected: Vec<u32> = items
            .iter()
            .filter(|(r, _)| r.intersects(&window))
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(got, expected, "window {window:?} diverges");
    }

    // The frozen flat copy mirrors the tree entry-for-entry.
    assert_eq!(tree.flat_leaves().len(), N);
}
