//! A read-only, STR-packed R-tree and a uniform-grid alternative.
//!
//! This crate implements the index substrate of the EDBT 2002 paper, which
//! assumes every input dataset is indexed by an R*-tree on minimum bounding
//! rectangles ("for the rest of the paper we consider that all datasets
//! are indexed by R*-trees"). The paper's algorithms only *read* those
//! trees, so this crate builds each one once and never changes it:
//!
//! * **STR bulk loading** (Sort-Tile-Recursive) packs a static dataset
//!   into a full tree in one pass — the only way a tree is built. The
//!   BKSS90 dynamic update algorithms are not implemented: no query path
//!   needs them.
//! * **Queries**: window (rectangle intersection) and generic
//!   [`Predicate`](mwsj_geom::Predicate)-based candidate enumeration.
//! * A **read-only traversal API** ([`NodeRef`]/[`EntryRef`]) that the join
//!   algorithms in `mwsj-core` use to drive custom branch-and-bound
//!   traversals (the paper's *find best value*, synchronous traversal and
//!   IBB) while counting node accesses themselves.
//! * A **multi-window branch-and-bound kernel** ([`find_best_leaf`]):
//!   the best-first, prune-by-potential traversal of the paper's *find
//!   best value* (Fig. 5) with a caller-supplied leaf scorer, shared by
//!   the raw (ILS/SEA/IBB) and λ-penalised (GILS) search paths.
//! * A frozen **flat leaf copy** ([`FlatLeaves`]) the kernel scans as
//!   contiguous coordinate arrays.
//! * A PBSM-style **uniform grid** ([`UniformGrid`]) answering the same
//!   queries, single-threaded like every other query path here.
//! * A shared **access-accounting hook** ([`AccessCounter`]): the window
//!   and predicate queries and the visit API have `*_counted` variants
//!   that record one access per node touched into a caller-supplied
//!   counter.
//! * An **invariant checker** ([`RTree::check_invariants`]) used by the test
//!   suite and property tests.
//!
//! The tree stores nodes in a slab (`Vec`) addressed by compact ids — no
//! pointer chasing through boxes, no unsafe code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
mod bulk;
mod flat;
mod footprint;
pub mod grid;
pub mod multiwindow;
mod node;
mod params;
mod query;
mod stats;
mod tree;
mod validate;
mod visit;

pub use access::AccessCounter;
pub use flat::FlatLeaves;
pub use grid::{GridStats, UniformGrid};
pub use multiwindow::{
    find_best_leaf, find_best_leaf_flat, find_best_leaf_flat_leveled, find_best_leaf_leveled,
    BestLeaf,
};
pub use params::RTreeParams;
pub use stats::TreeStats;
pub use tree::RTree;
pub use visit::{EntryRef, NodeRef};
