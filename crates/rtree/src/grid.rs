//! PBSM-style uniform grid backend (Patel & DeWitt's *Partition Based
//! Spatial-Merge*, adapted to in-memory evaluation in the spirit of
//! Tsitsigkos & Mamoulis, *Parallel In-Memory Evaluation of Spatial
//! Joins*).
//!
//! The workspace bounding box is split into `nx × ny` uniform cells; every
//! MBR is **replicated** into each cell its rectangle overlaps, stored in
//! per-cell contiguous SoA coordinate arrays (the same layout trick as
//! [`FlatLeaves`](crate::FlatLeaves)). Queries scan only candidate cells
//! and deduplicate replicated hits with a **reference-point rule**: every
//! entry is *processed* in exactly one deterministic cell — the row-major
//! smallest cell where the entry's cell span meets a query's candidate
//! cell range — so each result is reported exactly once without any hash
//! set.
//!
//! Determinism: queries are single-threaded; candidate cells are
//! enumerated in ascending row-major order and in-cell entries in build
//! order, so results and every counter-class metric (`cell accesses`) are
//! a pure function of the grid and the query windows. Parallelism lives
//! one level up, across whole portfolio restarts: a μs-scale probe cannot
//! repay the cost of fanning out threads.
//!
//! Access accounting: one *access* per candidate cell scanned (the grid
//! analogue of one R*-tree node visit).

use crate::multiwindow::BestLeaf;
use mwsj_geom::{Predicate, Rect};
use mwsj_obs::MemoryFootprint;

/// Default target number of (replicated) entries per occupied cell; the
/// grid resolution is chosen as `ceil(sqrt(n / target))` cells per axis.
pub const DEFAULT_TARGET_OCCUPANCY: f64 = 16.0;

/// Inclusive rectangle of grid cells `[x0..=x1] × [y0..=y1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellRange {
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
}

/// A uniform grid over 2-D MBRs with cell-replicated entries.
///
/// Build once ([`UniformGrid::build`]), query many times. Entries carry a
/// `Copy` payload (object ids in this codebase).
#[derive(Debug, Clone)]
pub struct UniformGrid<T> {
    bbox: Rect,
    nx: usize,
    ny: usize,
    cell_w: f64,
    cell_h: f64,
    /// Per-cell spans into the SoA arrays: cell `c` owns `starts[c]..starts[c+1]`.
    starts: Vec<usize>,
    lo_x: Vec<f64>,
    lo_y: Vec<f64>,
    hi_x: Vec<f64>,
    hi_y: Vec<f64>,
    values: Vec<T>,
    /// Union MBR of the **full** (unclipped) rectangles replicated into
    /// each cell; [`Rect::EMPTY`] for empty cells.
    cell_mbr: Vec<Rect>,
    /// Number of unique indexed rectangles (before replication).
    unique: usize,
}

/// Structural statistics of a [`UniformGrid`] (cell-occupancy telemetry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridStats {
    /// Cells per axis (x).
    pub nx: u64,
    /// Cells per axis (y).
    pub ny: u64,
    /// Total number of cells (`nx · ny`).
    pub cells: u64,
    /// Cells holding at least one entry.
    pub occupied_cells: u64,
    /// Stored entries *including* replication.
    pub entries: u64,
    /// Unique indexed rectangles.
    pub unique: u64,
    /// `entries / unique` (1.0 when nothing straddles a cell boundary).
    pub replication_factor: f64,
    /// `entries / occupied_cells` (0.0 for an empty grid).
    pub avg_occupancy: f64,
    /// Largest per-cell entry count.
    pub max_occupancy: u64,
}

impl<T: Copy> UniformGrid<T> {
    /// Builds a grid over `items` at the default target occupancy.
    pub fn build(items: &[(Rect, T)]) -> Self {
        Self::with_target_occupancy(items, DEFAULT_TARGET_OCCUPANCY)
    }

    /// Builds a grid sized for roughly `target` entries per cell.
    fn with_target_occupancy(items: &[(Rect, T)], target: f64) -> Self {
        let bbox = if items.is_empty() {
            Rect::new(0.0, 0.0, 1.0, 1.0)
        } else {
            Rect::union_all(items.iter().map(|(r, _)| r))
        };
        let side = if items.is_empty() {
            1
        } else {
            ((items.len() as f64 / target.max(1.0)).sqrt().ceil() as usize).max(1)
        };
        let (nx, ny) = (side, side);
        let cell_w = positive_step(bbox.width(), nx);
        let cell_h = positive_step(bbox.height(), ny);
        let mut grid = UniformGrid {
            bbox,
            nx,
            ny,
            cell_w,
            cell_h,
            starts: Vec::new(),
            lo_x: Vec::new(),
            lo_y: Vec::new(),
            hi_x: Vec::new(),
            hi_y: Vec::new(),
            values: Vec::new(),
            cell_mbr: vec![Rect::EMPTY; nx * ny],
            unique: items.len(),
        };

        // Pass 1: per-cell replica counts.
        let mut counts = vec![0usize; nx * ny];
        for (r, _) in items {
            let s = grid.span_of(r);
            for cy in s.y0..=s.y1 {
                for cx in s.x0..=s.x1 {
                    counts[cy * nx + cx] += 1;
                }
            }
        }
        let mut starts = Vec::with_capacity(nx * ny + 1);
        let mut acc = 0usize;
        starts.push(0);
        for &c in &counts {
            acc += c;
            starts.push(acc);
        }
        grid.lo_x = vec![0.0; acc];
        grid.lo_y = vec![0.0; acc];
        grid.hi_x = vec![0.0; acc];
        grid.hi_y = vec![0.0; acc];
        grid.values = Vec::with_capacity(acc);
        // Fill values with placeholders so we can write by index.
        if let Some(&(_, v0)) = items.first() {
            grid.values.resize(acc, v0);
        }

        // Pass 2: fill each cell in item order (within-cell order therefore
        // equals the original item order — the canonical tie-break order).
        let mut cursor: Vec<usize> = starts[..nx * ny].to_vec();
        for (r, v) in items {
            let s = grid.span_of(r);
            for cy in s.y0..=s.y1 {
                for cx in s.x0..=s.x1 {
                    let cell = cy * nx + cx;
                    let at = cursor[cell];
                    cursor[cell] += 1;
                    grid.lo_x[at] = r.min.x;
                    grid.lo_y[at] = r.min.y;
                    grid.hi_x[at] = r.max.x;
                    grid.hi_y[at] = r.max.y;
                    grid.values[at] = *v;
                    grid.cell_mbr[cell] = grid.cell_mbr[cell].union(r);
                }
            }
        }
        grid.starts = starts;
        grid
    }
}

impl<T> UniformGrid<T> {
    /// Number of unique indexed rectangles.
    #[inline]
    pub fn len(&self) -> usize {
        self.unique
    }

    /// Returns `true` if the grid indexes no rectangles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.unique == 0
    }

    /// Total number of cells.
    #[inline]
    pub fn cells(&self) -> usize {
        self.nx * self.ny
    }

    /// The workspace bounding box the grid covers.
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Union MBR of the full rectangles replicated into cell `c`
    /// ([`Rect::EMPTY`] for empty cells).
    #[inline]
    pub fn cell_mbr(&self, c: usize) -> Rect {
        self.cell_mbr[c]
    }

    /// Entry slots of cell `c` (indices into the SoA arrays).
    #[inline]
    fn cell_slots(&self, c: usize) -> std::ops::Range<usize> {
        self.starts[c]..self.starts[c + 1]
    }

    /// Number of entries replicated into cell `c`.
    #[inline]
    pub fn cell_len(&self, c: usize) -> usize {
        self.starts[c + 1] - self.starts[c]
    }

    /// Iterates the `(value, full_rect)` entries replicated into cell `c`,
    /// in build order (= original item order within the cell). Boundary
    /// straddlers appear under every overlapping cell; filter on
    /// [`UniformGrid::home_cell`] for exactly-once enumeration.
    pub fn cell_entries(&self, c: usize) -> impl Iterator<Item = (T, Rect)> + '_
    where
        T: Copy,
    {
        self.cell_slots(c)
            .map(move |i| (self.values[i], self.rect_at(i)))
    }

    /// The full rectangle stored at SoA slot `i`.
    #[inline]
    fn rect_at(&self, i: usize) -> Rect {
        Rect {
            min: mwsj_geom::Point::new(self.lo_x[i], self.lo_y[i]),
            max: mwsj_geom::Point::new(self.hi_x[i], self.hi_y[i]),
        }
    }

    /// Structural cell-occupancy statistics.
    pub fn stats(&self) -> GridStats {
        let cells = self.cells();
        let entries = self.values.len() as u64;
        let mut occupied = 0u64;
        let mut max_occ = 0u64;
        for c in 0..cells {
            let n = self.cell_len(c) as u64;
            if n > 0 {
                occupied += 1;
            }
            max_occ = max_occ.max(n);
        }
        GridStats {
            nx: self.nx as u64,
            ny: self.ny as u64,
            cells: cells as u64,
            occupied_cells: occupied,
            entries,
            unique: self.unique as u64,
            replication_factor: if self.unique == 0 {
                1.0
            } else {
                entries as f64 / self.unique as f64
            },
            avg_occupancy: if occupied == 0 {
                0.0
            } else {
                entries as f64 / occupied as f64
            },
            max_occupancy: max_occ,
        }
    }

    #[inline]
    fn cell_x(&self, x: f64) -> usize {
        let i = ((x - self.bbox.min.x) / self.cell_w).floor();
        (i.max(0.0) as usize).min(self.nx - 1)
    }

    #[inline]
    fn cell_y(&self, y: f64) -> usize {
        let i = ((y - self.bbox.min.y) / self.cell_h).floor();
        (i.max(0.0) as usize).min(self.ny - 1)
    }

    /// Cell span of a rectangle (clamped to the grid).
    #[inline]
    fn span_of(&self, r: &Rect) -> CellRange {
        CellRange {
            x0: self.cell_x(r.min.x),
            y0: self.cell_y(r.min.y),
            x1: self.cell_x(r.max.x),
            y1: self.cell_y(r.max.y),
        }
    }

    /// The *home cell* of a rectangle: the row-major smallest cell of its
    /// span (its min corner's cell, clamped into the grid). Every indexed
    /// rectangle is replicated into its home cell, so accepting entries
    /// only at `home_cell(r) == c` enumerates each exactly once.
    #[inline]
    pub fn home_cell(&self, r: &Rect) -> usize {
        self.cell_y(r.min.y) * self.nx + self.cell_x(r.min.x)
    }

    /// Candidate cell range for `pred` against window `w`: a conservative
    /// cover — `pred.eval(r, w)` implies `r` intersects the region, which
    /// the range covers. `None` when no indexed rectangle can qualify.
    fn candidate_range(&self, pred: Predicate, w: &Rect) -> Option<CellRange> {
        let region = match pred {
            // r must share a point with w (also necessary for Contains /
            // Inside: containment in either direction implies overlap).
            Predicate::Intersects | Predicate::Contains | Predicate::Inside => *w,
            // r.min ≥ w.max on both axes ⇒ r meets the quadrant NE of w.max.
            Predicate::NorthEast => Rect {
                min: w.max,
                max: mwsj_geom::Point::new(f64::INFINITY, f64::INFINITY),
            },
            Predicate::SouthWest => Rect {
                min: mwsj_geom::Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
                max: w.min,
            },
            Predicate::WithinDistance(eps) => w.inflate(eps.max(0.0)),
        };
        let clamped = region.intersection(&self.bbox);
        if clamped.is_empty() {
            return None;
        }
        Some(self.span_of(&clamped))
    }

    /// Reference-point deduplication: the unique cell in which an entry
    /// with rectangle `r` is processed for a query with candidate cell
    /// `ranges` — the row-major smallest cell where `r`'s span meets any
    /// range. `None` when the spans are disjoint from every range (the
    /// entry can satisfy no window and is never scanned).
    #[inline]
    fn dedup_cell(&self, r: &Rect, ranges: &[CellRange]) -> Option<usize> {
        let s = self.span_of(r);
        let mut best: Option<usize> = None;
        for g in ranges {
            let x0 = s.x0.max(g.x0);
            let y0 = s.y0.max(g.y0);
            if x0 > s.x1.min(g.x1) || y0 > s.y1.min(g.y1) {
                continue;
            }
            let idx = y0 * self.nx + x0;
            if best.is_none_or(|b| idx < b) {
                best = Some(idx);
            }
        }
        best
    }

    /// Sorted (ascending row-major) union of the candidate cell ranges.
    fn union_cells(&self, ranges: &[CellRange]) -> Vec<usize> {
        let mut cells = Vec::new();
        for g in ranges {
            for cy in g.y0..=g.y1 {
                for cx in g.x0..=g.x1 {
                    cells.push(cy * self.nx + cx);
                }
            }
        }
        cells.sort_unstable();
        cells.dedup();
        cells
    }

    fn ranges_for(&self, windows: &[(Predicate, Rect)]) -> Vec<CellRange> {
        windows
            .iter()
            .filter_map(|(p, w)| self.candidate_range(*p, w))
            .collect()
    }

    /// Visits every entry of the candidate cells of `ranges` exactly once
    /// (reference-point rule), in canonical `(cell, slot)` order, and
    /// charges one access per candidate cell to `cell_accesses` and to
    /// the leaf row of `level_accesses` (the grid is a flat, one-level
    /// structure: every access is a "leaf" access).
    fn scan(
        &self,
        ranges: &[CellRange],
        cell_accesses: &mut u64,
        level_accesses: &mut [u64],
        mut visit: impl FnMut(T, &Rect),
    ) where
        T: Copy,
    {
        let cells = self.union_cells(ranges);
        *cell_accesses += cells.len() as u64;
        if let Some(slot) = level_accesses.get_mut(0) {
            *slot += cells.len() as u64;
        }
        for c in cells {
            for slot in self.cell_slots(c) {
                let r = self.rect_at(slot);
                if self.dedup_cell(&r, ranges) == Some(c) {
                    visit(self.values[slot], &r);
                }
            }
        }
    }
}

/// Multi-window best-entry query over the grid — the grid analogue of the
/// R*-tree [`find_best_leaf`](crate::find_best_leaf) kernel.
///
/// Scans the union of the windows' candidate cell ranges in ascending
/// row-major order; each entry is evaluated exactly once (reference-point
/// rule) against **all** windows with the exact [`Predicate::eval`] test,
/// scored by `score(&value, satisfied_count)` and offered with a strict
/// `>` comparison, ties keeping the earliest `(cell, slot)` — the grid's
/// canonical order. Entries satisfying zero windows are skipped.
/// `cell_accesses` (and `level_accesses[0]`, when present) are bumped once
/// per candidate cell.
pub fn find_best_in_windows<T: Copy>(
    grid: &UniformGrid<T>,
    windows: &[(Predicate, Rect)],
    mut score: impl FnMut(&T, u32) -> f64,
    cell_accesses: &mut u64,
    level_accesses: &mut [u64],
) -> Option<BestLeaf<T>> {
    let mut best: Option<BestLeaf<T>> = None;
    let ranges = grid.ranges_for(windows);
    grid.scan(&ranges, cell_accesses, level_accesses, |value, r| {
        let satisfied = windows.iter().filter(|(p, w)| p.eval(r, w)).count() as u32;
        if satisfied == 0 {
            return;
        }
        let s = score(&value, satisfied);
        if best.is_none_or(|b| s > b.score) {
            best = Some(BestLeaf {
                value,
                satisfied,
                score: s,
            });
        }
    });
    best
}

/// Single-predicate window query: all values whose rectangle satisfies
/// `pred` against `window`, each reported exactly once, in the grid's
/// canonical `(cell, slot)` order. One access is charged per candidate
/// cell.
pub fn query_predicate<T: Copy>(
    grid: &UniformGrid<T>,
    pred: Predicate,
    window: &Rect,
    cell_accesses: &mut u64,
) -> Vec<T> {
    let mut out = Vec::new();
    let range = grid.candidate_range(pred, window);
    grid.scan(range.as_slice(), cell_accesses, &mut [], |value, r| {
        if pred.eval(r, window) {
            out.push(value);
        }
    });
    out
}

/// Multi-window candidate enumeration — the grid analogue of the
/// conjunctive/disjunctive R*-tree candidate walk used by WR, PJM and IBB:
/// every `(value, satisfied_count)` with `satisfied_count ≥ min_count`,
/// each value exactly once, in canonical `(cell, slot)` order.
///
/// The scan covers the **union** of the windows' candidate ranges even for
/// conjunctive queries (`min_count == windows.len()`): an entry may
/// satisfy two windows whose candidate ranges are disjoint, so the range
/// intersection would not be a sound filter.
pub fn candidates_with_counts<T: Copy>(
    grid: &UniformGrid<T>,
    windows: &[(Predicate, Rect)],
    min_count: u32,
    cell_accesses: &mut u64,
    level_accesses: &mut [u64],
) -> Vec<(T, u32)> {
    debug_assert!(min_count >= 1);
    let mut out = Vec::new();
    let ranges = grid.ranges_for(windows);
    grid.scan(&ranges, cell_accesses, level_accesses, |value, r| {
        let count = windows.iter().filter(|(p, w)| p.eval(r, w)).count() as u32;
        if count >= min_count {
            out.push((value, count));
        }
    });
    out
}

/// Cell width/height that is strictly positive even for degenerate
/// bounding boxes (all data on one point or line).
#[inline]
fn positive_step(extent: f64, n: usize) -> f64 {
    let step = extent / n as f64;
    if step > 0.0 {
        step
    } else {
        1.0
    }
}

impl<T> MemoryFootprint for UniformGrid<T> {
    /// Length-based resident bytes: the four SoA coordinate streams, the
    /// value array, the per-cell span table and the cell union-MBRs.
    fn memory_bytes(&self) -> u64 {
        let coords = (self.lo_x.len() * 4 * std::mem::size_of::<f64>()) as u64;
        let values = (self.values.len() * std::mem::size_of::<T>()) as u64;
        let starts = (self.starts.len() * std::mem::size_of::<usize>()) as u64;
        let mbrs = (self.cell_mbr.len() * std::mem::size_of::<Rect>()) as u64;
        coords + values + starts + mbrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_items(seed: u64, n: usize, extent: f64) -> Vec<(Rect, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x = rng.random_range(0.0..1.0);
                let y = rng.random_range(0.0..1.0);
                let w = rng.random_range(0.0..extent);
                let h = rng.random_range(0.0..extent);
                (Rect::new(x, y, x + w, y + h), i as u32)
            })
            .collect()
    }

    const ALL_PREDS: [Predicate; 6] = [
        Predicate::Intersects,
        Predicate::Contains,
        Predicate::Inside,
        Predicate::NorthEast,
        Predicate::SouthWest,
        Predicate::WithinDistance(0.2),
    ];

    #[test]
    fn query_matches_brute_force_for_every_predicate() {
        let items = random_items(11, 600, 0.2);
        let grid = UniformGrid::build(&items);
        let windows = [
            Rect::new(0.2, 0.2, 0.5, 0.5),
            Rect::new(0.0, 0.0, 0.05, 0.05),
            Rect::new(0.9, 0.9, 1.4, 1.4),
        ];
        for pred in ALL_PREDS {
            for w in &windows {
                let mut acc = 0;
                let mut got = query_predicate(&grid, pred, w, &mut acc);
                got.sort_unstable();
                let mut expected: Vec<u32> = items
                    .iter()
                    .filter(|(r, _)| pred.eval(r, w))
                    .map(|&(_, v)| v)
                    .collect();
                expected.sort_unstable();
                assert_eq!(got, expected, "{pred} on {w}");
                assert!(acc > 0 || got.is_empty());
            }
        }
    }

    #[test]
    fn query_reports_each_boundary_straddler_exactly_once() {
        // Large rects spanning many cells plus duplicate-coordinate rects.
        let mut items = random_items(12, 300, 0.6);
        items.push((Rect::new(0.1, 0.1, 0.9, 0.9), 300));
        items.push((Rect::new(0.1, 0.1, 0.9, 0.9), 301));
        items.push((Rect::new(0.1, 0.1, 0.9, 0.9), 302));
        let grid = UniformGrid::with_target_occupancy(&items, 4.0);
        let w = Rect::new(0.0, 0.0, 1.0, 1.0);
        let got = query_predicate(&grid, Predicate::Intersects, &w, &mut 0);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), got.len(), "replicated entries reported twice");
        assert_eq!(got.len(), items.len());
    }

    #[test]
    fn find_best_matches_brute_force() {
        let items = random_items(13, 500, 0.15);
        let grid = UniformGrid::build(&items);
        let windows = vec![
            (Predicate::Intersects, Rect::new(0.1, 0.1, 0.4, 0.4)),
            (Predicate::Intersects, Rect::new(0.3, 0.3, 0.6, 0.6)),
            (
                Predicate::WithinDistance(0.05),
                Rect::new(0.7, 0.7, 0.8, 0.8),
            ),
        ];
        let best = find_best_in_windows(&grid, &windows, |_, c| c as f64, &mut 0, &mut [])
            .expect("some entry satisfies a window");
        let brute = items
            .iter()
            .map(|(r, v)| {
                let c = windows.iter().filter(|(p, w)| p.eval(r, w)).count() as u32;
                (c, *v)
            })
            .max_by_key(|&(c, _)| c)
            .unwrap();
        assert_eq!(best.satisfied, brute.0);
        assert_eq!(best.score, brute.0 as f64);
    }

    #[test]
    fn candidates_match_brute_force_at_every_threshold() {
        let items = random_items(16, 700, 0.25);
        let grid = UniformGrid::build(&items);
        let windows = vec![
            (Predicate::Intersects, Rect::new(0.1, 0.1, 0.4, 0.4)),
            (Predicate::Intersects, Rect::new(0.3, 0.3, 0.6, 0.6)),
            (Predicate::NorthEast, Rect::new(0.1, 0.1, 0.2, 0.2)),
        ];
        for min in 1..=3 {
            let mut got = candidates_with_counts(&grid, &windows, min, &mut 0, &mut []);
            got.sort_unstable();
            let mut expected: Vec<(u32, u32)> = items
                .iter()
                .filter_map(|(r, v)| {
                    let c = windows.iter().filter(|(p, w)| p.eval(r, w)).count() as u32;
                    (c >= min).then_some((*v, c))
                })
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "min_count {min}");
        }
    }

    #[test]
    fn conjunctive_query_survives_disjoint_candidate_ranges() {
        // One big rect touching two far-apart windows: the windows' cell
        // ranges are disjoint, yet the entry satisfies both.
        let mut items = vec![(Rect::new(0.05, 0.05, 0.95, 0.95), 0u32)];
        for i in 1..200u32 {
            let t = i as f64 / 200.0;
            items.push((Rect::new(t, t, t + 0.002, t + 0.002), i));
        }
        let grid = UniformGrid::with_target_occupancy(&items, 2.0);
        let windows = vec![
            (Predicate::Intersects, Rect::new(0.0, 0.0, 0.1, 0.1)),
            (Predicate::Intersects, Rect::new(0.9, 0.9, 1.0, 1.0)),
        ];
        let got = candidates_with_counts(&grid, &windows, 2, &mut 0, &mut []);
        assert_eq!(got, vec![(0, 2)]);
    }

    #[test]
    fn stats_and_footprint_are_consistent() {
        let items = random_items(17, 400, 0.3);
        let grid = UniformGrid::build(&items);
        let stats = grid.stats();
        assert_eq!(stats.unique, 400);
        assert_eq!(stats.cells, stats.nx * stats.ny);
        assert!(stats.entries >= stats.unique, "replication only adds");
        assert!(stats.replication_factor >= 1.0);
        assert!(stats.occupied_cells <= stats.cells);
        assert!(stats.max_occupancy as f64 >= stats.avg_occupancy);
        assert!(grid.memory_bytes() > 0);
        // Same logical grid, same bytes.
        let again = UniformGrid::build(&items);
        assert_eq!(grid.memory_bytes(), again.memory_bytes());
    }

    #[test]
    fn home_cell_is_within_span_and_unique() {
        let items = random_items(18, 300, 0.4);
        let grid = UniformGrid::with_target_occupancy(&items, 4.0);
        let mut seen = vec![0u32; items.len()];
        for c in 0..grid.cells() {
            for slot in grid.cell_slots(c) {
                let r = grid.rect_at(slot);
                if grid.home_cell(&r) == c {
                    seen[grid.values[slot] as usize] += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "home-cell rule not exactly-once"
        );
    }

    #[test]
    fn degenerate_and_empty_inputs() {
        // All items on a single point: degenerate bbox.
        let items: Vec<(Rect, u32)> = (0..10)
            .map(|i| (Rect::new(0.5, 0.5, 0.5, 0.5), i))
            .collect();
        let grid = UniformGrid::build(&items);
        let got = query_predicate(
            &grid,
            Predicate::Intersects,
            &Rect::new(0.0, 0.0, 1.0, 1.0),
            &mut 0,
        );
        assert_eq!(got.len(), 10);

        let empty: Vec<(Rect, u32)> = Vec::new();
        let grid = UniformGrid::build(&empty);
        assert!(grid.is_empty());
        assert!(query_predicate(
            &grid,
            Predicate::Intersects,
            &Rect::new(0.0, 0.0, 1.0, 1.0),
            &mut 0
        )
        .is_empty());
    }
}
