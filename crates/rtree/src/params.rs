//! Tuning parameters of the R*-tree.

/// Structural parameters of an [`crate::RTree`]: the node capacity *M*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeParams {
    /// Maximum number of entries per node (*M*). At least 4.
    pub(crate) max_entries: usize,
}

impl RTreeParams {
    /// Creates parameters for node capacity `max_entries`.
    ///
    /// # Panics
    /// Panics if `max_entries < 4`.
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "R*-tree node capacity must be at least 4");
        RTreeParams { max_entries }
    }
}

impl Default for RTreeParams {
    /// Capacity 32 — roughly a 1 KiB page of 2D f64 MBRs plus ids, a common
    /// experimental setting for in-memory R-trees.
    fn default() -> Self {
        RTreeParams::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_capacity_is_32() {
        assert_eq!(RTreeParams::default().max_entries, 32);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn rejects_tiny_capacity() {
        let _ = RTreeParams::new(3);
    }
}
