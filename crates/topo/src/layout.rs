//! Physical placement of interposer routers.
//!
//! NetSmith takes the router layout as an *input*: the number of routers,
//! their physical grid positions on the interposer, and what is attached to
//! each router (cores or memory controllers).  The paper's primary layout is
//! a misaligned 4-row by 5-column grid of twenty interposer routers: the
//! middle three columns concentrate four cores each, while the left-most and
//! right-most columns concentrate two cores plus two memory controllers.
//! Scalability studies use 6x5 (30 routers) and 8x6 (48 routers) grids.

use std::fmt;

/// Identifier of an interposer router within a [`Layout`].
///
/// Routers are numbered row-major: router `r` sits at row `r / cols`,
/// column `r % cols`, matching the numbering used in the paper's Figure 4.
pub type RouterId = usize;

/// What a given interposer router concentrates (connects to vertically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Router concentrating compute cores only (the middle columns of the
    /// 4x5 layout concentrate four cores each).
    Cores { count: u8 },
    /// Router concentrating a mix of cores and memory controllers (the
    /// left-most/right-most columns of the 4x5 layout: two cores + two MCs).
    CoresAndMemory { cores: u8, memory_controllers: u8 },
}

impl NodeKind {
    /// Number of cores attached to the router.
    pub fn cores(&self) -> u8 {
        match *self {
            NodeKind::Cores { count } => count,
            NodeKind::CoresAndMemory { cores, .. } => cores,
        }
    }

    /// Number of memory controllers attached to the router.
    fn memory_controllers(&self) -> u8 {
        match *self {
            NodeKind::Cores { .. } => 0,
            NodeKind::CoresAndMemory {
                memory_controllers, ..
            } => memory_controllers,
        }
    }

    /// True if at least one memory controller hangs off this router.
    fn has_memory(&self) -> bool {
        self.memory_controllers() > 0
    }
}

/// Physical layout of the interposer routers: a `rows x cols` grid with a
/// [`NodeKind`] per router and a network-port radix budget per router.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    rows: usize,
    cols: usize,
    kinds: Vec<NodeKind>,
    /// Maximum number of *network* ports (links to other interposer
    /// routers) per router, in each direction.  The paper's cost-neutral
    /// comparison keeps this equal to the radix the expert topologies use.
    radix: usize,
}

/// Physical pitch between adjacent router columns/rows in millimetres,
/// used by the power/area model to derive wire lengths.
const PITCH_MM: f64 = 4.0;

impl Layout {
    /// Create a layout over a `rows x cols` grid with an explicit kind per
    /// router (row-major order) and a per-router network radix.
    pub fn new(rows: usize, cols: usize, kinds: Vec<NodeKind>, radix: usize) -> Self {
        assert_eq!(
            kinds.len(),
            rows * cols,
            "layout requires one NodeKind per router"
        );
        assert!(radix >= 1, "radix must be at least 1");
        Layout {
            rows,
            cols,
            kinds,
            radix,
        }
    }

    /// The paper's primary 20-router, 4-row x 5-column interposer layout.
    ///
    /// Middle three columns: four cores per router.  Left-most and
    /// right-most columns: two cores and two memory controllers per router.
    /// The default network radix of 4 matches the expert-designed baselines
    /// (cost-neutral comparison in the paper's Figure 1).
    pub fn noi_4x5() -> Self {
        Self::interposer_grid(4, 5, 4)
    }

    /// The 30-router, 6-row x 5-column scalability layout from Table II.
    pub fn noi_6x5() -> Self {
        Self::interposer_grid(6, 5, 4)
    }

    /// The 48-router, 8-row x 6-column scalability layout from Figure 11.
    pub fn noi_8x6() -> Self {
        Self::interposer_grid(8, 6, 4)
    }

    /// Generic interposer grid following the paper's convention: edge
    /// columns host memory controllers, interior columns host cores only.
    pub fn interposer_grid(rows: usize, cols: usize, radix: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "interposer grid needs at least 2x2");
        let mut kinds = Vec::with_capacity(rows * cols);
        for _r in 0..rows {
            for c in 0..cols {
                if c == 0 || c == cols - 1 {
                    kinds.push(NodeKind::CoresAndMemory {
                        cores: 2,
                        memory_controllers: 2,
                    });
                } else {
                    kinds.push(NodeKind::Cores { count: 4 });
                }
            }
        }
        Layout::new(rows, cols, kinds, radix)
    }

    /// Number of rows in the router grid.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the router grid.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of interposer routers.
    pub fn num_routers(&self) -> usize {
        self.rows * self.cols
    }

    /// Per-router network radix (maximum in-degree and out-degree).
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Kind of router `r`.
    pub fn kind(&self, r: RouterId) -> NodeKind {
        self.kinds[r]
    }

    /// Iterator over `(RouterId, NodeKind)`.
    pub fn kinds(&self) -> impl Iterator<Item = (RouterId, NodeKind)> + '_ {
        self.kinds.iter().copied().enumerate()
    }

    /// Grid position `(row, col)` of router `r`.
    pub fn position(&self, r: RouterId) -> (usize, usize) {
        assert!(r < self.num_routers(), "router id {r} out of range");
        (r / self.cols, r % self.cols)
    }

    /// Router at grid position `(row, col)`.
    pub fn router_at(&self, row: usize, col: usize) -> RouterId {
        assert!(row < self.rows && col < self.cols, "position out of range");
        row * self.cols + col
    }

    /// Absolute X/Y span (in grid hops) between two routers.
    pub fn span(&self, a: RouterId, b: RouterId) -> (usize, usize) {
        let (ra, ca) = self.position(a);
        let (rb, cb) = self.position(b);
        (ca.abs_diff(cb), ra.abs_diff(rb))
    }

    /// Euclidean distance between two routers in millimetres, used for wire
    /// delay/energy estimates.
    pub fn distance_mm(&self, a: RouterId, b: RouterId) -> f64 {
        let (dx, dy) = self.span(a, b);
        ((dx * dx + dy * dy) as f64).sqrt() * PITCH_MM
    }

    /// All routers that host at least one memory controller.
    pub fn memory_routers(&self) -> Vec<RouterId> {
        self.kinds()
            .filter(|(_, k)| k.has_memory())
            .map(|(r, _)| r)
            .collect()
    }

    /// Total number of cores across the system (64 for the 4x5 layout used
    /// in the paper's full-system evaluation).
    fn total_cores(&self) -> usize {
        self.kinds.iter().map(|k| k.cores() as usize).sum()
    }

    /// Total number of memory controllers (16 for the 4x5 layout).
    fn total_memory_controllers(&self) -> usize {
        self.kinds
            .iter()
            .map(|k| k.memory_controllers() as usize)
            .sum()
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} interposer layout ({} routers, radix {}, {} cores, {} MCs)",
            self.rows,
            self.cols,
            self.num_routers(),
            self.radix,
            self.total_cores(),
            self.total_memory_controllers()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noi_4x5_has_twenty_routers() {
        let l = Layout::noi_4x5();
        assert_eq!(l.num_routers(), 20);
        assert_eq!(l.rows(), 4);
        assert_eq!(l.cols(), 5);
        assert_eq!(l.radix(), 4);
    }

    #[test]
    fn noi_4x5_core_and_memory_counts_match_paper() {
        // 64 cores across 4 chiplets, 16 memory controllers (Table IV).
        let l = Layout::noi_4x5();
        assert_eq!(l.total_cores(), 4 * 3 * 4 + 4 * 2 * 2);
        assert_eq!(l.total_cores(), 64);
        assert_eq!(l.total_memory_controllers(), 16);
        assert_eq!(l.memory_routers().len(), 8);
    }

    #[test]
    fn positions_round_trip() {
        let l = Layout::noi_4x5();
        for r in 0..l.num_routers() {
            let (row, col) = l.position(r);
            assert_eq!(l.router_at(row, col), r);
        }
    }

    #[test]
    fn span_is_symmetric() {
        let l = Layout::noi_6x5();
        for a in 0..l.num_routers() {
            for b in 0..l.num_routers() {
                assert_eq!(l.span(a, b), l.span(b, a));
            }
        }
    }

    #[test]
    fn edge_columns_host_memory() {
        let l = Layout::noi_4x5();
        for (r, k) in l.kinds() {
            let (_, col) = l.position(r);
            if col == 0 || col == 4 {
                assert!(k.has_memory());
                assert_eq!(k.cores(), 2);
            } else {
                assert!(!k.has_memory());
                assert_eq!(k.cores(), 4);
            }
        }
    }

    #[test]
    fn scalability_layouts() {
        assert_eq!(Layout::noi_6x5().num_routers(), 30);
        assert_eq!(Layout::noi_8x6().num_routers(), 48);
    }

    #[test]
    fn distance_is_scaled_by_pitch() {
        let l = Layout::noi_4x5();
        let a = l.router_at(0, 0);
        let b = l.router_at(0, 3);
        assert!((l.distance_mm(a, b) - 3.0 * PITCH_MM).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn position_out_of_range_panics() {
        let l = Layout::noi_4x5();
        l.position(20);
    }
}
