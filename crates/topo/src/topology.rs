//! Directed NoI topology over a router [`Layout`].
//!
//! A topology is the connectivity map `M` from the paper's MIP formulation:
//! a boolean matrix in which `M[i][j]` is set when a unidirectional link
//! connects router `i` to router `j`.  NetSmith permits *asymmetric* links
//! (the outgoing half of a full-duplex link may terminate at a different
//! router than the incoming half), so the adjacency is directed.  A
//! symmetric (bidirectional) link is simply the pair `M[i][j]` and
//! `M[j][i]`.

use crate::layout::{Layout, RouterId};
use crate::linkclass::{LinkClass, LinkSpan};
use std::fmt;

/// Errors produced when validating a topology against its layout and link
/// class constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A router exceeds the layout's radix on outgoing links.
    OutRadixExceeded {
        router: RouterId,
        degree: usize,
        radix: usize,
    },
    /// A router exceeds the layout's radix on incoming links.
    InRadixExceeded {
        router: RouterId,
        degree: usize,
        radix: usize,
    },
    /// A link is longer than the link class allows.
    LinkTooLong {
        from: RouterId,
        to: RouterId,
        span: LinkSpan,
    },
    /// A self-link was present.
    SelfLink { router: RouterId },
    /// The directed graph is not strongly connected.
    NotConnected { unreachable_pairs: usize },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::OutRadixExceeded {
                router,
                degree,
                radix,
            } => write!(
                f,
                "router {router} has out-degree {degree} exceeding radix {radix}"
            ),
            TopologyError::InRadixExceeded {
                router,
                degree,
                radix,
            } => write!(
                f,
                "router {router} has in-degree {degree} exceeding radix {radix}"
            ),
            TopologyError::LinkTooLong { from, to, span } => {
                write!(f, "link {from}->{to} spans {span} beyond the class limit")
            }
            TopologyError::SelfLink { router } => write!(f, "router {router} has a self link"),
            TopologyError::NotConnected { unreachable_pairs } => {
                write!(
                    f,
                    "topology is not strongly connected ({unreachable_pairs} unreachable pairs)"
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A directed interposer network topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Human-readable name ("Kite-Large", "NS-LatOp-medium", …).
    name: String,
    layout: Layout,
    /// Link-length class the topology was designed under.
    class: LinkClass,
    /// Row-major `n x n` adjacency: `adj[i * n + j]` is true when a link
    /// runs from router `i` to router `j`.
    adj: Vec<bool>,
}

impl Topology {
    /// Create an empty (link-free) topology.
    pub fn empty(name: impl Into<String>, layout: Layout, class: LinkClass) -> Self {
        let n = layout.num_routers();
        Topology {
            name: name.into(),
            layout,
            class,
            adj: vec![false; n * n],
        }
    }

    /// Build a topology from an explicit list of bidirectional links: each
    /// pair adds both directions.
    pub fn from_bidirectional_links(
        name: impl Into<String>,
        layout: Layout,
        class: LinkClass,
        links: &[(RouterId, RouterId)],
    ) -> Self {
        let mut t = Topology::empty(name, layout, class);
        for &(i, j) in links {
            t.add_bidirectional(i, j);
        }
        t
    }

    /// Topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the topology (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The router layout this topology is defined over.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Link-length class.
    pub fn class(&self) -> LinkClass {
        self.class
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.layout.num_routers()
    }

    #[inline]
    fn idx(&self, i: RouterId, j: RouterId) -> usize {
        i * self.num_routers() + j
    }

    /// Whether a directed link `i -> j` exists.
    #[inline]
    pub fn has_link(&self, i: RouterId, j: RouterId) -> bool {
        self.adj[self.idx(i, j)]
    }

    /// Add a directed link (idempotent).
    pub fn add_link(&mut self, i: RouterId, j: RouterId) {
        assert!(i != j, "self links are not allowed");
        let idx = self.idx(i, j);
        self.adj[idx] = true;
    }

    /// Remove a directed link (idempotent).
    pub fn remove_link(&mut self, i: RouterId, j: RouterId) {
        let idx = self.idx(i, j);
        self.adj[idx] = false;
    }

    /// Add both directions of a link.
    pub fn add_bidirectional(&mut self, i: RouterId, j: RouterId) {
        self.add_link(i, j);
        self.add_link(j, i);
    }

    /// Iterate over all directed links `(i, j)`.
    pub fn links(&self) -> impl Iterator<Item = (RouterId, RouterId)> + '_ {
        let n = self.num_routers();
        (0..n).flat_map(move |i| {
            (0..n)
                .filter(move |&j| self.has_link(i, j))
                .map(move |j| (i, j))
        })
    }

    /// Total number of directed links.
    pub fn num_directed_links(&self) -> usize {
        self.adj.iter().filter(|&&b| b).count()
    }

    /// Number of "physical" links: a bidirectional pair counts as one full
    /// duplex link, a lone unidirectional link also occupies one physical
    /// channel in each direction budget.  This matches how the paper counts
    /// links in Table II (the hardware resource usage of asymmetric
    /// topologies equals that of symmetric ones).
    pub fn num_links(&self) -> usize {
        let n = self.num_routers();
        let mut count = 0usize;
        let mut singles = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let a = self.has_link(i, j);
                let b = self.has_link(j, i);
                if a && b {
                    count += 1;
                } else if a || b {
                    singles += 1;
                }
            }
        }
        // Two opposite unidirectional links elsewhere use the same wiring
        // budget as one full-duplex link; count unpaired halves in pairs,
        // rounding up.
        count + singles.div_ceil(2)
    }

    /// Out-degree of a router.
    pub fn out_degree(&self, i: RouterId) -> usize {
        let n = self.num_routers();
        (0..n).filter(|&j| self.has_link(i, j)).count()
    }

    /// In-degree of a router.
    pub fn in_degree(&self, j: RouterId) -> usize {
        let n = self.num_routers();
        (0..n).filter(|&i| self.has_link(i, j)).count()
    }

    /// Outgoing neighbours of a router.
    pub fn neighbours_out(&self, i: RouterId) -> Vec<RouterId> {
        let n = self.num_routers();
        (0..n).filter(|&j| self.has_link(i, j)).collect()
    }

    /// Incoming neighbours of a router.
    pub fn neighbours_in(&self, j: RouterId) -> Vec<RouterId> {
        let n = self.num_routers();
        (0..n).filter(|&i| self.has_link(i, j)).collect()
    }

    /// True when every link is paired with its reverse.
    pub fn is_symmetric(&self) -> bool {
        let n = self.num_routers();
        for i in 0..n {
            for j in 0..n {
                if self.has_link(i, j) != self.has_link(j, i) {
                    return false;
                }
            }
        }
        true
    }

    /// Total wire length of all links in millimetres (each full-duplex /
    /// paired link counted once, unpaired directed links counted once).
    pub fn total_wire_length_mm(&self) -> f64 {
        let n = self.num_routers();
        let mut total = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let fwd = self.has_link(i, j);
                let rev = self.has_link(j, i);
                if fwd || rev {
                    // A duplex pair shares the same physical route and an
                    // unpaired link still needs its own wire, so either way
                    // the pair contributes exactly one wire run.
                    total += self.layout.distance_mm(i, j);
                }
            }
        }
        total
    }

    /// Histogram of link spans, keyed by canonical `(dx, dy)`, counting each
    /// undirected router pair that is connected in at least one direction.
    pub fn link_span_histogram(&self) -> std::collections::BTreeMap<(usize, usize), usize> {
        let n = self.num_routers();
        let mut hist = std::collections::BTreeMap::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if self.has_link(i, j) || self.has_link(j, i) {
                    let (dx, dy) = self.layout.span(i, j);
                    let key = if dx >= dy { (dx, dy) } else { (dy, dx) };
                    *hist.entry(key).or_insert(0) += 1;
                }
            }
        }
        hist
    }

    /// Validate the topology against radix, link-length and connectivity
    /// constraints.  Returns the first violation found.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let n = self.num_routers();
        let radix = self.layout.radix();
        for i in 0..n {
            if self.has_link(i, i) {
                return Err(TopologyError::SelfLink { router: i });
            }
            let out = self.out_degree(i);
            if out > radix {
                return Err(TopologyError::OutRadixExceeded {
                    router: i,
                    degree: out,
                    radix,
                });
            }
            let inn = self.in_degree(i);
            if inn > radix {
                return Err(TopologyError::InRadixExceeded {
                    router: i,
                    degree: inn,
                    radix,
                });
            }
        }
        for (i, j) in self.links() {
            let (dx, dy) = self.layout.span(i, j);
            let span = LinkSpan::new(dx, dy);
            if !self.class.allows(span) {
                return Err(TopologyError::LinkTooLong {
                    from: i,
                    to: j,
                    span,
                });
            }
        }
        let unreachable = crate::metrics::unreachable_pairs(self);
        if unreachable > 0 {
            return Err(TopologyError::NotConnected {
                unreachable_pairs: unreachable,
            });
        }
        Ok(())
    }

    /// True if the topology satisfies all structural constraints.
    pub fn is_valid(&self) -> bool {
        self.validate().is_ok()
    }

    /// Remaining outgoing radix budget at router `i`.
    pub fn free_out_ports(&self, i: RouterId) -> usize {
        self.layout.radix().saturating_sub(self.out_degree(i))
    }

    /// Remaining incoming radix budget at router `j`.
    pub fn free_in_ports(&self, j: RouterId) -> usize {
        self.layout.radix().saturating_sub(self.in_degree(j))
    }

    /// The connectivity matrix as a flat row-major boolean vector (length
    /// `n*n`), matching the MIP variable `M`.
    pub fn adjacency(&self) -> &[bool] {
        &self.adj
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} class, {} routers, {} links]",
            self.name,
            self.class.name(),
            self.num_routers(),
            self.num_links()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;

    fn tiny() -> Topology {
        // 2x2 ring.
        let layout = Layout::interposer_grid(2, 2, 4);
        Topology::from_bidirectional_links(
            "ring4",
            layout,
            LinkClass::Small,
            &[(0, 1), (1, 3), (3, 2), (2, 0)],
        )
    }

    #[test]
    fn add_and_remove_links() {
        let mut t = Topology::empty("t", Layout::noi_4x5(), LinkClass::Small);
        assert_eq!(t.num_directed_links(), 0);
        t.add_link(0, 1);
        assert!(t.has_link(0, 1));
        assert!(!t.has_link(1, 0));
        t.add_bidirectional(1, 2);
        assert_eq!(t.num_directed_links(), 3);
        t.remove_link(0, 1);
        assert!(!t.has_link(0, 1));
    }

    #[test]
    fn ring_is_valid_and_symmetric() {
        let t = tiny();
        assert!(t.is_valid());
        assert!(t.is_symmetric());
        assert_eq!(t.num_links(), 4);
        assert_eq!(t.num_directed_links(), 8);
    }

    #[test]
    fn radix_violation_detected() {
        let layout = Layout::interposer_grid(2, 3, 1);
        let mut t = Topology::empty("overload", layout, LinkClass::Large);
        t.add_link(0, 1);
        t.add_link(0, 2);
        assert!(matches!(
            t.validate(),
            Err(TopologyError::OutRadixExceeded { router: 0, .. })
        ));
    }

    #[test]
    fn link_length_violation_detected() {
        let layout = Layout::noi_4x5();
        let mut t = Topology::empty("long", layout, LinkClass::Small);
        // (0,0) to (0,2) spans (2,0): not allowed in Small.
        t.add_link(0, 2);
        assert!(matches!(
            t.validate(),
            Err(TopologyError::LinkTooLong { .. })
        ));
    }

    #[test]
    fn disconnection_detected() {
        let layout = Layout::interposer_grid(2, 2, 4);
        let t = Topology::from_bidirectional_links("disc", layout, LinkClass::Small, &[(0, 1)]);
        assert!(matches!(
            t.validate(),
            Err(TopologyError::NotConnected { .. })
        ));
    }

    #[test]
    fn unidirectional_links_break_symmetry() {
        let mut t = tiny();
        t.remove_link(1, 0);
        assert!(!t.is_symmetric());
    }

    #[test]
    fn degrees_and_neighbours_agree() {
        let t = tiny();
        for r in 0..t.num_routers() {
            assert_eq!(t.out_degree(r), t.neighbours_out(r).len());
            assert_eq!(t.in_degree(r), t.neighbours_in(r).len());
        }
    }

    #[test]
    fn span_histogram_counts_pairs_once() {
        let t = tiny();
        let hist = t.link_span_histogram();
        let total: usize = hist.values().sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn free_ports_track_degree() {
        let mut t = Topology::empty("t", Layout::noi_4x5(), LinkClass::Large);
        assert_eq!(t.free_out_ports(0), 4);
        t.add_link(0, 1);
        t.add_link(0, 5);
        assert_eq!(t.free_out_ports(0), 2);
        assert_eq!(t.free_in_ports(1), 3);
    }
}
