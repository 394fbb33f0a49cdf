//! Link-length taxonomy and valid-link enumeration.
//!
//! NetSmith constrains candidate links to a maximum physical span, both
//! because long interposer wires are slow (they bound the achievable NoI
//! clock) and because bounding the span keeps the MIP search space
//! tractable.  The taxonomy follows Kite: a link is named by the number of
//! grid hops it spans in X and Y.  Networks limited to (1,1) links are
//! "small", (2,0) "medium", and (2,1) "large"; the corresponding maximum
//! NoI clock frequencies used by the paper's evaluation are 3.6, 3.0 and
//! 2.7 GHz respectively.

use crate::layout::{Layout, RouterId};
use std::fmt;

/// Grid span of a link in X (columns) and Y (rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSpan {
    pub dx: usize,
    pub dy: usize,
}

impl LinkSpan {
    pub fn new(dx: usize, dy: usize) -> Self {
        LinkSpan { dx, dy }
    }

    /// Canonical form with `dx >= dy`, used when comparing spans against a
    /// symmetric budget.
    pub fn canonical(self) -> Self {
        if self.dx >= self.dy {
            self
        } else {
            LinkSpan {
                dx: self.dy,
                dy: self.dx,
            }
        }
    }

    /// Euclidean length of the span in grid hops.
    fn euclidean(self) -> f64 {
        ((self.dx * self.dx + self.dy * self.dy) as f64).sqrt()
    }
}

impl fmt::Display for LinkSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.dx, self.dy)
    }
}

/// Maximum allowed link length, following the Kite/NetSmith taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Links up to (1,1): nearest neighbours and single diagonals.
    Small,
    /// Links up to (2,0): additionally allows two-hop straight links.
    Medium,
    /// Links up to (2,1): additionally allows knight's-move links.
    Large,
    /// Custom budget: any link whose canonical span `(dx, dy)` satisfies
    /// `dx <= max.dx && dy <= max.dy` (after canonicalisation) is allowed.
    Custom(LinkSpan),
}

impl LinkClass {
    /// All three standard classes in increasing length order.
    pub const STANDARD: [LinkClass; 3] = [LinkClass::Small, LinkClass::Medium, LinkClass::Large];

    /// The maximum canonical span allowed by the class.
    pub fn max_span(&self) -> LinkSpan {
        match *self {
            LinkClass::Small => LinkSpan::new(1, 1),
            LinkClass::Medium => LinkSpan::new(2, 0),
            LinkClass::Large => LinkSpan::new(2, 1),
            LinkClass::Custom(s) => s.canonical(),
        }
    }

    /// Whether a link spanning `(dx, dy)` grid hops is allowed.
    ///
    /// The classes are cumulative, exactly as in Kite: "medium" networks may
    /// also use every "small" link, and "large" networks may use every
    /// "small" and "medium" link.
    pub fn allows(&self, span: LinkSpan) -> bool {
        if span.dx == 0 && span.dy == 0 {
            return false; // self links are never allowed
        }
        let c = span.canonical();
        match *self {
            LinkClass::Small => c.dx <= 1 && c.dy <= 1,
            LinkClass::Medium => LinkClass::Small.allows(span) || (c.dx <= 2 && c.dy == 0),
            LinkClass::Large => LinkClass::Medium.allows(span) || (c.dx <= 2 && c.dy <= 1),
            LinkClass::Custom(max) => {
                let m = max.canonical();
                c.dx <= m.dx && c.dy <= m.dy
            }
        }
    }

    /// NoI clock frequency (GHz) the class can sustain, from the paper's
    /// evaluation methodology: small 3.6 GHz, medium 3.0 GHz, large 2.7 GHz.
    pub fn clock_ghz(&self) -> f64 {
        match *self {
            LinkClass::Small => 3.6,
            LinkClass::Medium => 3.0,
            LinkClass::Large => 2.7,
            // Conservative: scale with the euclidean length of the longest
            // allowed link relative to the large class.
            LinkClass::Custom(s) => {
                let large = LinkSpan::new(2, 1).euclidean();
                (2.7 * large / s.canonical().euclidean().max(1.0)).min(3.6)
            }
        }
    }

    /// Human-readable class name as used in the paper ("small"/"medium"/…).
    pub fn name(&self) -> String {
        match *self {
            LinkClass::Small => "small".to_string(),
            LinkClass::Medium => "medium".to_string(),
            LinkClass::Large => "large".to_string(),
            LinkClass::Custom(s) => format!("custom{s}"),
        }
    }

    /// Enumerate every ordered pair `(i, j)` of distinct routers in the
    /// layout that this class allows to be directly connected.  This is the
    /// set `L` that constrains the MIP connectivity map (constraint C3 in
    /// the paper's Table I).
    pub fn valid_links(&self, layout: &Layout) -> Vec<(RouterId, RouterId)> {
        let n = layout.num_routers();
        let mut links = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (dx, dy) = layout.span(i, j);
                if self.allows(LinkSpan::new(dx, dy)) {
                    links.push((i, j));
                }
            }
        }
        links
    }
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_allows_only_neighbours_and_diagonals() {
        let c = LinkClass::Small;
        assert!(c.allows(LinkSpan::new(1, 0)));
        assert!(c.allows(LinkSpan::new(0, 1)));
        assert!(c.allows(LinkSpan::new(1, 1)));
        assert!(!c.allows(LinkSpan::new(2, 0)));
        assert!(!c.allows(LinkSpan::new(2, 1)));
        assert!(!c.allows(LinkSpan::new(0, 0)));
    }

    #[test]
    fn medium_is_cumulative_over_small() {
        let c = LinkClass::Medium;
        assert!(c.allows(LinkSpan::new(1, 1)));
        assert!(c.allows(LinkSpan::new(2, 0)));
        assert!(c.allows(LinkSpan::new(0, 2)));
        assert!(!c.allows(LinkSpan::new(2, 1)));
        assert!(!c.allows(LinkSpan::new(2, 2)));
    }

    #[test]
    fn large_is_cumulative_over_medium() {
        let c = LinkClass::Large;
        assert!(c.allows(LinkSpan::new(1, 1)));
        assert!(c.allows(LinkSpan::new(2, 0)));
        assert!(c.allows(LinkSpan::new(2, 1)));
        assert!(c.allows(LinkSpan::new(1, 2)));
        assert!(!c.allows(LinkSpan::new(2, 2)));
        assert!(!c.allows(LinkSpan::new(3, 0)));
    }

    #[test]
    fn clock_frequencies_match_paper() {
        assert_eq!(LinkClass::Small.clock_ghz(), 3.6);
        assert_eq!(LinkClass::Medium.clock_ghz(), 3.0);
        assert_eq!(LinkClass::Large.clock_ghz(), 2.7);
    }

    #[test]
    fn valid_links_are_within_class_and_distinct() {
        let layout = Layout::noi_4x5();
        for class in LinkClass::STANDARD {
            let links = class.valid_links(&layout);
            assert!(!links.is_empty());
            for (i, j) in &links {
                assert_ne!(i, j);
                let (dx, dy) = layout.span(*i, *j);
                assert!(class.allows(LinkSpan::new(dx, dy)));
            }
        }
    }

    #[test]
    fn valid_link_counts_grow_with_class() {
        let layout = Layout::noi_4x5();
        let small = LinkClass::Small.valid_links(&layout).len();
        let medium = LinkClass::Medium.valid_links(&layout).len();
        let large = LinkClass::Large.valid_links(&layout).len();
        assert!(small < medium);
        assert!(medium < large);
    }

    #[test]
    fn corner_router_candidate_degree_small() {
        // Corner of the 4x5 grid has 3 neighbours within (1,1).
        let layout = Layout::noi_4x5();
        let links = LinkClass::Small.valid_links(&layout);
        assert_eq!(links.iter().filter(|&&(i, _)| i == 0).count(), 3);
    }

    #[test]
    fn custom_class_respects_budget() {
        let c = LinkClass::Custom(LinkSpan::new(3, 1));
        assert!(c.allows(LinkSpan::new(3, 0)));
        assert!(c.allows(LinkSpan::new(1, 3))); // canonicalised
        assert!(!c.allows(LinkSpan::new(2, 2)));
    }

    #[test]
    fn span_canonicalisation() {
        assert_eq!(LinkSpan::new(1, 2).canonical(), LinkSpan::new(2, 1));
        assert_eq!(LinkSpan::new(2, 1).canonical(), LinkSpan::new(2, 1));
    }
}
