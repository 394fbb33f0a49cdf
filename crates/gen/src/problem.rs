//! Definition of a topology-generation problem instance.

use crate::objective::Objective;
use netsmith_topo::{Layout, LinkClass, RouterId};

/// A fully specified topology-generation problem: NetSmith's inputs are the
/// physical layout of routers, the link-length budget (which induces the
/// valid-link set `L` and the NoI clock), the router radix (carried by the
/// layout), the objective, and whether links come in symmetric pairs.
///
/// Table I's optional diameter bound (C8) and sparsest-cut floor (C7) are
/// not inputs: no experiment sets them, and the annealer needs no bound
/// to find first solutions.
#[derive(Debug, Clone)]
pub struct GenerationProblem {
    pub layout: Layout,
    pub class: LinkClass,
    pub objective: Objective,
    /// When true, constraint C9 is active: every link is paired with its
    /// reverse.  The paper's headline results use asymmetric links (a ~3%
    /// throughput gain); symmetric mode is kept for the ablation.
    pub symmetric_links: bool,
}

impl GenerationProblem {
    /// New problem with the paper's default of asymmetric links.
    pub fn new(layout: Layout, class: LinkClass, objective: Objective) -> Self {
        GenerationProblem {
            layout,
            class,
            objective,
            symmetric_links: false,
        }
    }

    /// Builder: force symmetric links (constraint C9).
    pub fn with_symmetric_links(mut self, symmetric: bool) -> Self {
        self.symmetric_links = symmetric;
        self
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.layout.num_routers()
    }

    /// The valid-link set `L` induced by the class and layout (constraint C3).
    pub fn valid_links(&self) -> Vec<(RouterId, RouterId)> {
        self.class.valid_links(&self.layout)
    }

    /// Canonical name for topologies produced from this problem, following
    /// the paper's naming ("NS-LatOp", "NS-SCOp", "NS ShufOpt" …).
    pub fn topology_name(&self) -> String {
        format!("NS-{}-{}", self.objective.short_name(), self.class.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_topo::Layout;

    #[test]
    fn defaults_follow_the_paper() {
        let p = GenerationProblem::new(Layout::noi_4x5(), LinkClass::Medium, Objective::LatOp);
        assert!(!p.symmetric_links);
        assert_eq!(p.num_routers(), 20);
        assert_eq!(p.topology_name(), "NS-LatOp-medium");
    }

    #[test]
    fn builders_set_constraints() {
        let p = GenerationProblem::new(Layout::noi_4x5(), LinkClass::Small, Objective::SCOp)
            .with_symmetric_links(true);
        assert!(p.symmetric_links);
        assert_eq!(p.topology_name(), "NS-SCOp-small");
    }

    #[test]
    fn valid_links_match_class() {
        let small = GenerationProblem::new(Layout::noi_4x5(), LinkClass::Small, Objective::LatOp);
        let large = GenerationProblem::new(Layout::noi_4x5(), LinkClass::Large, Objective::LatOp);
        assert!(small.valid_links().len() < large.valid_links().len());
    }
}
