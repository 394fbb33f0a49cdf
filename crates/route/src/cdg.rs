//! Channel dependency graph (CDG) with incremental cycle checks.
//!
//! Dally & Seitz: wormhole routing is deadlock-free if the channel
//! dependency graph of the routing function is acyclic.  The CDG has one
//! node per directed channel (link); a routing function that can hold
//! channel `(a, b)` while requesting channel `(b, c)` induces the
//! dependency `(a, b) -> (b, c)`.  For table-based single-path routing the
//! dependencies are exactly the consecutive link pairs of the selected
//! paths.
//!
//! The graph is dense: channels are `u32` ids and every channel keeps a
//! short list of `(successor, multiplicity)` pairs, the multiplicity being
//! the number of added paths that induce the dependency.  That lets VC
//! allocation add and remove single paths and keep a graph acyclic
//! incrementally ([`ChannelDependencyGraph::try_add_path`]) instead of
//! rebuilding and re-searching it for every placement.  Checking a whole
//! allocation at once is [`crate::vc::verify_deadlock_free`]'s job.

/// Channel dependency graph over channel ids `0..num_channels`.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChannelDependencyGraph {
    /// `succ[c]`: the dependencies out of channel `c`, each with the number
    /// of paths inducing it (always at least 1).
    succ: Vec<Vec<(u32, u32)>>,
    /// Reachability-search scratch: `seen[c] == stamp` marks `c` visited by
    /// the current search, so no search clears or allocates.
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
    /// Dependencies that the path being added created.
    fresh: Vec<(u32, u32)>,
}

impl ChannelDependencyGraph {
    /// Empty CDG over the channel ids `0..num_channels`.
    pub(crate) fn with_channels(num_channels: usize) -> Self {
        ChannelDependencyGraph {
            succ: vec![Vec::new(); num_channels],
            seen: vec![0; num_channels],
            ..Self::default()
        }
    }

    /// Add the dependencies of a path given as a chain of channel ids and
    /// report whether the graph stays acyclic; when it would not, the path
    /// is rolled back and the graph is left unchanged.
    ///
    /// The graph must be acyclic on entry.  Any cycle of the enlarged graph
    /// then uses a dependency `u -> v` that this path created, and closes
    /// exactly when `v` already reaches `u`, so only new dependencies are
    /// searched from.
    pub(crate) fn try_add_path(&mut self, chain: &[u32]) -> bool {
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        for w in chain.windows(2) {
            if self.bump(w[0], w[1]) {
                fresh.push((w[0], w[1]));
            }
        }
        let acyclic = fresh.iter().all(|&(u, v)| !self.reaches(v, u));
        self.fresh = fresh;
        if !acyclic {
            self.remove_path(chain);
        }
        acyclic
    }

    /// Remove the dependencies of a previously added chain of channel ids.
    /// Removing dependencies never creates a cycle.
    pub(crate) fn remove_path(&mut self, chain: &[u32]) {
        for w in chain.windows(2) {
            let succ = &mut self.succ[w[0] as usize];
            let at = succ
                .iter()
                .position(|&(t, _)| t == w[1])
                .expect("removed path was added");
            succ[at].1 -= 1;
            if succ[at].1 == 0 {
                succ.swap_remove(at);
            }
        }
    }

    /// Count one more path inducing `u -> v`; true when the dependency is new.
    fn bump(&mut self, u: u32, v: u32) -> bool {
        let succ = &mut self.succ[u as usize];
        match succ.iter_mut().find(|(t, _)| *t == v) {
            Some((_, count)) => {
                *count += 1;
                false
            }
            None => {
                succ.push((v, 1));
                true
            }
        }
    }

    /// Is `to` reachable from `from` along dependencies?  Iterative DFS
    /// over the stamped scratch buffers.
    fn reaches(&mut self, from: u32, to: u32) -> bool {
        if from == to {
            return true;
        }
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let Self {
            succ,
            seen,
            stamp,
            stack,
            ..
        } = self;
        stack.clear();
        stack.push(from);
        seen[from as usize] = *stamp;
        while let Some(c) = stack.pop() {
            for &(t, _) in &succ[c as usize] {
                if t == to {
                    return true;
                }
                if seen[t as usize] != *stamp {
                    seen[t as usize] = *stamp;
                    stack.push(t);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of dependency edges.
    fn num_dependencies(cdg: &ChannelDependencyGraph) -> usize {
        cdg.succ.iter().map(Vec::len).sum()
    }

    /// Does the dependency `from -> to` exist?
    fn has_dependency(cdg: &ChannelDependencyGraph, from: u32, to: u32) -> bool {
        cdg.succ[from as usize].iter().any(|&(t, _)| t == to)
    }

    #[test]
    fn single_path_is_acyclic() {
        let mut cdg = ChannelDependencyGraph::with_channels(3);
        assert!(cdg.try_add_path(&[0, 1, 2]));
        assert_eq!(num_dependencies(&cdg), 2);
    }

    #[test]
    fn ring_routes_create_a_cycle() {
        // Three paths that each wrap part of a 3-node ring, with channels
        // 0 = (0,1), 1 = (1,2) and 2 = (2,0): the third closes the cyclic
        // dependency 0 -> 1 -> 2 -> 0 and is rolled back.
        let mut cdg = ChannelDependencyGraph::with_channels(3);
        assert!(cdg.try_add_path(&[0, 1]));
        assert!(cdg.try_add_path(&[1, 2]));
        assert!(!cdg.try_add_path(&[2, 0]));
        assert!(has_dependency(&cdg, 0, 1));
        assert!(has_dependency(&cdg, 1, 2));
        assert!(!has_dependency(&cdg, 2, 0));
        assert_eq!(num_dependencies(&cdg), 2);
    }

    #[test]
    fn dependencies_require_consecutive_links() {
        let mut cdg = ChannelDependencyGraph::with_channels(3);
        assert!(cdg.try_add_path(&[0, 1]));
        assert!(cdg.try_add_path(&[2]));
        assert!(has_dependency(&cdg, 0, 1));
        assert!(!has_dependency(&cdg, 0, 2));
        assert!(!has_dependency(&cdg, 1, 2));
    }

    #[test]
    fn xy_routing_on_a_ring_is_acyclic_when_no_wraparound() {
        // Paths that always travel "clockwise but never complete the loop",
        // over channels 0 = (0,1), 1 = (1,2) and 2 = (2,3).
        let mut cdg = ChannelDependencyGraph::with_channels(3);
        for chain in [&[0, 1][..], &[1, 2], &[2]] {
            assert!(cdg.try_add_path(chain));
        }
        assert_eq!(num_dependencies(&cdg), 2);
    }

    #[test]
    fn empty_cdg_is_acyclic() {
        let mut cdg = ChannelDependencyGraph::with_channels(0);
        assert_eq!(num_dependencies(&cdg), 0);
        assert!(cdg.try_add_path(&[]));
    }

    #[test]
    fn try_add_path_rejects_the_closing_path_and_rolls_it_back() {
        // Channels 0 -> 1 -> 2 -> 0 around a ring, as chains of ids.
        let mut cdg = ChannelDependencyGraph::with_channels(3);
        assert!(cdg.try_add_path(&[0, 1]));
        assert!(cdg.try_add_path(&[1, 2]));
        assert!(cdg.try_add_path(&[0, 1])); // a second path on a known dependency
        assert!(!cdg.try_add_path(&[2, 0]));
        assert_eq!(num_dependencies(&cdg), 2);
        // Once both paths inducing 0 -> 1 are gone the ring can close.
        cdg.remove_path(&[0, 1]);
        assert!(!cdg.try_add_path(&[2, 0]));
        cdg.remove_path(&[0, 1]);
        assert!(cdg.try_add_path(&[2, 0]));
        assert_eq!(num_dependencies(&cdg), 2);
        assert!(!has_dependency(&cdg, 0, 1));
    }
}
