//! Channel dependency graph (CDG) construction and cycle detection.
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
//! incrementally (its crate-internal `try_add_path`) instead of
//! rebuilding and re-searching it for every placement.

use crate::paths::path_links;
use netsmith_topo::RouterId;
use std::collections::HashMap;

/// A directed channel (link) of the topology.
pub type Channel = (RouterId, RouterId);

/// Channel dependency graph for a set of routed paths.
#[derive(Debug, Clone, Default)]
pub struct ChannelDependencyGraph {
    /// Ids of the channels added through [`Self::add_path`].
    ids: HashMap<Channel, u32>,
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
    /// Empty CDG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty CDG over the pre-interned channel ids `0..num_channels`, for
    /// [`Self::try_add_path`] and [`Self::remove_path`].
    pub(crate) fn with_channels(num_channels: usize) -> Self {
        ChannelDependencyGraph {
            succ: vec![Vec::new(); num_channels],
            seen: vec![0; num_channels],
            ..Self::default()
        }
    }

    /// Build the CDG induced by a set of paths.
    pub fn from_paths<'a>(paths: impl IntoIterator<Item = &'a [RouterId]>) -> Self {
        let mut cdg = Self::new();
        for p in paths {
            cdg.add_path(p);
        }
        cdg
    }

    /// Add the dependencies induced by one path.
    pub fn add_path(&mut self, path: &[RouterId]) {
        let chain: Vec<u32> = path_links(path).map(|l| self.intern(l)).collect();
        for w in chain.windows(2) {
            self.bump(w[0], w[1]);
        }
    }

    /// Number of channels present.
    pub fn num_channels(&self) -> usize {
        self.succ.len()
    }

    /// Is the CDG acyclic (the Dally & Seitz sufficient condition)?
    ///
    /// Kahn's algorithm: the graph is acyclic exactly when repeatedly
    /// removing channels without incoming dependencies removes them all.
    pub fn is_acyclic(&self) -> bool {
        let mut indegree = vec![0u32; self.succ.len()];
        for &(t, _) in self.succ.iter().flatten() {
            indegree[t as usize] += 1;
        }
        let mut ready: Vec<u32> = (0..self.succ.len() as u32)
            .filter(|&c| indegree[c as usize] == 0)
            .collect();
        let mut removed = 0usize;
        while let Some(c) = ready.pop() {
            removed += 1;
            for &(t, _) in &self.succ[c as usize] {
                indegree[t as usize] -= 1;
                if indegree[t as usize] == 0 {
                    ready.push(t);
                }
            }
        }
        removed == self.succ.len()
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

    /// The id of a channel, assigning the next free one on first sight.
    fn intern(&mut self, channel: Channel) -> u32 {
        let next = self.succ.len() as u32;
        let id = *self.ids.entry(channel).or_insert(next);
        if id == next {
            self.succ.push(Vec::new());
            self.seen.push(0);
        }
        id
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
    fn has_dependency(cdg: &ChannelDependencyGraph, from: Channel, to: Channel) -> bool {
        match (cdg.ids.get(&from), cdg.ids.get(&to)) {
            (Some(&u), Some(&v)) => cdg.succ[u as usize].iter().any(|&(t, _)| t == v),
            _ => false,
        }
    }

    #[test]
    fn single_path_is_acyclic() {
        let cdg = ChannelDependencyGraph::from_paths([vec![0usize, 1, 2, 3].as_slice()]);
        assert_eq!(cdg.num_channels(), 3);
        assert_eq!(num_dependencies(&cdg), 2);
        assert!(cdg.is_acyclic());
    }

    #[test]
    fn ring_routes_create_a_cycle() {
        // Three paths that each wrap part of a 3-node ring create the cyclic
        // dependency (0,1)->(1,2)->(2,0)->(0,1).
        let paths = [vec![0usize, 1, 2], vec![1usize, 2, 0], vec![2usize, 0, 1]];
        let cdg = ChannelDependencyGraph::from_paths(paths.iter().map(|p| p.as_slice()));
        assert!(!cdg.is_acyclic());
        assert!(has_dependency(&cdg, (0, 1), (1, 2)));
        assert!(has_dependency(&cdg, (1, 2), (2, 0)));
        assert!(has_dependency(&cdg, (2, 0), (0, 1)));
        assert_eq!(num_dependencies(&cdg), 3);
    }

    #[test]
    fn dependencies_require_consecutive_links() {
        let cdg = ChannelDependencyGraph::from_paths([
            vec![0usize, 1, 2].as_slice(),
            vec![3usize, 4].as_slice(),
        ]);
        assert!(has_dependency(&cdg, (0, 1), (1, 2)));
        assert!(!has_dependency(&cdg, (0, 1), (3, 4)));
    }

    #[test]
    fn xy_routing_on_a_ring_is_acyclic_when_no_wraparound() {
        // Paths that always travel "clockwise but never complete the loop".
        let paths = [vec![0usize, 1, 2], vec![1usize, 2, 3], vec![2usize, 3]];
        let cdg = ChannelDependencyGraph::from_paths(paths.iter().map(|p| p.as_slice()));
        assert!(cdg.is_acyclic());
    }

    #[test]
    fn empty_cdg_is_acyclic() {
        let cdg = ChannelDependencyGraph::new();
        assert!(cdg.is_acyclic());
        assert_eq!(cdg.num_channels(), 0);
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
        assert!(cdg.is_acyclic());
        // Once both paths inducing 0 -> 1 are gone the ring can close.
        cdg.remove_path(&[0, 1]);
        assert!(!cdg.try_add_path(&[2, 0]));
        cdg.remove_path(&[0, 1]);
        assert!(cdg.try_add_path(&[2, 0]));
        assert_eq!(num_dependencies(&cdg), 2);
        assert!(cdg.is_acyclic());
    }
}
