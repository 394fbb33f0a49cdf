//! The one BFS kernel of the crate.
//!
//! Every hop distance — [`crate::metrics::all_pairs_hops`],
//! [`crate::analysis::TopoAnalysis::new`] and the incremental rows of
//! [`crate::analysis::TopoAnalysis::after_move`] — comes from [`Bfs`]
//! running over a [`BitAdjacency`]: the topology's out-adjacency packed
//! into `ceil(n/64)` 64-bit words per router, built once per call.  The
//! Kite greedy fill (`expert.rs`) runs no search per candidate link: it
//! derives each candidate duplex pair's total hops from one
//! `all_pairs_hops` matrix per round, by the identity
//! `D'[s][d] = min(D[s][d], D[s][a] + 1 + D[b][d], D[s][b] + 1 + D[a][d])`
//! for an added pair `a <-> b`.  So
//! does every reachability answer of [`crate::resilience`]: a router
//! reaches the routers its level row marks as reachable.
//! [`crate::resilience::unreachable_pairs_among`] packs only the alive
//! routers' links and searches from every alive router;
//! [`crate::resilience::is_strongly_connected_among`] (and with it
//! [`crate::metrics::is_strongly_connected`]) searches from one alive
//! router over those links and once more over them reversed; and
//! [`crate::resilience::critical_link_pairs`] clears one duplex pair at a
//! time and checks that its ends still reach each other.
//!
//! The search is level-synchronous.  The next frontier is the OR of the
//! frontier routers' rows with the visited set masked out, and each newly
//! reached router gets its level written once.  Every router enters the
//! frontier at most once, so one source row costs `n * ceil(n/64)` word
//! ORs plus `n` writes: 48 ORs at 48 routers, 390 at 130.

use crate::layout::RouterId;
use crate::metrics::UNREACHABLE;
use crate::topology::Topology;

/// Out-adjacency as bitset rows: bit `v % 64` of word `v / 64` of router
/// `u`'s row is set when the link `u -> v` exists.  The words are stored
/// word-major (word `k` of every router's row, then word `k + 1`), so one
/// level's OR for word `k` gathers from one contiguous slice.  Bits past
/// `n` stay clear.
pub(crate) struct BitAdjacency {
    n: usize,
    words: usize,
    /// `bits[k * n + u]` is word `k` of router `u`'s row.
    bits: Vec<u64>,
}

impl BitAdjacency {
    /// Pack `topo`'s directed links.
    pub(crate) fn out_links(topo: &Topology) -> Self {
        Self::among(topo, &vec![true; topo.num_routers()])
    }

    /// Pack `topo`'s directed links between routers with `alive[r]` set:
    /// a dead router's row and column stay clear, so no search enters or
    /// leaves it.
    pub(crate) fn among(topo: &Topology, alive: &[bool]) -> Self {
        let n = topo.num_routers();
        assert_eq!(alive.len(), n, "alive mask size mismatch");
        let words = n.div_ceil(64);
        let live: Vec<u64> = alive.chunks(64).map(pack).collect();
        let adj = topo.adjacency();
        let mut bits = vec![0u64; words * n];
        for u in (0..n).filter(|&u| alive[u]) {
            for (k, links) in adj[u * n..(u + 1) * n].chunks(64).enumerate() {
                bits[k * n + u] = pack(links) & live[k];
            }
        }
        BitAdjacency { n, words, bits }
    }

    /// [`Self::among`] with every link reversed: bit `v % 64` of word
    /// `v / 64` of router `u`'s row is set when the link `v -> u` exists
    /// between alive routers.
    pub(crate) fn reversed_among(topo: &Topology, alive: &[bool]) -> Self {
        let n = topo.num_routers();
        assert_eq!(alive.len(), n, "alive mask size mismatch");
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; words * n];
        for (v, u) in topo.links().filter(|&(v, u)| alive[v] && alive[u]) {
            bits[v / 64 * n + u] |= 1 << (v % 64);
        }
        BitAdjacency { n, words, bits }
    }

    /// Run `f` on the adjacency with both directions of the duplex pair
    /// `(i, j)` cleared, then restore them.
    pub(crate) fn without_pair<R>(
        &mut self,
        i: RouterId,
        j: RouterId,
        f: impl FnOnce(&Self) -> R,
    ) -> R {
        let (ij, ji) = (self.slot(i, j), self.slot(j, i));
        let saved = (self.bits[ij], self.bits[ji]);
        self.bits[ij] &= !(1 << (j % 64));
        self.bits[ji] &= !(1 << (i % 64));
        let out = f(self);
        (self.bits[ij], self.bits[ji]) = saved;
        out
    }

    /// Index of the word holding the bit of the link `u -> v`.
    fn slot(&self, u: RouterId, v: RouterId) -> usize {
        v / 64 * self.n + u
    }
}

/// Up to 64 flags as one word, flag `i` at bit `i`.  Whole bytes of eight
/// flags go through one multiply: with flag `i` at bit `8i` of `x`, the
/// product `x * 0x0102_0408_1020_4080` carries flag `i` to bit `56 + i`
/// and every other partial product to a distinct lower bit, so the top
/// byte is the eight flags in order.
fn pack(flags: &[bool]) -> u64 {
    let mut bytes = flags.chunks_exact(8);
    let mut word = 0;
    for (k, byte) in bytes.by_ref().enumerate() {
        let x = u64::from_le_bytes(std::array::from_fn(|i| u8::from(byte[i])));
        word |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    let done = flags.len() - bytes.remainder().len();
    for (i, &flag) in bytes.remainder().iter().enumerate() {
        word |= u64::from(flag) << (done + i);
    }
    word
}

/// Reusable scratch of the kernel: three router sets of one row's words
/// and the seed list of the decrease-only repair.  Create one per call
/// and run every source row through it.
pub(crate) struct Bfs {
    frontier: Vec<u64>,
    next: Vec<u64>,
    visited: Vec<u64>,
    seeds: Vec<(u32, RouterId)>,
}

impl Bfs {
    pub(crate) fn new(adj: &BitAdjacency) -> Self {
        Bfs {
            frontier: vec![0; adj.words],
            next: vec![0; adj.words],
            visited: vec![0; adj.words],
            seeds: Vec::new(),
        }
    }

    /// Fill `row` with the hop distances from `s` ([`UNREACHABLE`] when
    /// there is no path).
    pub(crate) fn levels(&mut self, adj: &BitAdjacency, s: RouterId, row: &mut [u32]) {
        row.fill(UNREACHABLE);
        row[s] = 0;
        self.visited.fill(0);
        self.frontier.fill(0);
        set_bit(&mut self.visited, s);
        set_bit(&mut self.frontier, s);
        let mut level = 0;
        loop {
            self.expand(adj);
            let mut reached = false;
            for (next, visited) in self.next.iter_mut().zip(&mut self.visited) {
                *next &= !*visited;
                *visited |= *next;
                reached |= *next != 0;
            }
            if !reached {
                return;
            }
            level += 1;
            for_each_bit(&self.next, |v| row[v] = level);
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
    }

    /// Decrease-only repair of `row` after the links in `added` joined the
    /// topology `adj` was built from: `row` must hold exact distances for
    /// the topology without them.  Each added link that shortens a path
    /// seeds its head at the shortened level; levels then expand in
    /// increasing order, and a router joins the next frontier only when
    /// the expansion lowers its distance.  Returns whether any distance
    /// changed.
    pub(crate) fn relax(
        &mut self,
        adj: &BitAdjacency,
        row: &mut [u32],
        added: &[(RouterId, RouterId)],
    ) -> bool {
        self.seeds.clear();
        for &(a, b) in added {
            let da = row[a];
            if da != UNREACHABLE && da + 1 < row[b] {
                row[b] = da + 1;
                self.seeds.push((da + 1, b));
            }
        }
        if self.seeds.is_empty() {
            return false;
        }
        self.seeds.sort_unstable();
        self.frontier.fill(0);
        let mut level = self.seeds[0].0;
        let mut pending = 0;
        loop {
            // Seeds of this level join unless an earlier level already
            // shortened them further (and expanded them there).
            while let Some(&(seed_level, b)) = self.seeds.get(pending) {
                if seed_level != level {
                    break;
                }
                if row[b] == level {
                    set_bit(&mut self.frontier, b);
                }
                pending += 1;
            }
            self.expand(adj);
            self.frontier.fill(0);
            let mut reached = false;
            let frontier = &mut self.frontier;
            for_each_bit(&self.next, |v| {
                if row[v] > level + 1 {
                    row[v] = level + 1;
                    set_bit(frontier, v);
                    reached = true;
                }
            });
            level += 1;
            if !reached {
                match self.seeds.get(pending) {
                    Some(&(seed_level, _)) => level = seed_level,
                    None => return true,
                }
            }
        }
    }

    /// `next` = OR of the adjacency rows of the routers in `frontier`.
    fn expand(&mut self, adj: &BitAdjacency) {
        let n = adj.n;
        for (k, next) in self.next.iter_mut().enumerate() {
            let column = &adj.bits[k * n..(k + 1) * n];
            let mut word = 0;
            for_each_bit(&self.frontier, |u| word |= column[u]);
            *next = word;
        }
    }
}

fn set_bit(set: &mut [u64], v: RouterId) {
    set[v / 64] |= 1 << (v % 64);
}

/// Call `f` with every member of `set`, in increasing order.
fn for_each_bit(set: &[u64], mut f: impl FnMut(RouterId)) {
    for (i, &word) in set.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(i * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}
