//! Deadlock-free virtual-channel allocation for irregular topologies.
//!
//! Machine-generated topologies cannot rely on simple turn rules, so the
//! paper applies the DFSSSP approach (Domke et al.): partition the set of
//! selected shortest paths into subsets whose channel dependency graphs are
//! each acyclic, and map every subset onto its own (escape) virtual
//! channel.  A packet uses the VC its flow was assigned to for its entire
//! journey, so each VC's routing subfunction is acyclic and the network is
//! deadlock-free by the Dally & Seitz condition.
//!
//! The partition is built greedily.  Flows are taken longest path first
//! (with a seeded shuffle breaking ties), and each flow goes into the
//! lowest layer whose CDG stays acyclic with the flow's path added; a flow
//! that fits no layer opens a new one.  The layer count is the number of
//! escape VCs the routing needs.  A balancing pass then spreads flows over
//! the whole VC budget, using path-length-weighted occupancy as the balance
//! metric as in the paper's Section IV-A: it repeatedly moves one flow from
//! the most to the least occupied VC, never below the flow's escape layer
//! and only when the destination VC stays acyclic.  The flow moved is the
//! first that qualifies in ascending flow order, so each VC keeps its
//! members in an ascending list, and a move walks only the hot VC's list.
//!
//! Every per-VC CDG stays acyclic throughout, so each placement or move is
//! checked incrementally: the path is added to the destination's dense CDG,
//! and only the dependencies it created are searched for a closing cycle
//! (the CDG's `try_add_path`).
//!
//! The result is a dense table laid out like the routing table's: entry
//! `src * n + dst` holds flow `src -> dst`'s VC, and an unrouted pair holds
//! none, so readers index it instead of hashing a `Flow`.
//! [`verify_deadlock_free`] checks an allocation from scratch in time
//! linear in the paths' total length plus the number of `(VC, channel)`
//! pairs: it lays every VC's dependencies out once, as one graph over those
//! pairs, and runs Kahn's algorithm over it.
//!
//! The balancing pass also remembers rejections: once VC `c` rejects a
//! flow, the flow is not tried on `c` again until `c` loses a path.  That
//! is exact.  A rejection means `c`'s CDG plus the flow's path has a cycle.
//! Adding dependencies never removes a cycle, and a VC's CDG only shrinks
//! when it is the hot VC a flow moves out of, so until then every retry
//! would be rejected too.

use crate::cdg::ChannelDependencyGraph;
use crate::paths::path_links;
use crate::table::RoutingTable;
use netsmith_topo::PipelineError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result of VC allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct VcAllocation {
    /// Virtual channel of every ordered router pair of an `n`-router
    /// table: entry `src * n + dst` is flow `src -> dst`'s VC, `None` for
    /// a pair the table does not route.
    pub assignment: Vec<Option<usize>>,
    /// Number of virtual channels actually used after load balancing
    /// (max index + 1).
    pub num_vcs: usize,
    /// Number of escape layers the DFSSSP-style partition required for
    /// deadlock freedom *before* load balancing — the "VCs required" figure
    /// the paper reports (4 for all its 20-router configurations).
    pub escape_layers: usize,
    /// Path-length-weighted occupancy per VC.
    pub occupancy: Vec<f64>,
}

/// Every routed flow of a table, in `table.flows()` order (ascending
/// `Flow`), with its path as a chain of dense channel ids.
struct ChannelChains {
    /// Each flow's pair index `src * n + dst`.
    pairs: Vec<usize>,
    /// The chains of every flow, back to back.
    chans: Vec<u32>,
    /// `start[f]..start[f + 1]`: flow `f`'s chain in `chans`.
    start: Vec<usize>,
    num_channels: usize,
}

impl ChannelChains {
    fn of(table: &RoutingTable) -> Self {
        let n = table.num_routers();
        let mut id = vec![u32::MAX; n * n];
        let mut chains = ChannelChains {
            pairs: Vec::new(),
            chans: Vec::new(),
            start: vec![0],
            num_channels: 0,
        };
        for (flow, path) in table.flows() {
            for (a, b) in path_links(path) {
                let slot = &mut id[a * n + b];
                if *slot == u32::MAX {
                    *slot = chains.num_channels as u32;
                    chains.num_channels += 1;
                }
                chains.chans.push(*slot);
            }
            chains.pairs.push(flow.src * n + flow.dst);
            chains.start.push(chains.chans.len());
        }
        chains
    }

    /// Flow `f`'s path as channel ids.
    fn chain(&self, f: usize) -> &[u32] {
        &self.chans[self.start[f]..self.start[f + 1]]
    }
}

/// Partition the flows of a routing table into acyclic layers and balance
/// them over `total_vcs` virtual channels.  Fails with
/// [`PipelineError::VcBudgetExceeded`] — carrying the exact number of escape
/// layers the partition required — when they exceed `total_vcs` (always
/// for a budget of 0).
pub fn allocate_vcs(
    table: &RoutingTable,
    total_vcs: usize,
    seed: u64,
) -> Result<VcAllocation, PipelineError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let chains = ChannelChains::of(table);
    let num_flows = chains.pairs.len();
    let weight = |f: usize| chains.chain(f).len() as f64;

    // Layered escape partition (DFSSSP/LASH style), built greedily: flows
    // are considered one at a time (longest paths first — they constrain
    // the CDG the most — with seeded random tie-breaking) and each flow is
    // placed in the lowest layer whose channel dependency graph stays
    // acyclic after adding the flow's path.
    let mut order: Vec<usize> = (0..num_flows).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order.sort_by_key(|&f| std::cmp::Reverse(chains.chain(f).len()));
    let mut layer_of = vec![0usize; num_flows];
    let mut vc_cdgs = vec![ChannelDependencyGraph::with_channels(chains.num_channels)];
    for &f in &order {
        let chain = chains.chain(f);
        layer_of[f] = match vc_cdgs.iter_mut().position(|cdg| cdg.try_add_path(chain)) {
            Some(layer) => layer,
            None => {
                // A path never revisits a router, so it fits an empty layer.
                let mut cdg = ChannelDependencyGraph::with_channels(chains.num_channels);
                cdg.try_add_path(chain);
                vc_cdgs.push(cdg);
                vc_cdgs.len() - 1
            }
        };
    }
    let num_layers = vc_cdgs.len();

    if num_layers > total_vcs {
        return Err(PipelineError::VcBudgetExceeded {
            needed: num_layers,
            budget: total_vcs,
        });
    }

    // Balance: flows may move from their escape layer to any *higher* VC
    // index as long as that VC's CDG stays acyclic.  Greedily move flows
    // from the most occupied VC to the least occupied higher-indexed VC.
    vc_cdgs.resize(
        total_vcs,
        ChannelDependencyGraph::with_channels(chains.num_channels),
    );
    let mut assignment = layer_of.clone();
    let mut occupancy = vec![0.0f64; total_vcs];
    // `members[vc]`: the flows on `vc`, ascending.
    let mut members = vec![Vec::new(); total_vcs];
    for (f, &vc) in assignment.iter().enumerate() {
        occupancy[vc] += weight(f);
        members[vc].push(f);
    }
    // `losses[vc]`: paths `vc` has lost so far.  `rejected[f * total_vcs +
    // vc] == losses[vc] + 1` when `vc` rejected flow `f` since its last loss.
    let mut losses = vec![0u32; total_vcs];
    let mut rejected = vec![0u32; num_flows * total_vcs];
    // Spread into unused upper VCs.
    let mut improved = true;
    let mut guard = 0usize;
    while improved && guard < 10_000 {
        improved = false;
        guard += 1;
        // Most loaded VC and its flows.
        let (hot_vc, _) = occupancy
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        let (cold_vc, _) = occupancy
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        if occupancy[hot_vc] - occupancy[cold_vc] < 1e-9 {
            break;
        }
        // Try to move one flow from hot to cold, in ascending flow order,
        // keeping the cold VC acyclic and never moving a flow below its
        // escape layer.
        let moved = members[hot_vc].iter().position(|&f| {
            let w = weight(f);
            // Moving must actually reduce the imbalance.
            if layer_of[f] > cold_vc || occupancy[hot_vc] - w < occupancy[cold_vc] + w - 1e-9 {
                return false;
            }
            let mark = &mut rejected[f * total_vcs + cold_vc];
            if *mark == losses[cold_vc] + 1 {
                return false;
            }
            let fits = vc_cdgs[cold_vc].try_add_path(chains.chain(f));
            if !fits {
                *mark = losses[cold_vc] + 1;
            }
            fits
        });
        if let Some(at) = moved {
            let f = members[hot_vc].remove(at);
            vc_cdgs[hot_vc].remove_path(chains.chain(f));
            losses[hot_vc] += 1;
            let cold = &mut members[cold_vc];
            let slot = cold.partition_point(|&g| g < f);
            cold.insert(slot, f);
            assignment[f] = cold_vc;
            let w = weight(f);
            occupancy[hot_vc] -= w;
            occupancy[cold_vc] += w;
            improved = true;
        }
    }

    let num_vcs = assignment.iter().copied().max().unwrap_or(0) + 1;
    let n = table.num_routers();
    let mut dense = vec![None; n * n];
    for (&pair, vc) in chains.pairs.iter().zip(assignment) {
        dense[pair] = Some(vc);
    }
    Ok(VcAllocation {
        assignment: dense,
        num_vcs,
        escape_layers: num_layers,
        occupancy,
    })
}

/// Verify that an allocation is deadlock-free: for every VC, the CDG of the
/// flows assigned to it must be acyclic.  Flows without a VC below
/// `num_vcs` are not part of any VC.
///
/// Channel `c` of VC `v` is node `v * channels + c` of one graph, so the
/// VCs' CDGs are disjoint parts of it and it is acyclic exactly when each
/// of them is.  Its dependencies go into compressed rows in two passes
/// over the paths (a repeated dependency stays repeated, which Kahn's
/// algorithm counts like any other), and Kahn's algorithm removes every
/// node exactly when the graph is acyclic.
pub fn verify_deadlock_free(table: &RoutingTable, alloc: &VcAllocation) -> bool {
    let routed = ChannelChains::of(table);
    let channels = routed.num_channels;
    let vc_of = |f: usize| {
        let vc = alloc.assignment.get(routed.pairs[f]).copied().flatten();
        vc.filter(|&vc| vc < alloc.num_vcs)
    };
    // `start[u]..start[u + 1]`: node `u`'s dependencies in `succ`.
    let nodes = alloc.num_vcs * channels;
    let mut start = vec![0usize; nodes + 1];
    for f in 0..routed.pairs.len() {
        if let Some(vc) = vc_of(f) {
            for w in routed.chain(f).windows(2) {
                start[vc * channels + w[0] as usize + 1] += 1;
            }
        }
    }
    for u in 0..nodes {
        start[u + 1] += start[u];
    }
    let mut fill = start.clone();
    let mut succ = vec![0usize; start[nodes]];
    let mut indegree = vec![0usize; nodes];
    for f in 0..routed.pairs.len() {
        if let Some(vc) = vc_of(f) {
            let base = vc * channels;
            for w in routed.chain(f).windows(2) {
                let (u, v) = (base + w[0] as usize, base + w[1] as usize);
                succ[fill[u]] = v;
                fill[u] += 1;
                indegree[v] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..nodes).filter(|&u| indegree[u] == 0).collect();
    let mut removed = 0usize;
    while let Some(u) = ready.pop() {
        removed += 1;
        for &v in &succ[start[u]..start[u + 1]] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                ready.push(v);
            }
        }
    }
    removed == nodes
}

/// Check that a routing table can be served and return its verified VC
/// allocation: every ordered pair among `routers` routers must be routed
/// ([`PipelineError::IncompleteRouting`] otherwise), and the paths must fit
/// deadlock-free into `vc_budget` virtual channels
/// ([`PipelineError::VcBudgetExceeded`] otherwise).
pub fn require_servable(
    table: &RoutingTable,
    routers: usize,
    vc_budget: usize,
    seed: u64,
) -> Result<VcAllocation, PipelineError> {
    table.require_complete_among(routers)?;
    let vcs = allocate_vcs(table, vc_budget, seed)?;
    if !verify_deadlock_free(table, &vcs) {
        // The balancing pass never violates per-VC acyclicity, so this is a
        // defensive re-check; surface it as a budget failure.
        return Err(PipelineError::VcBudgetExceeded {
            needed: vcs.escape_layers,
            budget: vc_budget,
        });
    }
    Ok(vcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mclb::{mclb_route, MclbConfig};
    use crate::ndbt::ndbt_route;
    use crate::paths::all_shortest_paths;
    use netsmith_topo::expert;
    use netsmith_topo::Layout;

    #[test]
    fn xy_routing_on_a_mesh_needs_exactly_one_vc() {
        // Dimension-ordered (XY) routing on a mesh famously has an acyclic
        // CDG, so the allocator must report a single escape VC.
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let ps = all_shortest_paths(&mesh);
        let mut table = crate::table::RoutingTable::new(20, "XY");
        for (s, d) in ps.flows() {
            // The XY path is the shortest path whose column moves all happen
            // before its row moves.
            let xy = ps
                .paths(s, d)
                .iter()
                .find(|p| {
                    let mut seen_row_move = false;
                    for w in p.windows(2) {
                        let (r0, c0) = layout.position(w[0]);
                        let (r1, c1) = layout.position(w[1]);
                        if r0 != r1 {
                            seen_row_move = true;
                        } else if c0 != c1 && seen_row_move {
                            return false;
                        }
                    }
                    true
                })
                .expect("mesh always has an XY shortest path")
                .to_vec();
            table.set_path(crate::table::Flow::new(s, d), xy);
        }
        let alloc = allocate_vcs(&table, 6, 11).expect("fits trivially");
        assert!(verify_deadlock_free(&table, &alloc));
        assert_eq!(alloc.escape_layers, 1, "XY routing must be acyclic");
    }

    #[test]
    fn ndbt_routed_mesh_fits_in_six_vcs() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let ps = all_shortest_paths(&mesh);
        let (table, _) = ndbt_route(&layout, &ps, 3);
        let alloc = allocate_vcs(&table, 6, 11).expect("allocation fits in 6 VCs");
        assert!(verify_deadlock_free(&table, &alloc));
        assert!(alloc.num_vcs <= 6);
        assert_eq!(alloc.assignment.iter().flatten().count(), 380);
    }

    #[test]
    fn expert_topologies_fit_in_six_vcs_with_mclb() {
        let layout = Layout::noi_4x5();
        for topo in [
            expert::folded_torus(&layout),
            expert::kite_large(&layout),
            expert::butter_donut(&layout),
        ] {
            let ps = all_shortest_paths(&topo);
            let table = mclb_route(&ps, &MclbConfig::default());
            let alloc =
                allocate_vcs(&table, 6, 5).unwrap_or_else(|e| panic!("{}: {e}", topo.name()));
            assert!(
                verify_deadlock_free(&table, &alloc),
                "{} allocation has a cyclic VC",
                topo.name()
            );
            assert!(alloc.num_vcs <= 6);
        }
    }

    #[test]
    fn single_vc_budget_reports_the_exact_escape_layer_need() {
        // The folded torus's shortest-path CDG is cyclic, so one VC cannot
        // be made deadlock free; the error must carry the exact number of
        // escape layers the partition required (which a roomy allocation of
        // the same seed reports as `escape_layers`).
        let layout = Layout::noi_4x5();
        let torus = expert::folded_torus(&layout);
        let ps = all_shortest_paths(&torus);
        let table = mclb_route(&ps, &MclbConfig::default());
        let roomy = allocate_vcs(&table, 6, 5).expect("fits in 6 VCs");
        assert!(roomy.escape_layers > 1, "torus CDG must be cyclic");
        match allocate_vcs(&table, 1, 5) {
            Err(PipelineError::VcBudgetExceeded { needed, budget }) => {
                assert_eq!(needed, roomy.escape_layers);
                assert_eq!(budget, 1);
            }
            other => panic!("expected VcBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn zero_vc_budget_is_a_typed_error() {
        let layout = Layout::noi_4x5();
        let ps = all_shortest_paths(&expert::mesh(&layout));
        let (table, _) = ndbt_route(&layout, &ps, 3);
        let needed = allocate_vcs(&table, 6, 11).unwrap().escape_layers;
        match allocate_vcs(&table, 0, 11) {
            Err(PipelineError::VcBudgetExceeded { needed: n, budget }) => {
                assert_eq!((n, budget), (needed, 0));
            }
            other => panic!("expected VcBudgetExceeded, got {other:?}"),
        }
        // An empty table still needs its one (empty) escape layer.
        let empty = crate::table::RoutingTable::new(4, "none");
        assert!(matches!(
            allocate_vcs(&empty, 0, 1),
            Err(PipelineError::VcBudgetExceeded {
                needed: 1,
                budget: 0
            })
        ));
    }

    #[test]
    fn occupancy_accounts_every_flow_weight() {
        let layout = Layout::noi_4x5();
        let kite = expert::kite_medium(&layout);
        let ps = all_shortest_paths(&kite);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 1).unwrap();
        let total_weight: f64 = table.flows().map(|(_, p)| (p.len() - 1) as f64).sum();
        let occ_sum: f64 = alloc.occupancy.iter().sum();
        assert!((total_weight - occ_sum).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let layout = Layout::noi_4x5();
        let bd = expert::butter_donut(&layout);
        let ps = all_shortest_paths(&bd);
        let table = mclb_route(&ps, &MclbConfig::default());
        let a = allocate_vcs(&table, 6, 77).unwrap();
        let b = allocate_vcs(&table, 6, 77).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn require_servable_names_the_missing_pairs() {
        let ps = all_shortest_paths(&expert::mesh(&Layout::noi_4x5()));
        let full = mclb_route(&ps, &MclbConfig::default());
        let mut partial = RoutingTable::new(20, "partial");
        for (flow, path) in full.flows().skip(3) {
            partial.set_path(flow, path.to_vec());
        }
        assert_eq!(
            require_servable(&partial, 20, 6, 1),
            Err(PipelineError::IncompleteRouting { missing_pairs: 3 })
        );
    }

    #[test]
    fn require_servable_rejects_a_zero_vc_budget() {
        let ps = all_shortest_paths(&expert::mesh(&Layout::noi_4x5()));
        let table = mclb_route(&ps, &MclbConfig::default());
        assert!(matches!(
            require_servable(&table, 20, 0, 1),
            Err(PipelineError::VcBudgetExceeded { budget: 0, .. })
        ));
    }

    #[test]
    fn require_servable_accepts_a_table_complete_among_survivors() {
        // Cutting corner router 0 off the mesh leaves 19 routers that still
        // reach each other.
        let mut mesh = expert::mesh(&Layout::noi_4x5());
        for (a, b) in [(0, 1), (0, 5)] {
            mesh.remove_link(a, b);
            mesh.remove_link(b, a);
        }
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let vcs = require_servable(&table, 19, 6, 1).expect("survivors are served");
        assert!(verify_deadlock_free(&table, &vcs));
        assert_eq!(vcs.assignment.iter().flatten().count(), 19 * 18);
        assert_eq!(
            require_servable(&table, 20, 6, 1),
            Err(PipelineError::IncompleteRouting { missing_pairs: 38 })
        );
    }
}
