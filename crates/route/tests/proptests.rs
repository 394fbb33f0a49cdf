//! Property-based tests for routing, channel-dependency analysis and VC
//! allocation.

use netsmith_route::paths::{all_shortest_paths, path_length};
use netsmith_route::vc::verify_deadlock_free;
use netsmith_route::VcAllocation;
use netsmith_route::{allocate_vcs, mclb_route, ndbt_route, Flow, MclbConfig, RoutingTable};
use netsmith_topo::expert;
use netsmith_topo::Layout;
use proptest::prelude::*;

mod common;
use common::{random_topology, ChannelDependencyGraph};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mclb_paths_are_always_shortest_and_real(seed in 0u64..10_000, extra in 0usize..24) {
        let topo = random_topology(seed, extra);
        let paths = all_shortest_paths(&topo);
        let table = mclb_route(&paths, &MclbConfig { seed });
        prop_assert!(table.is_complete());
        prop_assert!(table.validate(&topo).is_ok());
        for (flow, p) in table.flows() {
            prop_assert_eq!(path_length(p) as u32, paths.distance(flow.src, flow.dst).unwrap());
        }
    }

    #[test]
    fn mclb_max_load_never_exceeds_worst_single_path_choice(seed in 0u64..10_000) {
        let topo = random_topology(seed, 12);
        let paths = all_shortest_paths(&topo);
        let mclb = mclb_route(&paths, &MclbConfig { seed });
        // Worst case: every flow picks its first enumerated path.
        let mut naive = netsmith_route::RoutingTable::new(topo.num_routers(), "naive");
        for (s, d) in paths.flows() {
            naive.set_path(netsmith_route::Flow::new(s, d), paths.paths(s, d)[0].to_vec());
        }
        prop_assert!(
            mclb.uniform_channel_loads().max_load <= naive.uniform_channel_loads().max_load + 1e-9
        );
    }

    /// `verify_deadlock_free` answers as one CDG per VC, built from that
    /// VC's paths and checked on its own, on arbitrary assignments: random
    /// VCs, some pairs without one and some at or above `num_vcs`.
    #[test]
    fn deadlock_check_agrees_with_one_cdg_per_vc(
        seed in 0u64..10_000,
        extra in 0usize..24,
        num_vcs in 1usize..=4,
        picks in proptest::collection::vec(0usize..6, 1..40),
    ) {
        let topo = random_topology(seed, extra);
        let table = mclb_route(&all_shortest_paths(&topo), &MclbConfig { seed });
        let n = table.num_routers();
        let mut assignment = vec![None; n * n];
        for (i, (flow, _)) in table.flows().enumerate() {
            let pick = picks[i % picks.len()];
            assignment[flow.src * n + flow.dst] = (pick < 5).then_some(pick);
        }
        let alloc = VcAllocation {
            assignment,
            num_vcs,
            escape_layers: num_vcs,
            occupancy: vec![0.0; num_vcs],
        };
        let per_vc = (0..num_vcs).all(|vc| {
            let members = table
                .flows()
                .filter(|(f, _)| alloc.assignment[f.src * n + f.dst] == Some(vc))
                .map(|(_, p)| p);
            ChannelDependencyGraph::from_paths(members).is_acyclic()
        });
        prop_assert_eq!(verify_deadlock_free(&table, &alloc), per_vc);
    }

    #[test]
    fn vc_allocation_is_always_deadlock_free_when_it_fits(seed in 0u64..10_000) {
        let topo = random_topology(seed, 16);
        let paths = all_shortest_paths(&topo);
        let table = mclb_route(&paths, &MclbConfig { seed });
        if let Ok(alloc) = allocate_vcs(&table, 8, seed) {
            prop_assert!(verify_deadlock_free(&table, &alloc));
            prop_assert_eq!(alloc.assignment.iter().flatten().count(), table.num_routed_flows());
            prop_assert!(alloc.escape_layers <= alloc.num_vcs.max(8));
            // Every per-VC CDG is acyclic by construction; the union need not be.
            for vc in 0..alloc.num_vcs {
                let members: Vec<&[usize]> = table
                    .flows()
                    .filter(|(f, _)| alloc.assignment[f.src * table.num_routers() + f.dst] == Some(vc))
                    .map(|(_, p)| p)
                    .collect();
                prop_assert!(ChannelDependencyGraph::from_paths(members).is_acyclic());
            }
        }
    }

    #[test]
    fn ndbt_tables_stay_on_shortest_paths(seed in 0u64..10_000) {
        let layout = Layout::noi_4x5();
        let topo = expert::folded_torus(&layout);
        let paths = all_shortest_paths(&topo);
        let (table, _) = ndbt_route(&layout, &paths, seed);
        prop_assert!(table.is_complete());
        for (flow, p) in table.flows() {
            prop_assert_eq!(path_length(p) as u32, paths.distance(flow.src, flow.dst).unwrap());
        }
    }

    #[test]
    fn cdg_of_any_single_path_is_acyclic(path_len in 2usize..10) {
        let path: Vec<usize> = (0..path_len).collect();
        prop_assert!(ChannelDependencyGraph::from_paths([path.as_slice()]).is_acyclic());
        // The same path as the only flow of a one-VC allocation.
        let n = path_len;
        let mut table = RoutingTable::new(n, "line");
        table.set_path(Flow::new(0, n - 1), path);
        let mut assignment = vec![None; n * n];
        assignment[n - 1] = Some(0);
        let alloc = VcAllocation {
            assignment,
            num_vcs: 1,
            escape_layers: 1,
            occupancy: vec![0.0],
        };
        prop_assert!(verify_deadlock_free(&table, &alloc));
    }
}
