//! Path order is part of the routing contract: MCLB and NDBT pick among a
//! flow's shortest paths by index, so enumerating the same paths in a
//! different order changes routes.
//!
//! `reference` below is a verbatim copy of the original enumerator (one
//! `Vec` per path, a nested `Vec` per flow, a recursive DFS over the
//! shortest-path DAG that clones the current path at the destination).
//! `all_shortest_paths` must list exactly the same paths, in the same order,
//! for every flow, with the same per-flow cap.  The expert baselines are
//! also pinned to recorded digests.

use netsmith_route::paths::{all_shortest_paths, PathSet};
use netsmith_topo::{expert, Layout, RouterId, Topology};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;
use common::random_topology;

/// The original enumerator, kept as the test oracle.
mod reference {
    use netsmith_topo::metrics::{all_pairs_hops, UNREACHABLE};
    use netsmith_topo::{RouterId, Topology};

    const DEFAULT_MAX_PATHS_PER_FLOW: usize = 64;

    /// `paths[s * n + d]`: every shortest path of the flow, in DFS order.
    pub fn all_shortest_paths(topo: &Topology) -> Vec<Vec<Vec<RouterId>>> {
        let max_per_flow = DEFAULT_MAX_PATHS_PER_FLOW;
        let n = topo.num_routers();
        let dist = all_pairs_hops(topo);
        let mut paths = vec![Vec::new(); n * n];
        let adj: Vec<Vec<RouterId>> = (0..n).map(|i| topo.neighbours_out(i)).collect();
        for s in 0..n {
            for d in 0..n {
                if s == d || dist[s * n + d] == UNREACHABLE {
                    continue;
                }
                let mut found = Vec::new();
                let mut current = vec![s];
                enumerate_dag_paths(s, d, n, &dist, &adj, &mut current, &mut found, max_per_flow);
                paths[s * n + d] = found;
            }
        }
        paths
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate_dag_paths(
        u: RouterId,
        d: RouterId,
        n: usize,
        dist: &[u32],
        adj: &[Vec<RouterId>],
        current: &mut Vec<RouterId>,
        found: &mut Vec<Vec<RouterId>>,
        cap: usize,
    ) {
        if found.len() >= cap {
            return;
        }
        if u == d {
            found.push(current.clone());
            return;
        }
        let remaining = dist[u * n + d];
        for &v in &adj[u] {
            if dist[v * n + d] != UNREACHABLE && dist[v * n + d] + 1 == remaining {
                current.push(v);
                enumerate_dag_paths(v, d, n, dist, adj, current, found, cap);
                current.pop();
                if found.len() >= cap {
                    return;
                }
            }
        }
    }
}

/// The paths of one flow as owned router lists, in enumeration order.
fn flow_paths(ps: &PathSet, s: RouterId, d: RouterId) -> Vec<Vec<RouterId>> {
    ps.paths(s, d).iter().map(|p| p.to_vec()).collect()
}

fn check_against_reference(topo: &Topology) {
    let got = all_shortest_paths(topo);
    let want = reference::all_shortest_paths(topo);
    let n = topo.num_routers();
    assert_eq!(got.num_routers(), n);
    for s in 0..n {
        for d in 0..n {
            assert_eq!(
                flow_paths(&got, s, d),
                want[s * n + d],
                "{} flow {s}->{d}",
                topo.name()
            );
        }
    }
    let want_flows: Vec<_> = (0..n * n)
        .filter(|&i| !want[i].is_empty())
        .map(|i| (i / n, i % n))
        .collect();
    assert_eq!(
        got.flows().collect::<Vec<_>>(),
        want_flows,
        "{}",
        topo.name()
    );
}

/// The 6x5 mesh with `removed` random directed links taken out: corner
/// flows have more than 64 shortest paths (so the cap fires), and removals
/// make it asymmetric and sometimes disconnected.
fn thinned_mesh(seed: u64, removed: usize) -> Topology {
    let mut topo = expert::mesh(&Layout::noi_6x5()).with_name(format!("thinned{seed}"));
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..removed {
        let links: Vec<_> = topo.links().collect();
        let (a, b) = links[rng.gen_range(0..links.len())];
        topo.remove_link(a, b);
    }
    topo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn paths_match_reference_on_random_topologies(seed in 0u64..10_000, extra in 0usize..24) {
        check_against_reference(&random_topology(seed, extra));
    }

    #[test]
    fn paths_match_reference_on_thinned_meshes(seed in 0u64..10_000, removed in 0usize..12) {
        check_against_reference(&thinned_mesh(seed, removed));
    }
}

/// FNV-1a over every flow in ascending `(s, d)` order: its path count, then
/// each path's routers.
fn digest(ps: &PathSet) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let n = ps.num_routers();
    for s in 0..n {
        for d in 0..n {
            let paths = ps.paths(s, d);
            eat(paths.len() as u64);
            for p in paths.iter() {
                for &r in p.iter() {
                    eat(r as u64);
                }
            }
        }
    }
    h
}

/// Every expert baseline on `layout` against its recorded digest, in
/// `expert::all_baselines` order.
fn check_recorded(layout: &Layout, recorded: &[u64]) {
    let got: Vec<(String, u64)> = expert::all_baselines(layout)
        .iter()
        .map(|t| (t.name().to_string(), digest(&all_shortest_paths(t))))
        .collect();
    let changed: Vec<String> = got
        .iter()
        .zip(recorded)
        .filter(|((_, g), w)| g != *w)
        .map(|((name, g), w)| format!("{name}: {g:#018x} (recorded {w:#018x})"))
        .collect();
    assert_eq!(got.len(), recorded.len());
    assert!(changed.is_empty(), "path order changed: {changed:#?}");
}

#[test]
fn expert_path_sets_match_recorded_digests_4x5() {
    // Recorded from the nested-`Vec` enumerator: Mesh, Kite-Small,
    // FoldedTorus, Kite-Medium, LPBT-Hops, LPBT-Power, ButterDonut,
    // DoubleButterfly, Kite-Large.
    check_recorded(
        &Layout::noi_4x5(),
        &[
            0x6f66_1171_3879_91a5,
            0xb439_b515_4f45_ffe5,
            0xc0af_9dcb_4d45_84e5,
            0xa4f2_6758_ac9f_5205,
            0x84ee_289e_ec33_9565,
            0xa1b5_377e_8d2d_50e5,
            0xa562_72ec_bd15_e365,
            0xc9c7_0d14_3130_3c65,
            0xd893_546b_a448_8e65,
        ],
    );
}

#[test]
fn expert_path_sets_match_recorded_digests_8x6() {
    // Recorded from the nested-`Vec` enumerator, same order as at 4x5.
    check_recorded(
        &Layout::noi_8x6(),
        &[
            0xda71_4921_86ec_a439,
            0x1feb_ee32_c15e_03a5,
            0x1527_bb06_990a_5785,
            0xdca5_70fd_63ec_05e5,
            0x1058_970f_b628_1fe5,
            0xd7c9_e0e6_c5ef_3065,
            0x2689_d594_a6a2_4945,
            0x9a1a_f9c1_8b61_7265,
            0xa5d8_d551_89e9_9ba5,
        ],
    );
}

/// The oracle on every expert baseline (corner flows of the 8x6 mesh
/// reach the 64-path cap).
#[test]
fn expert_path_sets_match_reference() {
    for layout in [Layout::noi_4x5(), Layout::noi_8x6()] {
        for topo in expert::all_baselines(&layout) {
            check_against_reference(&topo);
        }
    }
}
