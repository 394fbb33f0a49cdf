//! Oracle equivalence for VC allocation.
//!
//! `reference` below is a verbatim copy of the original `allocate_vcs`; the
//! `BTreeMap`/`BTreeSet` channel dependency graph it cloned and re-searched
//! for every placement is the shared reference in `common`.  The production allocator must
//! reproduce its result exactly: the same flow-to-VC assignment, VC count,
//! escape-layer count and occupancy bits, and the same
//! `VcBudgetExceeded { needed, budget }` error when the budget is too small.
//!
//! The reference is too slow in a debug build for 48 routers, so the
//! 48-router case is pinned to a digest of the reference's allocation,
//! recorded once in a release build.

use netsmith_route::paths::all_shortest_paths;
use netsmith_route::{allocate_vcs, mclb_route, ndbt_route, MclbConfig, RoutingTable};
use netsmith_route::{PipelineError, VcAllocation};
use netsmith_topo::{expert, Layout, Topology};
use proptest::prelude::*;

mod common;
use common::random_topology;

/// The original allocator, kept as the test oracle.
mod reference {
    use crate::common::ChannelDependencyGraph;
    use netsmith_route::{Flow, PipelineError, RoutingTable, VcAllocation};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    pub fn allocate_vcs(
        table: &RoutingTable,
        total_vcs: usize,
        seed: u64,
    ) -> Result<VcAllocation, PipelineError> {
        assert!(total_vcs >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);

        let paths: BTreeMap<Flow, Vec<usize>> =
            table.flows().map(|(f, p)| (f, p.to_vec())).collect();
        let mut order: Vec<Flow> = paths.keys().copied().collect();
        {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            order.sort_by_key(|f| std::cmp::Reverse(paths[f].len()));
        }
        let mut layer_of: BTreeMap<Flow, usize> = BTreeMap::new();
        let mut layer_cdgs: Vec<ChannelDependencyGraph> = vec![ChannelDependencyGraph::new()];
        for flow in &order {
            let path = paths[flow].as_slice();
            let mut placed = false;
            for (layer, cdg) in layer_cdgs.iter_mut().enumerate() {
                let mut tentative = cdg.clone();
                tentative.add_path(path);
                if tentative.is_acyclic() {
                    *cdg = tentative;
                    layer_of.insert(*flow, layer);
                    placed = true;
                    break;
                }
            }
            if !placed {
                let mut cdg = ChannelDependencyGraph::new();
                cdg.add_path(path);
                layer_cdgs.push(cdg);
                layer_of.insert(*flow, layer_cdgs.len() - 1);
            }
        }
        let num_layers = layer_cdgs.len();

        if num_layers > total_vcs {
            return Err(PipelineError::VcBudgetExceeded {
                needed: num_layers,
                budget: total_vcs,
            });
        }

        let mut assignment: BTreeMap<Flow, usize> = layer_of.clone();
        let weight = |f: &Flow| (paths[f].len() - 1) as f64;
        let mut occupancy = vec![0.0f64; total_vcs];
        for (f, &vc) in &assignment {
            occupancy[vc] += weight(f);
        }
        let mut improved = true;
        let mut guard = 0usize;
        while improved && guard < 10_000 {
            improved = false;
            guard += 1;
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
            let mut candidates: Vec<Flow> = assignment
                .iter()
                .filter(|(f, &vc)| vc == hot_vc && layer_of[f] <= cold_vc)
                .map(|(f, _)| *f)
                .collect();
            candidates.sort();
            for f in candidates {
                let w = weight(&f);
                if occupancy[hot_vc] - w < occupancy[cold_vc] + w - 1e-9 {
                    continue;
                }
                let members: Vec<Flow> = assignment
                    .iter()
                    .filter(|(_, &vc)| vc == cold_vc)
                    .map(|(f2, _)| *f2)
                    .chain(std::iter::once(f))
                    .collect();
                let cdg =
                    ChannelDependencyGraph::from_paths(members.iter().map(|m| paths[m].as_slice()));
                if cdg.is_acyclic() {
                    assignment.insert(f, cold_vc);
                    occupancy[hot_vc] -= w;
                    occupancy[cold_vc] += w;
                    improved = true;
                    break;
                }
            }
        }

        let num_vcs = assignment.values().copied().max().unwrap_or(0) + 1;
        // The compared allocation's dense per-pair table.
        let n = table.num_routers();
        let mut dense = vec![None; n * n];
        for (f, vc) in assignment {
            dense[f.src * n + f.dst] = Some(vc);
        }
        Ok(VcAllocation {
            assignment: dense,
            num_vcs,
            escape_layers: num_layers,
            occupancy,
        })
    }
}

/// Field-by-field comparison; occupancy is compared by bit pattern.
fn assert_same(
    got: &Result<VcAllocation, PipelineError>,
    want: &Result<VcAllocation, PipelineError>,
    what: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.assignment, w.assignment, "{what}: assignment");
            assert_eq!(g.num_vcs, w.num_vcs, "{what}: num_vcs");
            assert_eq!(g.escape_layers, w.escape_layers, "{what}: escape_layers");
            let bits =
                |a: &VcAllocation| a.occupancy.iter().map(|o| o.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{what}: occupancy");
        }
        (
            Err(PipelineError::VcBudgetExceeded {
                needed: gn,
                budget: gb,
            }),
            Err(PipelineError::VcBudgetExceeded {
                needed: wn,
                budget: wb,
            }),
        ) => assert_eq!((gn, gb), (wn, wb), "{what}: VcBudgetExceeded"),
        _ => panic!("{what}: got {got:?}, want {want:?}"),
    }
}

/// Check the allocator against the reference at every budget in `budgets`.
fn check_against_reference(table: &RoutingTable, seed: u64, budgets: &[usize], what: &str) {
    for &budget in budgets {
        let got = allocate_vcs(table, budget, seed);
        let want = reference::allocate_vcs(table, budget, seed);
        assert_same(&got, &want, &format!("{what} budget {budget} seed {seed}"));
    }
}

fn mclb_table(topo: &Topology, seed: u64) -> RoutingTable {
    let paths = all_shortest_paths(topo);
    mclb_route(&paths, &MclbConfig { seed })
}

fn ndbt_table(topo: &Topology, seed: u64) -> RoutingTable {
    let paths = all_shortest_paths(topo);
    ndbt_route(topo.layout(), &paths, seed).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allocation_matches_reference_on_random_topologies(
        seed in 0u64..10_000,
        extra in 0usize..24,
        ndbt in any::<bool>(),
    ) {
        let topo = random_topology(seed, extra);
        let table = if ndbt { ndbt_table(&topo, seed) } else { mclb_table(&topo, seed) };
        let budgets: Vec<usize> = (1..=8).collect();
        check_against_reference(&table, seed, &budgets, topo.name());
    }
}

/// The expert baselines need 2 (Kite-Large, Butter Donut) or 3 (folded
/// torus) escape layers, so these budgets cover the error path, an exact
/// fit and the production budget of 6 while keeping the debug-build
/// reference runs short.
#[test]
fn allocation_matches_reference_on_expert_topologies() {
    let layout = Layout::noi_4x5();
    for topo in [
        expert::folded_torus(&layout),
        expert::kite_large(&layout),
        expert::butter_donut(&layout),
    ] {
        for (scheme, table) in [
            ("MCLB", mclb_table(&topo, 5)),
            ("NDBT", ndbt_table(&topo, 5)),
        ] {
            check_against_reference(
                &table,
                5,
                &[1, 2, 3, 6],
                &format!("{} {scheme}", topo.name()),
            );
        }
    }
}

/// FNV-1a over the allocation: flows in ascending order with their VC,
/// then `num_vcs`, `escape_layers` and the occupancy bits.
fn digest(alloc: &VcAllocation) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let n = alloc.assignment.len().isqrt();
    for (pair, vc) in alloc.assignment.iter().enumerate() {
        if let Some(vc) = vc {
            eat((pair / n) as u64);
            eat((pair % n) as u64);
            eat(*vc as u64);
        }
    }
    eat(alloc.num_vcs as u64);
    eat(alloc.escape_layers as u64);
    for o in &alloc.occupancy {
        eat(o.to_bits());
    }
    h
}

#[test]
fn folded_torus_8x6_ndbt_allocation_matches_recorded_reference() {
    let layout = Layout::noi_8x6();
    let topo = expert::folded_torus(&layout);
    let table = ndbt_table(&topo, 42);
    let alloc = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
    assert_eq!(alloc.assignment.iter().flatten().count(), 48 * 47);
    // Recorded from the reference allocator in a release build.
    assert_eq!(digest(&alloc), 0xd7d7_f747_0749_c6a3);
}

/// The balancing pass on these two retries many flows that a cold VC
/// rejected before, so they pin the rejection cache.  Recorded in a
/// release build, where the reference allocator gives the same allocation.
#[test]
fn kite_medium_and_mesh_8x6_ndbt_allocations_match_recorded_digests() {
    let layout = Layout::noi_8x6();
    for (topo, recorded) in [
        (expert::kite_medium(&layout), 0x1a57_8587_ffb4_3351),
        (expert::mesh(&layout), 0x12b0_7f6d_c1c3_0bad),
    ] {
        let table = ndbt_table(&topo, 42);
        let alloc = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
        assert_eq!(alloc.assignment.iter().flatten().count(), 48 * 47);
        assert_eq!(
            digest(&alloc),
            recorded,
            "{}: {:#018x}",
            topo.name(),
            digest(&alloc)
        );
    }
}
