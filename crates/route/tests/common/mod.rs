//! Helpers shared by the route crate's integration tests.

use netsmith_topo::expert;
use netsmith_topo::{Layout, LinkClass, LinkSpan, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random connected topology on a 3x4 layout with generous radix.
pub fn random_topology(seed: u64, extra_links: usize) -> Topology {
    let layout = Layout::interposer_grid(3, 4, 6);
    let mut topo = Topology::empty(
        format!("rand{seed}"),
        layout.clone(),
        LinkClass::Custom(LinkSpan::new(3, 3)),
    );
    for (a, b) in expert::hamiltonian_ring(&layout) {
        topo.add_bidirectional(a, b);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = layout.num_routers();
    for _ in 0..extra_links {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !topo.has_link(a, b) && topo.free_out_ports(a) > 0 && topo.free_in_ports(b) > 0
        {
            topo.add_link(a, b);
        }
    }
    topo
}
