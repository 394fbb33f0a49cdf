//! Helpers shared by the route crate's integration tests.

use netsmith_route::paths::path_links;
use netsmith_topo::expert;
use netsmith_topo::{Layout, LinkClass, LinkSpan, RouterId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

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

type Channel = (RouterId, RouterId);

/// The reference channel dependency graph: a verbatim copy of the original
/// `BTreeMap`/`BTreeSet` graph with a three-colour DFS cycle search.  The
/// VC oracle's reference allocator builds its layers with it, and the
/// deadlock proptests check each VC's paths against it.  Not every test
/// target uses it.
#[allow(dead_code)]
#[derive(Debug, Clone, Default)]
pub struct ChannelDependencyGraph {
    edges: BTreeMap<Channel, BTreeSet<Channel>>,
    channels: BTreeSet<Channel>,
}

#[allow(dead_code)]
impl ChannelDependencyGraph {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_paths<'a>(paths: impl IntoIterator<Item = &'a [RouterId]>) -> Self {
        let mut cdg = Self::new();
        for p in paths {
            cdg.add_path(p);
        }
        cdg
    }

    pub fn add_path(&mut self, path: &[RouterId]) {
        let links: Vec<Channel> = path_links(path).collect();
        for l in &links {
            self.channels.insert(*l);
        }
        for w in links.windows(2) {
            self.edges.entry(w[0]).or_default().insert(w[1]);
        }
    }

    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    fn find_cycle(&self) -> Option<Vec<Channel>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks: BTreeMap<Channel, Mark> =
            self.channels.iter().map(|&c| (c, Mark::White)).collect();

        for &start in &self.channels {
            if marks[&start] != Mark::White {
                continue;
            }
            let mut stack: Vec<(Channel, Vec<Channel>)> = vec![(start, Vec::new())];
            let mut path: Vec<Channel> = Vec::new();
            while let Some((node, _)) = stack.last().cloned() {
                if marks[&node] == Mark::White {
                    marks.insert(node, Mark::Grey);
                    path.push(node);
                    let succs: Vec<Channel> = self
                        .edges
                        .get(&node)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    stack.last_mut().unwrap().1 = succs;
                }
                let next = {
                    let (_, succs) = stack.last_mut().unwrap();
                    succs.pop()
                };
                match next {
                    Some(succ) => match marks[&succ] {
                        Mark::Grey => {
                            let pos = path.iter().position(|&c| c == succ).unwrap();
                            return Some(path[pos..].to_vec());
                        }
                        Mark::White => stack.push((succ, Vec::new())),
                        Mark::Black => {}
                    },
                    None => {
                        marks.insert(node, Mark::Black);
                        path.pop();
                        stack.pop();
                    }
                }
            }
        }
        None
    }
}
