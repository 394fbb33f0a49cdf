//! Plain-text visualisation helpers (DOT export and adjacency dumps).
//!
//! The paper's Figure 4 shows a discovered topology with bidirectional
//! links drawn solid and unidirectional links dashed, coloured by the
//! sparsest-cut partition.  These helpers emit the same information as
//! Graphviz DOT (with grid coordinates as `pos` attributes) and as a
//! compact adjacency listing for experiment logs.

use crate::cuts::CutReport;
use crate::topology::Topology;
use std::fmt::Write as _;

/// Render the topology as a Graphviz DOT string.  Bidirectional pairs are
/// emitted once with `dir=both`; unidirectional links keep their arrow.  If
/// a [`CutReport`] is supplied, the two partitions are coloured like the
/// paper's Figure 4.
pub fn to_dot(topo: &Topology, cut: Option<&CutReport>) -> String {
    let mut out = String::new();
    let layout = topo.layout();
    let _ = writeln!(out, "digraph \"{}\" {{", topo.name());
    let _ = writeln!(out, "  node [shape=circle];");
    for r in 0..topo.num_routers() {
        let (row, col) = layout.position(r);
        let colour = match cut {
            Some(c) if c.partition.contains(&r) => "red",
            Some(_) => "blue",
            None => "black",
        };
        let _ = writeln!(
            out,
            "  r{r} [label=\"{r}\", pos=\"{col},{row}!\", color={colour}];"
        );
    }
    let n = topo.num_routers();
    for i in 0..n {
        for j in 0..n {
            if i < j && topo.has_link(i, j) && topo.has_link(j, i) {
                let _ = writeln!(out, "  r{i} -> r{j} [dir=both];");
            } else if topo.has_link(i, j) && !topo.has_link(j, i) {
                let _ = writeln!(out, "  r{i} -> r{j} [style=dashed];");
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Compact adjacency listing: one line per router with its outgoing
/// neighbours, used in experiment logs and EXPERIMENTS.md snippets.
pub fn adjacency_listing(topo: &Topology) -> String {
    let mut out = String::new();
    for r in 0..topo.num_routers() {
        let outs = topo.neighbours_out(r);
        let formatted: Vec<String> = outs.iter().map(|d| d.to_string()).collect();
        let _ = writeln!(out, "{r}: {}", formatted.join(" "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::sparsest_cut;
    use crate::expert::mesh;
    use crate::layout::Layout;

    #[test]
    fn dot_contains_every_router_and_link_direction_markers() {
        let m = mesh(&Layout::noi_4x5());
        let dot = to_dot(&m, None);
        assert!(dot.starts_with("digraph"));
        for r in 0..20 {
            assert!(dot.contains(&format!("r{r} [label")));
        }
        assert!(dot.contains("dir=both"));
        assert!(!dot.contains("style=dashed"));
    }

    #[test]
    fn dot_colours_cut_partitions() {
        let m = mesh(&Layout::noi_4x5());
        let cut = sparsest_cut(&m);
        let dot = to_dot(&m, Some(&cut));
        assert!(dot.contains("color=red"));
        assert!(dot.contains("color=blue"));
    }

    #[test]
    fn adjacency_listing_has_one_line_per_router() {
        let m = mesh(&Layout::noi_4x5());
        let listing = adjacency_listing(&m);
        assert_eq!(listing.lines().count(), 20);
    }

    #[test]
    fn dashed_for_unidirectional() {
        use crate::linkclass::LinkClass;
        use crate::topology::Topology;
        let layout = Layout::noi_4x5();
        let mut t = Topology::empty("uni", layout, LinkClass::Small);
        t.add_link(0, 1);
        let dot = to_dot(&t, None);
        assert!(dot.contains("style=dashed"));
    }
}
