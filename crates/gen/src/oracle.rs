//! Exhaustive LatOp/SCOp optimum on layouts of at most nine routers: the
//! exact oracle the annealer is certified against, and the ground truth
//! the Table I model is checked with.
//!
//! Every router picks a subset of its valid out-links of at most radix
//! links, and every router's in-degree stays at most the radix.  Only
//! *maximal* link sets are scored: sets to which no valid link can be
//! added within those limits.  That is exact for LatOp and SCOp because
//! adding a link never lengthens a path and never shrinks a cut, so a set
//! never scores better than a maximal set that contains it.
//!
//! Routers are assigned one at a time, those with the most valid
//! out-links first.  A partial assignment is pruned when its relaxation
//! (the assigned links plus every valid out-link of every unassigned
//! router into a router whose in-degree is not yet full, radix ignored)
//! already scores no better than the incumbent: every completion is a
//! subset of the relaxation.  Leaves and relaxations are scored with
//! [`Objective::evaluate`], so the proven optima are in the annealer's own
//! units.  The first router tries one out-link set per orbit of the grid
//! symmetries that fix it, which keeps the 3x3 search to a few seconds in
//! a debug build.

use crate::{GenerationProblem, Objective};
use netsmith_topo::{RouterId, Topology};

/// The proven optimum of a problem.
pub(crate) struct Optimum {
    /// [`Objective::evaluate`] score of `topology`.
    pub(crate) score: f64,
    /// The first optimal link set in search order.
    pub(crate) topology: Topology,
}

/// The optimum of `problem`'s objective, which must be LatOp or SCOp, with
/// no constraint beyond radix and link length.
pub(crate) fn optimum(problem: &GenerationProblem) -> Optimum {
    assert!(matches!(
        problem.objective,
        Objective::LatOp | Objective::SCOp
    ));
    assert!(!problem.symmetric_links);
    let n = problem.num_routers();
    assert!(n <= 9, "the oracle enumerates at most nine routers");
    let radix = problem.layout.radix();
    let mut out = vec![Vec::new(); n];
    let mut relaxation = Topology::empty(
        problem.topology_name(),
        problem.layout.clone(),
        problem.class,
    );
    for (i, j) in problem.valid_links() {
        out[i].push(j);
        relaxation.add_link(i, j);
    }
    // Routers with the most valid out-links first: they leave the most
    // slack in the relaxation.
    let mut order: Vec<RouterId> = (0..n).collect();
    order.sort_by_key(|&r| std::cmp::Reverse(out[r].len()));
    let symmetries = symmetries_fixing(problem, order[0]);
    // Each router's out-link choices as masks over its `out` list, largest
    // first.  The first router keeps one choice per orbit of the layout
    // symmetries that fix it: an image of an optimal set is optimal too.
    let choices = (0..n)
        .map(|i| {
            let targets = &out[i];
            let ids = |mask: u32, perm: &[RouterId]| {
                (0..targets.len())
                    .filter(|&k| mask >> k & 1 == 1)
                    .fold(0u32, |ids, k| ids | 1 << perm[targets[k]])
            };
            let mut masks: Vec<u32> = (0..1u32 << targets.len())
                .filter(|&m| m.count_ones() as usize <= radix)
                .filter(|&m| {
                    let own = ids(m, &symmetries[0]);
                    i != order[0] || symmetries.iter().all(|p| ids(m, p) >= own)
                })
                .collect();
            masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
            masks
        })
        .collect();
    let later = (0..n)
        .map(|pos| {
            (0..n)
                .map(|j| {
                    order[pos + 1..]
                        .iter()
                        .filter(|&&k| out[k].contains(&j))
                        .count()
                })
                .collect()
        })
        .collect();
    let mut search = Search {
        objective: &problem.objective,
        radix,
        order,
        out,
        choices,
        later,
        in_degree: vec![0; n],
        must_fill: vec![0; n],
        relaxation,
        best: None,
    };
    search.assign(0);
    search.best.expect("a radix-feasible link set exists")
}

/// The grid's reflections (and, on a square grid, its transpositions)
/// that map the valid-link set onto itself and fix `root`, as router
/// permutations; the identity comes first.  Such a map changes no hop
/// count and no cut.
fn symmetries_fixing(problem: &GenerationProblem, root: RouterId) -> Vec<Vec<RouterId>> {
    let layout = &problem.layout;
    let (rows, cols) = (layout.rows(), layout.cols());
    let valid = problem.valid_links();
    let mut maps = Vec::new();
    let transposes: &[bool] = if rows == cols {
        &[false, true]
    } else {
        &[false]
    };
    for &transpose in transposes {
        for flip_rows in [false, true] {
            for flip_cols in [false, true] {
                let perm: Vec<RouterId> = (0..layout.num_routers())
                    .map(|r| {
                        let (mut row, mut col) = layout.position(r);
                        if transpose {
                            (row, col) = (col, row);
                        }
                        if flip_rows {
                            row = rows - 1 - row;
                        }
                        if flip_cols {
                            col = cols - 1 - col;
                        }
                        layout.router_at(row, col)
                    })
                    .collect();
                if perm[root] == root
                    && valid
                        .iter()
                        .all(|&(i, j)| valid.contains(&(perm[i], perm[j])))
                {
                    maps.push(perm);
                }
            }
        }
    }
    maps
}

struct Search<'a> {
    objective: &'a Objective,
    radix: usize,
    /// Routers in assignment order.
    order: Vec<RouterId>,
    /// Valid out-link targets of each router.
    out: Vec<Vec<RouterId>>,
    /// Out-link masks over `out[i]` to try at router `i`.
    choices: Vec<Vec<u32>>,
    /// `later[pos][j]`: routers after position `pos` of `order` with a
    /// valid link to `j`.
    later: Vec<Vec<usize>>,
    in_degree: Vec<usize>,
    /// Assigned links `i -> j` left out while `i` had a free port: the set
    /// is maximal only if each such `j` ends with a full in-degree.
    must_fill: Vec<usize>,
    /// The assigned links plus every valid out-link of later routers into
    /// a router whose in-degree is not full.
    relaxation: Topology,
    best: Option<Optimum>,
}

impl Search<'_> {
    /// Assign router `order[pos]` and every router after it.
    fn assign(&mut self, pos: usize) {
        let i = self.order[pos];
        let mut children = Vec::new();
        for c in 0..self.choices[i].len() {
            let mask = self.choices[i][c];
            let fits = (0..self.out[i].len())
                .all(|k| mask >> k & 1 == 0 || self.in_degree[self.out[i][k]] < self.radix);
            if fits {
                let dropped = self.apply(pos, mask);
                if self.can_be_maximal(pos) {
                    children.push((self.objective.evaluate(&self.relaxation).score, mask));
                }
                self.undo(pos, mask, dropped);
            }
        }
        // Most promising first, so that good incumbents come early.
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (score, mask) in children {
            if self.best.as_ref().is_some_and(|b| score >= b.score) {
                break;
            }
            let dropped = self.apply(pos, mask);
            if pos + 1 == self.order.len() {
                self.best = Some(Optimum {
                    score,
                    topology: self.relaxation.clone(),
                });
            } else {
                self.assign(pos + 1);
            }
            self.undo(pos, mask, dropped);
        }
    }

    /// Give router `order[pos]` the out-links in `mask`, and drop from the
    /// relaxation its other links and the later routers' links into a
    /// router whose in-degree is now full.  Returns the dropped links.
    fn apply(&mut self, pos: usize, mask: u32) -> Vec<(RouterId, RouterId)> {
        let i = self.order[pos];
        let full = mask.count_ones() as usize == self.radix;
        let mut dropped = Vec::new();
        for k in 0..self.out[i].len() {
            let j = self.out[i][k];
            let unwanted: Vec<RouterId> = if mask >> k & 1 == 1 {
                self.in_degree[j] += 1;
                if self.in_degree[j] < self.radix {
                    continue;
                }
                self.order[pos + 1..].to_vec()
            } else {
                self.must_fill[j] += usize::from(!full);
                vec![i]
            };
            for l in unwanted {
                if self.relaxation.has_link(l, j) {
                    self.relaxation.remove_link(l, j);
                    dropped.push((l, j));
                }
            }
        }
        dropped
    }

    /// Reverse [`Search::apply`].
    fn undo(&mut self, pos: usize, mask: u32, dropped: Vec<(RouterId, RouterId)>) {
        let i = self.order[pos];
        let full = mask.count_ones() as usize == self.radix;
        for (l, j) in dropped {
            self.relaxation.add_link(l, j);
        }
        for k in 0..self.out[i].len() {
            let j = self.out[i][k];
            if mask >> k & 1 == 1 {
                self.in_degree[j] -= 1;
            } else {
                self.must_fill[j] -= usize::from(!full);
            }
        }
    }

    /// Whether every router that must end with a full in-degree still can,
    /// counting one in-link from each later router with a valid link to it.
    fn can_be_maximal(&self, pos: usize) -> bool {
        (0..self.order.len())
            .all(|j| self.must_fill[j] == 0 || self.in_degree[j] + self.later[pos][j] >= self.radix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetSmith;
    use netsmith_topo::{cuts, metrics, Layout, LinkClass, LinkSpan};

    fn problem(rows: usize, cols: usize, radix: usize, objective: Objective) -> GenerationProblem {
        GenerationProblem::new(
            Layout::interposer_grid(rows, cols, radix),
            LinkClass::Custom(LinkSpan::new(1, 1)),
            objective,
        )
    }

    /// The smallest `score` over every link set within the radix limits,
    /// maximal or not, with no pruning.  A set is passed as one out-link
    /// bitmask per router.
    fn brute_force(problem: &GenerationProblem, score: &mut dyn FnMut(&[u32]) -> f64) -> f64 {
        fn walk(
            i: usize,
            valid: &[u32],
            radix: usize,
            rows: &mut Vec<u32>,
            in_degree: &mut [usize],
            score: &mut dyn FnMut(&[u32]) -> f64,
        ) -> f64 {
            if i == valid.len() {
                return score(rows);
            }
            let mut best = f64::INFINITY;
            for mask in 0..=valid[i] {
                let targets = || (0..valid.len()).filter(move |&j| mask >> j & 1 == 1);
                if mask & !valid[i] != 0
                    || mask.count_ones() as usize > radix
                    || targets().any(|j| in_degree[j] == radix)
                {
                    continue;
                }
                targets().for_each(|j| in_degree[j] += 1);
                rows.push(mask);
                best = best.min(walk(i + 1, valid, radix, rows, in_degree, score));
                rows.pop();
                targets().for_each(|j| in_degree[j] -= 1);
            }
            best
        }
        let n = problem.num_routers();
        let mut valid = vec![0u32; n];
        for (i, j) in problem.valid_links() {
            valid[i] |= 1 << j;
        }
        let radix = problem.layout.radix();
        walk(0, &valid, radix, &mut Vec::new(), &mut vec![0; n], score)
    }

    /// Total hops of a link set given as out-link bitmasks, infinite when
    /// it is not strongly connected.
    fn total_hops(rows: &[u32]) -> f64 {
        let everyone = (1u32 << rows.len()) - 1;
        let mut total = 0;
        for s in 0..rows.len() {
            let (mut seen, mut frontier, mut hops) = (1u32 << s, 1u32 << s, 0);
            while frontier != 0 {
                hops += 1;
                let reached = (0..rows.len())
                    .filter(|&v| frontier >> v & 1 == 1)
                    .fold(0, |acc, v| acc | rows[v]);
                frontier = reached & !seen;
                seen |= frontier;
                total += hops * frontier.count_ones();
            }
            if seen != everyone {
                return f64::INFINITY;
            }
        }
        f64::from(total)
    }

    #[test]
    fn oracle_matches_brute_force_on_2x2_and_2x3() {
        for (rows, cols, objective) in [
            (2, 2, Objective::LatOp),
            (2, 2, Objective::SCOp),
            (2, 3, Objective::LatOp),
        ] {
            let p = problem(rows, cols, 2, objective.clone());
            let proven = optimum(&p);
            assert_eq!(proven.score, objective.evaluate(&proven.topology).score);
            assert!(
                proven.topology.is_valid(),
                "{:?}",
                proven.topology.validate()
            );
            let brute = if rows * cols == 4 {
                brute_force(&p, &mut |rows| {
                    let mut t = Topology::empty("brute", p.layout.clone(), p.class);
                    for (i, &row) in rows.iter().enumerate() {
                        (0..rows.len())
                            .filter(|&j| row >> j & 1 == 1)
                            .for_each(|j| t.add_link(i, j));
                    }
                    objective.evaluate(&t).score
                })
            } else {
                brute_force(&p, &mut total_hops)
            };
            assert_eq!(
                proven.score,
                brute,
                "{rows}x{cols} {}",
                objective.short_name()
            );
        }
    }

    /// `NetSmith` at the `suite --quick` budget: 1,500 evaluations on each
    /// of 2 workers, at the suite's default seed.
    fn quick_discovery(p: &GenerationProblem) -> Topology {
        NetSmith::new(p.layout.clone(), p.class)
            .objective(p.objective.clone())
            .evaluations(1_500)
            .workers(2)
            .seed(20_240_402)
            .discover()
            .topology
    }

    #[test]
    fn latop_optima_and_the_quick_annealer_gap() {
        // (rows, cols, radix, combinatorial bound, proven optimum, the
        // annealer's total hops).  The bound-to-optimum distance is the
        // bound's slack, the optimum-to-annealer distance the search's.
        // Pinned as measured: a change may close a gap, never widen one.
        for (rows, cols, radix, bound, proven, annealed) in [
            (2, 2, 2, 16, 16, 16),
            (2, 3, 2, 48, 52, 52),
            (2, 3, 3, 42, 44, 44),
            (2, 4, 2, 108, 120, 120),
            (3, 3, 2, 144, 156, 156),
        ] {
            let p = problem(rows, cols, radix, Objective::LatOp);
            let case = format!("{rows}x{cols} radix {radix}");
            assert_eq!(Objective::LatOp.lower_bound(&p), f64::from(bound), "{case}");
            assert_eq!(optimum(&p).score, f64::from(proven), "{case}");
            let topo = quick_discovery(&p);
            assert_eq!(metrics::total_hops(&topo), Some(annealed), "{case}");
        }
    }

    #[test]
    fn scop_optima_and_the_quick_annealer_gap() {
        // SCOp maximizes the normalized sparsest cut, total hops breaking
        // ties.  (rows, cols, cut upper bound, proven optimum's cut and
        // hops, the annealer's), radix 2 throughout; pinned like LatOp's.
        for (rows, cols, bound, proven, annealed) in [
            (2, 2, 2.0 / 3.0, (1.0 / 2.0, 16), (1.0 / 2.0, 16)),
            (2, 3, 2.0 / 5.0, (2.0 / 9.0, 52), (2.0 / 9.0, 52)),
            (2, 4, 2.0 / 7.0, (1.0 / 8.0, 120), (1.0 / 8.0, 120)),
        ] {
            let p = problem(rows, cols, 2, Objective::SCOp);
            let cut_and_hops = |t: &Topology| {
                let cut = cuts::sparsest_cut(t).normalized_bandwidth;
                (cut, metrics::total_hops(t).unwrap())
            };
            let case = format!("{rows}x{cols}");
            assert_eq!(crate::bounds::scop_upper_bound(&p), bound, "{case}");
            let proven_topology = optimum(&p).topology;
            assert_eq!(cut_and_hops(&proven_topology), proven, "{case}");
            assert_eq!(cut_and_hops(&quick_discovery(&p)), annealed, "{case}");
        }
    }
}
