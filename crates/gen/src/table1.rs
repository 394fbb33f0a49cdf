//! The paper's Table I as an executable specification.
//!
//! The builders lower a [`GenerationProblem`] to the MIP the paper solves
//! with Gurobi.  The model is never solved here: it is evaluated.  Plugging
//! a topology's links, true distances and selector choices into it checks
//! the formulation against topologies whose scores are known, and against
//! the optimum the exhaustive oracle proves.
//!
//! Variables (naming follows the paper):
//!
//! * `M(i,j)` — binary connectivity map over the valid-link set `L`
//!   (constraint C3 is enforced by simply not creating variables for
//!   disallowed links).
//! * `O(i,j)` — one-hop distances.  These are not materialised as separate
//!   variables: `O(i,j) = 1*M(i,j) + INF*(1 - M(i,j))` is substituted as a
//!   linear expression (constraint C4), with `INF` a big-M constant.
//! * `D(i,j)` — integer shortest-path distances, constrained through the
//!   triangle-inequality recursion C5.  The `min` over intermediate routers
//!   is modelled with one-hot selector binaries `z(i,j,k)`: the selected
//!   `k` activates `D(i,j) >= D(i,k) + O(k,j)`, and the minimisation
//!   objective drives `D(i,j)` down onto the selected bound, so at the
//!   optimum `D` equals the true shortest-path distance.
//! * `B` — the sparsest-cut bandwidth (SCOp model only), constrained by an
//!   exhaustive enumeration of bipartitions exactly as constraint C6
//!   prescribes.
//!
//! Table I's two optional constraints are not part of a
//! [`GenerationProblem`]: the LatOp builder takes C8's diameter bound as an
//! argument, and C7's floor on `B` is left out.

use crate::problem::GenerationProblem;
use netsmith_topo::metrics::{all_pairs_hops, UNREACHABLE};
use netsmith_topo::{RouterId, Topology};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Handle to a model variable: its column index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct VarId(usize);

/// A linear expression `sum_i coeff_i * x_i + constant`.  Coefficients of
/// the same variable accumulate.
#[derive(Debug, Clone, Default)]
struct LinExpr {
    terms: BTreeMap<usize, f64>,
    constant: f64,
}

impl LinExpr {
    fn var(v: VarId) -> Self {
        LinExpr::default().term(v, 1.0)
    }

    fn constant(c: f64) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    fn term(mut self, v: VarId, coeff: f64) -> Self {
        self.add_term(v, coeff);
        self
    }

    fn add_term(&mut self, v: VarId, coeff: f64) {
        *self.terms.entry(v.0).or_insert(0.0) += coeff;
    }

    fn offset(mut self, c: f64) -> Self {
        self.constant += c;
        self
    }

    fn add_scaled(&mut self, other: &LinExpr, scale: f64) {
        for (&idx, &coeff) in &other.terms {
            *self.terms.entry(idx).or_insert(0.0) += coeff * scale;
        }
        self.constant += other.constant * scale;
    }

    fn sum<'a>(vars: impl IntoIterator<Item = &'a VarId>) -> Self {
        vars.into_iter()
            .fold(LinExpr::default(), |e, &v| e.term(v, 1.0))
    }

    fn eval(&self, values: &[f64]) -> f64 {
        self.terms
            .iter()
            .fold(self.constant, |total, (&idx, &coeff)| {
                total + coeff * values[idx]
            })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Cmp {
    Le,
    Ge,
    Eq,
}

/// A variable's domain and objective coefficient.
#[derive(Debug, Clone)]
struct Variable {
    integer: bool,
    lower: f64,
    upper: f64,
    objective: f64,
}

/// A mixed-integer linear program, kept for evaluation only.
#[derive(Debug, Clone, Default)]
struct Model {
    variables: Vec<Variable>,
    constraints: Vec<(LinExpr, Cmp, f64)>,
}

impl Model {
    fn add_var(&mut self, integer: bool, lower: f64, upper: f64, objective: f64) -> VarId {
        self.variables.push(Variable {
            integer,
            lower,
            upper,
            objective,
        });
        VarId(self.variables.len() - 1)
    }

    fn add_binary(&mut self) -> VarId {
        self.add_var(true, 0.0, 1.0, 0.0)
    }

    fn add_constr(&mut self, expr: LinExpr, cmp: Cmp, rhs: f64) {
        self.constraints.push((expr, cmp, rhs));
    }

    /// At most `radix` out-links and in-links per router (constraint C2).
    fn add_radix_limits(&mut self, radix: f64, links: &HashMap<(RouterId, RouterId), VarId>) {
        let mut rows: BTreeMap<_, Vec<VarId>> = BTreeMap::new();
        for (&(i, j), &v) in links {
            rows.entry(("out", i)).or_default().push(v);
            rows.entry(("in", j)).or_default().push(v);
        }
        for vars in rows.values() {
            self.add_constr(LinExpr::sum(vars), Cmp::Le, radix);
        }
    }

    fn objective_value(&self, values: &[f64]) -> f64 {
        self.variables
            .iter()
            .zip(values)
            .map(|(v, x)| v.objective * x)
            .sum()
    }

    /// Whether an assignment satisfies every bound, integrality
    /// requirement and constraint to within `tol`.
    fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        values.len() == self.variables.len()
            && self.variables.iter().zip(values).all(|(var, &x)| {
                x >= var.lower - tol
                    && x <= var.upper + tol
                    && (!var.integer || (x - x.round()).abs() <= tol)
            })
            && self.constraints.iter().all(|(expr, cmp, rhs)| {
                let lhs = expr.eval(values);
                match cmp {
                    Cmp::Le => lhs <= rhs + tol,
                    Cmp::Ge => lhs >= rhs - tol,
                    Cmp::Eq => (lhs - rhs).abs() <= tol,
                }
            })
    }
}

/// Big-M used for the "infinite" one-hop distance of unconnected pairs.
fn big_m(n: usize) -> f64 {
    (4 * n) as f64
}

/// The LatOp model and the handles into it that map a topology onto an
/// assignment.
struct LatOpModel {
    model: Model,
    /// `M(i,j)` variables, keyed by directed link.
    link_vars: HashMap<(RouterId, RouterId), VarId>,
    /// `D(i,j)` variables, keyed by ordered pair.
    dist_vars: HashMap<(RouterId, RouterId), VarId>,
    /// `z(i,j,k)` selector variables.
    selector_vars: HashMap<(RouterId, RouterId, RouterId), VarId>,
}

/// Build the LatOp MIP: minimize `Σ D(i,j)` (objective O1) under
/// constraints C1–C5, plus C8 when `max_diameter` bounds the distances and
/// C9 when the problem asks for symmetric links.
fn build_latop_model(problem: &GenerationProblem, max_diameter: Option<u32>) -> LatOpModel {
    let n = problem.num_routers();
    let inf = big_m(n);
    let valid = problem.valid_links();
    let valid_set: HashSet<_> = valid.iter().copied().collect();

    let mut model = Model::default();
    // M(i,j) for valid links (C3 by construction; C1 because i==j never valid).
    let link_vars: HashMap<_, _> = valid.iter().map(|&l| (l, model.add_binary())).collect();
    // C9: symmetric links.
    if problem.symmetric_links {
        for &(i, j) in &valid {
            if i < j && valid_set.contains(&(j, i)) {
                let e = LinExpr::var(link_vars[&(i, j)]).term(link_vars[&(j, i)], -1.0);
                model.add_constr(e, Cmp::Eq, 0.0);
            }
        }
    }
    model.add_radix_limits(problem.layout.radix() as f64, &link_vars);

    // D(i,j): integer distances, objective coefficient 1 (O1); C8 bounds them.
    let dist_upper = max_diameter.map_or(inf, f64::from);
    let mut dist_vars = HashMap::new();
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            dist_vars.insert((i, j), model.add_var(true, 1.0, dist_upper, 1.0));
        }
    }

    // The one-hop expression O(k,j) (C4): 1*M + inf*(1-M).
    let one_hop_expr = |k: usize, j: usize| match link_vars.get(&(k, j)) {
        Some(&m) => LinExpr::constant(inf).term(m, -(inf - 1.0)),
        None => LinExpr::constant(inf),
    };

    // C5: D(i,j) = min_k (D(i,k) + O(k,j)), modelled with one-hot selectors.
    let mut selector_vars = HashMap::new();
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            let mut selectors = Vec::new();
            // The paper excludes k == j (self-referencing).
            for k in (0..n).filter(|&k| k != j) {
                let z = model.add_binary();
                selector_vars.insert((i, j, k), z);
                selectors.push(z);
                // D(i,j) >= (D(i,k) if k != i else 0) + O(k,j) - relax*(1 - z),
                // where relax bounds every distance and O, so the
                // constraint is slack while z is off.
                let relax = 3.0 * inf;
                let mut rhs = one_hop_expr(k, j).term(z, relax).offset(-relax);
                if k != i {
                    rhs.add_term(dist_vars[&(i, k)], 1.0);
                }
                let mut c = LinExpr::var(dist_vars[&(i, j)]);
                c.add_scaled(&rhs, -1.0);
                model.add_constr(c, Cmp::Ge, 0.0);
            }
            model.add_constr(LinExpr::sum(&selectors), Cmp::Eq, 1.0);
        }
    }

    LatOpModel {
        model,
        link_vars,
        dist_vars,
        selector_vars,
    }
}

/// The full assignment of an existing topology to the LatOp model: links,
/// true distances, and for each pair the predecessor of `j` on a shortest
/// `i -> j` path as the selector.  `None` when the topology is not
/// strongly connected.
fn latop_assignment_for_topology(built: &LatOpModel, topo: &Topology) -> Option<Vec<f64>> {
    let n = topo.num_routers();
    let dist = all_pairs_hops(topo);
    if dist.contains(&UNREACHABLE) {
        return None;
    }
    let mut values = vec![0.0; built.model.variables.len()];
    for (&(i, j), &v) in &built.link_vars {
        values[v.0] = f64::from(u8::from(topo.has_link(i, j)));
    }
    for (&(i, j), &v) in &built.dist_vars {
        let d = dist[i * n + j];
        values[v.0] = f64::from(d);
        let k = if d == 1 {
            i
        } else {
            (0..n).find(|&k| k != i && k != j && topo.has_link(k, j) && dist[i * n + k] + 1 == d)?
        };
        values[built.selector_vars[&(i, j, k)].0] = 1.0;
    }
    Some(values)
}

/// The SCOp model and the handles into it.
struct ScOpModel {
    model: Model,
    link_vars: HashMap<(RouterId, RouterId), VarId>,
    bandwidth_var: VarId,
}

/// Build the SCOp MIP: maximize the sparsest-cut bandwidth `B` (objective
/// O2) under constraints C1–C3 and C6.  C6 enumerates every bipartition, so
/// this is limited to small router counts.
fn build_scop_model(problem: &GenerationProblem) -> ScOpModel {
    let n = problem.num_routers();
    assert!(n <= 16, "SCOp model enumeration limited to 16 routers");
    let radix = problem.layout.radix() as f64;
    let valid = problem.valid_links();

    let mut model = Model::default();
    let bandwidth_var = model.add_var(false, 0.0, radix * n as f64, 1.0);
    let link_vars: HashMap<_, _> = valid.iter().map(|&l| (l, model.add_binary())).collect();
    model.add_radix_limits(radix, &link_vars);
    // C6: for every bipartition (router 0 pinned to U), both directions
    // must carry at least B * |U| * |V| links in aggregate.
    for mask in 0u32..(1 << (n - 1)) {
        let in_u = |r: usize| r == 0 || mask >> (r - 1) & 1 == 1;
        let size_u = (0..n).filter(|&r| in_u(r)).count();
        if size_u == n {
            continue;
        }
        let scale = (size_u * (n - size_u)) as f64;
        let mut fwd = LinExpr::default().term(bandwidth_var, -scale);
        let mut bwd = fwd.clone();
        for &(i, j) in &valid {
            if in_u(i) && !in_u(j) {
                fwd.add_term(link_vars[&(i, j)], 1.0);
            }
            if !in_u(i) && in_u(j) {
                bwd.add_term(link_vars[&(i, j)], 1.0);
            }
        }
        model.add_constr(fwd, Cmp::Ge, 0.0);
        model.add_constr(bwd, Cmp::Ge, 0.0);
    }
    ScOpModel {
        model,
        link_vars,
        bandwidth_var,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::Objective;
    use netsmith_topo::{cuts, expert, metrics, Layout, LinkClass, LinkSpan};

    /// Check that `topo`'s assignment is feasible in the LatOp model and
    /// scores its total hop count.
    fn assert_latop_model_scores(problem: &GenerationProblem, topo: &Topology) {
        let built = build_latop_model(problem, None);
        let assignment = latop_assignment_for_topology(&built, topo)
            .expect("connected topology has a full assignment");
        assert!(
            built.model.is_feasible(&assignment, 1e-6),
            "{} assignment must satisfy Table I constraints",
            topo.name()
        );
        let expected = metrics::total_hops(topo).unwrap() as f64;
        assert_eq!(
            built.model.objective_value(&assignment),
            expected,
            "{}",
            topo.name()
        );
    }

    fn tiny_problem(objective: Objective) -> GenerationProblem {
        GenerationProblem::new(
            Layout::interposer_grid(2, 2, 2),
            LinkClass::Custom(LinkSpan::new(1, 1)),
            objective,
        )
    }

    #[test]
    fn expert_topology_assignment_is_feasible_and_matches_total_hops() {
        // Validate the Table I lowering by plugging the mesh (and the kite)
        // into the LatOp model.
        let layout = Layout::noi_4x5();
        let problem = GenerationProblem::new(layout.clone(), LinkClass::Small, Objective::LatOp);
        for topo in [expert::mesh(&layout), expert::kite_small(&layout)] {
            assert_latop_model_scores(&problem, &topo);
        }
    }

    #[test]
    fn radix_violation_is_infeasible_in_the_model() {
        let layout = Layout::noi_4x5();
        let problem = GenerationProblem::new(layout.clone(), LinkClass::Small, Objective::LatOp);
        let built = build_latop_model(&problem, None);
        // Mesh already gives interior router 6 four links; a fifth
        // (diagonal) link exceeds radix 4.
        let mut topo = expert::mesh(&layout);
        topo.add_link(6, 0);
        let assignment = latop_assignment_for_topology(&built, &topo).unwrap();
        assert!(!built.model.is_feasible(&assignment, 1e-6));
    }

    #[test]
    fn the_proven_2x2_latop_optimum_is_feasible_and_scores_16() {
        let problem = tiny_problem(Objective::LatOp);
        let proven = oracle::optimum(&problem);
        assert_eq!(proven.score, 16.0);
        assert_latop_model_scores(&problem, &proven.topology);
        // C8: a diameter bound of 2 admits the optimum, 1 does not.
        let built = build_latop_model(&problem, Some(1));
        let assignment = latop_assignment_for_topology(&built, &proven.topology).unwrap();
        assert!(!built.model.is_feasible(&assignment, 1e-6));
        let built = build_latop_model(&problem, Some(2));
        let assignment = latop_assignment_for_topology(&built, &proven.topology).unwrap();
        assert!(built.model.is_feasible(&assignment, 1e-6));
    }

    #[test]
    fn the_proven_2x2_scop_optimum_meets_the_cut_constraints_exactly() {
        let problem = tiny_problem(Objective::SCOp);
        let proven = oracle::optimum(&problem);
        let cut = cuts::sparsest_cut(&proven.topology).normalized_bandwidth;
        assert!(cut > 0.0);
        let built = build_scop_model(&problem);
        let assignment = |b: f64| {
            let mut values = vec![0.0; built.model.variables.len()];
            for (&(i, j), &v) in &built.link_vars {
                values[v.0] = f64::from(u8::from(proven.topology.has_link(i, j)));
            }
            values[built.bandwidth_var.0] = b;
            values
        };
        // B equal to the topology's sparsest cut is feasible and is the
        // objective; any larger B violates a C6 bipartition constraint.
        assert!(built.model.is_feasible(&assignment(cut), 1e-9));
        assert_eq!(built.model.objective_value(&assignment(cut)), cut);
        assert!(!built.model.is_feasible(&assignment(cut + 1e-3), 1e-9));
    }
}
