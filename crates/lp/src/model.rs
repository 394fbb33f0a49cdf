//! Declarative MILP model builder.

use crate::expr::LinExpr;

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(usize);

impl VarId {
    /// Index of the variable in the model's column order.
    pub fn index(self) -> usize {
        self.0
    }

    /// Construct from a raw index (used by the expression tests and by
    /// solvers when reporting values).
    pub fn from_index(i: usize) -> Self {
        VarId(i)
    }
}

/// Variable domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    /// Continuous within its bounds.
    Continuous,
    /// Integer within its bounds.
    Integer,
    /// Binary {0, 1}; bounds are clamped to [0, 1].
    Binary,
}

/// Constraint comparison sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Le,
    Ge,
    Eq,
}

/// Objective sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Minimize,
    Maximize,
}

/// A single variable's metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    pub name: String,
    pub vtype: VarType,
    pub lower: f64,
    pub upper: f64,
    pub objective: f64,
}

/// A linear constraint `expr cmp rhs` (the expression's constant is folded
/// into the right-hand side when the model is lowered).
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    pub name: String,
    pub expr: LinExpr,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A mixed-integer linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    sense: Sense,
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
}

impl Model {
    /// New empty model with the given objective sense.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            variables: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Objective sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a variable and return its handle.
    ///
    /// `objective` is the variable's coefficient in the objective function.
    pub fn add_var(
        &mut self,
        vtype: VarType,
        lower: f64,
        upper: f64,
        objective: f64,
        name: impl Into<String>,
    ) -> VarId {
        let (lower, upper) = match vtype {
            VarType::Binary => (lower.max(0.0), upper.min(1.0)),
            _ => (lower, upper),
        };
        assert!(
            lower <= upper,
            "variable lower bound {lower} exceeds upper bound {upper}"
        );
        assert!(
            lower.is_finite(),
            "variables require a finite lower bound (got {lower})"
        );
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name: name.into(),
            vtype,
            lower,
            upper,
            objective,
        });
        id
    }

    /// Convenience: add a binary decision variable.
    pub fn add_binary(&mut self, objective: f64, name: impl Into<String>) -> VarId {
        self.add_var(VarType::Binary, 0.0, 1.0, objective, name)
    }

    /// Convenience: add a non-negative continuous variable.
    pub fn add_continuous(&mut self, objective: f64, name: impl Into<String>) -> VarId {
        self.add_var(VarType::Continuous, 0.0, f64::INFINITY, objective, name)
    }

    /// Convenience: add a non-negative integer variable with an upper bound.
    pub fn add_integer(&mut self, upper: f64, objective: f64, name: impl Into<String>) -> VarId {
        self.add_var(VarType::Integer, 0.0, upper, objective, name)
    }

    /// Add a linear constraint.
    pub fn add_constr(&mut self, expr: LinExpr, cmp: Cmp, rhs: f64) -> usize {
        self.add_named_constr(expr, cmp, rhs, format!("c{}", self.constraints.len()))
    }

    /// Add a named linear constraint.
    pub fn add_named_constr(
        &mut self,
        expr: LinExpr,
        cmp: Cmp,
        rhs: f64,
        name: impl Into<String>,
    ) -> usize {
        let idx = self.constraints.len();
        self.constraints.push(Constraint {
            name: name.into(),
            expr,
            cmp,
            rhs,
        });
        idx
    }

    /// Big-M indicator constraint: when binary `flag == active_value`, then
    /// `expr cmp rhs` must hold.  This mirrors Gurobi's `addGenConstrIndicator`
    /// which the paper uses for the one-hop distance constraint C4.
    ///
    /// For `flag == 1` activation the lowered constraints are
    /// `expr <= rhs + M * (1 - flag)` (for `Le`), and symmetrically for `Ge`;
    /// equalities lower to the conjunction of both.
    pub fn add_indicator(
        &mut self,
        flag: VarId,
        active_value: bool,
        expr: LinExpr,
        cmp: Cmp,
        rhs: f64,
        big_m: f64,
    ) {
        assert!(
            matches!(self.variables[flag.index()].vtype, VarType::Binary),
            "indicator flag must be a binary variable"
        );
        assert!(big_m > 0.0 && big_m.is_finite());
        // slack term that relaxes the constraint when the flag is inactive.
        // active when flag==1: relax = M*(1-flag);  active when flag==0: relax = M*flag.
        let relax_expr = |scale: f64, m: &mut Model| -> LinExpr {
            let mut e = LinExpr::new();
            if active_value {
                // M * (1 - flag)
                e.add_term(flag, -scale * big_m);
                e = e.offset(scale * big_m);
            } else {
                // M * flag
                e.add_term(flag, scale * big_m);
            }
            let _ = m;
            e
        };
        match cmp {
            Cmp::Le => {
                // expr - relax <= rhs
                let mut lowered = expr;
                lowered.add_scaled(&relax_expr(1.0, self), -1.0);
                self.add_constr(lowered, Cmp::Le, rhs);
            }
            Cmp::Ge => {
                let mut lowered = expr;
                lowered.add_scaled(&relax_expr(1.0, self), 1.0);
                self.add_constr(lowered, Cmp::Ge, rhs);
            }
            Cmp::Eq => {
                let mut le = expr.clone();
                le.add_scaled(&relax_expr(1.0, self), -1.0);
                self.add_constr(le, Cmp::Le, rhs);
                let mut ge = expr;
                ge.add_scaled(&relax_expr(1.0, self), 1.0);
                self.add_constr(ge, Cmp::Ge, rhs);
            }
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constrs(&self) -> usize {
        self.constraints.len()
    }

    /// Variable metadata.
    pub fn variable(&self, v: VarId) -> &Variable {
        &self.variables[v.index()]
    }

    /// All variables in column order.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// All constraints in row order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Indices of integer/binary variables.
    pub fn integer_vars(&self) -> Vec<usize> {
        self.variables
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v.vtype, VarType::Integer | VarType::Binary))
            .map(|(i, _)| i)
            .collect()
    }

    /// Objective value of an assignment (ignoring feasibility).
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.variables
            .iter()
            .zip(values)
            .map(|(v, x)| v.objective * x)
            .sum()
    }

    /// Check whether an assignment satisfies all constraints and bounds to
    /// within `tol`.  Used by tests and by the combinatorial engines to
    /// validate candidate solutions against the formulation.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.variables.len() {
            return false;
        }
        for (var, &x) in self.variables.iter().zip(values) {
            if x < var.lower - tol || x > var.upper + tol {
                return false;
            }
            if matches!(var.vtype, VarType::Integer | VarType::Binary)
                && (x - x.round()).abs() > tol
            {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs = c.expr.eval(values);
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_bookkeeping() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary(1.0, "x");
        let y = m.add_continuous(2.0, "y");
        let z = m.add_integer(10.0, 0.0, "z");
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.variable(x).vtype, VarType::Binary);
        assert_eq!(m.variable(y).lower, 0.0);
        assert_eq!(m.variable(z).upper, 10.0);
        assert_eq!(m.integer_vars(), vec![0, 2]);
    }

    #[test]
    fn binary_bounds_are_clamped() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(VarType::Binary, -5.0, 7.0, 0.0, "x");
        assert_eq!(m.variable(x).lower, 0.0);
        assert_eq!(m.variable(x).upper, 1.0);
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var(VarType::Continuous, 2.0, 1.0, 0.0, "bad");
    }

    #[test]
    fn feasibility_checks_bounds_constraints_and_integrality() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer(5.0, 1.0, "x");
        let y = m.add_continuous(1.0, "y");
        m.add_constr(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 4.0);
        assert!(m.is_feasible(&[2.0, 1.5], 1e-9));
        assert!(!m.is_feasible(&[2.5, 1.0], 1e-9)); // fractional integer
        assert!(!m.is_feasible(&[6.0, 0.0], 1e-9)); // bound violation
        assert!(!m.is_feasible(&[3.0, 2.0], 1e-9)); // constraint violation
        assert!(!m.is_feasible(&[3.0], 1e-9)); // wrong arity
    }

    #[test]
    fn objective_value_is_linear() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(3.0, "x");
        let y = m.add_continuous(-1.0, "y");
        let _ = (x, y);
        assert_eq!(m.objective_value(&[2.0, 4.0]), 2.0);
    }

    #[test]
    fn indicator_le_is_relaxed_when_flag_inactive() {
        // flag == 1  =>  x <= 2
        let mut m = Model::new(Sense::Minimize);
        let flag = m.add_binary(0.0, "flag");
        let x = m.add_continuous(0.0, "x");
        m.add_indicator(flag, true, LinExpr::var(x), Cmp::Le, 2.0, 100.0);
        // With the flag off, x = 50 must be feasible.
        assert!(m.is_feasible(&[0.0, 50.0], 1e-9));
        // With the flag on, x = 50 must be infeasible and x = 1 feasible.
        assert!(!m.is_feasible(&[1.0, 50.0], 1e-9));
        assert!(m.is_feasible(&[1.0, 1.0], 1e-9));
    }

    #[test]
    fn indicator_eq_forces_equality_only_when_active() {
        // flag == 0  =>  x == 3
        let mut m = Model::new(Sense::Minimize);
        let flag = m.add_binary(0.0, "flag");
        let x = m.add_var(VarType::Continuous, 0.0, 10.0, 0.0, "x");
        m.add_indicator(flag, false, LinExpr::var(x), Cmp::Eq, 3.0, 50.0);
        assert!(m.is_feasible(&[0.0, 3.0], 1e-9));
        assert!(!m.is_feasible(&[0.0, 4.0], 1e-9));
        assert!(m.is_feasible(&[1.0, 9.0], 1e-9));
    }

    #[test]
    fn constraint_naming_and_counts() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(1.0, "x");
        m.add_named_constr(LinExpr::var(x), Cmp::Ge, 1.0, "lb");
        assert_eq!(m.num_constrs(), 1);
        assert_eq!(m.constraints()[0].name, "lb");
    }
}
