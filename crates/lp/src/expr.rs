//! Linear expressions over model variables.

use crate::model::VarId;
use std::collections::BTreeMap;

/// A linear expression `sum_i coeff_i * x_i + constant`.
///
/// Coefficients for the same variable accumulate, so expressions can be
/// built incrementally while lowering a formulation (e.g. summing a row of
/// the connectivity matrix for the radix constraint C2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinExpr {
    terms: BTreeMap<usize, f64>,
    constant: f64,
}

impl LinExpr {
    /// Empty expression (== 0).
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// Expression consisting of a single variable with coefficient 1.
    pub fn var(v: VarId) -> Self {
        LinExpr::new().term(v, 1.0)
    }

    /// Constant expression.
    pub fn constant(c: f64) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// Add `coeff * v` (builder style).
    pub fn term(mut self, v: VarId, coeff: f64) -> Self {
        self.add_term(v, coeff);
        self
    }

    /// Add `coeff * v` in place.
    pub fn add_term(&mut self, v: VarId, coeff: f64) {
        if coeff == 0.0 {
            return;
        }
        let entry = self.terms.entry(v.index()).or_insert(0.0);
        *entry += coeff;
        if entry.abs() < 1e-15 {
            self.terms.remove(&v.index());
        }
    }

    /// Add a constant offset (builder style).
    pub fn offset(mut self, c: f64) -> Self {
        self.constant += c;
        self
    }

    /// Add another expression scaled by `scale`.
    pub fn add_scaled(&mut self, other: &LinExpr, scale: f64) {
        for (&idx, &coeff) in &other.terms {
            let entry = self.terms.entry(idx).or_insert(0.0);
            *entry += coeff * scale;
            if entry.abs() < 1e-15 {
                self.terms.remove(&idx);
            }
        }
        self.constant += other.constant * scale;
    }

    /// Constant part of the expression.
    pub fn constant_part(&self) -> f64 {
        self.constant
    }

    /// Iterate over `(variable index, coefficient)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.terms.iter().map(|(&i, &c)| (i, c))
    }

    /// Number of variables with non-zero coefficients.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Coefficient of a variable (0 when absent).
    pub fn coeff(&self, v: VarId) -> f64 {
        self.terms.get(&v.index()).copied().unwrap_or(0.0)
    }

    /// Evaluate the expression for a full assignment of variable values.
    pub fn eval(&self, values: &[f64]) -> f64 {
        let mut total = self.constant;
        for (&idx, &coeff) in &self.terms {
            total += coeff * values[idx];
        }
        total
    }

    /// Build an expression from `(variable, coefficient)` pairs.
    pub fn from_terms(pairs: impl IntoIterator<Item = (VarId, f64)>) -> Self {
        let mut e = LinExpr::new();
        for (v, c) in pairs {
            e.add_term(v, c);
        }
        e
    }

    /// Sum of a set of variables with unit coefficients.
    pub fn sum(vars: impl IntoIterator<Item = VarId>) -> Self {
        Self::from_terms(vars.into_iter().map(|v| (v, 1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VarId;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn terms_accumulate_and_cancel() {
        let mut e = LinExpr::new();
        e.add_term(v(0), 2.0);
        e.add_term(v(0), 3.0);
        assert_eq!(e.coeff(v(0)), 5.0);
        e.add_term(v(0), -5.0);
        assert_eq!(e.coeff(v(0)), 0.0);
        assert_eq!(e.num_terms(), 0);
    }

    #[test]
    fn eval_includes_constant() {
        let e = LinExpr::new().term(v(0), 2.0).term(v(2), -1.0).offset(4.0);
        let values = [1.0, 99.0, 3.0];
        assert_eq!(e.eval(&values), 2.0 - 3.0 + 4.0);
    }

    #[test]
    fn add_scaled_merges_expressions() {
        let a = LinExpr::new().term(v(0), 1.0).offset(1.0);
        let mut b = LinExpr::new().term(v(0), 1.0).term(v(1), 2.0);
        b.add_scaled(&a, -1.0);
        assert_eq!(b.coeff(v(0)), 0.0);
        assert_eq!(b.coeff(v(1)), 2.0);
        assert_eq!(b.constant_part(), -1.0);
    }

    #[test]
    fn sum_builds_unit_coefficients() {
        let e = LinExpr::sum([v(1), v(3), v(5)]);
        assert_eq!(e.num_terms(), 3);
        assert_eq!(e.coeff(v(3)), 1.0);
        assert_eq!(e.coeff(v(0)), 0.0);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let e = LinExpr::new().term(v(0), 0.0);
        assert_eq!(e.num_terms(), 0);
    }
}
