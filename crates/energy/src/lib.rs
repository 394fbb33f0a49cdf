//! # netsmith-energy
//!
//! The energy subsystem: turns power from a post-hoc formula into a
//! first-class, simulation-driven quantity.
//!
//! The paper's Figure 9 feeds a DSENT-style model one hand-picked activity
//! scalar, which cannot answer the questions an energy-proportional
//! interconnect study asks: how much energy does a topology burn under a
//! *real* workload, and what do we save by putting idle links to sleep?
//! This crate closes the loop in three layers:
//!
//! 1. **Measurement** — `netsmith-sim` records an
//!    [`ActivityProfile`](netsmith_sim::ActivityProfile): per-directed-link
//!    flit counts and busy cycles over the measurement window.
//! 2. **Management** — the [`EnergyPolicy`] trait maps that profile to an
//!    [`EnergyReport`] (static / dynamic / gated-savings mW, energy per
//!    delivered flit, energy-delay product).  [`AlwaysOn`] is the baseline;
//!    [`LinkSleep`] power-gates under-utilized links after proving the
//!    gated sub-topology still routes deadlock-free through the standard
//!    MCLB + escape-VC machinery; [`Dvfs`] scales clock and voltage to the
//!    measured load.
//! 3. **Optimization** — `netsmith-gen`'s `Objective::EnergyOp` lets the
//!    annealer search for energy-optimal topologies directly, and
//!    `netsmith::pipeline::EvaluatedNetwork::energy_report` plus the
//!    `fig12_energy` harness sweep policies across topologies and traffic
//!    patterns.

pub mod policy;
pub mod report;

pub use policy::{
    standard_policies, AlwaysOn, Dvfs, DvfsLevel, EnergyContext, EnergyPolicy, GateMemo,
    GatedNetwork, LinkSleep,
};
pub use report::{EnergyConfig, EnergyReport};
