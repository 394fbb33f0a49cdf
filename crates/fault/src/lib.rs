//! # netsmith-fault
//!
//! The resilience subsystem: permanent-fault injection, deadlock-free
//! repair, and robustness reporting for machine-discovered NoI topologies.
//!
//! The paper's deployment target — interposer fabrics under heavy
//! sustained traffic — makes component failure the common case over a
//! part's lifetime, and keeping a degraded fabric serving (rather than
//! over-provisioning a spare one) is exactly the kind of efficiency the
//! green-datacenter literature asks of the interconnect.  This crate
//! closes that loop in three layers, mirroring the energy subsystem's
//! structure:
//!
//! 1. **Injection** — a [`FaultModel`] produces [`FaultScenario`]s
//!    (permanent link failures, permanent router failures, and seeded
//!    multi-fault combinations); applying one yields a
//!    [`DegradedTopology`], and `netsmith-sim` runs workloads on it with
//!    the failed routers masked out of traffic generation
//!    (`NetworkSimBuilder::failed_routers`).
//! 2. **Repair** — the [`RepairPolicy`] trait restores service;
//!    [`RerouteRepair`] recomputes shortest paths, MCLB routing and
//!    escape virtual channels on the surviving sub-topology and verifies
//!    deadlock freedom, the same machinery that validates power-gated
//!    sub-topologies in `netsmith-energy`.  [`assess_resilience`] sweeps
//!    a scenario set into a [`ResilienceReport`]: routability coverage,
//!    worst-case/mean degraded saturation throughput, latency inflation,
//!    and unreachable-pair counts.
//! 3. **Synthesis** — `netsmith-gen`'s `Objective::FaultOp` penalizes
//!    articulation links and rewards spare min-cut capacity so the
//!    annealer discovers fabrics (`NS-FaultOp-*`) that keep 100%
//!    single-link routability by construction; the `fig13_resilience`
//!    harness compares them against the expert and latency-only line-ups
//!    across fault counts and traffic patterns.

pub mod inject;
pub mod repair;
pub mod report;

pub use inject::{
    single_link_scenarios, single_router_scenarios, DegradedTopology, Fault, FaultModel,
    FaultScenario,
};
pub use repair::{RepairConfig, RepairPolicy, RepairedNetwork, RerouteRepair};
pub use report::{assess_resilience, ResilienceConfig, ResilienceReport, ScenarioOutcome};
