//! # netsmith-power
//!
//! A first-order area/power model for NoI topologies, standing in for the
//! DSENT analysis of the paper's Figure 9 (22 nm bulk LVT).
//!
//! The model reproduces the structure DSENT reports for these networks:
//!
//! * **Leakage** is dominated by the routers and is essentially the same
//!   across topologies because every design uses the same number of routers
//!   at the same radix; wire leakage adds a small length-proportional term.
//! * **Dynamic power** scales with activity (flits traversed per cycle) and
//!   with the wire length each traversal drives, times the NoI clock and
//!   the per-millimetre wire capacitance.
//! * **Area** splits into router area (identical across topologies) and
//!   wire area (proportional to total link length), with wires dominating.
//!
//! All figures are reported normalized to the mesh baseline, exactly like
//! the paper's Figure 9.

pub mod model;

pub use model::{
    area_report, power_report_from_activity, relative_to, static_power_mw, AreaReport, PowerConfig,
    PowerReport,
};
