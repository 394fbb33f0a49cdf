//! # netsmith-system
//!
//! A trace-free full-system model that stands in for the paper's gem5
//! full-system PARSEC simulations (64 out-of-order cores, MESI two-level
//! coherence, 16 DDR4 channels — Table IV).
//!
//! ## What is preserved, what is substituted
//!
//! The paper's full-system experiments exist to show one mechanism: lower
//! NoI packet latency speeds up coherence and memory transactions, and the
//! more network-bound a benchmark is (more L2 misses per instruction), the
//! more of that improvement shows up as end-to-end speedup.  This crate
//! keeps that mechanism and replaces the unrelated machinery:
//!
//! * Each PARSEC benchmark is represented by a [`WorkloadProfile`]:
//!   L2 misses per kilo-instruction, the split between cache-to-cache
//!   (coherence) and memory-directed traffic, and a base CPI.  The values
//!   are synthetic but ordered to match the published PARSEC
//!   characterisations the paper's Figure 8 is sorted by (blackscholes and
//!   swaptions are compute-bound, canneal and streamcluster are the most
//!   network-bound).
//! * The NoI itself is simulated with `netsmith-sim` at the injection rate
//!   the profile implies, using the same mixed control/data packet sizes as
//!   the paper's synthetic coherence/memory traffic.
//! * Execution time follows a standard miss-overlap model:
//!   `CPI = CPI_base + miss_per_instr * miss_penalty * (1 - overlap)`,
//!   where the miss penalty includes the directory/DRAM latency plus two
//!   NoI traversals (request + response) and the NoC/CDC crossings at the
//!   paper's Table IV latencies.  Speedups are reported relative to the
//!   mesh baseline exactly like Figure 8.

pub mod model;
pub mod workload;

pub use model::{evaluate_topology, FullSystemConfig, FullSystemResult};
pub use workload::{parsec_suite, WorkloadProfile};
