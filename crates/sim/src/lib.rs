//! # netsmith-sim
//!
//! A cycle-driven network-on-interposer simulator used to evaluate
//! topologies and routing schemes the way the paper evaluates them with
//! gem5/HeteroGarnet (Garnet standalone synthetic traffic): average packet
//! latency as the injection rate sweeps up to and past saturation.
//!
//! ## Fidelity and substitutions
//!
//! The paper simulates flit-level wormhole routers.  This crate models the
//! network at packet granularity with **virtual cut-through** switching:
//!
//! * every directed link carries one flit per cycle, so a packet of `F`
//!   flits occupies a link for `F` cycles (serialization latency is
//!   modelled exactly);
//! * routers have per-virtual-channel input buffers with finite capacity
//!   and credit-style backpressure (a packet only advances when the
//!   downstream VC has room for all of its flits);
//! * each packet travels on the virtual channel its flow was assigned by
//!   the VC allocation of `netsmith-route`, so each VC's channel
//!   dependency graph is acyclic, like the escape-VC discipline the paper
//!   uses;
//! * per-output-port arbitration is oldest-first (approximating the
//!   iterative separable allocators of Garnet).  That is **not** yet
//!   deadlock-free: an output link shared by several VCs idles behind its
//!   oldest packet when that packet's VC has no room downstream, so one
//!   VC waits on another through the link.  Until the arbiter lets a
//!   packet with credits pass a blocked older one (an open item in
//!   `ROADMAP.md`), points past saturation can read near-zero throughput.
//!
//! Virtual cut-through reaches slightly *higher* saturation than an
//! input-queued wormhole router (the paper itself notes the gap between
//! analytical expectation and the measured input-queued throughput, citing
//! Karol et al.); since every topology/routing pair is simulated with the
//! same switching model, the comparisons the paper makes — who saturates
//! first, by roughly what factor — are preserved.

pub mod activity;
pub mod compile;
pub mod config;
pub mod inject;
pub mod network;
pub mod stats;
pub mod sweep;

pub use activity::{ActivityProfile, LinkActivity};
pub use compile::CompiledNetwork;
pub use config::{PacketClass, SimConfig};
pub use inject::{InjectionEvent, InjectionSchedule};
pub use netsmith_trace::Trace;
pub use network::{
    point_seed, splitmix64, EpochSample, EpochSeries, NetworkSim, NetworkSimBuilder, SimReport,
};
pub use stats::LatencyStats;
pub use sweep::{LatencyCurve, Sweep, SweepOptions, SweepPoint};
