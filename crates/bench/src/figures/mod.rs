//! Figure definitions: one module per figure or table, each exposing
//! `figure(&RunProfile) -> Figure` — the declarative experiment spec plus
//! the figure's measurement code and assertions.
//!
//! The modules keep the CSV schemas of the original hand-rolled binaries
//! column-for-column (guarded by a golden-header test), so captured
//! results remain comparable across the port.

use netsmith_exp::cli::FigureEntry;
use netsmith_exp::RunProfile;
use netsmith_topo::LinkClass;

pub mod ablation_symmetry;
pub mod fig01_scatter;
pub mod fig04_topology;
pub mod fig05_solver_progress;
pub mod fig06_synthetic;
pub mod fig07_routing_isolation;
pub mod fig08_parsec;
pub mod fig09_power_area;
pub mod fig10_shuffle;
pub mod fig11_scale48;
pub mod fig12_energy;
pub mod fig13_resilience;
pub mod fig14_pareto;
pub mod fig15_trace;
pub mod fig16_serving;
pub mod table02_metrics;

/// Every registered figure, in run order.
pub const ALL: &[FigureEntry] = &[
    ("fig01_scatter", fig01_scatter::figure),
    ("fig04_topology", fig04_topology::figure),
    ("fig05_solver_progress", fig05_solver_progress::figure),
    ("fig06_synthetic", fig06_synthetic::figure),
    ("fig07_routing_isolation", fig07_routing_isolation::figure),
    ("fig08_parsec", fig08_parsec::figure),
    ("fig09_power_area", fig09_power_area::figure),
    ("fig10_shuffle", fig10_shuffle::figure),
    ("fig11_scale48", fig11_scale48::figure),
    ("fig12_energy", fig12_energy::figure),
    ("fig13_resilience", fig13_resilience::figure),
    ("fig14_pareto", fig14_pareto::figure),
    ("fig15_trace", fig15_trace::figure),
    ("fig16_serving", fig16_serving::figure),
    ("table02_metrics", table02_metrics::figure),
    ("ablation_symmetry", ablation_symmetry::figure),
];

/// The classes a profile sweeps: the full standard trio, or medium only
/// under `--quick` (the CI smoke restriction every legacy `--quick` flag
/// applied).
pub fn classes(profile: &RunProfile) -> Vec<LinkClass> {
    if profile.quick {
        vec![LinkClass::Medium]
    } else {
        LinkClass::STANDARD.to_vec()
    }
}

/// The sweep load grid: the full default grid, or a three-point smoke grid
/// under `--quick`.
pub fn sweep_loads(profile: &RunProfile) -> Vec<f64> {
    if profile.quick {
        vec![0.05, 0.2, 0.35]
    } else {
        netsmith_sim::sweep::default_load_grid()
    }
}
