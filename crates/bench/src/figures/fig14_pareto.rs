//! Figure 14 (beyond the paper): Pareto synthesis over latency × energy ×
//! resilience.
//!
//! The composable objective framework makes multi-criteria synthesis a
//! first-class workload: any non-negative weighting of objective terms is
//! itself an objective.  This harness sweeps a grid of weight vectors
//! `(w_lat, w_energy, w_fault)` over the three single-objective axes,
//! synthesizes one topology per weight point, scores every discovered
//! topology on all three axes, and prints the resulting trade-off surface
//! as CSV with a non-dominated (Pareto front) flag per row.
//!
//! Mixed weight points normalize each axis by the mesh baseline's score so
//! a unit of weight means roughly "one mesh" on every axis; pure corner
//! points use the axis objective's own decomposition verbatim — which
//! makes the corner discoveries *cache hits* against the single-objective
//! candidates (same decomposition, seed and budget ⇒ same cache key), the
//! property the check verifies bit-for-bit.

use netsmith::gen::Objective;
use netsmith::prelude::expert;
use netsmith_exp::prelude::*;
use netsmith_topo::{Layout, TopoAnalysis};
use std::sync::{Arc, Mutex};

pub const HEADER: &str = "w_lat,w_energy,w_fault,topology,links,avg_hops,lat_score,energy_score,fault_score,critical_links,min_dir_degree,on_front";

/// EDP weight of the energy axis (the `fig12_energy` proxy setting).
const EDP_WEIGHT: f64 = 5.0;

fn axis_specs() -> [ObjectiveSpec; 3] {
    [
        ObjectiveSpec::LatOp,
        ObjectiveSpec::EnergyOp {
            edp_weight: EDP_WEIGHT,
        },
        ObjectiveSpec::FaultOp,
    ]
}

/// The composite spec for one weight vector.  Corners reuse the axis
/// decomposition verbatim; mixed points scale each axis by `weight / norm`.
fn composite_spec(weights: [f64; 3], norms: [f64; 3]) -> ObjectiveSpec {
    let axes = axis_specs();
    let parts: Vec<(f64, ObjectiveSpec)> = (0..3)
        .filter(|&i| weights[i] > 0.0)
        .map(|i| {
            let scale = if weights.iter().filter(|&&w| w > 0.0).count() == 1 {
                1.0
            } else {
                weights[i] / norms[i]
            };
            (scale, axes[i].clone())
        })
        .collect();
    assert!(!parts.is_empty(), "all-zero weight vector");
    ObjectiveSpec::Composite { parts }
}

/// `p` dominates `q` when it is no worse on every axis and strictly better
/// on at least one (all scores are minimized).
fn dominates(p: &[f64; 3], q: &[f64; 3]) -> bool {
    let eps = 1e-9;
    p.iter().zip(q.iter()).all(|(a, b)| *a <= b + eps)
        && p.iter().zip(q.iter()).any(|(a, b)| *a < b - eps)
}

pub fn figure(profile: &RunProfile) -> Figure {
    let layout = Layout::noi_4x5();
    let axes: [Objective; 3] = axis_specs().map(|spec| spec.resolve(&layout));

    // Mesh-baseline normalization so mixed weights mean "meshes per axis".
    let mesh = expert::mesh(&layout);
    let norms = axes
        .clone()
        .map(|o| o.evaluate(&mesh).score.abs().max(f64::MIN_POSITIVE));

    let corner_points: [[f64; 3]; 3] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
    let mut weight_grid: Vec<[f64; 3]> = corner_points.to_vec();
    weight_grid.push([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
    if !profile.quick {
        weight_grid.extend([
            [0.5, 0.5, 0.0],
            [0.5, 0.0, 0.5],
            [0.0, 0.5, 0.5],
            [0.6, 0.2, 0.2],
            [0.2, 0.6, 0.2],
            [0.2, 0.2, 0.6],
        ]);
    }

    let mut spec = ExperimentSpec::new("fig14_pareto");
    spec.classes = vec![LinkClass::Medium];
    spec.candidates = weight_grid
        .iter()
        .map(|&weights| CandidateSpec::synth(composite_spec(weights, norms)))
        .collect();
    spec.assertions = vec![Assertion::MinRows {
        count: weight_grid.len(),
    }];

    // Full-precision axis scores per weight point, shared between the
    // measurement, the Pareto post-processing pass and the check.
    let scores: Arc<Mutex<Vec<Option<[f64; 3]>>>> =
        Arc::new(Mutex::new(vec![None; weight_grid.len()]));

    let measure_axes = axes.clone();
    let measure_grid = weight_grid.clone();
    let measure_scores = Arc::clone(&scores);
    let post_scores = Arc::clone(&scores);
    let check_axes = axes;
    let check_grid = weight_grid;
    let check_scores = scores;

    Figure::new(spec, HEADER, move |cell: &Cell<'_>| {
        let topo = &*cell.candidate.topology;
        let [wl, we, wf] = measure_grid[cell.candidate_index];
        let axis_scores: [f64; 3] = measure_axes.clone().map(|o| o.evaluate(topo).score);
        measure_scores.lock().unwrap()[cell.candidate_index] = Some(axis_scores);
        let [ls, es, fs] = axis_scores;
        let analysis = TopoAnalysis::new(topo);
        vec![Row::new()
            .float(wl, 3)
            .float(we, 3)
            .float(wf, 3)
            .str(topo.name())
            .int(topo.num_links() as i64)
            .float(analysis.average_hops(), 3)
            .float(ls, 3)
            .float(es, 3)
            .float(fs, 3)
            .int(analysis.critical_links(topo).len() as i64)
            .int(analysis.min_directional_degree() as i64)]
    })
    .with_postprocess(move |rows: &mut Vec<Row>| {
        // The Pareto flag is a cross-row column: appended once every weight
        // point has been scored.
        let scores = post_scores.lock().unwrap();
        let all: Vec<[f64; 3]> = scores.iter().map(|s| s.expect("cell scored")).collect();
        for (row, p) in rows.iter_mut().zip(&all) {
            let on_front = !all.iter().any(|q| dominates(q, p));
            row.push(netsmith_exp::Value::Bool(on_front));
        }
    })
    .with_check(move |output: &RunOutput, runner: &Runner<'_>| {
        // Assertion 1: pure corners are bit-identical to the
        // single-objective winners.  The corner composite shares the axis
        // objective's decomposition, seed and budget, so resolving the
        // single-objective candidate through the same cache must hit the
        // corner's entry — same Arc, same adjacency, same axis score.
        let discoveries_before = runner.cache.discoveries();
        for (axis, spec) in axis_specs().iter().enumerate() {
            let corner_index = check_grid
                .iter()
                .position(|w| w[axis] == 1.0)
                .expect("corner in grid");
            let winner = runner.resolve_synth(LayoutSpec::Noi4x5, LinkClass::Medium, spec, false);
            let corner = &output.candidates[corner_index];
            if winner.topology.adjacency() != corner.topology.adjacency() {
                return Err(format!(
                    "corner {axis} diverged from the single-objective winner {}",
                    winner.topology.name()
                ));
            }
            let winner_score = check_axes[axis].evaluate(&winner.topology).score;
            let corner_score = check_scores.lock().unwrap()[corner_index].expect("scored")[axis];
            if (corner_score - winner_score).abs() > 1e-9 {
                return Err(format!(
                    "corner {axis}: composite score {corner_score} != single-objective {winner_score}"
                ));
            }
            eprintln!(
                "# corner {axis} recovers {} (axis score {winner_score:.3})",
                winner.topology.name()
            );
        }
        if runner.cache.discoveries() != discoveries_before {
            return Err(
                "single-objective winners were re-discovered: corner cache keys diverged".into(),
            );
        }

        // Assertion 2: the reported front is non-empty and mutually
        // non-dominated.
        let scores = check_scores.lock().unwrap();
        let all: Vec<[f64; 3]> = scores.iter().map(|s| s.expect("scored")).collect();
        let front: Vec<&[f64; 3]> = all
            .iter()
            .filter(|p| !all.iter().any(|q| dominates(q, p)))
            .collect();
        if front.is_empty() {
            return Err("empty Pareto front".into());
        }
        for a in &front {
            for b in &front {
                if dominates(a, b) {
                    return Err(format!("front point {a:?} dominates front point {b:?}"));
                }
            }
        }
        eprintln!(
            "# Pareto front: {}/{} weight points non-dominated over (latency, energy, resilience)",
            front.len(),
            all.len()
        );
        Ok(())
    })
}
