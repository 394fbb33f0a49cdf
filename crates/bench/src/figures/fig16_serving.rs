//! Figure 16: lifetime serving comparison.  An expert baseline and an
//! NS-synthesized fabric each serve a long diurnal horizon — time-varying
//! offered load with ON/OFF bursts, permanent faults landing from a fixed
//! Poisson tape and repaired online — under the three online policies
//! (always-on, link-sleep, DVFS) re-decided every epoch from the previous
//! epoch's measured activity.  Columns report SLA-level metrics:
//! availability, energy per delivered flit (whole horizon and low-load
//! epochs only), horizon-exact p95/p99 latency from the merged per-epoch
//! histograms, and the link-sleep gate's decisions: how many it made and
//! how many of their route attempts reused the last routed
//! sub-topology.  The headline assertion is the serving analogue
//! of fig12's: link-sleep beats always-on on low-load energy per flit
//! without giving up availability.

use super::classes;
use netsmith::serve::{serve, LoadSpec, PolicyKind, ServingConfig, ServingInputs, TapeSpec};
use netsmith_exp::prelude::*;
use netsmith_exp::ServingSpec;

pub const HEADER: &str = "class,topology,routing,policy,epochs,faults,repairs_ok,\
downtime_epochs,availability,pj_per_flit,low_load_pj_per_flit,\
p95_cycles,p99_cycles,p95_ns,p99_ns,gate_calls,gate_reuses";

/// Idle threshold of the link-sleep policy (as fig12).
const IDLE_THRESHOLD: f64 = 0.12;

/// Availability a policy may lose to the always-on baseline before the
/// figure fails: one percentage point over the horizon.
const AVAILABILITY_SLACK: f64 = 0.01;

/// The serving horizon: ≥200 epochs even under `--quick` so the diurnal
/// cycle repeats and the fault tape always lands at least one fault.
fn serving_spec(profile: &RunProfile) -> ServingSpec {
    ServingSpec {
        epochs: if profile.quick { 224 } else { 448 },
        period_epochs: 96,
        expected_faults: 2.0,
        low_load_threshold: IDLE_THRESHOLD,
        seed: 0x05E7_EF16,
        tape_seed: 0x0FA1_7F16,
    }
}

pub fn figure(profile: &RunProfile) -> Figure {
    let mut spec = ExperimentSpec::new("fig16_serving");
    spec.classes = classes(profile);
    spec.candidates = vec![
        CandidateSpec::expert("folded-torus"),
        CandidateSpec::synth(ObjectiveSpec::LatOp),
    ];
    // Short per-epoch windows: a serving cell runs one compiled segment
    // per epoch, so the horizon — not the window — supplies the samples.
    let sim = if profile.quick {
        SimProfile::ClassWithWindows {
            warmup: 100,
            measure: 400,
            drain: 200,
        }
    } else {
        SimProfile::ClassWithWindows {
            warmup: 200,
            measure: 800,
            drain: 400,
        }
    };
    spec.workloads = vec![WorkloadSpec::serving(serving_spec(profile), sim)];
    spec.assertions = vec![
        Assertion::MinRows { count: 6 },
        Assertion::ColumnPositive {
            column: "pj_per_flit".into(),
        },
        Assertion::ColumnPositive {
            column: "p99_cycles".into(),
        },
        // The headline: closed-loop link sleep spends less energy per
        // delivered flit than always-on over the low-load epochs of the
        // same horizon, on every fabric.
        Assertion::GroupedLess {
            keys: vec!["class".into(), "topology".into()],
            pivot: "policy".into(),
            lesser: "link_sleep".into(),
            greater: "always_on".into(),
            column: "low_load_pj_per_flit".into(),
            filters: vec![],
        },
    ];
    Figure::new(spec, HEADER, measure).with_check(|output: &RunOutput, _runner| {
        let get = |row: usize, col: &str| -> Result<f64, String> {
            output
                .value(row, col)
                .ok_or_else(|| format!("fig16_serving: row {row} missing {col}"))?
                .parse::<f64>()
                .map_err(|e| format!("fig16_serving: row {row} {col}: {e}"))
        };
        // Availability floor: link-sleep may not buy its energy savings
        // with availability (DVFS is exempt — downclocking legitimately
        // runs the fabric closer to saturation and reports the cost in
        // its own row), and every horizon is long enough to exercise the
        // lifetime machinery.
        let mut always_on: Vec<(String, f64)> = Vec::new();
        for (i, row) in output.rows.iter().enumerate() {
            let _ = row;
            let key = format!(
                "{}/{}",
                output.value(i, "class").unwrap_or_default(),
                output.value(i, "topology").unwrap_or_default()
            );
            if get(i, "epochs")? < 200.0 {
                return Err(format!(
                    "fig16_serving: horizon shorter than 200 epochs in {key}"
                ));
            }
            if get(i, "faults")? < 1.0 {
                return Err(format!("fig16_serving: no fault ever landed in {key}"));
            }
            if output.value(i, "policy").as_deref() == Some("always_on") {
                always_on.push((key, get(i, "availability")?));
            }
        }
        for (i, _) in output.rows.iter().enumerate() {
            if output.value(i, "policy").as_deref() != Some("link_sleep") {
                continue;
            }
            let key = format!(
                "{}/{}",
                output.value(i, "class").unwrap_or_default(),
                output.value(i, "topology").unwrap_or_default()
            );
            let availability = get(i, "availability")?;
            let baseline = always_on
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, a)| a)
                .ok_or_else(|| format!("fig16_serving: no always_on row for {key}"))?;
            if availability < baseline - AVAILABILITY_SLACK {
                return Err(format!(
                    "fig16_serving: {} lost availability in {key}: {availability:.4} < {:.4}",
                    output.value(i, "policy").unwrap_or_default(),
                    baseline - AVAILABILITY_SLACK,
                ));
            }
        }
        Ok(())
    })
}

fn measure(cell: &Cell<'_>) -> Vec<Row> {
    let network = cell.candidate.network();
    let workload = cell.workload.as_ref().expect("serving workload");
    let spec = workload
        .serving_spec()
        .expect("fig16 workloads are serving horizons");
    let sim = cell.sim_config();
    let base = ServingConfig {
        epochs: spec.epochs,
        load: LoadSpec {
            period_epochs: spec.epochs.min(spec.period_epochs),
            ..LoadSpec::default()
        },
        tape: TapeSpec {
            expected_faults: spec.expected_faults,
            seed: spec.tape_seed,
        },
        sim: sim.clone(),
        low_load_threshold: spec.low_load_threshold,
        seed: spec.seed,
        ..ServingConfig::default()
    };
    eprintln!(
        "# {}/{}: serving {} epochs x {} policies",
        cell.candidate.class.name(),
        network.label(),
        spec.epochs,
        PolicyKind::standard(IDLE_THRESHOLD).len()
    );
    PolicyKind::standard(IDLE_THRESHOLD)
        .into_iter()
        .map(|policy| {
            let config = ServingConfig {
                policy,
                ..base.clone()
            };
            let report = serve(
                &ServingInputs::new(&network.topology, &network.routing, &network.vcs),
                &config,
                cell.obs(),
            );
            Row::new()
                .str(cell.candidate.class.name())
                .str(network.topology.name())
                .str(network.scheme.label())
                .str(&report.policy)
                .int(report.epochs as i64)
                .int(report.faults_injected as i64)
                .int(report.repairs_ok as i64)
                .int(report.downtime_epochs as i64)
                .float(report.availability, 4)
                .float(report.energy_per_flit_pj, 2)
                .float(report.low_load_energy_per_flit_pj, 2)
                .float(report.p95_latency_cycles, 1)
                .float(report.p99_latency_cycles, 1)
                .float(report.percentile_ns(0.95, sim.clock_ghz), 2)
                .float(report.percentile_ns(0.99, sim.clock_ghz), 2)
                .int(report.gate_calls as i64)
                .int(report.gate_reuses as i64)
        })
        .collect()
}
