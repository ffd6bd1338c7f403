//! Adaptive (LTE-controlled) timestep vs the fixed reference grid, at the
//! level the paper's conclusions live: skew verdicts, the τ_min
//! sensitivity bound, the Sec. 3 fault-campaign outcomes and the Fig. 5
//! scatter verdicts must not depend on how the transient grid was chosen
//! — while the adaptive grid must be at least 3x coarser on the sensor
//! workload. The adaptive side is the shipped paper-pipeline setting,
//! [`SimOptions::pipeline`] (sparse LU, adaptive stepping); the reference
//! is `SimOptions::default()` (dense, fixed) at the same 2 ps base step.
//!
//! Tolerances, stated rather than hidden:
//!
//! * **Sec. 3 campaign** — none. Every one of the 81 faults must get the
//!   same detection outcome and the same skew-masking verdict on both
//!   settings.
//! * **Sensor V_min and Fig. 5 scatter** — V_min may move by up to 0.1 V
//!   between the two grids. A scatter sample's verdict must be identical
//!   whenever its reference V_min lies more than 10 mV from the logic
//!   threshold. Closer samples are exempt: the grids sample the output at
//!   different instants, and on the full Fig. 5 pools the shipped setting
//!   moves V_min by up to about 2 mV, so a sample 1–2 mV from the
//!   threshold may legitimately land on the other side.
//! * **τ_min** — within 5 ps (the bisection tolerance is 2 ps).

use clocksense::core::{find_tau_min, ClockPair, SensorBuilder, Technology};
use clocksense::faults::{run_campaign, sensor_fault_universe, CampaignConfig};
use clocksense::montecarlo::{run_scatter, McConfig};
use clocksense::spice::SimOptions;

/// The dense fixed-step reference on the 2 ps grid the paper pipeline
/// marched before it switched to adaptive stepping.
fn fixed_opts() -> SimOptions {
    SimOptions {
        tstep: 2e-12,
        ..SimOptions::default()
    }
}

const VMIN_TOL: f64 = 0.1;
const NEAR_THRESHOLD: f64 = 10e-3;

#[test]
fn sensor_verdicts_and_vmin_agree_across_grids() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .expect("sensor builds");

    for &skew in &[0.0, 0.15e-9, 0.4e-9, -0.4e-9] {
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9).with_skew(skew);
        let fixed = sensor.simulate(&clocks, &fixed_opts()).expect("fixed run");
        let adaptive = sensor
            .simulate(&clocks, &SimOptions::pipeline())
            .expect("adaptive run");

        assert_eq!(
            fixed.verdict, adaptive.verdict,
            "verdict changed with the grid at skew {skew:e}"
        );
        assert!(
            (fixed.vmin_y1 - adaptive.vmin_y1).abs() < VMIN_TOL,
            "vmin_y1 drift at skew {skew:e}: {} vs {}",
            fixed.vmin_y1,
            adaptive.vmin_y1
        );
        assert!(
            (fixed.vmin_y2 - adaptive.vmin_y2).abs() < VMIN_TOL,
            "vmin_y2 drift at skew {skew:e}: {} vs {}",
            fixed.vmin_y2,
            adaptive.vmin_y2
        );
        assert!(
            fixed.y1.len() >= 3 * adaptive.y1.len(),
            "adaptive must be >= 3x coarser at skew {skew:e}: {} vs {}",
            fixed.y1.len(),
            adaptive.y1.len()
        );
    }
}

#[test]
fn tau_min_sensitivity_agrees_within_tolerance() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .expect("sensor builds");
    let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);

    let tol = 2e-12;
    let fixed = find_tau_min(&sensor, &clocks, 1e-9, tol, &fixed_opts())
        .expect("fixed tau search")
        .expect("sensor is sensitive to some skew");
    let adaptive = find_tau_min(&sensor, &clocks, 1e-9, tol, &SimOptions::pipeline())
        .expect("adaptive tau search")
        .expect("sensor is sensitive to some skew");

    // Both searches bisect to `tol`; the grids may disagree by a few
    // more picoseconds of verdict-boundary placement.
    assert!(
        (fixed - adaptive).abs() <= 5e-12,
        "tau_min moved with the grid: fixed {fixed:e} vs adaptive {adaptive:e}"
    );
}

#[test]
fn campaign_detection_outcomes_agree_across_grids() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .expect("sensor builds");
    let faults = sensor_fault_universe(&sensor, 100.0);
    assert_eq!(faults.len(), 81, "the Sec. 3 universe");

    let shipped = CampaignConfig::new(ClockPair::single_shot(tech.vdd, 0.2e-9));
    assert_eq!(shipped.sim, SimOptions::pipeline());
    let reference = CampaignConfig {
        sim: fixed_opts(),
        ..shipped.clone()
    };
    let adaptive = run_campaign(&sensor, &faults, &shipped).expect("shipped campaign");
    let fixed = run_campaign(&sensor, &faults, &reference).expect("reference campaign");

    assert_eq!(fixed.records().len(), adaptive.records().len());
    for (f, a) in fixed.records().iter().zip(adaptive.records()) {
        assert_eq!(f.fault, a.fault);
        assert_eq!(
            f.outcome, a.outcome,
            "detection outcome changed with the grid for {}",
            f.fault
        );
        assert_eq!(
            f.masks_skew, a.masks_skew,
            "skew-masking changed with the grid for {}",
            f.fault
        );
    }
}

#[test]
fn shipped_scatter_defaults_keep_reference_verdicts() {
    let tech = Technology::cmos12();
    let v_th = tech.logic_threshold();
    let builder = SensorBuilder::new(tech).load_capacitance(160e-15);
    let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
    // The Fig. 5 skews, two samples each.
    let taus: Vec<f64> = (0..=8).map(|i| i as f64 * 0.03e-9).collect();

    let mut compared = 0;
    for seed in [McConfig::default().seed, McConfig::default().seed + 1] {
        let shipped = McConfig {
            samples: 2 * taus.len(),
            seed,
            ..McConfig::default()
        };
        assert_eq!(shipped.sim, SimOptions::pipeline());
        let fixed = McConfig {
            sim: fixed_opts(),
            ..shipped.clone()
        };
        let got = run_scatter(&builder, &clocks, &taus, &shipped).expect("shipped scatter");
        let want = run_scatter(&builder, &clocks, &taus, &fixed).expect("reference scatter");

        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!((g.tau, g.slew1, g.slew2), (w.tau, w.slew1, w.slew2));
            assert!(
                (g.vmin - w.vmin).abs() <= VMIN_TOL,
                "seed {seed:#x} sample {i}: V_min {} vs reference {}",
                g.vmin,
                w.vmin
            );
            if (w.vmin - v_th).abs() > NEAR_THRESHOLD {
                compared += 1;
                assert_eq!(
                    g.detected, w.detected,
                    "seed {seed:#x} sample {i}: verdict flipped at reference V_min {}",
                    w.vmin
                );
            }
        }
    }
    assert!(compared > 0, "every sample sat at the threshold");
}
