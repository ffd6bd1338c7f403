//! Clock-pair stimulus generation.

use clocksense_netlist::SourceWave;

use crate::error::CoreError;

/// A pair of clock waveforms branching from the same generator, with a
/// controllable skew between them.
///
/// `skew` is signed: positive means `φ2` is late with respect to `φ1`,
/// negative means `φ1` is late. Edge times are 0 → 100 % ramps of duration
/// `slew`, matching the paper's "clock slope" parameter (0.1–0.4 ns in the
/// experiments).
///
/// # Examples
///
/// ```
/// use clocksense_core::ClockPair;
///
/// let clocks = ClockPair::single_shot(5.0, 0.2e-9).with_skew(0.1e-9);
/// let (phi1, phi2) = clocks.waveforms();
/// // phi2 starts rising 0.1 ns after phi1.
/// assert!(phi2.value_at(clocks.delay + 0.05e-9) < phi1.value_at(clocks.delay + 0.05e-9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockPair {
    /// Clock high level (V); low level is 0.
    pub vdd: f64,
    /// Time at which the nominal (early) rising edge starts (s).
    pub delay: f64,
    /// 0–100 % rise and fall time (s).
    pub slew: f64,
    /// High time between the edges (s).
    pub width: f64,
    /// Repetition period; `f64::INFINITY` for a single pulse.
    pub period: f64,
    /// Skew of `φ2` relative to `φ1` (s, signed).
    pub skew: f64,
}

impl ClockPair {
    /// A single clock pulse with the given high level and edge slew:
    /// rising edge at 1 ns, 2 ns high time, no skew.
    pub fn single_shot(vdd: f64, slew: f64) -> Self {
        ClockPair {
            vdd,
            delay: 1e-9,
            slew,
            width: 2e-9,
            period: f64::INFINITY,
            skew: 0.0,
        }
    }

    /// A periodic clock with the given period; high time is half the
    /// period minus one slew, edges at `slew`.
    pub fn periodic(vdd: f64, slew: f64, period: f64) -> Self {
        ClockPair {
            vdd,
            delay: 1e-9,
            slew,
            width: 0.5 * period - slew,
            period,
            skew: 0.0,
        }
    }

    /// Returns a copy with the given skew (`φ2` late when positive).
    #[must_use]
    pub fn with_skew(self, skew: f64) -> Self {
        ClockPair { skew, ..self }
    }

    /// Returns a copy with the given edge slew.
    #[must_use]
    pub fn with_slew(self, slew: f64) -> Self {
        ClockPair { slew, ..self }
    }

    /// Checks all parameters are in their valid domain.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.vdd.is_finite() && self.vdd > 0.0) {
            return Err(CoreError::InvalidParameter(format!(
                "clock vdd must be positive, got {}",
                self.vdd
            )));
        }
        if !(self.slew.is_finite() && self.slew > 0.0) {
            return Err(CoreError::InvalidParameter(format!(
                "clock slew must be positive, got {}",
                self.slew
            )));
        }
        if !(self.width.is_finite() && self.width > 0.0) {
            return Err(CoreError::InvalidParameter(format!(
                "clock width must be positive, got {}",
                self.width
            )));
        }
        if !(self.delay.is_finite() && self.delay >= 0.0) {
            return Err(CoreError::InvalidParameter(format!(
                "clock delay must be non-negative, got {}",
                self.delay
            )));
        }
        if !self.skew.is_finite() || self.skew.abs() >= self.width {
            return Err(CoreError::InvalidParameter(format!(
                "skew must be finite and smaller than the clock width, got {}",
                self.skew
            )));
        }
        if self.delay + self.skew < 0.0 {
            return Err(CoreError::InvalidParameter(
                "negative skew moves the edge before t = 0".to_string(),
            ));
        }
        Ok(())
    }

    /// The source waveforms `(φ1, φ2)`.
    pub fn waveforms(&self) -> (SourceWave, SourceWave) {
        let phi1_delay = self.delay + (-self.skew).max(0.0);
        let phi2_delay = self.delay + self.skew.max(0.0);
        let make = |delay: f64| SourceWave::Pulse {
            v1: 0.0,
            v2: self.vdd,
            delay,
            rise: self.slew,
            fall: self.slew,
            width: self.width,
            period: self.period,
        };
        (make(phi1_delay), make(phi2_delay))
    }

    /// Returns separately slewed waveforms, used by the Monte-Carlo
    /// experiments where the two input slews vary independently
    /// ("both the input slews and the load have been considered
    /// independent, in order to account for asymmetric conditions").
    pub fn waveforms_with_slews(&self, slew1: f64, slew2: f64) -> (SourceWave, SourceWave) {
        let phi1_delay = self.delay + (-self.skew).max(0.0);
        let phi2_delay = self.delay + self.skew.max(0.0);
        let make = |delay: f64, slew: f64| SourceWave::Pulse {
            v1: 0.0,
            v2: self.vdd,
            delay,
            rise: slew,
            fall: slew,
            width: self.width,
            period: self.period,
        };
        (make(phi1_delay, slew1), make(phi2_delay, slew2))
    }

    /// Start of the observation window: the nominal edge time.
    pub fn window_start(&self) -> f64 {
        self.delay
    }

    /// End of the observation window: just before the falling edges.
    pub fn window_end(&self) -> f64 {
        self.delay + self.skew.abs() + self.slew + self.width * 0.95
    }

    /// Strobe time at which the outputs are interpreted: late enough for
    /// both edges and the block transients to settle, well before the
    /// falling edge.
    pub fn strobe_time(&self) -> f64 {
        self.delay + self.skew.abs() + self.slew + 0.5 * self.width
    }

    /// A sensible simulation stop time: covers the full pulse plus the
    /// post-edge recovery (and, for the falling-edge dual, the slow rise
    /// through the series pull-up stack).
    ///
    /// Full-length waveforms — [`SensingCircuit::simulate`], which the
    /// Fig. 2/3 plots and [`characterize`]'s recovery measurement read —
    /// run to this time. Callers that read only V_min and the verdict
    /// plan the same run but stop it at
    /// [`observation_end`](crate::observation_end) through
    /// [`transient_observed`](clocksense_spice::transient_observed):
    /// [`sweep_vmin`], [`find_tau_min`], [`threshold_for_tolerance`] (and
    /// so [`size_for_tolerance`]) and the Monte-Carlo scatter's scalar
    /// samples.
    ///
    /// [`SensingCircuit::simulate`]: crate::SensingCircuit::simulate
    /// [`characterize`]: crate::characterize
    /// [`sweep_vmin`]: crate::sweep_vmin
    /// [`find_tau_min`]: crate::find_tau_min
    /// [`threshold_for_tolerance`]: crate::threshold_for_tolerance
    /// [`size_for_tolerance`]: crate::size_for_tolerance
    pub fn sim_stop_time(&self) -> f64 {
        self.delay + self.skew.abs() + 2.0 * self.slew + 2.5 * self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_skew_delays_phi2() {
        let c = ClockPair::single_shot(5.0, 0.2e-9).with_skew(0.3e-9);
        let (p1, p2) = c.waveforms();
        let t = c.delay + 0.1e-9;
        assert!(p1.value_at(t) > 0.0);
        assert_eq!(p2.value_at(t), 0.0);
    }

    #[test]
    fn negative_skew_delays_phi1() {
        let c = ClockPair::single_shot(5.0, 0.2e-9).with_skew(-0.3e-9);
        let (p1, p2) = c.waveforms();
        let t = c.delay + 0.1e-9;
        assert_eq!(p1.value_at(t), 0.0);
        assert!(p2.value_at(t) > 0.0);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let c = ClockPair::single_shot(5.0, 0.2e-9);
        assert!(c.validate().is_ok());
        assert!(c.with_slew(0.0).validate().is_err());
        assert!(c.with_skew(f64::NAN).validate().is_err());
        assert!(c.with_skew(3e-9).validate().is_err()); // >= width
        let mut bad = c;
        bad.vdd = -1.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn strobe_lies_inside_window() {
        let c = ClockPair::single_shot(5.0, 0.2e-9).with_skew(0.1e-9);
        assert!(c.strobe_time() > c.window_start());
        assert!(c.strobe_time() < c.window_end());
        assert!(c.sim_stop_time() > c.window_end());
    }

    #[test]
    fn periodic_clock_has_finite_period() {
        let c = ClockPair::periodic(5.0, 0.2e-9, 10e-9);
        assert_eq!(c.period, 10e-9);
        assert!(c.width > 0.0);
        c.validate().unwrap();
    }

    #[test]
    fn independent_slews() {
        let c = ClockPair::single_shot(5.0, 0.2e-9);
        let (p1, p2) = c.waveforms_with_slews(0.1e-9, 0.4e-9);
        // At 0.1 ns past the edge, the fast clock is at the rail and the
        // slow one is still rising.
        let t = c.delay + 0.1e-9;
        assert!((p1.value_at(t) - 5.0).abs() < 1e-9);
        assert!(p2.value_at(t) < 2.0);
    }
}
