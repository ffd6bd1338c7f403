//! The CMOS clock-skew sensing circuit of Favalli & Metra (ED&TC 1997).
//!
//! This crate implements the paper's contribution: a compact sensing
//! circuit that monitors two clock wires branching from the same generator
//! and raises a statically held error indication when the skew between
//! their active edges exceeds a settable sensitivity.
//!
//! The circuit is two symmetric CMOS blocks closed in a feedback loop —
//! effectively a cross-coupled pair of clocked NAND blocks
//! (`y1 = NAND(φ1, y2)`, `y2 = NAND(φ2, y1)`):
//!
//! * **No skew**: both outputs fall together on the rising clock edges, but
//!   the cross-feedback cuts each pull-down off as the other output falls,
//!   so both bottom out near the NMOS conduction threshold and recover —
//!   the blocks act as inverters (paper Fig. 2).
//! * **Skew `τ` larger than the block fall delay `d`**: the early output
//!   falls fully and blocks the late block's pull-down, whose output stays
//!   high for half a clock period — the error indication `(0,1)` or `(1,0)`
//!   (paper Fig. 3).
//! * **`τ < d`**: the late output makes an incomplete transition to a
//!   minimum voltage `V_min`; detection uses the logic threshold `V_th` of
//!   the interpreting gate. The sensitivity `τ_min` is where `V_min`
//!   crosses `V_th` (paper Fig. 4).
//!
//! # Quick start
//!
//! ```
//! use clocksense_core::{ClockPair, SensorBuilder, SkewVerdict, Technology};
//!
//! # fn main() -> Result<(), clocksense_core::CoreError> {
//! let tech = Technology::cmos12();
//! let sensor = SensorBuilder::new(tech).load_capacitance(160e-15).build()?;
//!
//! // A 0.5 ns skew: phi2 late.
//! let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9).with_skew(0.5e-9);
//! let response = sensor.simulate(&clocks, &Default::default())?;
//! assert_eq!(response.verdict, SkewVerdict::Phi2Late);
//!
//! // No skew: no error.
//! let response = sensor.simulate(&clocks.with_skew(0.0), &Default::default())?;
//! assert_eq!(response.verdict, SkewVerdict::NoError);
//! # Ok(())
//! # }
//! ```

mod characterize;
mod error;
mod response;
mod sensitivity;
mod sensor;
mod stimulus;
mod tech;

pub use characterize::{characterize, SensorCharacter};
pub use error::CoreError;
pub use response::{interpret, observation_end, SensorResponse, SkewVerdict};
pub use sensitivity::{
    find_tau_min, size_for_tolerance, sweep_vmin, threshold_for_tolerance, SkewSample,
};
pub use sensor::{ClockEdge, SensingCircuit, SensorBuilder, TransistorLabel};
pub use stimulus::ClockPair;
pub use tech::Technology;
