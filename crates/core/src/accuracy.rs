//! The accuracy-under-analog-noise study (§VI-B).
//!
//! The paper injects Gaussian noise — extracted from Monte-Carlo circuit
//! simulation of the X-subBufs, P-subBufs, I-adders, DTCs and TDCs — into the
//! network computation and reports ≤0.1 % inference accuracy loss at the
//! chosen design point (12 cascaded X-subBufs, whose accumulated error
//! `√12·ε` stays inside the DTC design margin).
//!
//! This module derives a [`NoiseModel`] from the analog component parameters
//! and runs the comparison of noisy vs. noise-free classifications from
//! `timely-nn`.

use crate::config::TimelyConfig;
use crate::error::ArchError;
use serde::{Deserialize, Serialize};
use timely_analog::alb::XSubBuf;
use timely_analog::interface::Dtc;
use timely_analog::Time;
use timely_nn::infer::{accuracy_under_noise, AccuracyReport, InferenceConfig, NoiseModel};
use timely_nn::Model;

/// Configuration of the accuracy study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyStudy {
    /// The X-subBuf circuit model (per-stage error ε).
    pub x_subbuf: XSubBuf,
    /// The DTC whose unit delay defines one input LSB in the time domain.
    pub dtc: Dtc,
    /// Number of cascaded X-subBufs in the horizontal direction (the paper
    /// limits this to 12 — the sub-chip's crossbar-column count).
    pub cascaded_stages: usize,
    /// Design margin assigned to the unit delay (the paper assigns >40 ps).
    pub design_margin: Time,
    /// Number of random inputs to evaluate.
    pub samples: usize,
    /// Random seed.
    pub seed: u64,
}

impl AccuracyStudy {
    /// The paper's design point, derived from a TIMELY configuration.
    pub fn from_config(config: &TimelyConfig) -> Self {
        Self {
            x_subbuf: XSubBuf::timely_default(),
            dtc: Dtc::timely_8bit(),
            cascaded_stages: config.subchip_cols,
            design_margin: Time::from_picoseconds(40.0),
            samples: 50,
            seed: 2020,
        }
    }

    /// Whether the accumulated X-subBuf error stays within the design margin
    /// (`√stages · ε ≤ margin`), which is the condition the paper uses to
    /// argue the noise does not flip time-domain codes.
    pub fn within_margin(&self) -> bool {
        self.x_subbuf
            .within_margin(self.cascaded_stages, self.design_margin)
    }

    /// The noise model seen by the functional inference engine: the
    /// accumulated timing error expressed in input LSBs (one LSB = one DTC
    /// unit delay), plus a Psum noise contribution from the P-subBuf /
    /// charging path.
    pub fn noise_model(&self) -> NoiseModel {
        let accumulated = self.x_subbuf.cascaded_error(self.cascaded_stages);
        NoiseModel {
            input_sigma_lsb: accumulated.as_picoseconds() / self.dtc.unit_delay.as_picoseconds(),
            psum_sigma_lsb: 0.25,
        }
    }

    /// Runs the study on a model, comparing noisy and noise-free
    /// classifications over random inputs.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors as [`ArchError::Workload`]; for zoo
    /// models the only one is a weight or activation width outside `1..=31`.
    pub fn run(&self, model: &Model, config: &TimelyConfig) -> Result<AccuracyReport, ArchError> {
        let infer_config = InferenceConfig {
            activation_bits: config.activation_bits,
            weight_bits: config.weight_bits,
            noise: NoiseModel::ideal(),
            seed: self.seed,
        };
        accuracy_under_noise(
            model,
            infer_config,
            self.noise_model(),
            self.samples,
            self.seed,
        )
        .map_err(ArchError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timely_nn::{zoo, NnError};

    #[test]
    fn paper_design_point_is_within_the_margin() {
        let study = AccuracyStudy::from_config(&TimelyConfig::paper_default());
        assert_eq!(study.cascaded_stages, 12);
        assert!(study.within_margin());
    }

    #[test]
    fn noise_model_is_sub_lsb_at_the_design_point() {
        let study = AccuracyStudy::from_config(&TimelyConfig::paper_default());
        let noise = study.noise_model();
        // sqrt(12) * 5 ps ~= 17 ps, well under the 50 ps unit delay.
        assert!(
            noise.input_sigma_lsb < 0.5,
            "sigma {}",
            noise.input_sigma_lsb
        );
        assert!(!noise.is_ideal());
    }

    #[test]
    fn accuracy_loss_is_small_on_a_compact_model() {
        // The full ImageNet models are too slow for a unit test; CNN-1
        // exercises the same code path. The paper's claim is <=0.1% loss; we
        // allow a looser bound for the small synthetic-weight network.
        let mut study = AccuracyStudy::from_config(&TimelyConfig::paper_default());
        study.samples = 30;
        let report = study
            .run(&zoo::cnn_1(), &TimelyConfig::paper_default())
            .unwrap();
        assert_eq!(report.samples, 30);
        assert!(
            report.accuracy_loss() <= 0.2,
            "accuracy loss {}",
            report.accuracy_loss()
        );
    }

    #[test]
    fn unsupported_bit_widths_return_an_error_instead_of_unwinding() {
        // A 32-bit config passes `validate()`, but the quantizer only covers
        // 1..=31 bits: the study must report that, not unwind.
        let mut config = TimelyConfig::paper_default();
        config.weight_bits = 32;
        config.activation_bits = 32;
        assert!(config.validate().is_ok());
        let mut study = AccuracyStudy::from_config(&config);
        study.samples = 1;
        let result = std::panic::catch_unwind(|| study.run(&zoo::cnn_1(), &config))
            .expect("AccuracyStudy::run must not unwind on a 32-bit config");
        assert_eq!(
            result,
            Err(ArchError::Workload(NnError::UnsupportedBitWidth {
                bits: 32
            }))
        );
    }

    #[test]
    fn a_sloppier_buffer_design_breaks_the_margin() {
        let mut study = AccuracyStudy::from_config(&TimelyConfig::paper_default());
        study.x_subbuf = XSubBuf {
            epsilon: Time::from_picoseconds(200.0),
        };
        assert!(!study.within_margin());
        assert!(study.noise_model().input_sigma_lsb > 1.0);
    }
}
