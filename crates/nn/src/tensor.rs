//! A minimal dense 3-D tensor used by the functional inference engine.

use crate::error::NnError;
use crate::shape::FeatureMap;
use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense `channels × height × width` tensor of `f32` values.
///
/// The functional engine operates on `f32` and quantizes at layer boundaries;
/// this keeps the fixed-point behaviour of the accelerator (see
/// [`crate::quant`]) while making noise injection straightforward.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: FeatureMap,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: FeatureMap) -> Self {
        Self {
            shape,
            data: vec![0.0; shape.elements()],
        }
    }

    /// Creates a tensor from raw data.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::TensorShape`] if `data.len()` does not match the
    /// number of elements implied by `shape`.
    pub fn from_vec(shape: FeatureMap, data: Vec<f32>) -> Result<Self, NnError> {
        if data.len() != shape.elements() {
            return Err(NnError::TensorShape {
                reason: format!(
                    "data length {} does not match shape {} ({} elements)",
                    data.len(),
                    shape,
                    shape.elements()
                ),
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor with values drawn from a uniform distribution over
    /// `[-bound, bound]`.
    pub fn random_uniform<R: Rng + ?Sized>(shape: FeatureMap, bound: f32, rng: &mut R) -> Self {
        let dist = rand::distributions::Uniform::new_inclusive(-bound, bound);
        let data = (0..shape.elements()).map(|_| dist.sample(rng)).collect();
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> FeatureMap {
        self.shape
    }

    /// Immutable view of the underlying data in `CHW` order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data in `CHW` order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads the element at `(channel, row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn get(&self, channel: usize, row: usize, col: usize) -> f32 {
        self.data[self.offset(channel, row, col)]
    }

    /// Writes the element at `(channel, row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn set(&mut self, channel: usize, row: usize, col: usize, value: f32) {
        let offset = self.offset(channel, row, col);
        self.data[offset] = value;
    }

    /// The maximum absolute value in the tensor (0.0 for an all-zero tensor).
    pub fn max_abs(&self) -> f32 {
        max_abs(&self.data)
    }

    /// Index of the maximum element (ties broken toward the lower index).
    /// Useful as a classification decision over a logits vector.
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .fold((0, f32::NEG_INFINITY), |(best_i, best_v), (i, &v)| {
                if v > best_v {
                    (i, v)
                } else {
                    (best_i, best_v)
                }
            })
            .0
    }

    fn offset(&self, channel: usize, row: usize, col: usize) -> usize {
        debug_assert!(channel < self.shape.channels);
        debug_assert!(row < self.shape.height);
        debug_assert!(col < self.shape.width);
        (channel * self.shape.height + row) * self.shape.width + col
    }
}

/// The largest magnitude in `values`: 0.0 when empty, NaN skipped (as
/// `f32::max` skips it).
///
/// Eight independent lanes keep the loop free of a serial dependency so it
/// vectorizes. Every candidate is non-negative and the maximum is exact, so
/// the lane order cannot change the result's bits.
pub(crate) fn max_abs(values: &[f32]) -> f32 {
    let mut lanes = [0.0_f32; 8];
    let mut chunks = values.chunks_exact(lanes.len());
    for chunk in chunks.by_ref() {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            let v = v.abs();
            *lane = if v > *lane { v } else { *lane };
        }
    }
    let tail = chunks.remainder().iter().map(|v| v.abs());
    lanes
        .into_iter()
        .chain(tail)
        .fold(0.0, |acc, v| if v > acc { v } else { acc })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_has_expected_length() {
        let t = Tensor::zeros(FeatureMap::new(2, 3, 4));
        assert_eq!(t.data().len(), 24);
        assert_eq!(t.shape(), FeatureMap::new(2, 3, 4));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(FeatureMap::new(1, 2, 2), vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(FeatureMap::new(1, 2, 2), vec![1.0; 5]),
            Err(NnError::TensorShape { .. })
        ));
    }

    #[test]
    fn get_set_roundtrip_and_layout() {
        let mut t = Tensor::zeros(FeatureMap::new(2, 2, 2));
        t.set(1, 0, 1, 7.5);
        assert_eq!(t.get(1, 0, 1), 7.5);
        // CHW layout: channel 1, row 0, col 1 -> offset 1*4 + 0*2 + 1 = 5.
        assert_eq!(t.data()[5], 7.5);
    }

    #[test]
    fn argmax_and_max_abs() {
        let t = Tensor::from_vec(FeatureMap::vector(4), vec![-5.0, 2.0, 4.0, 1.0]).unwrap();
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.max_abs(), 5.0);
    }

    #[test]
    fn lane_max_abs_matches_a_serial_fold() {
        let mut rng = StdRng::seed_from_u64(5);
        for len in [0, 1, 7, 8, 9, 64, 1001] {
            let mut values = Tensor::random_uniform(FeatureMap::vector(len.max(1)), 3.0, &mut rng)
                .data()[..len]
                .to_vec();
            if len > 2 {
                values[len / 2] = f32::NAN;
                values[1] = -0.0;
            }
            let serial = values.iter().fold(0.0_f32, |acc, v| acc.max(v.abs()));
            assert_eq!(max_abs(&values).to_bits(), serial.to_bits(), "len {len}");
        }
    }

    #[test]
    fn random_uniform_is_bounded_and_deterministic_per_seed() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = Tensor::random_uniform(FeatureMap::new(3, 8, 8), 0.5, &mut rng);
        assert!(a.data().iter().all(|v| v.abs() <= 0.5));
        let mut rng = StdRng::seed_from_u64(42);
        let b = Tensor::random_uniform(FeatureMap::new(3, 8, 8), 0.5, &mut rng);
        assert_eq!(a, b);
    }
}
