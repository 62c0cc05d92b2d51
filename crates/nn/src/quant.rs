//! Symmetric linear quantization.
//!
//! TIMELY computes with 8-bit inputs and 8-bit weights (two 4-bit ReRAM cells
//! per weight) when compared against PRIME, and with 16-bit operands when
//! compared against ISAAC. The functional engine models this by quantizing
//! activations and weights to a configurable signed bit width at every layer
//! boundary.

use crate::error::NnError;
use serde::{Deserialize, Serialize};

/// Symmetric, zero-point-free linear quantization parameters for a signed
/// integer representation of a given bit width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    /// Number of bits of the signed representation (including the sign bit).
    pub bits: u8,
    /// Scale factor: `real ≈ scale × integer`.
    pub scale: f32,
}

impl QuantParams {
    /// Derives quantization parameters that cover `[-max_abs, max_abs]` with a
    /// signed `bits`-bit representation.
    ///
    /// A `max_abs` of zero produces a unit scale so that quantizing an all-zero
    /// tensor is exact.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnsupportedBitWidth`] if `bits` is outside `1..=31`.
    pub fn from_max_abs(bits: u8, max_abs: f32) -> Result<Self, NnError> {
        if !(1..=31).contains(&bits) {
            return Err(NnError::UnsupportedBitWidth { bits });
        }
        let qmax = Self::qmax_for(bits) as f32;
        let scale = if max_abs > 0.0 { max_abs / qmax } else { 1.0 };
        Ok(Self { bits, scale })
    }

    /// Largest representable positive integer for the bit width.
    pub fn qmax(&self) -> i32 {
        Self::qmax_for(self.bits)
    }

    fn qmax_for(bits: u8) -> i32 {
        (1i32 << (bits - 1)) - 1
    }

    /// Quantizes a real value to the nearest representable integer, saturating
    /// at the representation's bounds.
    pub fn quantize(&self, value: f32) -> i32 {
        let qmax = self.qmax();
        (self.rounded(value) as i32).clamp(-qmax, qmax)
    }

    /// `value / scale` rounded half away from zero, exactly like
    /// `f32::round`, and saturated at `±qmax`, as an integer-valued `f32`
    /// equal to `quantize(value) as f32`. NaN gives 0.
    ///
    /// It stays in `f32` and calls no libm `roundf`, so slice loops
    /// vectorize. Below 2^23, adding 2^23 leaves no fraction bits: the sum
    /// rounds half to even and the subtraction is exact. From 2^23 on every
    /// `f32` is an integer. A tie that went to the even neighbour below is
    /// then moved up; `magnitude - even` is exact (Sterbenz), so the tie test
    /// is exact too.
    fn rounded(&self, value: f32) -> f32 {
        const TWO_POW_23: f32 = 8_388_608.0;
        let x = value / self.scale;
        let magnitude = x.abs();
        let even = if magnitude < TWO_POW_23 {
            (magnitude + TWO_POW_23) - TWO_POW_23
        } else {
            magnitude
        };
        let away = if magnitude - even >= 0.5 {
            even + 1.0
        } else {
            even
        };
        // Above 25 bits `qmax as f32` rounds up to 2^(bits-1), the same f32
        // an integer clamp to `qmax` gives once converted.
        let qmax = self.qmax() as f32;
        let saturated = if away > qmax { qmax } else { away };
        if x.is_nan() {
            0.0
        } else {
            // `+ 0.0` turns a negative zero into the `+0.0` of integer zero.
            saturated.copysign(x) + 0.0
        }
    }

    /// Reconstructs the real value of a quantized integer.
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }

    /// Quantize-then-dequantize: the value the accelerator actually computes
    /// with.
    pub fn fake_quantize(&self, value: f32) -> f32 {
        self.rounded(value) * self.scale
    }

    /// [`QuantParams::fake_quantize`] over a slice, widened to `f64` (the
    /// functional kernels' accumulator type). Extra `dst` slots are untouched.
    pub(crate) fn fake_quantize_into(&self, src: &[f32], dst: &mut [f64]) {
        // Quantize through a small f32 block: an f32-only loop vectorizes
        // four lanes wide, one that also widens to f64 only two.
        let mut block = [0.0_f32; 64];
        for (src, dst) in src.chunks(block.len()).zip(dst.chunks_mut(block.len())) {
            let block = &mut block[..src.len()];
            for (b, &s) in block.iter_mut().zip(src) {
                *b = self.fake_quantize(s);
            }
            for (d, &b) in dst.iter_mut().zip(block.iter()) {
                *d = f64::from(b);
            }
        }
    }

    /// The quantization step size (one least-significant bit in real units).
    pub fn step(&self) -> f32 {
        self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qmax_matches_bit_width() {
        let qmax = |bits| QuantParams::from_max_abs(bits, 1.0).unwrap().qmax();
        assert_eq!(qmax(8), 127);
        assert_eq!(qmax(16), 32767);
        assert_eq!(qmax(4), 7);
    }

    #[test]
    fn quantization_roundtrip_error_is_within_half_step() {
        let params = QuantParams::from_max_abs(8, 2.0).unwrap();
        for i in -100..=100 {
            let value = i as f32 * 0.02;
            let reconstructed = params.fake_quantize(value);
            assert!(
                (value - reconstructed).abs() <= params.step() / 2.0 + 1e-6,
                "value {value} reconstructed as {reconstructed}"
            );
        }
    }

    #[test]
    fn quantization_saturates() {
        let params = QuantParams::from_max_abs(8, 1.0).unwrap();
        assert_eq!(params.quantize(10.0), 127);
        assert_eq!(params.quantize(-10.0), -127);
    }

    #[test]
    fn zero_range_is_exact() {
        let params = QuantParams::from_max_abs(8, 0.0).unwrap();
        assert_eq!(params.quantize(0.0), 0);
        assert_eq!(params.fake_quantize(0.0), 0.0);
    }

    #[test]
    fn higher_bit_width_reduces_error() {
        let value = 0.7312345_f32;
        let err = |bits| {
            let params = QuantParams::from_max_abs(bits, 1.0).unwrap();
            (params.fake_quantize(value) - value).abs()
        };
        let (err8, err16) = (err(8), err(16));
        assert!(err16 < err8);
    }

    #[test]
    fn out_of_range_bits_are_rejected() {
        for bits in [0, 32, 64, u8::MAX] {
            assert_eq!(
                QuantParams::from_max_abs(bits, 1.0),
                Err(NnError::UnsupportedBitWidth { bits })
            );
        }
        assert!(QuantParams::from_max_abs(31, 1.0).is_ok());
        assert!(QuantParams::from_max_abs(1, 1.0).is_ok());
    }

    /// The original `f32::round`-based quantization, kept as the reference
    /// the branch-free rounding must match bit for bit.
    fn reference_quantize(params: &QuantParams, value: f32) -> i32 {
        let q = (value / params.scale).round() as i64;
        let qmax = params.qmax() as i64;
        q.clamp(-qmax, qmax) as i32
    }

    fn assert_matches_reference(params: &QuantParams, value: f32) {
        let q = reference_quantize(params, value);
        let reference = q as f32 * params.scale;
        let fast = params.fake_quantize(value);
        assert!(
            params.quantize(value) == q && fast.to_bits() == reference.to_bits(),
            "{} bits, scale {}: quantize({value:e}) = {}, fake_quantize = {fast:e}; \
             reference {q}, {reference:e}",
            params.bits,
            params.scale,
            params.quantize(value)
        );
    }

    /// The magnitudes `m` of the ties `±m + 0.5` to test, up to `limit`.
    ///
    /// Ties only exist below 2^23 (above it every f32 is an integer). The
    /// rounding behaves alike across one binade, so this is every `m` up to
    /// 2^16 and, above it, every `m` within 2^12 of a binade edge or of
    /// `limit`, plus every 97th `m`: exhaustive for widths up to 16 bits,
    /// and about 2 % of the ties of a wider one (all of them would take
    /// minutes in a debug build).
    fn tie_magnitudes(limit: i64) -> Vec<i64> {
        const EXHAUSTIVE: i64 = 1 << 16;
        const WINDOW: i64 = 1 << 12;
        let limit = limit.min((1 << 23) - 1);
        let mut ms: Vec<i64> = (0..=EXHAUSTIVE).collect();
        for edge in (17..=23).map(|j| 1_i64 << j).chain([limit]) {
            ms.extend(edge - WINDOW..=edge + WINDOW);
        }
        ms.extend((EXHAUSTIVE..=limit).step_by(97));
        ms.retain(|&m| m <= limit);
        ms
    }

    #[test]
    fn branch_free_rounding_matches_the_libm_reference() {
        for bits in [1_u8, 2, 8, 16, 22, 23, 24, 31] {
            let unit = QuantParams { bits, scale: 1.0 };
            let qmax = i64::from(unit.qmax());
            // Ties k + 0.5 and their f32 neighbours for |k| <= qmax + 1, on
            // the unit scale, where `value / scale` is exact.
            for m in tie_magnitudes(qmax + 1) {
                for k in [m, -m - 1] {
                    let tie = k as f32 + 0.5;
                    for value in [tie.next_down(), tie, tie.next_up()] {
                        assert_matches_reference(&unit, value);
                    }
                }
            }
            let q = qmax as f32;
            let specials = [
                q,
                -q,
                q + 1.0,
                -(q + 1.0),
                0.0,
                -0.0,
                f32::MIN_POSITIVE,
                f32::from_bits(1),
                -f32::from_bits(1),
                f32::MAX,
                f32::MIN,
                2_147_483_648.0,
                -2_147_483_648.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
            ];
            for value in specials {
                assert_matches_reference(&unit, value);
            }
            // A non-unit scale, where the division itself rounds.
            let scaled = QuantParams::from_max_abs(bits, 0.7).unwrap();
            for i in -2_000..=2_000 {
                let value = i as f32 * 0.000_37;
                assert_matches_reference(&scaled, value);
                assert_matches_reference(&scaled, value * 1e4);
            }
        }
    }

    #[test]
    fn slice_fake_quantize_matches_the_scalar_path() {
        let params = QuantParams::from_max_abs(8, 1.5).unwrap();
        let src: Vec<f32> = (-50..50).map(|i| i as f32 * 0.031).collect();
        let mut dst = vec![f64::NAN; src.len() + 1];
        params.fake_quantize_into(&src, &mut dst);
        for (&s, &d) in src.iter().zip(&dst) {
            assert_eq!(d.to_bits(), f64::from(params.fake_quantize(s)).to_bits());
        }
        assert!(dst[src.len()].is_nan(), "extra slots stay untouched");
    }
}
