//! ReRAM cells and crossbar arrays.
//!
//! An ReRAM cell stores a weight as a programmable conductance; a `B × B`
//! crossbar computes analog dot products by summing the per-cell currents of
//! a column (Kirchhoff's current law). TIMELY uses 4-bit cells and maps 8-bit
//! weights onto two adjacent cell columns (a most-significant and a
//! least-significant nibble — the "sub-ranging" scheme of §IV-C).

use crate::error::AnalogError;
use crate::units::{Resistance, Time, Voltage};
use serde::{Deserialize, Serialize};

/// Static configuration of an ReRAM cell: its bit capacity and the resistance
/// range its conductance levels span.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellConfig {
    /// Bits stored per cell (TIMELY: 4).
    pub bits: u8,
    /// Lowest programmable resistance (highest conductance), `R_min`.
    pub r_min: Resistance,
    /// Highest programmable resistance (lowest conductance), `R_max`.
    pub r_max: Resistance,
}

impl CellConfig {
    /// TIMELY's cell configuration: 4-bit cells with a 50 kΩ–2 MΩ resistance
    /// window (representative of the HfOx devices PRIME/ISAAC assume).
    pub fn timely_4bit() -> Self {
        Self {
            bits: 4,
            r_min: Resistance::from_kilohms(50.0),
            r_max: Resistance::from_megohms(2.0),
        }
    }

    /// Number of distinct conductance levels (`2^bits`).
    pub fn levels(&self) -> u32 {
        1 << self.bits
    }

    /// The conductance (in siemens) of a given level. Level 0 maps to the
    /// lowest conductance (`1/R_max`), the top level to the highest
    /// (`1/R_min`), with levels spaced linearly in conductance — the standard
    /// weight-to-conductance mapping for crossbar dot-product engines.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::LevelOutOfRange`] if `level >= 2^bits`.
    pub fn conductance(&self, level: u32) -> Result<f64, AnalogError> {
        if level >= self.levels() {
            return Err(AnalogError::LevelOutOfRange {
                level,
                bits: self.bits,
            });
        }
        let g_min = self.r_max.conductance_siemens();
        let g_max = self.r_min.conductance_siemens();
        let fraction = level as f64 / (self.levels() - 1) as f64;
        Ok(g_min + fraction * (g_max - g_min))
    }

    /// The resistance of a given level (reciprocal of [`CellConfig::conductance`]).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::LevelOutOfRange`] if `level >= 2^bits`.
    pub fn resistance(&self, level: u32) -> Result<Resistance, AnalogError> {
        Ok(Resistance::from_ohms(1.0 / self.conductance(level)?))
    }
}

/// Splits an unsigned multi-bit weight into per-cell levels for the
/// sub-ranging scheme: the first entry is the most-significant nibble.
///
/// # Errors
///
/// Returns [`AnalogError::LevelOutOfRange`] if the weight does not fit in
/// `cells * cell_bits` bits.
pub fn subrange_weight(weight: u32, cell_bits: u8, cells: usize) -> Result<Vec<u32>, AnalogError> {
    let total_bits = cell_bits as u32 * cells as u32;
    if total_bits < 32 && weight >= (1u32 << total_bits) {
        return Err(AnalogError::LevelOutOfRange {
            level: weight,
            bits: total_bits as u8,
        });
    }
    let mask = (1u32 << cell_bits) - 1;
    let mut levels = Vec::with_capacity(cells);
    for i in (0..cells).rev() {
        levels.push((weight >> (i as u32 * cell_bits as u32)) & mask);
    }
    Ok(levels)
}

/// A `rows × cols` ReRAM crossbar array holding programmed conductance levels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Crossbar {
    config: CellConfig,
    rows: usize,
    cols: usize,
    /// Row-major cell levels.
    levels: Vec<u32>,
}

impl Crossbar {
    /// Creates a crossbar with all cells at level 0 (lowest conductance).
    pub fn new(config: CellConfig, rows: usize, cols: usize) -> Self {
        Self {
            config,
            rows,
            cols,
            levels: vec![0; rows * cols],
        }
    }

    /// A square TIMELY crossbar (`B × B` with `B = 256`).
    pub fn timely_256() -> Self {
        Self::new(CellConfig::timely_4bit(), 256, 256)
    }

    /// Number of rows (`B`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`B`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The cell configuration.
    pub fn config(&self) -> CellConfig {
        self.config
    }

    /// Programs a single cell to a conductance level.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::DimensionMismatch`] for out-of-bounds
    /// coordinates or [`AnalogError::LevelOutOfRange`] for an invalid level.
    pub fn program(&mut self, row: usize, col: usize, level: u32) -> Result<(), AnalogError> {
        let config = self.config;
        let (rows, cols) = (self.rows, self.cols);
        let Some(cell) = self.index(row, col).and_then(|i| self.levels.get_mut(i)) else {
            return Err(AnalogError::DimensionMismatch {
                expected: rows * cols,
                found: row.saturating_mul(cols).saturating_add(col),
            });
        };
        if level >= config.levels() {
            return Err(AnalogError::LevelOutOfRange {
                level,
                bits: config.bits,
            });
        }
        *cell = level;
        Ok(())
    }

    /// Programs an entire column from a slice of levels (one per row).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::DimensionMismatch`] if `levels.len() != rows`,
    /// or [`AnalogError::LevelOutOfRange`] for an invalid level.
    pub fn program_column(&mut self, col: usize, levels: &[u32]) -> Result<(), AnalogError> {
        if levels.len() != self.rows {
            return Err(AnalogError::DimensionMismatch {
                expected: self.rows,
                found: levels.len(),
            });
        }
        for (row, &level) in levels.iter().enumerate() {
            self.program(row, col, level)?;
        }
        Ok(())
    }

    /// The programmed level of a cell, or `None` outside the array.
    pub fn level(&self, row: usize, col: usize) -> Option<u32> {
        self.index(row, col)
            .and_then(|i| self.levels.get(i))
            .copied()
    }

    /// The row-major index of an in-bounds cell.
    fn index(&self, row: usize, col: usize) -> Option<usize> {
        (row < self.rows && col < self.cols).then(|| row * self.cols + col)
    }

    /// The programmed levels, one row-major slice of `cols` cells per row.
    /// `chunks_exact` panics on a zero size; a zero-column array has no
    /// cells, so any nonzero size yields no rows.
    fn level_rows(&self) -> std::slice::ChunksExact<'_, u32> {
        self.levels.chunks_exact(self.cols.max(1))
    }

    /// The per-column charge (in coulombs) deposited when each row `i` is
    /// driven at `v_dd` for its time-domain input duration `T_i`:
    /// `Q_j = Σ_i T_i · V_DD · G_ij` (the phase-I charge of the two-phase
    /// charging scheme).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::DimensionMismatch`] if `input_times.len()` does
    /// not equal the number of rows, or [`AnalogError::LevelOutOfRange`] if a
    /// stored level exceeds the cell's bit width (impossible via
    /// [`Crossbar::program`], which range-checks).
    pub fn column_charges(
        &self,
        input_times: &[Time],
        v_dd: Voltage,
    ) -> Result<Vec<f64>, AnalogError> {
        if input_times.len() != self.rows {
            return Err(AnalogError::DimensionMismatch {
                expected: self.rows,
                found: input_times.len(),
            });
        }
        let mut charges = vec![0.0; self.cols];
        for (time, row) in input_times.iter().zip(self.level_rows()) {
            let t_seconds = time.as_seconds();
            // Exact-zero sentinel for "this input row is off" — an epsilon
            // would skip real (tiny) charge times.
            if t_seconds == 0.0 {
                continue;
            }
            for (charge, &level) in charges.iter_mut().zip(row) {
                // `program`/`program_column` range-check every level, so the
                // lookup cannot fail; propagating instead of unwrapping
                // keeps the charge path panic-free all the same.
                let g = self.config.conductance(level)?;
                *charge += t_seconds * v_dd.as_volts() * g;
            }
        }
        Ok(charges)
    }

    /// The ideal (noise-free) digital dot product of each column against an
    /// integer input vector, using the programmed levels as integer weights.
    /// This is the reference the analog path is checked against in tests.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::DimensionMismatch`] if `inputs.len() != rows`.
    pub fn digital_reference(&self, inputs: &[u32]) -> Result<Vec<u64>, AnalogError> {
        if inputs.len() != self.rows {
            return Err(AnalogError::DimensionMismatch {
                expected: self.rows,
                found: inputs.len(),
            });
        }
        let mut sums = vec![0u64; self.cols];
        for (&input, row) in inputs.iter().zip(self.level_rows()) {
            for (sum, &level) in sums.iter_mut().zip(row) {
                *sum += input as u64 * level as u64;
            }
        }
        Ok(sums)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_levels_span_the_resistance_window() {
        let cfg = CellConfig::timely_4bit();
        assert_eq!(cfg.levels(), 16);
        let r0 = cfg.resistance(0).unwrap();
        let r15 = cfg.resistance(15).unwrap();
        assert!((r0.as_ohms() - 2e6).abs() < 1.0);
        assert!((r15.as_ohms() - 5e4).abs() < 1.0);
        assert!(cfg.resistance(16).is_err());
    }

    #[test]
    fn conductance_is_monotonic_in_level() {
        let cfg = CellConfig::timely_4bit();
        let mut previous = 0.0;
        for level in 0..cfg.levels() {
            let g = cfg.conductance(level).unwrap();
            assert!(g > previous);
            previous = g;
        }
    }

    #[test]
    fn subrange_splits_8bit_weights_into_two_nibbles() {
        assert_eq!(subrange_weight(0xAB, 4, 2).unwrap(), vec![0xA, 0xB]);
        assert_eq!(subrange_weight(0x05, 4, 2).unwrap(), vec![0x0, 0x5]);
        assert_eq!(subrange_weight(0xFF, 4, 2).unwrap(), vec![0xF, 0xF]);
        assert!(subrange_weight(0x100, 4, 2).is_err());
    }

    #[test]
    fn subrange_handles_16bit_weights_in_four_cells() {
        assert_eq!(
            subrange_weight(0xBEEF, 4, 4).unwrap(),
            vec![0xB, 0xE, 0xE, 0xF]
        );
    }

    #[test]
    fn programming_and_reading_back() {
        let mut xbar = Crossbar::new(CellConfig::timely_4bit(), 4, 4);
        xbar.program(2, 3, 7).unwrap();
        assert_eq!(xbar.level(2, 3), Some(7));
        assert!(xbar.program(5, 0, 1).is_err());
        assert!(xbar.program(0, 0, 16).is_err());
        xbar.program_column(1, &[1, 2, 3, 4]).unwrap();
        assert_eq!(xbar.level(3, 1), Some(4));
        assert!(xbar.program_column(0, &[1, 2]).is_err());
    }

    #[test]
    fn out_of_range_coordinates_read_as_none() {
        let mut xbar = Crossbar::timely_256();
        xbar.program(1, 0, 9).unwrap();
        assert_eq!(xbar.level(1, 0), Some(9));
        // One column past the edge is not cell (1, 0), and one row past it
        // is not a panic.
        assert_eq!(xbar.level(0, 256), None);
        assert_eq!(xbar.level(256, 0), None);
        assert_eq!(xbar.level(usize::MAX, usize::MAX), None);
        assert!(xbar.program(0, 256, 1).is_err());
        assert!(xbar.program(usize::MAX, usize::MAX, 1).is_err());
        assert_eq!(xbar.level(1, 0), Some(9));
        let empty = Crossbar::new(CellConfig::timely_4bit(), 3, 0);
        assert_eq!(empty.level(0, 0), None);
        assert_eq!(empty.digital_reference(&[1, 2, 3]).unwrap(), vec![]);
    }

    #[test]
    fn column_charge_is_linear_in_input_time_and_conductance() {
        let cfg = CellConfig::timely_4bit();
        let mut xbar = Crossbar::new(cfg, 2, 1);
        xbar.program(0, 0, 15).unwrap(); // max conductance
        xbar.program(1, 0, 0).unwrap(); // min conductance
        let v_dd = Voltage::from_volts(1.2);
        let t = Time::from_nanoseconds(10.0);
        let charges = xbar.column_charges(&[t, t], v_dd).unwrap();
        let expected =
            t.as_seconds() * 1.2 * (cfg.conductance(15).unwrap() + cfg.conductance(0).unwrap());
        assert!((charges[0] - expected).abs() / expected < 1e-12);

        // Doubling the input time doubles the charge.
        let charges2 = xbar.column_charges(&[t * 2.0, t * 2.0], v_dd).unwrap();
        assert!((charges2[0] - 2.0 * charges[0]).abs() / charges[0] < 1e-12);
    }

    #[test]
    fn digital_reference_matches_hand_computation() {
        let mut xbar = Crossbar::new(CellConfig::timely_4bit(), 3, 2);
        xbar.program_column(0, &[1, 2, 3]).unwrap();
        xbar.program_column(1, &[4, 5, 6]).unwrap();
        let sums = xbar.digital_reference(&[10, 20, 30]).unwrap();
        assert_eq!(sums, vec![10 + 40 + 90, 40 + 100 + 180]);
        assert!(xbar.digital_reference(&[1, 2]).is_err());
    }

    #[test]
    fn mismatched_input_length_is_rejected() {
        let xbar = Crossbar::timely_256();
        let times = vec![Time::from_nanoseconds(1.0); 8];
        assert!(matches!(
            xbar.column_charges(&times, Voltage::from_volts(1.2)),
            Err(AnalogError::DimensionMismatch { .. })
        ));
    }
}
