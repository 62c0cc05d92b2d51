//! Declarative search spaces over [`TimelyConfig`].
//!
//! A [`SearchSpace`] is a cross product of per-axis choice lists. Every point
//! of the space has a *mixed-radix index* in `0..space.len()` and a
//! *coordinate vector* (one choice index per axis), which is what the search
//! strategies in [`crate::search`] enumerate, sample, and hill-climb over.
//!
//! Decoding a point deliberately does **not** validate it: a grid may contain
//! degenerate combinations (e.g. a γ that does not divide the crossbar size),
//! and rejecting those cheaply via [`TimelyConfig::validate`] is the
//! evaluator's pre-screen, counted as *pruned* rather than silently skipped.

use serde::{Deserialize, Serialize};
use timely_core::{Features, TimelyConfig};

/// Number of axes of a [`SearchSpace`] (the length of a coordinate vector).
pub const AXES: usize = 8;

/// A coordinate vector: one choice index per axis, in axis order.
pub type Coords = [usize; AXES];

/// A declarative, finite design space over [`TimelyConfig`].
///
/// Each field lists the candidate values of one configuration axis; the
/// space is their cross product. Axis order (for [`Coords`]) is the field
/// order: crossbar size, γ, cell bits, precision, sub-chip geometry,
/// sub-chips per chip, chips, feature set.
///
/// # Example
///
/// Enumerate a tiny two-axis space and decode its points:
///
/// ```
/// use timely_dse::SearchSpace;
///
/// let space = SearchSpace {
///     gammas: vec![4, 8],
///     subchips_per_chip: vec![53, 106],
///     ..SearchSpace::paper_point()
/// };
/// assert_eq!(space.len(), 4);
/// let configs: Vec<_> = (0..space.len()).map(|i| space.config_at(i)).collect();
/// assert!(configs.iter().any(|c| c.gamma == 4 && c.subchips_per_chip == 106));
/// assert!(configs.iter().all(|c| c.validate().is_ok()));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Candidate crossbar dimensions `B`.
    pub crossbar_sizes: Vec<usize>,
    /// Candidate DTC/TDC sharing factors γ.
    pub gammas: Vec<usize>,
    /// Candidate ReRAM cell precisions, in bits.
    pub cell_bits: Vec<u8>,
    /// Candidate `(weight_bits, activation_bits)` pairs.
    pub precisions: Vec<(u8, u8)>,
    /// Candidate sub-chip geometries `(crossbar rows, crossbar columns)`.
    pub subchip_geometries: Vec<(usize, usize)>,
    /// Candidate sub-chip counts per chip (χ).
    pub subchips_per_chip: Vec<usize>,
    /// Candidate chip counts.
    pub chips: Vec<usize>,
    /// Candidate feature sets (ablation toggles).
    pub feature_sets: Vec<Features>,
}

impl SearchSpace {
    /// The degenerate space containing exactly the paper's default design
    /// point (Table II). Useful as a `..` base when overriding a few axes.
    pub fn paper_point() -> Self {
        let cfg = TimelyConfig::paper_default();
        Self {
            crossbar_sizes: vec![cfg.crossbar_size],
            gammas: vec![cfg.gamma],
            cell_bits: vec![cfg.cell_bits],
            precisions: vec![(cfg.weight_bits, cfg.activation_bits)],
            subchip_geometries: vec![(cfg.subchip_rows, cfg.subchip_cols)],
            subchips_per_chip: vec![cfg.subchips_per_chip],
            chips: vec![cfg.chips],
            feature_sets: vec![cfg.features],
        }
    }

    /// The default exploration neighborhood around the paper's design point:
    /// 648 grid points spanning crossbar size, γ, cell precision,
    /// weight/activation precision, sub-chip geometry, sub-chip count, and
    /// the feature ablation, with the paper default itself included.
    pub fn paper_neighborhood() -> Self {
        Self {
            crossbar_sizes: vec![128, 256, 512],
            gammas: vec![4, 8, 16],
            cell_bits: vec![2, 4],
            precisions: vec![(8, 8), (16, 16)],
            subchip_geometries: vec![(16, 12), (12, 16), (8, 12)],
            subchips_per_chip: vec![53, 106, 212],
            chips: vec![1],
            feature_sets: vec![Features::all(), Features::none()],
        }
    }

    /// A production-scale grid: every axis widened well past the paper
    /// neighborhood, totalling 103,680 points. This is the space the
    /// bound-based screening layer is built for — exhaustive enumeration is
    /// only tractable because most candidates are discarded from their
    /// admissible bounds without a full evaluation.
    ///
    /// Every γ divides every crossbar size and every cell precision divides
    /// the smallest weight precision, so no point is structurally degenerate
    /// on those axes (the evaluator still validates each point).
    pub fn production_space() -> Self {
        Self {
            crossbar_sizes: vec![64, 128, 256, 512],
            gammas: vec![2, 4, 8, 16, 32, 64],
            cell_bits: vec![1, 2, 4],
            precisions: vec![(4, 4), (8, 8), (16, 16)],
            subchip_geometries: vec![(16, 12), (12, 16), (8, 12), (16, 16), (8, 8)],
            subchips_per_chip: vec![13, 27, 53, 106, 212, 424],
            chips: vec![1, 2, 4, 8],
            feature_sets: vec![
                Features::all(),
                Features {
                    o2ir_mapping: false,
                    ..Features::all()
                },
                Features {
                    time_domain_interfaces: false,
                    ..Features::all()
                },
                Features::none(),
            ],
        }
    }

    /// The per-axis choice counts, in axis order.
    pub fn axis_sizes(&self) -> [usize; AXES] {
        [
            self.crossbar_sizes.len(),
            self.gammas.len(),
            self.cell_bits.len(),
            self.precisions.len(),
            self.subchip_geometries.len(),
            self.subchips_per_chip.len(),
            self.chips.len(),
            self.feature_sets.len(),
        ]
    }

    /// Total number of points (the product of the axis sizes).
    pub fn len(&self) -> usize {
        self.axis_sizes().iter().product()
    }

    /// Whether any axis has no candidates (an empty space).
    pub fn is_empty(&self) -> bool {
        self.axis_sizes().contains(&0)
    }

    /// Decodes a mixed-radix point index into a coordinate vector.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn coords_at(&self, index: usize) -> Coords {
        assert!(index < self.len(), "point index {index} out of range");
        let sizes = self.axis_sizes();
        let mut coords = [0; AXES];
        let mut rest = index;
        // Last axis varies fastest, like nested for-loops in field order.
        for axis in (0..AXES).rev() {
            coords[axis] = rest % sizes[axis];
            rest /= sizes[axis];
        }
        coords
    }

    /// Builds the configuration at a coordinate vector.
    ///
    /// The result is *not* validated; see the module docs.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for its axis.
    pub fn decode(&self, coords: &Coords) -> TimelyConfig {
        let (weight_bits, activation_bits) = self.precisions[coords[3]];
        let (subchip_rows, subchip_cols) = self.subchip_geometries[coords[4]];
        TimelyConfig {
            crossbar_size: self.crossbar_sizes[coords[0]],
            gamma: self.gammas[coords[1]],
            cell_bits: self.cell_bits[coords[2]],
            weight_bits,
            activation_bits,
            subchip_rows,
            subchip_cols,
            subchips_per_chip: self.subchips_per_chip[coords[5]],
            chips: self.chips[coords[6]],
            features: self.feature_sets[coords[7]],
            ..TimelyConfig::paper_default()
        }
    }

    /// Builds the configuration at a mixed-radix point index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn config_at(&self, index: usize) -> TimelyConfig {
        self.decode(&self.coords_at(index))
    }

    /// The coordinate vectors one step away from `coords`: ±1 along each
    /// axis, clamped to the axis bounds (the hill-climb neighborhood), in a
    /// deterministic order.
    pub fn neighbors(&self, coords: &Coords) -> Vec<Coords> {
        let sizes = self.axis_sizes();
        let mut out = Vec::new();
        for axis in 0..AXES {
            if coords[axis] > 0 {
                let mut down = *coords;
                down[axis] -= 1;
                out.push(down);
            }
            if coords[axis] + 1 < sizes[axis] {
                let mut up = *coords;
                up[axis] += 1;
                out.push(up);
            }
        }
        out
    }
}

impl Default for SearchSpace {
    fn default() -> Self {
        Self::paper_neighborhood()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_space_decodes_to_the_paper_default() {
        let space = SearchSpace::paper_point();
        assert_eq!(space.len(), 1);
        assert_eq!(space.config_at(0), TimelyConfig::paper_default());
    }

    #[test]
    fn index_decoding_is_a_bijection() {
        let space = SearchSpace::paper_neighborhood();
        assert_eq!(space.len(), 648);
        let mut seen: Vec<u64> = (0..space.len())
            .map(|i| space.config_at(i).stable_hash())
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), space.len(), "duplicate grid points");
    }

    #[test]
    fn neighborhood_contains_the_paper_default() {
        let space = SearchSpace::paper_neighborhood();
        let target = TimelyConfig::paper_default();
        assert!((0..space.len()).any(|i| space.config_at(i) == target));
    }

    #[test]
    fn neighbors_stay_in_bounds_and_differ_on_one_axis() {
        let space = SearchSpace::paper_neighborhood();
        let coords = space.coords_at(space.len() / 2);
        let sizes = space.axis_sizes();
        for n in space.neighbors(&coords) {
            let diff: usize = (0..AXES).map(|a| usize::from(n[a] != coords[a])).sum();
            assert_eq!(diff, 1);
            for a in 0..AXES {
                assert!(n[a] < sizes[a]);
            }
        }
        // A corner point has exactly one neighbor per axis with >1 choices.
        let corner = space.neighbors(&[0; AXES]);
        let expansive = sizes.iter().filter(|&&s| s > 1).count();
        assert_eq!(corner.len(), expansive);
    }

    #[test]
    fn production_space_is_large_and_well_formed() {
        let space = SearchSpace::production_space();
        assert_eq!(space.len(), 103_680);
        assert!(space.len() >= 100_000);
        // Spot-check decodability and validity across the index range: the
        // axes are chosen so γ always divides the crossbar size and the cell
        // precision always divides the weight precision.
        let stride = space.len() / 97;
        for i in (0..space.len()).step_by(stride) {
            let config = space.config_at(i);
            assert!(
                config.validate().is_ok(),
                "production point {i} is degenerate: {:?}",
                config.validate()
            );
        }
        // The paper's design point is in the grid.
        let target = TimelyConfig::paper_default();
        assert!(space.crossbar_sizes.contains(&target.crossbar_size));
        assert!(space.gammas.contains(&target.gamma));
        assert!(space.cell_bits.contains(&target.cell_bits));
    }

    #[test]
    fn empty_axis_empties_the_space() {
        let space = SearchSpace {
            gammas: vec![],
            ..SearchSpace::paper_point()
        };
        assert!(space.is_empty());
        assert_eq!(space.len(), 0);
    }
}
