//! Architecture configuration for TIMELY.

use crate::backend::FnvTail;
use crate::error::ArchError;
use serde::{Deserialize, Serialize, Serializer};
use std::sync::OnceLock;
use timely_analog::ComponentLibrary;

/// The input-read mapping strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingStrategy {
    /// TIMELY's only-once-input-read mapping (§IV-D): filters sharing inputs
    /// are mapped in parallel, filters are duplicated with a `Z·S` vertical
    /// offset, and inputs are shifted between adjacent X-subBufs, so every
    /// unique input element is fetched from the L1 buffer exactly once.
    OnlyOnceInputRead,
    /// The conventional mapping used by PRIME/ISAAC, in which every output
    /// position re-reads its receptive field from the buffer.
    Conventional,
}

/// Feature toggles for the ablation study of Fig. 9(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Features {
    /// Analog local buffers (X-subBufs and P-subBufs). When disabled, every
    /// input is re-fetched from the L1 buffer by every crossbar column and
    /// every crossbar's Psum is written to/read from the output buffer, as in
    /// Fig. 5(a).
    pub analog_local_buffers: bool,
    /// Time-domain interfaces (DTC/TDC). When disabled, voltage-domain
    /// DACs/ADCs are used with one conversion per crossbar row/column, as in
    /// existing R2PIM designs.
    pub time_domain_interfaces: bool,
    /// The O2IR mapping. When disabled, the conventional mapping is used.
    pub o2ir_mapping: bool,
}

impl Features {
    /// All of TIMELY's features enabled (the paper's design point).
    pub fn all() -> Self {
        Self {
            analog_local_buffers: true,
            time_domain_interfaces: true,
            o2ir_mapping: true,
        }
    }

    /// All features disabled — an existing-R2PIM-style sub-chip (Fig. 5(a))
    /// built from the same crossbars, used as the ablation baseline.
    pub fn none() -> Self {
        Self {
            analog_local_buffers: false,
            time_domain_interfaces: false,
            o2ir_mapping: false,
        }
    }

    /// The mapping strategy implied by the O2IR toggle.
    pub fn mapping_strategy(&self) -> MappingStrategy {
        if self.o2ir_mapping {
            MappingStrategy::OnlyOnceInputRead
        } else {
            MappingStrategy::Conventional
        }
    }
}

impl Default for Features {
    fn default() -> Self {
        Self::all()
    }
}

/// Complete configuration of a TIMELY accelerator instance.
///
/// The defaults ([`TimelyConfig::paper_default`]) reproduce the paper's
/// Table II design: 256×256 crossbars with 4-bit cells, sub-chips of 16×12
/// crossbars, a DTC/TDC sharing factor of γ = 8, 106 sub-chips per chip, a
/// 40 MHz clock, and 8-bit inputs/weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelyConfig {
    /// Crossbar dimension `B` (each crossbar holds `B × B` bit cells).
    pub crossbar_size: usize,
    /// Number of crossbar rows per sub-chip (vertical, Psum-accumulation
    /// direction): 16 in the paper.
    pub subchip_rows: usize,
    /// Number of crossbar columns per sub-chip (horizontal, input-reuse
    /// direction): 12 in the paper. `N_CB` in the paper's notation refers to
    /// this sharing dimension.
    pub subchip_cols: usize,
    /// DTC/TDC sharing factor γ: one converter serves γ crossbar rows/columns.
    pub gamma: usize,
    /// Bits stored per ReRAM cell (4 in the paper).
    pub cell_bits: u8,
    /// Weight precision in bits (8 for the PRIME comparison, 16 for ISAAC).
    pub weight_bits: u8,
    /// Activation (input/output) precision in bits.
    pub activation_bits: u8,
    /// Number of sub-chips per chip (χ = 106 in the paper's 91 mm² design).
    pub subchips_per_chip: usize,
    /// Number of chips (1 for energy studies; 16/32/64 for the throughput
    /// study of Fig. 8(b)).
    pub chips: usize,
    /// Feature toggles (ablation study).
    pub features: Features,
    /// Component energy/area/latency library.
    pub components: ComponentLibrary,
}

impl TimelyConfig {
    /// The paper's default 8-bit configuration (used when comparing against
    /// PRIME, which uses 6-bit inputs/outputs and 8-bit weights).
    pub fn paper_default() -> Self {
        Self {
            crossbar_size: 256,
            subchip_rows: 16,
            subchip_cols: 12,
            gamma: 8,
            cell_bits: 4,
            weight_bits: 8,
            activation_bits: 8,
            subchips_per_chip: 106,
            chips: 1,
            features: Features::all(),
            components: ComponentLibrary::timely_65nm(),
        }
    }

    /// The 16-bit configuration used when comparing against ISAAC, PipeLayer,
    /// and AtomLayer (16-bit inputs/outputs/weights).
    pub fn paper_16bit() -> Self {
        Self {
            weight_bits: 16,
            activation_bits: 16,
            ..Self::paper_default()
        }
    }

    /// Starts a builder initialized with the paper's defaults.
    pub fn builder() -> TimelyConfigBuilder {
        TimelyConfigBuilder::new()
    }

    /// Number of ReRAM cells one weight occupies (`ceil(weight_bits/cell_bits)`,
    /// i.e. the sub-ranging width: 2 for 8-bit weights in 4-bit cells).
    pub fn cells_per_weight(&self) -> usize {
        (self.weight_bits as usize).div_ceil(self.cell_bits as usize)
    }

    /// Number of time slices one activation needs through an 8-bit DTC
    /// (1 for 8-bit activations, 2 for 16-bit).
    pub fn input_slices(&self) -> usize {
        (self.activation_bits as usize).div_ceil(8)
    }

    /// Validates the configuration.
    ///
    /// This is also the cheap pre-screen used by the `timely-dse` design-space
    /// explorer: it rejects degenerate points (which would otherwise hit
    /// divide-by-zero arithmetic deep in the geometry/pipeline models) before
    /// any model evaluation happens.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] when a structural parameter is
    /// zero, when γ does not divide the crossbar size, or when the cell
    /// precision exceeds the weight precision.
    pub fn validate(&self) -> Result<(), ArchError> {
        let invalid = |reason: &str| {
            Err(ArchError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if self.crossbar_size == 0 {
            return invalid("crossbar size must be nonzero");
        }
        if self.subchip_rows == 0 || self.subchip_cols == 0 {
            return invalid("sub-chip dimensions must be nonzero");
        }
        if self.gamma == 0 || !self.crossbar_size.is_multiple_of(self.gamma) {
            return invalid("gamma must be nonzero and divide the crossbar size");
        }
        if self.cell_bits == 0 || self.weight_bits == 0 || self.activation_bits == 0 {
            return invalid("bit widths must be nonzero");
        }
        if self.cell_bits > self.weight_bits {
            return invalid("cell precision must not exceed the weight precision");
        }
        if self.subchips_per_chip == 0 || self.chips == 0 {
            return invalid("chip counts must be nonzero");
        }
        Ok(())
    }

    /// A deterministic 64-bit hash of the full configuration (including the
    /// component library), stable across runs and platforms.
    ///
    /// The `timely-dse` explorer uses this as its evaluation memo-cache key
    /// and as a compact point identifier in reports, so two configurations
    /// compare equal if and only if they describe the same design point (up
    /// to the fidelity of the serialized representation).
    ///
    /// It is FNV-1a over the serde stub's encoding, the value
    /// [`stable_hash_of`](crate::backend::stable_hash_of) computes (std's
    /// hashers are randomly keyed per process, which would break
    /// golden-file tests). Unit tests pin literal values, so a change to
    /// the encoded bytes cannot slip through.
    ///
    /// The encoding ends with the component library and the closing `}`,
    /// and every configuration the explorer builds carries
    /// [`ComponentLibrary::timely_65nm`]. For that library only the ten
    /// leading fields and the `"components":` key are hashed byte by byte;
    /// the fixed tail is folded in with one multiply-add from a 256-entry
    /// table built once per process. That is exact: FNV-1a over a fixed
    /// string is `scale·h + offset[h & 0xff]` in the starting state `h`,
    /// because XOR with a byte touches only the low 8 bits and the low 8
    /// bits of a product depend only on those of its factors. A config
    /// with any other library takes the full-encoding path. The library
    /// test is `==`, which could only confuse encodings through a `-0.0`
    /// against a `0.0` field, and a unit test pins that the default library
    /// has no zero field.
    pub fn stable_hash(&self) -> u64 {
        static DEFAULT_TAIL: OnceLock<(ComponentLibrary, FnvTail)> = OnceLock::new();
        let (library, tail) = DEFAULT_TAIL.get_or_init(|| {
            let library = ComponentLibrary::timely_65nm();
            let mut encoding = serde::json::to_string(&library).into_bytes();
            encoding.push(b'}');
            (library, FnvTail::new(&encoding))
        });
        // Destructured so that a new field cannot be left out of the prefix.
        let Self {
            crossbar_size,
            subchip_rows,
            subchip_cols,
            gamma,
            cell_bits,
            weight_bits,
            activation_bits,
            subchips_per_chip,
            chips,
            features,
            components,
        } = self;
        if components != library {
            return crate::backend::stable_hash_of(self);
        }
        // The derived encoding's prefix, field by field in declaration order.
        let mut s = Serializer::new();
        s.begin_struct();
        s.field("crossbar_size", crossbar_size);
        s.field("subchip_rows", subchip_rows);
        s.field("subchip_cols", subchip_cols);
        s.field("gamma", gamma);
        s.field("cell_bits", cell_bits);
        s.field("weight_bits", weight_bits);
        s.field("activation_bits", activation_bits);
        s.field("subchips_per_chip", subchips_per_chip);
        s.field("chips", chips);
        s.field("features", features);
        s.write_raw(",\"components\":");
        tail.hash_after(s.into_string().as_bytes())
    }
}

impl Default for TimelyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Builder for [`TimelyConfig`] (non-consuming, per the Rust API guidelines).
#[derive(Debug, Clone)]
pub struct TimelyConfigBuilder {
    config: TimelyConfig,
}

impl TimelyConfigBuilder {
    /// Creates a builder seeded with [`TimelyConfig::paper_default`].
    pub fn new() -> Self {
        Self {
            config: TimelyConfig::paper_default(),
        }
    }

    /// Sets the crossbar dimension `B`.
    pub fn crossbar_size(&mut self, b: usize) -> &mut Self {
        self.config.crossbar_size = b;
        self
    }

    /// Sets the sub-chip geometry (crossbar rows × columns).
    pub fn subchip_geometry(&mut self, rows: usize, cols: usize) -> &mut Self {
        self.config.subchip_rows = rows;
        self.config.subchip_cols = cols;
        self
    }

    /// Sets the DTC/TDC sharing factor γ.
    pub fn gamma(&mut self, gamma: usize) -> &mut Self {
        self.config.gamma = gamma;
        self
    }

    /// Sets the number of bits stored per ReRAM cell.
    pub fn cell_bits(&mut self, cell_bits: u8) -> &mut Self {
        self.config.cell_bits = cell_bits;
        self
    }

    /// Sets weight and activation precision in bits.
    pub fn precision(&mut self, weight_bits: u8, activation_bits: u8) -> &mut Self {
        self.config.weight_bits = weight_bits;
        self.config.activation_bits = activation_bits;
        self
    }

    /// Sets the number of sub-chips per chip (χ).
    pub fn subchips_per_chip(&mut self, subchips: usize) -> &mut Self {
        self.config.subchips_per_chip = subchips;
        self
    }

    /// Sets the number of chips.
    pub fn chips(&mut self, chips: usize) -> &mut Self {
        self.config.chips = chips;
        self
    }

    /// Sets the feature toggles.
    pub fn features(&mut self, features: Features) -> &mut Self {
        self.config.features = features;
        self
    }

    /// Sets the component library.
    pub fn components(&mut self, components: ComponentLibrary) -> &mut Self {
        self.config.components = components;
        self
    }

    /// Finalizes and validates the configuration.
    ///
    /// # Errors
    ///
    /// See [`TimelyConfig::validate`].
    pub fn build(&self) -> Result<TimelyConfig, ArchError> {
        self.config.validate()?;
        Ok(self.config.clone())
    }
}

impl Default for TimelyConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_ii() {
        let cfg = TimelyConfig::paper_default();
        assert_eq!(cfg.crossbar_size, 256);
        assert_eq!(cfg.subchip_rows * cfg.subchip_cols, 16 * 12);
        assert_eq!(cfg.gamma, 8);
        assert_eq!(cfg.subchips_per_chip, 106);
        assert_eq!(cfg.cells_per_weight(), 2);
        assert_eq!(cfg.input_slices(), 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn sixteen_bit_config_doubles_subranging_and_slices() {
        let cfg = TimelyConfig::paper_16bit();
        assert_eq!(cfg.cells_per_weight(), 4);
        assert_eq!(cfg.input_slices(), 2);
    }

    #[test]
    fn builder_overrides_fields() {
        let cfg = TimelyConfig::builder()
            .gamma(4)
            .chips(16)
            .subchips_per_chip(53)
            .precision(16, 16)
            .build()
            .unwrap();
        assert_eq!(cfg.gamma, 4);
        assert_eq!(cfg.chips, 16);
        assert_eq!(cfg.subchips_per_chip, 53);
        assert_eq!(cfg.weight_bits, 16);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(TimelyConfig::builder().gamma(0).build().is_err());
        assert!(TimelyConfig::builder().gamma(7).build().is_err()); // does not divide 256
        assert!(TimelyConfig::builder().crossbar_size(0).build().is_err());
        assert!(TimelyConfig::builder().chips(0).build().is_err());
        assert!(TimelyConfig::builder()
            .subchip_geometry(0, 12)
            .build()
            .is_err());
        assert!(TimelyConfig::builder().cell_bits(0).build().is_err());
        // Cell precision must not exceed the weight precision.
        assert!(TimelyConfig::builder()
            .cell_bits(6)
            .precision(4, 8)
            .build()
            .is_err());
        assert!(TimelyConfig::builder().cell_bits(2).build().is_ok());
    }

    #[test]
    fn stable_hash_distinguishes_configs_and_is_reproducible() {
        let a = TimelyConfig::paper_default();
        let b = TimelyConfig::paper_default();
        assert_eq!(a.stable_hash(), b.stable_hash());
        let c = TimelyConfig::builder().gamma(4).build().unwrap();
        assert_ne!(a.stable_hash(), c.stable_hash());
        let d = TimelyConfig::paper_16bit();
        assert_ne!(a.stable_hash(), d.stable_hash());
        assert_ne!(c.stable_hash(), d.stable_hash());
    }

    #[test]
    fn stable_hashes_are_pinned() {
        // Literal values, so any change to the serde stub's encoded bytes
        // fails here, not only through the goldens. The production-space
        // and baseline pins live in the facade's `tests/vendor_stubs.rs`.
        use crate::{Backend, TimelyAccelerator};
        assert_eq!(
            TimelyConfig::paper_default().stable_hash(),
            0x64d9_d09e_6438_6230
        );
        assert_eq!(
            TimelyConfig::paper_16bit().stable_hash(),
            0x241e_7fe3_501d_0414
        );
        assert_eq!(
            TimelyAccelerator::new(TimelyConfig::paper_default()).cache_key(),
            0x4de5_3de2_fd87_5a86
        );
    }

    /// Asserts that the tail-folding hash equals the full-encoding one.
    fn assert_hash_is_exact(config: &TimelyConfig) {
        assert_eq!(
            config.stable_hash(),
            crate::backend::stable_hash_of(config),
            "{config:?}"
        );
    }

    #[test]
    fn stable_hash_equals_the_full_encoding_hash_at_extreme_fields() {
        let fields: [fn(&mut TimelyConfig, usize); 9] = [
            |c, v| c.crossbar_size = v,
            |c, v| c.subchip_rows = v,
            |c, v| c.subchip_cols = v,
            |c, v| c.gamma = v,
            |c, v| c.cell_bits = v as u8,
            |c, v| c.weight_bits = v as u8,
            |c, v| c.activation_bits = v as u8,
            |c, v| c.subchips_per_chip = v,
            |c, v| c.chips = v,
        ];
        for base in [TimelyConfig::paper_default(), TimelyConfig::paper_16bit()] {
            assert_hash_is_exact(&base);
            for set in fields {
                for value in [0, 1, usize::from(u8::MAX), usize::MAX] {
                    let mut config = base.clone();
                    set(&mut config, value);
                    assert_hash_is_exact(&config);
                }
            }
        }
    }

    #[test]
    fn stable_hash_equals_the_full_encoding_hash_for_every_feature_set() {
        for bits in 0..8 {
            let features = Features {
                analog_local_buffers: bits & 1 != 0,
                time_domain_interfaces: bits & 2 != 0,
                o2ir_mapping: bits & 4 != 0,
            };
            assert_hash_is_exact(&TimelyConfig {
                features,
                ..TimelyConfig::paper_default()
            });
        }
    }

    #[test]
    fn other_component_libraries_take_the_full_encoding_path() {
        use timely_analog::components::ComponentSpec;
        use timely_analog::Time;
        let default = ComponentLibrary::timely_65nm();
        // `==` picks the folded path, and `-0.0 == 0.0` although the two
        // encode differently: the default library must have no zero field.
        let encoding = serde::json::to_string(&default);
        let numbers: Vec<f64> = encoding
            .split(|c: char| "{}[],:".contains(c))
            .filter_map(|token| token.parse().ok())
            .collect();
        // Fourteen components of three numbers each.
        assert_eq!(numbers.len(), 42, "{encoding}");
        assert!(numbers.iter().all(|&n| n != 0.0), "{encoding}");

        let relu_latency = |seconds: f64| ComponentLibrary {
            relu: ComponentSpec {
                latency: Time::from_seconds(seconds),
                ..default.relu
            },
            ..default
        };
        let libraries = [
            // One field away from the default.
            relu_latency(default.relu.latency.as_seconds() * 2.0),
            relu_latency(0.0),
            relu_latency(-0.0),
            relu_latency(f64::NAN),
            ComponentLibrary {
                hyper_link: default.dtc,
                ..default
            },
        ];
        for components in libraries {
            let config = TimelyConfig {
                components,
                ..TimelyConfig::paper_default()
            };
            assert_hash_is_exact(&config);
            assert_ne!(
                config.stable_hash(),
                TimelyConfig::paper_default().stable_hash()
            );
        }
    }

    #[test]
    fn feature_toggles_drive_mapping_strategy() {
        assert_eq!(
            Features::all().mapping_strategy(),
            MappingStrategy::OnlyOnceInputRead
        );
        assert_eq!(
            Features::none().mapping_strategy(),
            MappingStrategy::Conventional
        );
        let defaults = Features::default();
        assert!(defaults.analog_local_buffers && defaults.time_domain_interfaces);
    }
}
