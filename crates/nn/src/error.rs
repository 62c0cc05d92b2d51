//! Error types for model construction and functional inference.

use std::fmt;

/// Error produced when building a [`crate::Model`] or running functional
/// inference over incompatible shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// A layer was appended whose expected input shape does not match the
    /// output shape of the preceding layer.
    ShapeMismatch {
        /// Name of the offending layer.
        layer: String,
        /// Shape produced by the previous layer (channels, height, width).
        expected: (usize, usize, usize),
        /// Shape the offending layer requires.
        found: (usize, usize, usize),
    },
    /// A layer parameter was zero or otherwise degenerate (e.g. a stride of
    /// zero or an empty kernel).
    InvalidSpec {
        /// Name of the offending layer.
        layer: String,
        /// Human-readable description of the invalid parameter.
        reason: String,
    },
    /// The kernel (plus stride) does not fit inside the padded input feature
    /// map, so the layer would produce an empty output.
    EmptyOutput {
        /// Name of the offending layer.
        layer: String,
    },
    /// A tensor operation was attempted on tensors with incompatible
    /// dimensions.
    TensorShape {
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// The model contains no layers.
    EmptyModel,
    /// A quantization bit width outside the supported `1..=31` range.
    UnsupportedBitWidth {
        /// The rejected bit width.
        bits: u8,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeMismatch {
                layer,
                expected,
                found,
            } => write!(
                f,
                "shape mismatch at layer `{layer}`: previous output {expected:?} but layer expects {found:?}"
            ),
            NnError::InvalidSpec { layer, reason } => {
                write!(f, "invalid specification for layer `{layer}`: {reason}")
            }
            NnError::EmptyOutput { layer } => {
                write!(f, "layer `{layer}` produces an empty output feature map")
            }
            NnError::TensorShape { reason } => write!(f, "tensor shape error: {reason}"),
            NnError::EmptyModel => write!(f, "model contains no layers"),
            NnError::UnsupportedBitWidth { bits } => {
                write!(f, "unsupported quantization bit width {bits} (must be 1..=31)")
            }
        }
    }
}

impl std::error::Error for NnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errors = [
            NnError::ShapeMismatch {
                layer: "conv1".into(),
                expected: (3, 224, 224),
                found: (4, 224, 224),
            },
            NnError::InvalidSpec {
                layer: "conv1".into(),
                reason: "stride must be nonzero".into(),
            },
            NnError::EmptyOutput {
                layer: "conv9".into(),
            },
            NnError::TensorShape {
                reason: "length 3 vs 4".into(),
            },
            NnError::EmptyModel,
            NnError::UnsupportedBitWidth { bits: 32 },
        ];
        for e in errors {
            let text = e.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
