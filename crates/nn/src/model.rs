//! Whole-model representation: an ordered list of layers with a fixed input
//! shape, plus shape propagation and aggregate statistics.

use crate::error::NnError;
use crate::layer::{ConvSpec, FcSpec, Layer, LayerKind, PoolSpec};
use crate::shape::FeatureMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A feed-forward CNN/DNN model: a named, ordered sequence of layers together
/// with the shape of the input feature map.
///
/// Residual networks are represented as their layer *trace*: every weighted
/// layer appears once, and shortcut additions appear as
/// [`LayerKind::ElementwiseAdd`] entries. This is sufficient for the paper's
/// evaluation, which is driven by per-layer shapes and MAC counts rather than
/// by graph topology.
///
/// # Example
///
/// ```
/// use timely_nn::{Model, ModelBuilder, ConvSpec, FeatureMap};
///
/// let model = ModelBuilder::new("tiny", FeatureMap::new(3, 32, 32))
///     .conv("conv1", ConvSpec::new(3, 16, 3, 1, 1))
///     .relu("relu1")
///     .build()?;
/// assert_eq!(model.output_shape()?, FeatureMap::new(16, 32, 32));
/// # Ok::<(), timely_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Model {
    name: String,
    input: FeatureMap,
    layers: Vec<Layer>,
}

impl Model {
    /// Creates a model from parts, validating every layer and the shape chain.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is empty, any layer specification is
    /// degenerate, or consecutive layer shapes are incompatible.
    pub fn new(
        name: impl Into<String>,
        input: FeatureMap,
        layers: Vec<Layer>,
    ) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::EmptyModel);
        }
        let model = Self {
            name: name.into(),
            input,
            layers,
        };
        // Validate specs and shape chain eagerly so downstream consumers can
        // rely on `layer_shapes` never failing for a constructed model.
        for layer in &model.layers {
            layer.validate()?;
        }
        model.layer_shapes()?;
        Ok(model)
    }

    /// The model's name (e.g. `"VGG-D"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input feature-map shape.
    pub fn input_shape(&self) -> FeatureMap {
        self.input
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Iterates over `(layer, input_shape, output_shape)` triples in execution
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates shape errors; these cannot occur for models constructed via
    /// [`Model::new`] or [`ModelBuilder::build`], which validate eagerly.
    pub fn layer_shapes(&self) -> Result<Vec<(Layer, FeatureMap, FeatureMap)>, NnError> {
        let mut shapes = Vec::with_capacity(self.layers.len());
        let mut current = self.input;
        for layer in &self.layers {
            let out = layer.output_shape(current)?;
            shapes.push((layer.clone(), current, out));
            current = out;
        }
        Ok(shapes)
    }

    /// The shape of the final layer's output.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (see [`Model::layer_shapes`]), and returns
    /// [`NnError::EmptyModel`] for a layer-less model (impossible via
    /// [`Model::new`], which validates eagerly).
    pub fn output_shape(&self) -> Result<FeatureMap, NnError> {
        match self.layer_shapes()?.last() {
            Some(&(_, _, out)) => Ok(out),
            None => Err(NnError::EmptyModel),
        }
    }

    /// Total number of multiply-accumulate operations for one inference.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (see [`Model::layer_shapes`]).
    pub fn total_macs(&self) -> Result<u64, NnError> {
        let mut total = 0u64;
        for (layer, input, _) in self.layer_shapes()? {
            total += layer.macs(input)?;
        }
        Ok(total)
    }

    /// Total number of weights across all layers.
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(Layer::weights).sum()
    }

    /// Number of weighted (CONV/FC) layers.
    pub fn weighted_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_weighted()).count()
    }

    /// Number of convolutional layers.
    pub fn conv_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Conv(_)))
            .count()
    }

    /// Number of fully-connected layers.
    pub fn fc_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Fc(_)))
            .count()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, input {})",
            self.name,
            self.layers.len(),
            self.input
        )
    }
}

/// Incremental builder for [`Model`] values.
///
/// The builder records layers in order and tracks the running feature-map
/// shape so convenience methods like [`ModelBuilder::conv_relu`] and
/// [`ModelBuilder::flatten_fc`] can be expressed tersely in the model zoo.
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    name: String,
    input: FeatureMap,
    layers: Vec<Layer>,
}

impl ModelBuilder {
    /// Starts a new model with the given name and input shape.
    pub fn new(name: impl Into<String>, input: FeatureMap) -> Self {
        Self {
            name: name.into(),
            input,
            layers: Vec::new(),
        }
    }

    /// Appends an arbitrary layer.
    pub fn layer(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a convolutional layer.
    pub fn conv(self, name: impl Into<String>, spec: ConvSpec) -> Self {
        self.layer(Layer::conv(name, spec))
    }

    /// Appends a convolutional layer immediately followed by a ReLU.
    pub fn conv_relu(self, name: impl Into<String>, spec: ConvSpec) -> Self {
        let name = name.into();
        let relu_name = format!("{name}_relu");
        self.layer(Layer::conv(name, spec)).relu(relu_name)
    }

    /// Appends a fully-connected layer.
    pub fn fc(self, name: impl Into<String>, spec: FcSpec) -> Self {
        self.layer(Layer::fc(name, spec))
    }

    /// Appends a fully-connected layer immediately followed by a ReLU.
    pub fn fc_relu(self, name: impl Into<String>, spec: FcSpec) -> Self {
        let name = name.into();
        let relu_name = format!("{name}_relu");
        self.layer(Layer::fc(name, spec)).relu(relu_name)
    }

    /// Appends a pooling layer.
    pub fn pool(self, name: impl Into<String>, spec: PoolSpec) -> Self {
        self.layer(Layer::pool(name, spec))
    }

    /// Appends a ReLU activation.
    pub fn relu(self, name: impl Into<String>) -> Self {
        self.layer(Layer::relu(name))
    }

    /// Appends an element-wise addition (residual shortcut).
    #[expect(
        clippy::should_implement_trait,
        reason = "a by-value builder step named after the layer it appends; ModelBuilder is not a number and has no + operator"
    )]
    pub fn add(self, name: impl Into<String>) -> Self {
        self.layer(Layer::elementwise_add(name))
    }

    /// Finalizes the model, validating all layers and the shape chain.
    ///
    /// # Errors
    ///
    /// See [`Model::new`].
    pub fn build(self) -> Result<Model, NnError> {
        Model::new(self.name, self.input, self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> Model {
        ModelBuilder::new("tiny", FeatureMap::new(3, 32, 32))
            .conv_relu("conv1", ConvSpec::new(3, 16, 3, 1, 1))
            .pool("pool1", PoolSpec::max(2, 2))
            .conv_relu("conv2", ConvSpec::new(16, 32, 3, 1, 1))
            .pool("pool2", PoolSpec::max(2, 2))
            .fc("fc1", FcSpec::new(32 * 8 * 8, 10))
            .build()
            .unwrap()
    }

    #[test]
    fn empty_model_is_rejected() {
        assert!(matches!(
            Model::new("empty", FeatureMap::new(3, 32, 32), vec![]),
            Err(NnError::EmptyModel)
        ));
    }

    #[test]
    fn shape_chain_is_propagated() {
        let model = tiny_model();
        assert_eq!(model.output_shape().unwrap(), FeatureMap::vector(10));
        let shapes = model.layer_shapes().unwrap();
        assert_eq!(shapes.len(), 7);
        assert_eq!(shapes[0].2, FeatureMap::new(16, 32, 32));
        assert_eq!(shapes[2].2, FeatureMap::new(16, 16, 16));
    }

    #[test]
    fn mismatched_chain_is_rejected_at_build() {
        let result = ModelBuilder::new("bad", FeatureMap::new(3, 32, 32))
            .conv("conv1", ConvSpec::new(3, 16, 3, 1, 1))
            .conv("conv2", ConvSpec::new(32, 64, 3, 1, 1)) // expects 32 channels
            .build();
        assert!(matches!(result, Err(NnError::ShapeMismatch { .. })));
    }

    #[test]
    fn aggregate_statistics() {
        let model = tiny_model();
        let expected_macs = (3 * 9 * 16 * 32 * 32) as u64 // conv1
            + (16 * 9 * 32 * 16 * 16) as u64 // conv2
            + (32 * 8 * 8 * 10) as u64; // fc1
        assert_eq!(model.total_macs().unwrap(), expected_macs);
        assert_eq!(
            model.total_weights(),
            3 * 16 * 9 + 16 * 32 * 9 + 32 * 8 * 8 * 10
        );
        assert_eq!(model.weighted_layer_count(), 3);
        assert_eq!(model.conv_layer_count(), 2);
        assert_eq!(model.fc_layer_count(), 1);
    }

    #[test]
    fn display_mentions_name_and_layer_count() {
        let text = tiny_model().to_string();
        assert!(text.contains("tiny"));
        assert!(text.contains("7 layers"));
    }

    #[test]
    fn model_implements_serialize() {
        fn assert_serialize<T: serde::Serialize>(_: &T) {}
        assert_serialize(&tiny_model());
    }
}
