//! Property-based integration tests over the public API: invariants that must
//! hold for arbitrary (valid) configurations and synthetic layer shapes.

use proptest::prelude::*;
use timely::arch::{
    AreaBreakdown, EnergyBreakdown, ModelMapping, PeakPerformance, SubChipGeometry,
    ThroughputReport, TimelyConfig,
};
use timely::nn::{ConvSpec, FeatureMap, ModelBuilder};
use timely::obs::NoopRecorder;
use timely::sim::{
    ArrivalProcess, ModelMix, ModelProfile, Policy, Scenario, ServingSimulator, Sharding,
    SimConfig, TrafficSpec,
};

/// A strategy producing small but valid convolutional models.
fn small_conv_model() -> impl Strategy<Value = timely::nn::Model> {
    (
        1usize..=8,  // input channels
        1usize..=32, // output channels
        prop::sample::select(vec![1usize, 3, 5]),
        1usize..=2,  // stride
        8usize..=32, // spatial size
    )
        .prop_map(|(c, d, k, s, hw)| {
            let padding = k / 2;
            ModelBuilder::new("prop", FeatureMap::new(c, hw, hw))
                .conv_relu("conv1", ConvSpec::new(c, d, k, s, padding))
                .build()
                .expect("generated models are valid")
        })
}

/// A strategy producing valid TIMELY configurations.
fn arbitrary_config() -> impl Strategy<Value = TimelyConfig> {
    (
        prop::sample::select(vec![2usize, 4, 8, 16]),
        prop::sample::select(vec![8u8, 16]),
        1usize..=4,
        10usize..=120,
    )
        .prop_map(|(gamma, bits, chips, subchips)| {
            TimelyConfig::builder()
                .gamma(gamma)
                .precision(bits, bits)
                .chips(chips)
                .subchips_per_chip(subchips)
                .build()
                .expect("generated configurations are valid")
        })
}

proptest! {
    // Capped so the whole suite stays fast on a single-CPU CI container;
    // override with e.g. `PROPTEST_CASES=256 cargo test`.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn energy_is_positive_and_finite_for_any_model_and_config(
        model in small_conv_model(),
        config in arbitrary_config(),
    ) {
        let mapping = ModelMapping::analyze(&model, &config).unwrap();
        let energy = EnergyBreakdown::for_mapping(&mapping, &config);
        prop_assert!(energy.total().as_femtojoules() > 0.0);
        prop_assert!(energy.total().as_femtojoules().is_finite());
    }

    #[test]
    fn data_type_view_partitions_the_total(
        model in small_conv_model(),
        config in arbitrary_config(),
    ) {
        use timely::arch::DataType;
        let mapping = ModelMapping::analyze(&model, &config).unwrap();
        let energy = EnergyBreakdown::for_mapping(&mapping, &config);
        let partitioned = energy.by_data_type(DataType::Input)
            + energy.by_data_type(DataType::Psum)
            + energy.by_data_type(DataType::Output)
            + energy.by_data_type(DataType::Compute);
        let rel = (partitioned.as_femtojoules() - energy.total().as_femtojoules()).abs()
            / energy.total().as_femtojoules();
        prop_assert!(rel < 1e-9);
    }

    #[test]
    fn o2ir_never_reads_more_inputs_than_the_conventional_mapping(
        model in small_conv_model(),
    ) {
        let o2ir_cfg = TimelyConfig::paper_default();
        let mut conventional_cfg = TimelyConfig::paper_default();
        conventional_cfg.features.o2ir_mapping = false;
        let o2ir = ModelMapping::analyze(&model, &o2ir_cfg).unwrap();
        let conventional = ModelMapping::analyze(&model, &conventional_cfg).unwrap();
        prop_assert!(o2ir.totals.l1_input_reads <= conventional.totals.l1_input_reads);
    }

    #[test]
    fn area_scales_linearly_with_subchip_count(subchips in 1usize..=200) {
        let one = TimelyConfig::builder().subchips_per_chip(1).build().unwrap();
        let many = TimelyConfig::builder().subchips_per_chip(subchips).build().unwrap();
        let a1 = AreaBreakdown::for_chip(&one).total().as_square_microns();
        let an = AreaBreakdown::for_chip(&many).total().as_square_microns();
        prop_assert!((an / a1 - subchips as f64).abs() < 1e-6);
    }

    #[test]
    fn peak_ops_scale_inversely_with_precision(config in arbitrary_config()) {
        let mut cfg8 = config.clone();
        cfg8.weight_bits = 8;
        cfg8.activation_bits = 8;
        let mut cfg16 = config;
        cfg16.weight_bits = 16;
        cfg16.activation_bits = 16;
        let p8 = PeakPerformance::for_config(&cfg8);
        let p16 = PeakPerformance::for_config(&cfg16);
        prop_assert!(p8.ops_per_second >= p16.ops_per_second);
    }

    #[test]
    fn geometry_counts_are_consistent(config in arbitrary_config()) {
        let geo = SubChipGeometry::from_config(&config);
        prop_assert_eq!(geo.crossbars, config.subchip_rows * config.subchip_cols);
        prop_assert_eq!(geo.dtcs * config.gamma, geo.input_rows);
        prop_assert_eq!(geo.tdcs * config.gamma, geo.output_columns);
        prop_assert!(geo.weight_capacity > 0);
    }

    #[test]
    fn simulator_is_deterministic_under_a_fixed_seed(
        seed in 0u64..=u64::MAX,
        chips in 1usize..=4,
    ) {
        let model = timely::nn::zoo::cnn_1();
        let profile = ModelProfile::for_model(&model, &TimelyConfig::paper_default())
            .expect("CNN-1 fits on one chip");
        let rate = 0.6 * profile.capacity_rps() * chips as f64;
        let sim = ServingSimulator::new(
            std::slice::from_ref(&model),
            &TimelyConfig::paper_default(),
            SimConfig {
                seed,
                duration_s: 300.0 / rate,
                chips,
                policy: Policy::ShortestQueue,
                sharding: Sharding::Replicate,
            },
        )
        .expect("CNN-1 fits on one chip");
        let traffic = TrafficSpec {
            process: ArrivalProcess::Poisson { rate },
            mix: ModelMix::single(0),
        };
        let a = sim.run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder).expect("valid traffic");
        let b = sim.run_scenario_recorded(&traffic, &Scenario::default(), &mut NoopRecorder).expect("valid traffic");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn simulated_throughput_converges_to_the_analytical_model(seed in 0u64..=u64::MAX) {
        // At low load the simulator must reproduce the closed-form numbers:
        // the median latency is the analytical single-inference latency and
        // completions track arrivals; driven to saturation, the completion
        // rate converges to the analytical
        // `throughput_inferences_per_second()` (= 1 / initiation interval),
        // both within 10%.
        let model = timely::nn::zoo::cnn_1();
        let mut config = TimelyConfig::paper_default();
        config.chips = 1;
        let analytical = ThroughputReport::for_model(&model, &config)
            .expect("CNN-1 fits on one chip");
        let profile = ModelProfile::for_model(&model, &config).unwrap();
        let build = |duration_s: f64| {
            ServingSimulator::new(
                std::slice::from_ref(&model),
                &config,
                SimConfig {
                    seed,
                    duration_s,
                    chips: 1,
                    policy: Policy::Fifo,
                    sharding: Sharding::Replicate,
                },
            )
            .expect("CNN-1 fits on one chip")
        };

        // Low load: 10% of capacity.
        let rate = 0.1 * analytical.inferences_per_second;
        let low = build(400.0 / rate).run_scenario_recorded(&TrafficSpec::poisson(rate, 0), &Scenario::default(), &mut NoopRecorder).expect("valid traffic");
        let analytical_ms = analytical.single_inference_latency.as_seconds() * 1e3;
        let drift = (low.latency.p50_ms - analytical_ms).abs() / analytical_ms;
        prop_assert!(drift < 0.10, "low-load p50 {} vs analytical {analytical_ms}", low.latency.p50_ms);
        // Completions track realized arrivals (the offered count itself is
        // Poisson-random, so compare against it rather than the mean rate).
        prop_assert!(
            low.completed as f64 >= 0.90 * low.offered as f64,
            "low-load completions {} vs arrivals {}",
            low.completed,
            low.offered
        );

        // Saturation: enough closed-loop clients to keep the pipeline full.
        let clients = profile.saturating_clients();
        let sat = build(1_000.0 * profile.initiation_interval_s).run_scenario_recorded(&TrafficSpec {
            process: ArrivalProcess::ClosedLoop { clients, think_time_s: 0.0 },
            mix: ModelMix::single(0),
        }, &Scenario::default(), &mut NoopRecorder).expect("valid traffic");
        let sat_drift = (sat.throughput_rps - analytical.inferences_per_second).abs()
            / analytical.inferences_per_second;
        prop_assert!(
            sat_drift < 0.10,
            "saturated throughput {} vs analytical {}",
            sat.throughput_rps,
            analytical.inferences_per_second
        );
    }
}
