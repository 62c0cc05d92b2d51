//! Integration tests for the offline `vendor/` stub crates, exercised
//! through the real workspace types: a `TimelyConfig` must survive a serde
//! round-trip, its encoding (and so every `stable_hash`) must not drift,
//! and the `rand` stub's seeded PRNG must be deterministic.

use rand::rngs::StdRng;
use rand::SeedableRng;
use timely::arch::TimelyConfig;
use timely::nn::shape::FeatureMap;
use timely::nn::tensor::Tensor;

#[test]
fn timely_config_round_trips_through_the_serde_stub() {
    for config in [
        TimelyConfig::paper_default(),
        TimelyConfig::paper_16bit(),
        TimelyConfig::builder()
            .gamma(4)
            .precision(16, 16)
            .chips(16)
            .subchips_per_chip(53)
            .build()
            .unwrap(),
    ] {
        let text = serde::json::to_string(&config);
        let back: TimelyConfig = serde::json::from_str(&text)
            .unwrap_or_else(|e| panic!("config failed to parse back: {e}\n{text}"));
        assert_eq!(back, config);
    }
}

#[test]
fn serialized_config_is_human_readable() {
    let text = serde::json::to_string(&TimelyConfig::paper_default());
    // Spot-check the format: named fields with their paper-default values.
    assert!(text.contains("\"crossbar_size\":256"), "{text}");
    assert!(text.contains("\"gamma\":8"), "{text}");
    assert!(text.contains("\"subchips_per_chip\":106"), "{text}");
}

#[test]
fn stable_hashes_are_pinned_across_the_production_space() {
    // Every 997th production-space point, folded into one digest in space
    // order, plus the ISAAC and PRIME default cache keys (hashes of their
    // own configs). Literal values, so any change to the serde stub's
    // encoded bytes fails here.
    use timely::arch::backend::fold_cache_key;
    use timely::arch::Backend;
    let space = timely::dse::SearchSpace::production_space();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut points = 0;
    for index in (0..space.len()).step_by(997) {
        digest = fold_cache_key(digest, space.config_at(index).stable_hash());
        points += 1;
    }
    assert_eq!((points, digest), (104, 0x9778_a4d4_2d9f_441d));
    assert_eq!(
        timely::baselines::IsaacModel::default().cache_key(),
        0xf362_0cf7_f13e_4827
    );
    assert_eq!(
        timely::baselines::PrimeModel::default().cache_key(),
        0xe4d1_6fd7_ea7b_b7c1
    );
}

#[test]
fn stable_hash_equals_the_full_encoding_hash_across_the_production_space() {
    // `stable_hash` folds the default component library in from a table;
    // every 7th production-space point must hash as its full encoding does.
    use timely::arch::backend::stable_hash_of;
    let space = timely::dse::SearchSpace::production_space();
    for index in (0..space.len()).step_by(7) {
        let config = space.config_at(index);
        assert_eq!(
            config.stable_hash(),
            stable_hash_of(&config),
            "point {index}"
        );
    }
}

#[test]
fn zoo_model_round_trips_through_the_serde_stub() {
    // SqueezeNet exercises the enum payloads (Branch/Pool/Conv variants),
    // nested Vec<ConvSpec>, and String layer names.
    for model in [
        timely::nn::zoo::squeezenet(),
        timely::nn::zoo::resnet_18(),
        timely::nn::zoo::mlp_l(),
    ] {
        let text = serde::json::to_string(&model);
        let back: timely::nn::Model = serde::json::from_str(&text)
            .unwrap_or_else(|e| panic!("{} failed to parse back: {e}", model.name()));
        assert_eq!(back, model);
    }
}

#[test]
fn struct_variant_enums_round_trip_through_the_serde_stub() {
    // The `timely-sim` traffic and scheduler enums exercise the derive
    // stub's struct-variant support ({"Variant":{"field":value,...}}).
    use timely::sim::{ArrivalProcess, ModelMix, Policy, TrafficSpec};

    for process in [
        ArrivalProcess::Poisson { rate: 1500.0 },
        ArrivalProcess::Bursty {
            base_rate: 100.0,
            burst_rate: 2000.0,
            mean_burst_s: 0.05,
            mean_quiet_s: 0.2,
        },
        ArrivalProcess::ClosedLoop {
            clients: 16,
            think_time_s: 0.01,
        },
    ] {
        let traffic = TrafficSpec {
            process,
            mix: ModelMix::weighted(vec![(0, 2.0), (3, 1.0)]).expect("positive weights"),
        };
        let text = serde::json::to_string(&traffic);
        let back: TrafficSpec = serde::json::from_str(&text)
            .unwrap_or_else(|e| panic!("traffic failed to parse back: {e}\n{text}"));
        assert_eq!(back, traffic);
    }

    for policy in [
        Policy::Fifo,
        Policy::Batched {
            window_s: 0.001,
            max_batch: 8,
        },
        Policy::ShortestQueue,
    ] {
        let text = serde::json::to_string(&policy);
        let back: Policy = serde::json::from_str(&text)
            .unwrap_or_else(|e| panic!("policy failed to parse back: {e}\n{text}"));
        assert_eq!(back, policy);
    }
}

#[test]
fn exponential_and_geometric_stub_distributions_are_seed_stable() {
    use rand::distributions::{Distribution, Exp, Geometric};

    let mut a = StdRng::seed_from_u64(99);
    let mut b = StdRng::seed_from_u64(99);
    let exp = Exp::new(3.0);
    let geo = Geometric::new(0.4);
    let xs: Vec<f64> = (0..64).map(|_| exp.sample(&mut a)).collect();
    let ys: Vec<f64> = (0..64).map(|_| exp.sample(&mut b)).collect();
    assert_eq!(xs, ys);
    let gs: Vec<u64> = (0..64).map(|_| geo.sample(&mut a)).collect();
    let hs: Vec<u64> = (0..64).map(|_| geo.sample(&mut b)).collect();
    assert_eq!(gs, hs);
}

#[test]
fn seeded_prng_streams_are_deterministic_and_seed_sensitive() {
    let sample = |seed: u64| -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random_uniform(FeatureMap::new(2, 4, 4), 1.0, &mut rng)
            .data()
            .to_vec()
    };
    assert_eq!(sample(42), sample(42), "same seed must replay the stream");
    assert_ne!(sample(42), sample(43), "different seeds must diverge");
}

#[test]
fn noisy_inference_is_reproducible_across_engines() {
    use timely::nn::infer::{accuracy_under_noise, InferenceConfig, NoiseModel};

    let model = timely::nn::zoo::cnn_1();
    let run = || {
        accuracy_under_noise(
            &model,
            InferenceConfig::int8(),
            NoiseModel::timely_default(),
            3,
            7,
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.samples, b.samples);
    assert_eq!(
        a.agreements, b.agreements,
        "accuracy study must be deterministic given a fixed seed"
    );
}
