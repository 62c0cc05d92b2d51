//! Outputs pinned for [`PINNED_SEED`](crate::workloads::PINNED_SEED) at the
//! standard size. A pure performance change leaves every one of them
//! bit-identical; a run whose outputs differ fails every op.

use timely_dse::ScreenStats;

use crate::workloads::{
    AccuracyOutput, DseOutput, Output, PhaseOutput, ServingOutput, WorkloadKind,
};

/// The pinned outputs of one standard-size iteration of `kind`.
pub fn pinned(kind: WorkloadKind) -> Output {
    match kind {
        WorkloadKind::ServingOpen => Output::Serving(ServingOutput {
            offered: 199_664,
            completed: 199_646,
            shed: 0,
            backlog: 18,
            p50_ms_bits: 4_589_168_020_290_535_424,
            p99_ms_bits: 4_593_029_790_278_036_928,
            mj_per_request_bits: 4_601_230_107_853_351_485,
        }),
        WorkloadKind::ServingClosed => Output::Serving(ServingOutput {
            offered: 40_373,
            completed: 40_358,
            shed: 0,
            backlog: 15,
            p50_ms_bits: 4_586_156_012_859_750_432,
            p99_ms_bits: 4_606_476_254_378_445_762,
            mj_per_request_bits: 4_601_191_621_319_940_377,
        }),
        WorkloadKind::Dse => Output::Dse(DseOutput {
            neighborhood: PhaseOutput {
                screening: ScreenStats {
                    visited: 1_145,
                    screened_out: 0,
                    evaluated: 1_145,
                },
                frontier: 24,
                frontier_digest: 4_097_921_782_450_252_124,
            },
            production: PhaseOutput {
                screening: ScreenStats {
                    visited: 103_937,
                    screened_out: 103_442,
                    evaluated: 495,
                },
                frontier: 131,
                frontier_digest: 12_474_655_892_918_740_446,
            },
        }),
        WorkloadKind::Accuracy => Output::Accuracy(vec![
            AccuracyOutput {
                model: "CNN-1".to_string(),
                samples: 3,
                agreements: 2,
            },
            AccuracyOutput {
                model: "MLP-L".to_string(),
                samples: 3,
                agreements: 2,
            },
        ]),
    }
}
