//! Traffic generation: arrival processes and model-zoo workload mixes.
//!
//! Open-loop sources emit requests at times governed by a stochastic process
//! regardless of how the fleet is coping (the standard serving-benchmark
//! regime: load does not back off when latency grows). The closed-loop source
//! models a fixed population of clients that each wait for their previous
//! response (plus a think time) before issuing the next request, so offered
//! load self-limits at the fleet's capacity.

use crate::error::SimError;
use rand::distributions::{Distribution, Exp};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How request arrival times are generated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Open-loop Poisson process: exponential inter-arrival times at a
    /// constant rate (requests per second).
    Poisson {
        /// Mean arrival rate in requests per second.
        rate: f64,
    },
    /// Open-loop Markov-modulated Poisson process alternating between a
    /// quiet state and a burst state, with exponentially distributed
    /// sojourn times in each. Models bursty production traffic.
    Bursty {
        /// Arrival rate in the quiet state (requests per second).
        base_rate: f64,
        /// Arrival rate in the burst state (requests per second).
        burst_rate: f64,
        /// Mean duration of a burst, in seconds.
        mean_burst_s: f64,
        /// Mean duration of a quiet period, in seconds.
        mean_quiet_s: f64,
    },
    /// Closed loop: `clients` concurrent clients, each issuing its next
    /// request an exponentially distributed think time after receiving the
    /// previous response. `think_time_s = 0` keeps every client
    /// back-to-back, which drives the fleet at saturation.
    ClosedLoop {
        /// Number of concurrent clients.
        clients: usize,
        /// Mean think time between response and next request, in seconds.
        think_time_s: f64,
    },
}

impl ArrivalProcess {
    /// Validates the process parameters structurally.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTraffic`] naming the malformed parameter:
    /// non-positive or non-finite rates and sojourns, zero clients, a
    /// negative think time, or a sojourn or think time so small (subnormal)
    /// that its reciprocal rate overflows to infinity.
    pub fn check(&self) -> Result<(), SimError> {
        let fail = |reason: &str| Err(SimError::InvalidTraffic(reason.to_string()));
        match *self {
            ArrivalProcess::Poisson { rate } => {
                if !(rate > 0.0 && rate.is_finite()) {
                    return fail("Poisson rate must be > 0");
                }
            }
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                mean_burst_s,
                mean_quiet_s,
            } => {
                if !(base_rate > 0.0
                    && base_rate.is_finite()
                    && burst_rate > 0.0
                    && burst_rate.is_finite())
                {
                    return fail("rates must be > 0");
                }
                if !(mean_burst_s > 0.0
                    && mean_burst_s.is_finite()
                    && mean_quiet_s > 0.0
                    && mean_quiet_s.is_finite())
                {
                    return fail("sojourn times must be > 0");
                }
                if !((1.0 / mean_burst_s).is_finite() && (1.0 / mean_quiet_s).is_finite()) {
                    return fail("sojourn times must have a finite reciprocal rate");
                }
            }
            ArrivalProcess::ClosedLoop {
                clients,
                think_time_s,
            } => {
                if clients == 0 {
                    return fail("closed loop needs at least one client");
                }
                if !(think_time_s >= 0.0 && think_time_s.is_finite()) {
                    return fail("think time must be >= 0");
                }
                if think_time_s > 0.0 && !(1.0 / think_time_s).is_finite() {
                    return fail("think time must have a finite reciprocal rate");
                }
            }
        }
        Ok(())
    }
}

/// A weighted mix of models: which zoo model each arriving request asks for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelMix {
    /// `(model index, weight)` pairs; weights need not sum to one.
    entries: Vec<(usize, f64)>,
    total: f64,
}

impl ModelMix {
    /// A mix that always requests model `index`.
    pub fn single(index: usize) -> Self {
        Self {
            entries: vec![(index, 1.0)],
            total: 1.0,
        }
    }

    /// A uniform mix over models `0..n`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "uniform mix needs at least one model");
        Self {
            entries: (0..n).map(|i| (i, 1.0)).collect(),
            total: n as f64,
        }
    }

    /// A mix with explicit positive weights per model index.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTraffic`] if `entries` is empty or any
    /// weight is not a strictly positive finite number.
    pub fn weighted(entries: Vec<(usize, f64)>) -> Result<Self, SimError> {
        if entries.is_empty() {
            return Err(SimError::InvalidTraffic(
                "model mix must not be empty".to_string(),
            ));
        }
        let mut total = 0.0;
        for &(_, w) in &entries {
            if !(w > 0.0 && w.is_finite()) {
                return Err(SimError::InvalidTraffic(
                    "mix weights must be > 0".to_string(),
                ));
            }
            total += w;
        }
        Ok(Self { entries, total })
    }

    /// The model indices referenced by this mix.
    pub fn model_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().map(|&(i, _)| i)
    }

    /// The largest model index referenced by the mix.
    pub fn max_model_index(&self) -> usize {
        self.model_indices().fold(0, usize::max)
    }

    /// Samples a model index proportionally to the weights.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut u = rng.gen_range(0.0..self.total);
        // Tracking the last-seen index makes the floating-point-slack
        // fallthrough (u exhausted past the final weight) panic-free.
        let mut chosen = 0;
        for &(index, weight) in &self.entries {
            chosen = index;
            if u < weight {
                return index;
            }
            u -= weight;
        }
        chosen
    }
}

/// A complete traffic specification: when requests arrive and what they ask
/// for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// The arrival process.
    pub process: ArrivalProcess,
    /// The model mix sampled independently per request.
    pub mix: ModelMix,
}

impl TrafficSpec {
    /// Open-loop Poisson traffic for a single model.
    pub fn poisson(rate: f64, model: usize) -> Self {
        Self {
            process: ArrivalProcess::Poisson { rate },
            mix: ModelMix::single(model),
        }
    }
}

/// Mutable state of an open-loop arrival source during a run.
///
/// Because exponential sojourns are memoryless, truncating an inter-arrival
/// draw at a state switch and redrawing at the new state's rate samples the
/// modulated process exactly.
#[derive(Debug, Clone)]
pub(crate) struct OpenLoopSource {
    process: OpenProcess,
    in_burst: bool,
    state_until: f64,
}

/// The open-loop subset of [`ArrivalProcess`], with each exponential
/// distribution built once per run. Holding only these variants makes
/// [`OpenLoopSource::next_arrival`] total — there is no closed-loop arm to
/// declare unreachable.
#[derive(Debug, Clone)]
enum OpenProcess {
    Poisson {
        gap: Exp,
    },
    Bursty {
        base_gap: Exp,
        burst_gap: Exp,
        burst_sojourn: Exp,
        quiet_sojourn: Exp,
    },
}

impl OpenLoopSource {
    /// Builds the source, or `None` when the process is closed-loop. The
    /// process must have passed [`ArrivalProcess::check`].
    pub(crate) fn new(process: ArrivalProcess) -> Option<Self> {
        let process = match process {
            ArrivalProcess::Poisson { rate } => OpenProcess::Poisson {
                gap: Exp::new(rate),
            },
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                mean_burst_s,
                mean_quiet_s,
            } => OpenProcess::Bursty {
                base_gap: Exp::new(base_rate),
                burst_gap: Exp::new(burst_rate),
                burst_sojourn: Exp::new(1.0 / mean_burst_s),
                quiet_sojourn: Exp::new(1.0 / mean_quiet_s),
            },
            ArrivalProcess::ClosedLoop { .. } => return None,
        };
        Some(Self {
            process,
            // The expired pseudo-state at t=0 toggles before the first
            // draw, so start "in burst" to make the first real sojourn
            // the quiet state.
            in_burst: true,
            state_until: 0.0,
        })
    }

    /// The absolute time of the next arrival after `now`.
    pub(crate) fn next_arrival<R: Rng + ?Sized>(&mut self, now: f64, rng: &mut R) -> f64 {
        match self.process {
            OpenProcess::Poisson { gap } => now + gap.sample(rng),
            OpenProcess::Bursty {
                base_gap,
                burst_gap,
                burst_sojourn,
                quiet_sojourn,
            } => {
                let mut t = now;
                loop {
                    if t >= self.state_until {
                        self.in_burst = !self.in_burst;
                        let sojourn = if self.in_burst {
                            burst_sojourn
                        } else {
                            quiet_sojourn
                        };
                        self.state_until = t + sojourn.sample(rng);
                    }
                    let gap = if self.in_burst { burst_gap } else { base_gap };
                    let candidate = t + gap.sample(rng);
                    if candidate <= self.state_until {
                        return candidate;
                    }
                    t = self.state_until;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_interarrival_mean_matches_rate() {
        let mut src = OpenLoopSource::new(ArrivalProcess::Poisson { rate: 100.0 }).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = 0.0;
        let n = 20_000;
        for _ in 0..n {
            t = src.next_arrival(t, &mut rng);
        }
        let mean_gap = t / n as f64;
        assert!((mean_gap - 0.01).abs() / 0.01 < 0.05, "mean gap {mean_gap}");
    }

    #[test]
    fn bursty_rate_lies_between_base_and_burst() {
        let process = ArrivalProcess::Bursty {
            base_rate: 10.0,
            burst_rate: 1000.0,
            mean_burst_s: 0.05,
            mean_quiet_s: 0.05,
        };
        let mut src = OpenLoopSource::new(process).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut t = 0.0;
        let n = 20_000;
        for _ in 0..n {
            t = src.next_arrival(t, &mut rng);
        }
        let rate = n as f64 / t;
        assert!(rate > 10.0 && rate < 1000.0, "effective rate {rate}");
        // Equal sojourns: the long-run rate is near the arithmetic mean.
        assert!((rate - 505.0).abs() / 505.0 < 0.25, "effective rate {rate}");
    }

    #[test]
    fn bursty_source_starts_in_the_quiet_state() {
        let process = ArrivalProcess::Bursty {
            base_rate: 1.0,
            burst_rate: 1e6,
            mean_burst_s: 1_000.0,
            mean_quiet_s: 1_000.0,
        };
        for seed in 0..20 {
            let mut src = OpenLoopSource::new(process).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            // A first draw in the burst state would land around 1e-6 s; the
            // quiet state's scale is ~1 s. The long quiet sojourn guarantees
            // the first gap is drawn at base_rate.
            let first = src.next_arrival(0.0, &mut rng);
            assert!(first > 1e-3, "seed {seed}: first gap {first}");
        }
    }

    #[test]
    fn arrivals_are_strictly_ordered_and_deterministic() {
        let process = ArrivalProcess::Poisson { rate: 50.0 };
        let run = |seed: u64| -> Vec<f64> {
            let mut src = OpenLoopSource::new(process).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = 0.0;
            (0..256)
                .map(|_| {
                    t = src.next_arrival(t, &mut rng);
                    t
                })
                .collect()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn closed_loop_has_no_open_source() {
        assert!(OpenLoopSource::new(ArrivalProcess::ClosedLoop {
            clients: 4,
            think_time_s: 0.0,
        })
        .is_none());
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = ModelMix::weighted(vec![(0, 3.0), (2, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[mix.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac = counts[0] as f64 / 10_000.0;
        assert!((frac - 0.75).abs() < 0.03, "fraction {frac}");
        assert_eq!(mix.max_model_index(), 2);
        assert!(ModelMix::weighted(Vec::new()).is_err());
        assert!(ModelMix::weighted(vec![(0, 1.0), (1, f64::NAN)]).is_err());
    }

    #[test]
    fn uniform_mix_covers_all_models() {
        let mix = ModelMix::uniform(4);
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[mix.sample(&mut rng)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }
}
