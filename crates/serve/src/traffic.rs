//! Deterministic synthetic traffic: a seeded request stream with
//! Zipf-distributed kernel popularity and a fixed request-kind mix.
//!
//! The generator is pure — same seed, same stream, on every platform —
//! so a load test is replayable and its report byte-identical across
//! worker counts. Kernel popularity follows a Zipf law (`s = 1.1`) over
//! the benchmark suite, matching the skew a shared exploration service
//! sees in practice: a few hot kernels dominate, giving caches something
//! to bite on. Parameter grids are chosen so every request is *servable*
//! (budgets and utilization targets that the solvers accept), keeping
//! error responses an explicit test concern rather than random noise.

use crate::proto::{Level, ReconfigReq, ReqKind, Request};
use rtise_obs::Rng;

/// Zipf exponent for kernel popularity.
const ZIPF_S: f64 = 1.1;

/// A seeded sampler of kernel names, most-popular-first in suite order.
pub struct KernelZipf {
    names: Vec<&'static str>,
    /// Cumulative weights scaled to `u64` for integer sampling.
    cumulative: Vec<u64>,
    total: u64,
}

impl KernelZipf {
    /// Builds the sampler over the full benchmark suite.
    #[must_use]
    pub fn new() -> Self {
        let names: Vec<&'static str> = rtise::kernels::names().collect();
        let weights: Vec<f64> = (0..names.len())
            .map(|rank| 1.0 / ((rank + 1) as f64).powf(ZIPF_S))
            .collect();
        let scale = 1.0e6;
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0u64;
        for w in weights {
            total += (w * scale) as u64 + 1;
            cumulative.push(total);
        }
        KernelZipf {
            names,
            cumulative,
            total,
        }
    }

    /// Draws one kernel name.
    pub fn sample(&self, rng: &mut Rng) -> &'static str {
        let x = rng.gen_range(0..self.total);
        let idx = self.cumulative.partition_point(|&c| c <= x);
        self.names[idx.min(self.names.len() - 1)]
    }
}

impl Default for KernelZipf {
    fn default() -> Self {
        KernelZipf::new()
    }
}

fn pick<T: Copy>(rng: &mut Rng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

/// Generates `n` requests with ids `1..=n`.
///
/// Mix: 55% curve, 15% EDF selection, 10% RMS selection, 10% ILP, 10%
/// reconfiguration (70% JPEG / 30% synthetic). All curve work runs at
/// the `fast` level so a thousand-request load test stays interactive.
#[must_use]
pub fn generate(seed: u64, n: usize) -> Vec<Request> {
    let zipf = KernelZipf::new();
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let kind = match rng.gen_range(0..100u64) {
                0..=54 => ReqKind::Curve {
                    kernel: zipf.sample(&mut rng).to_string(),
                    level: Level::Fast,
                },
                55..=69 => {
                    let tasks = rng.gen_range(2..=4usize);
                    ReqKind::SelectEdf {
                        kernels: (0..tasks)
                            .map(|_| zipf.sample(&mut rng).to_string())
                            .collect(),
                        u0_pct: pick(&mut rng, &[80, 100, 105, 110]),
                        budget: pick(&mut rng, &[128, 256, 512]),
                        level: Level::Fast,
                    }
                }
                70..=79 => {
                    let tasks = rng.gen_range(2..=3usize);
                    ReqKind::SelectRms {
                        kernels: (0..tasks)
                            .map(|_| zipf.sample(&mut rng).to_string())
                            .collect(),
                        u0_pct: pick(&mut rng, &[60, 65]),
                        budget: pick(&mut rng, &[128, 256, 512]),
                        level: Level::Fast,
                    }
                }
                80..=89 => ReqKind::Ilp {
                    seed: rng.gen_range(0..6u64),
                },
                _ => {
                    if rng.gen_bool(0.7) {
                        let (fabric_pct, reconfig_cost) = pick(&mut rng, &[(30, 1500), (40, 2000)]);
                        ReqKind::Reconfig(ReconfigReq::Jpeg {
                            fabric_pct,
                            reconfig_cost,
                            level: Level::Fast,
                        })
                    } else {
                        ReqKind::Reconfig(ReconfigReq::Synthetic {
                            n: pick(&mut rng, &[6, 8, 10]),
                            seed: rng.gen_range(0..5u64),
                        })
                    }
                }
            };
            Request {
                id: i as u64 + 1,
                kind,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::dedup_key;
    use std::collections::HashMap;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(0xfeed, 200), generate(0xfeed, 200));
        assert_ne!(generate(1, 200), generate(2, 200));
    }

    #[test]
    fn popularity_is_skewed_and_mix_covers_every_kind() {
        let reqs = generate(7, 1000);
        let mut kinds: HashMap<&str, usize> = HashMap::new();
        let mut keys: HashMap<String, usize> = HashMap::new();
        for r in &reqs {
            *kinds.entry(r.kind.name()).or_default() += 1;
            *keys.entry(dedup_key(&r.kind)).or_default() += 1;
        }
        for kind in ["curve", "select_edf", "select_rms", "ilp", "reconfig"] {
            assert!(kinds.get(kind).copied().unwrap_or(0) > 0, "no {kind}");
        }
        // Zipf skew: far fewer distinct keys than requests, and the
        // hottest key repeats a lot.
        assert!(keys.len() < reqs.len() / 2, "{} distinct", keys.len());
        assert!(keys.values().copied().max().unwrap_or(0) >= 50);
    }
}
