//! Dataset loading and harness configuration.

use std::time::Instant;

use hsp_datagen::{generate_sp2bench, generate_yago, DatasetKind, Sp2BenchConfig, YagoConfig};
use hsp_store::Dataset;

/// Harness configuration, read from the environment with defaults.
#[derive(Debug, Clone, Copy)]
pub struct EnvConfig {
    /// SP2Bench-like dataset size (triples).
    pub sp2b_triples: usize,
    /// YAGO-like dataset size (triples).
    pub yago_triples: usize,
    /// Timed runs per query (first dropped, rest averaged).
    pub runs: usize,
    /// Per-query memory budget in bytes. Fixed, not read from the
    /// environment: it refuses the SQL baseline's Cartesian SP4a plan
    /// before it materialises (the paper's `XXX`) and no other cell.
    pub mem_budget: usize,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            sp2b_triples: 1_000_000,
            yago_triples: 500_000,
            runs: 21,
            mem_budget: 1 << 30,
        }
    }
}

impl EnvConfig {
    /// Read configuration from `HSP_*` environment variables.
    pub fn from_env() -> Self {
        let default = EnvConfig::default();
        EnvConfig {
            sp2b_triples: read("HSP_SP2B_TRIPLES", default.sp2b_triples),
            yago_triples: read("HSP_YAGO_TRIPLES", default.yago_triples),
            runs: read("HSP_RUNS", default.runs).max(2),
            mem_budget: default.mem_budget,
        }
    }

    /// A small configuration for tests and quick smoke runs.
    pub fn small() -> Self {
        EnvConfig {
            sp2b_triples: 30_000,
            yago_triples: 30_000,
            runs: 3,
            mem_budget: 16 << 20,
        }
    }
}

fn read(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .unwrap_or(default)
}

/// The loaded benchmark environment: both datasets plus the configuration.
pub struct BenchEnv {
    /// The SP2Bench-like dataset.
    pub sp2b: Dataset,
    /// The YAGO-like dataset.
    pub yago: Dataset,
    /// The configuration used.
    pub config: EnvConfig,
    /// Wall-clock seconds spent generating/loading.
    pub load_seconds: f64,
}

impl BenchEnv {
    /// Generate both datasets per `config`.
    pub fn load(config: EnvConfig) -> Self {
        let start = Instant::now();
        let sp2b = generate_sp2bench(Sp2BenchConfig {
            target_triples: config.sp2b_triples,
            seed: 42,
        });
        let yago = generate_yago(YagoConfig {
            target_triples: config.yago_triples,
            seed: 1234,
        });
        BenchEnv {
            sp2b,
            yago,
            config,
            load_seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// The dataset a workload query targets.
    pub fn dataset(&self, kind: DatasetKind) -> &Dataset {
        match kind {
            DatasetKind::Sp2Bench => &self.sp2b,
            DatasetKind::Yago => &self.yago,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_env_loads_both_datasets() {
        let env = BenchEnv::load(EnvConfig::small());
        assert!(env.sp2b.len() > 10_000);
        assert!(env.yago.len() > 10_000);
    }

    #[test]
    fn env_defaults() {
        let c = EnvConfig::default();
        assert_eq!(c.runs, 21);
        assert_eq!(c.mem_budget, 1 << 30);
    }
}
