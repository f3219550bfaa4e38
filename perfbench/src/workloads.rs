//! The four workloads and the explicit reclamation configuration they run
//! under. README.md in this directory gives the reason for each.

use crate::inputs::Mix;
use reclaim_core::{EraAdvancePolicy, SmrConfig};
use std::time::Duration;

/// Worker threads in every workload.
pub const WORKERS: usize = 2;

/// The schemes every workload runs, in the order each round visits them.
pub const SCHEMES: [&str; 4] = ["qsense", "qsbr", "hp", "he"];

/// The set implementation a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    /// Harris–Michael linked list.
    List,
    /// Lock-free skip list.
    SkipList,
}

/// Open-loop (soak) parameters.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Session arrivals per second (Poisson).
    pub rate_per_s: f64,
    /// Handles in the shared `LeasePool`.
    pub lease_slots: usize,
    /// Set operations per session.
    pub ops_per_session: usize,
}

/// Stall parameters: worker `victim` sleeps between operations for `delay`
/// at the end of every `period`.
#[derive(Clone, Copy, Debug)]
pub struct Stall {
    /// The sleeping worker.
    pub victim: usize,
    /// Cycle length.
    pub period: Duration,
    /// Sleep at the end of each cycle.
    pub delay: Duration,
}

/// One workload's inputs.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// The set implementation.
    pub structure: Structure,
    /// Keys are uniform over `0..key_range`.
    pub key_range: u64,
    /// Keys inserted before measuring (half the range).
    pub prefill: usize,
    /// Operation mix.
    pub mix: Mix,
    /// `Some` for the open-loop soak; closed loop otherwise.
    pub open_loop: Option<OpenLoop>,
    /// `Some` for the stall workload.
    pub stall: Option<Stall>,
    /// Unmeasured lead-in of every cell.
    pub warmup: Duration,
}

const READ_MOSTLY: Mix = Mix {
    insert_pct: 5,
    remove_pct: 5,
};
const CHURN: Mix = Mix {
    insert_pct: 25,
    remove_pct: 25,
};

/// Closed-loop warm-up: caches and the schemes' buffers fill.
const CLOSED_WARMUP: Duration = Duration::from_millis(100);
/// Soak warm-up: long enough that QSense's one-time switch to its fallback
/// path (tripped about 0.25 s in, by the idle leases) lands before the
/// measured phase, which therefore sees the steady state.
const SOAK_WARMUP: Duration = Duration::from_millis(400);

/// Every workload.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "list-read",
        structure: Structure::List,
        key_range: 2_000,
        prefill: 1_000,
        mix: READ_MOSTLY,
        open_loop: None,
        stall: None,
        warmup: CLOSED_WARMUP,
    },
    Workload {
        name: "skiplist-churn",
        structure: Structure::SkipList,
        key_range: 20_000,
        prefill: 10_000,
        mix: CHURN,
        open_loop: None,
        stall: None,
        warmup: CLOSED_WARMUP,
    },
    Workload {
        name: "soak",
        structure: Structure::SkipList,
        key_range: 512,
        prefill: 256,
        mix: CHURN,
        open_loop: Some(OpenLoop {
            rate_per_s: 8_000.0,
            lease_slots: 8,
            ops_per_session: 64,
        }),
        stall: None,
        warmup: SOAK_WARMUP,
    },
    Workload {
        name: "stall",
        structure: Structure::SkipList,
        key_range: 20_000,
        prefill: 10_000,
        mix: CHURN,
        open_loop: None,
        stall: Some(Stall {
            victim: 1,
            period: Duration::from_millis(200),
            delay: Duration::from_millis(100),
        }),
        warmup: CLOSED_WARMUP,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Registry capacity: the 2 workers (or the soak's 8 leased handles), the
/// prefill handle and the final check handle fit with room to spare.
pub const MAX_THREADS: usize = 64;

/// The reclamation configuration, stated field by field so that a change to
/// `SmrConfig::default()` cannot change the benchmark. The values are those
/// of the workspace's `default_bench_config`; the hazard-pointer budget is
/// the structure's own.
pub fn smr_config(structure: Structure, telemetry: bool) -> SmrConfig {
    let hp_per_thread = match structure {
        Structure::List => lockfree_ds::LIST_HP_SLOTS,
        Structure::SkipList => lockfree_ds::SKIPLIST_HP_SLOTS,
    };
    SmrConfig::default()
        .with_max_threads(MAX_THREADS)
        .with_hp_per_thread(hp_per_thread)
        .with_quiescence_threshold(64)
        .with_scan_threshold(128)
        .with_fallback_threshold(8_192)
        .with_rooster_interval(Duration::from_millis(5))
        .with_rooster_epsilon(Duration::from_millis(1))
        .with_rooster_threads(1)
        .with_membarrier(true)
        .with_eviction_timeout(None)
        .with_limbo_budget(None)
        .with_era_policy(EraAdvancePolicy::Static(64))
        .with_telemetry(telemetry)
        .with_telemetry_sample_shift(7)
}

/// The configuration as one JSON object, for the run envelope.
pub fn config_json(cfg: &SmrConfig) -> String {
    format!(
        "{{\"max_threads\": {}, \"hp_per_thread\": {}, \"quiescence_threshold\": {}, \
         \"scan_threshold\": {}, \"fallback_threshold\": {}, \"rooster_interval_ms\": {}, \
         \"rooster_epsilon_ms\": {}, \"rooster_threads\": {}, \"use_membarrier\": {}, \
         \"eviction_timeout\": null, \"limbo_budget\": null, \"era_policy\": \"{:?}\", \
         \"telemetry\": {}, \"telemetry_sample_shift\": {}}}",
        cfg.max_threads,
        cfg.hp_per_thread,
        cfg.quiescence_threshold,
        cfg.scan_threshold,
        cfg.fallback_threshold,
        cfg.rooster_interval.as_secs_f64() * 1e3,
        cfg.rooster_epsilon.as_secs_f64() * 1e3,
        cfg.rooster_threads,
        cfg.use_membarrier,
        cfg.era_policy,
        cfg.telemetry,
        cfg.telemetry_sample_shift,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_is_stated_not_inherited() {
        let cfg = smr_config(Structure::SkipList, false);
        assert_eq!(cfg.max_threads, MAX_THREADS);
        assert_eq!(cfg.quiescence_threshold, 64);
        assert_eq!(cfg.scan_threshold, 128);
        assert_eq!(cfg.fallback_threshold, 8_192);
        assert_eq!(cfg.rooster_threads, 1);
        assert!(!cfg.telemetry);
        assert!(smr_config(Structure::List, true).telemetry);
    }

    #[test]
    fn workloads_are_half_filled_and_named_uniquely() {
        for w in &WORKLOADS {
            assert_eq!(w.prefill as u64 * 2, w.key_range, "{}", w.name);
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(by_name("nope").is_none());
    }
}
