//! What one timed pass over a deployment measures, whatever the
//! deployment: request outcomes, generator health, CPU by role, the
//! lifecycle trace and the registry counters.

use crate::outcome::Tally;
use crate::procstat::CpuSplit;
use std::collections::BTreeMap;
use std::time::Duration;

/// Timing of one pass on the schedule's clock: requests due in
/// `[warmup, warmup + window)` are the measured ones.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub rate: f64,
    pub warmup: Duration,
    pub window: Duration,
    pub deadline: Duration,
}

impl Plan {
    pub fn window_start_ns(&self) -> u64 {
        self.warmup.as_nanos() as u64
    }

    pub fn window_end_ns(&self) -> u64 {
        (self.warmup + self.window).as_nanos() as u64
    }

    /// Whether a request due at `due_ns` is a measured one.
    pub fn timed(&self, due_ns: u64) -> bool {
        (self.window_start_ns()..self.window_end_ns()).contains(&due_ns)
    }
}

/// Per-interval lifecycle statistics of a window: `name → (count, mean ns)`.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    pub intervals: BTreeMap<String, (u64, f64)>,
}

impl TraceStats {
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.intervals
            .get(name)
            .map_or(0.0, |&(_, mean)| mean / 1e6)
    }

    /// How much of the traced `end_to_end` mean the telescoping chain
    /// intervals cover, in percent.
    pub fn attributed_pct(&self) -> f64 {
        let e2e = self.mean_ms("end_to_end");
        if e2e <= 0.0 {
            return 0.0;
        }
        let chain: f64 = psmr_common::trace::INTERVAL_NAMES[..psmr_common::trace::CHAIN_INTERVALS]
            .iter()
            .map(|name| self.mean_ms(name))
            .sum();
        chain / e2e * 100.0
    }
}

/// Registry activity of a window.
#[derive(Debug, Clone, Default)]
pub struct CounterStats {
    /// Counter deltas, summed over every process of the deployment.
    pub counters: BTreeMap<String, u64>,
    pub delivery_queue_depth_max: u64,
    pub fsync_p50_ns: u64,
    pub fsync_p99_ns: u64,
}

impl CounterStats {
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Everything one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    pub tally: Tally,
    pub window_secs: f64,
    /// How late the generator sent each measured request, in ns.
    pub gen_late_ns: Vec<u64>,
    /// Time spent handing measured requests to the client layer.
    pub submit_ns_total: u64,
    pub cpu: CpuSplit,
    pub trace: TraceStats,
    pub counters: CounterStats,
    /// Wall time of one forced checkpoint after the window, when the
    /// deployment takes one.
    pub checkpoint_ms: f64,
    /// Problems with the deployment's final state (empty when correct).
    pub state_errors: Vec<String>,
}

impl Pass {
    /// Commands answered correctly in time among the measured ones.
    pub fn completed(&self) -> u64 {
        self.tally.answered_ok()
    }

    pub fn cpu_us_per_op(&self, secs: f64) -> f64 {
        secs * 1e6 / self.completed().max(1) as f64
    }
}
