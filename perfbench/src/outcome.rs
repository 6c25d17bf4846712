//! What happened to each request of a timed window.
//!
//! Latency runs from a request's *scheduled* send time to its first
//! reply, so a stall also charges every request queued behind it (no
//! coordinated omission). A request fails when its reply is wrong, when
//! the reply comes after the deadline, or when none comes at all; a
//! failed request counts as slower than every answered one.

use std::time::Duration;

/// Latency recorded for a failed request: slower than any answer.
const FAILED: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Tally {
    deadline_ns: u64,
    /// Latency of every request, `FAILED` for failures.
    samples: Vec<u64>,
    late: u64,
    missing: u64,
    wrong: u64,
}

impl Tally {
    pub fn new(deadline: Duration) -> Self {
        Self {
            deadline_ns: deadline.as_nanos() as u64,
            samples: Vec::new(),
            late: 0,
            missing: 0,
            wrong: 0,
        }
    }

    /// Records the reply to a request due at `due_ns` that arrived at
    /// `done_ns` (both on the schedule's clock).
    pub fn reply(&mut self, due_ns: u64, done_ns: u64, correct: bool) {
        let latency = done_ns.saturating_sub(due_ns);
        if !correct {
            self.wrong += 1;
            self.samples.push(FAILED);
        } else if latency > self.deadline_ns {
            self.late += 1;
            self.samples.push(FAILED);
        } else {
            self.samples.push(latency);
        }
    }

    /// Records a request that was never answered.
    pub fn unanswered(&mut self) {
        self.missing += 1;
        self.samples.push(FAILED);
    }

    pub fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.late += other.late;
        self.missing += other.missing;
        self.wrong += other.wrong;
    }

    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn answered_ok(&self) -> u64 {
        self.attempted() - self.failed()
    }

    pub fn failed(&self) -> u64 {
        self.late + self.missing + self.wrong
    }

    pub fn wrong(&self) -> u64 {
        self.wrong
    }

    pub fn late(&self) -> u64 {
        self.late
    }

    pub fn missing(&self) -> u64 {
        self.missing
    }

    /// Failed requests as a percentage of attempted ones.
    pub fn err_pct(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 * 100.0 / n as f64,
        }
    }

    /// Nearest-rank percentile over every attempted request, in ms.
    /// A rank that falls among the failed requests reads as the deadline.
    pub fn percentile_ms(&self, pct: f64) -> f64 {
        let ns = percentile(&mut self.samples.clone(), pct);
        ns.min(self.deadline_ns) as f64 / 1e6
    }
}

/// Nearest-rank percentile of raw samples (0 when empty).
pub fn percentile(samples: &mut [u64], pct: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((pct * samples.len() as f64 / 100.0).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of a non-empty list of measurements.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // One request due every ms for 100 ms. The system answers each
        // within 0.5 ms, except that it stalls from 40 ms to 60 ms: the
        // requests due during the stall are all answered at 60 ms.
        let mut tally = Tally::new(Duration::from_secs(1));
        for i in 0..100u64 {
            let due = i * MS;
            let done = if (40..60).contains(&i) {
                60 * MS
            } else {
                due + MS / 2
            };
            tally.reply(due, done, true);
        }
        // Timed from the delayed send, every request would read 0.5 ms;
        // timed from the schedule, a fifth of them waited 1-20 ms.
        assert_eq!(tally.percentile_ms(50.0), 0.5);
        assert_eq!(tally.percentile_ms(85.0), 5.0);
        assert_eq!(tally.percentile_ms(99.0), 19.0);
        assert_eq!(tally.percentile_ms(100.0), 20.0);
        assert_eq!(tally.failed(), 0);
    }

    #[test]
    fn late_missing_and_wrong_replies_all_fail() {
        let mut tally = Tally::new(Duration::from_millis(10));
        for i in 0..96u64 {
            tally.reply(i * MS, i * MS + MS, true);
        }
        tally.reply(0, 11 * MS, true); // late
        tally.reply(0, MS, false); // wrong
        tally.unanswered(); // missing
        tally.unanswered(); // missing
        assert_eq!(tally.attempted(), 100);
        assert_eq!(tally.failed(), 4);
        assert_eq!((tally.late(), tally.wrong(), tally.missing()), (1, 1, 2));
        assert_eq!(tally.err_pct(), 4.0);
        // Failures rank behind every answered request and read as the deadline.
        assert_eq!(tally.percentile_ms(96.0), 1.0);
        assert_eq!(tally.percentile_ms(97.0), 10.0);
    }

    #[test]
    fn merged_tallies_add_up() {
        let mut a = Tally::new(Duration::from_millis(10));
        let mut b = Tally::new(Duration::from_millis(10));
        a.reply(0, MS, true);
        b.reply(0, 2 * MS, false);
        b.unanswered();
        a.merge(b);
        assert_eq!((a.attempted(), a.failed(), a.answered_ok()), (3, 2, 1));
    }

    #[test]
    fn percentiles_and_medians_of_samples() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut xs, 99.0), 99);
        assert_eq!(percentile(&mut [], 50.0), 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
