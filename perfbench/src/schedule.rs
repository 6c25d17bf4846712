//! Seeded open-loop input: Poisson arrival times and the operation each
//! arrival carries, together with the reply it must get.
//!
//! Everything here is a pure function of the seed, so the same seed
//! gives the same inputs on every run and every commit.

use psmr_kvstore::{KvOp, KvResult};
use std::collections::{HashMap, HashSet};

/// SplitMix64: a small, well-mixed generator whose sequence is fixed by
/// its seed (the workspace's `rand` stand-in makes no such promise).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` of it is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The operation mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Reads only, uniform over the preloaded keys `0..keys`.
    Reads { keys: u64 },
    /// Inserts and deletes in equal shares, uniform over `0..keys`
    /// (all preloaded). A key is not drawn again while an earlier
    /// operation on it may still be unanswered, so every expected reply
    /// holds under any linearizable execution.
    InsertDelete { keys: u64 },
}

impl Mix {
    pub fn keys(self) -> u64 {
        match self {
            Mix::Reads { keys } | Mix::InsertDelete { keys } => keys,
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, in nanoseconds after the schedule's start.
    pub due_ns: u64,
    /// Which of the generator's connections carries it.
    pub conn: usize,
    pub op: KvOp,
    /// The reply the per-key model predicts.
    pub expect: KvResult,
}

/// An endless seeded schedule: exponential gaps at `rate` per second
/// (a Poisson process), round-robin over `conns` connections.
#[derive(Debug)]
pub struct Schedule {
    gaps: Rng,
    keys: Rng,
    mix: Mix,
    rate: f64,
    conns: usize,
    at_ns: f64,
    issued: u64,
    /// Keys the insert/delete model has deleted (all start present).
    absent: HashSet<u64>,
    /// Due time of the newest operation on each key (insert/delete mix).
    last_use: HashMap<u64, u64>,
    reuse_gap_ns: u64,
}

impl Schedule {
    /// `reuse_gap_ns` is how long a key rests between two writes: at
    /// least the reply deadline, after which an unanswered request has
    /// failed anyway.
    pub fn new(seed: u64, mix: Mix, rate: f64, conns: usize, reuse_gap_ns: u64) -> Self {
        assert!(rate > 0.0 && conns > 0 && mix.keys() > 0);
        if let Mix::InsertDelete { keys } = mix {
            // Each key rests `reuse_gap_ns`; leave plenty free to draw.
            let resting = rate * reuse_gap_ns as f64 / 1e9;
            assert!(
                keys as f64 > 4.0 * resting,
                "keyspace too small for the rate"
            );
        }
        Self {
            gaps: Rng::new(seed),
            keys: Rng::new(seed.rotate_left(32) ^ 0xA5A5),
            mix,
            rate,
            conns,
            at_ns: 0.0,
            issued: 0,
            absent: HashSet::new(),
            last_use: HashMap::new(),
            reuse_gap_ns,
        }
    }

    pub fn next_arrival(&mut self) -> Arrival {
        self.at_ns += -self.gaps.unit().ln() / self.rate * 1e9;
        let due_ns = self.at_ns as u64;
        let conn = (self.issued % self.conns as u64) as usize;
        self.issued += 1;
        let (op, expect) = match self.mix {
            Mix::Reads { keys } => {
                let key = self.keys.below(keys);
                (KvOp::Read { key }, KvResult::Value(key))
            }
            Mix::InsertDelete { keys } => {
                let key = loop {
                    let key = self.keys.below(keys);
                    match self.last_use.get(&key) {
                        Some(&last) if due_ns.saturating_sub(last) < self.reuse_gap_ns => {}
                        _ => break key,
                    }
                };
                self.last_use.insert(key, due_ns);
                let present = !self.absent.contains(&key);
                if self.keys.next_u64() & 1 == 0 {
                    let expect = if present {
                        KvResult::Err
                    } else {
                        self.absent.remove(&key);
                        KvResult::Ok
                    };
                    (KvOp::Insert { key, value: key }, expect)
                } else {
                    let expect = if present {
                        self.absent.insert(key);
                        KvResult::Ok
                    } else {
                        KvResult::Err
                    };
                    (KvOp::Delete { key }, expect)
                }
            }
        };
        Arrival {
            due_ns,
            conn,
            op,
            expect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, mix: Mix, n: usize) -> Vec<Arrival> {
        let mut s = Schedule::new(seed, mix, 20_000.0, 2, 1_000_000);
        (0..n).map(|_| s.next_arrival()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        for mix in [Mix::Reads { keys: 1000 }, Mix::InsertDelete { keys: 1000 }] {
            assert_eq!(take(7, mix, 5000), take(7, mix, 5000));
            assert_ne!(take(7, mix, 5000), take(8, mix, 5000));
        }
    }

    #[test]
    fn arrivals_are_poisson_at_the_rate() {
        let arrivals = take(3, Mix::Reads { keys: 10 }, 200_000);
        let span_s = arrivals.last().unwrap().due_ns as f64 / 1e9;
        let rate = arrivals.len() as f64 / span_s;
        assert!((rate - 20_000.0).abs() < 200.0, "rate {rate}");
        // Exponential gaps: the coefficient of variation is 1.
        let gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| (w[1].due_ns - w[0].due_ns) as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.02, "cv {cv}");
        assert!(arrivals.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn reads_expect_the_preloaded_value() {
        for a in take(1, Mix::Reads { keys: 50 }, 1000) {
            let KvOp::Read { key } = a.op else {
                panic!("read mix produced {:?}", a.op)
            };
            assert!(key < 50);
            assert_eq!(a.expect, KvResult::Value(key));
        }
    }

    #[test]
    fn insert_delete_model_tracks_each_key() {
        // Replaying the schedule against a plain set must reproduce the
        // model's predictions, and keys must rest between writes.
        let mut present: HashSet<u64> = (0..64).collect();
        let mut last: HashMap<u64, u64> = HashMap::new();
        let mut s = Schedule::new(5, Mix::InsertDelete { keys: 64 }, 1000.0, 2, 10_000_000);
        let (mut inserts, mut deletes) = (0, 0);
        for _ in 0..4000 {
            let a = s.next_arrival();
            if let Some(prev) = last.insert(a.op.key(), a.due_ns) {
                assert!(a.due_ns - prev >= 10_000_000);
            }
            let got = match a.op {
                KvOp::Insert { key, value } => {
                    assert_eq!(key, value);
                    inserts += 1;
                    if present.insert(key) {
                        KvResult::Ok
                    } else {
                        KvResult::Err
                    }
                }
                KvOp::Delete { key } => {
                    deletes += 1;
                    if present.remove(&key) {
                        KvResult::Ok
                    } else {
                        KvResult::Err
                    }
                }
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(got, a.expect);
        }
        assert!(inserts > 1800 && deletes > 1800);
    }
}
