//! The in-process workloads: a `PsmrEngine` running the key-value store,
//! driven through its `ClientProxy`s by one open-loop generator thread.

use crate::outcome::Tally;
use crate::pass::{CounterStats, Pass, Plan, TraceStats};
use crate::procstat::{CpuSample, CpuSplit};
use crate::schedule::{Mix, Schedule};
use psmr_common::metrics::{global as metrics, histograms, MetricsBaseline};
use psmr_common::trace::global as trace;
use psmr_common::SystemConfig;
use psmr_core::engines::{Engine, PsmrEngine};
use psmr_core::service::Service;
use psmr_core::ClientProxy;
use psmr_kvstore::{fine_dependency_spec, KvOp, KvResult, KvService};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Worker threads per replica (the paper's `k`), replicas and acceptors.
const WORKERS: usize = 2;
const REPLICAS: usize = 2;
const ACCEPTORS: usize = 3;
/// Client proxies the generator spreads its requests over (= cores).
const PROXIES: usize = 2;
/// Longest the generator sleeps while it waits for the next due request.
const POLL: Duration = Duration::from_micros(100);

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub mix: Mix,
    /// Whether the engine keeps a write-ahead log (default mode).
    pub wal: bool,
}

/// A running engine plus the proxies the generator drives.
pub struct Deployment {
    engine: PsmrEngine,
    proxies: Vec<ClientProxy>,
    wal_dir: Option<PathBuf>,
}

impl Deployment {
    /// Spawns the engine (preloading every replica) and returns it with
    /// its set-up time: spawn until each proxy has had one read served.
    pub fn spawn(spec: &Spec, trace_sample: u64, work: &Path, tag: &str) -> (Self, Duration) {
        let wal_dir = spec.wal.then(|| work.join(format!("wal-{tag}")));
        if let Some(dir) = &wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let keys = spec.mix.keys();
        let started = Instant::now();
        let mut cfg = SystemConfig::new(WORKERS);
        cfg.replicas(REPLICAS)
            .acceptors(ACCEPTORS)
            .trace_sample(trace_sample)
            .wal_dir(wal_dir.clone());
        let engine = PsmrEngine::spawn(&cfg, fine_dependency_spec().into_map(), || {
            KvService::with_keys(keys)
        });
        let mut proxies: Vec<ClientProxy> = (0..PROXIES).map(|_| engine.client()).collect();
        for proxy in &mut proxies {
            let probe = KvOp::Read { key: keys - 1 };
            let reply = proxy.execute(probe.command(), probe.encode());
            assert_eq!(
                KvResult::decode(&reply),
                KvResult::Value(keys - 1),
                "set-up read returned a wrong value"
            );
        }
        let setup = started.elapsed();
        (
            Self {
                engine,
                proxies,
                wal_dir,
            },
            setup,
        )
    }

    /// Runs one pass of `plan` against the deployment and tears it down.
    pub fn measure(self, plan: Plan, mix: Mix) -> Pass {
        let Deployment {
            engine,
            proxies,
            wal_dir,
        } = self;
        let epoch = Instant::now();
        let closed = Arc::new(AtomicBool::new(false));
        let gen_closed = Arc::clone(&closed);
        let generator = thread::Builder::new()
            .name("bench-gen".into())
            .spawn(move || generate(proxies, plan, mix, epoch, &gen_closed))
            .expect("spawn generator");

        let me = [std::process::id()];
        sleep_until(epoch + plan.warmup);
        let base = Probe::start();
        let cpu0 = CpuSample::take(&me);
        sleep_until(epoch + plan.warmup + plan.window);
        let cpu1 = CpuSample::take(&me);
        closed.store(true, Ordering::SeqCst);
        let (trace, counters) = base.finish();

        let (tally, gen_late_ns, submit_ns_total) =
            generator.join().expect("generator thread panicked");
        engine.shutdown();
        if let Some(dir) = wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Pass {
            tally,
            window_secs: plan.window.as_secs_f64(),
            gen_late_ns,
            submit_ns_total,
            cpu: CpuSplit::between(&cpu0, &cpu1),
            trace,
            counters,
            checkpoint_ms: 0.0,
            state_errors: Vec::new(),
        }
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        thread::sleep(at - now);
    }
}

/// The in-process registry and trace state at the start of a window.
struct Probe {
    base: MetricsBaseline,
}

impl Probe {
    fn start() -> Self {
        let registry = metrics();
        registry.histogram(histograms::WAL_FSYNC_NS).clear();
        trace().reset();
        Self {
            base: registry.baseline(),
        }
    }

    fn finish(self) -> (TraceStats, CounterStats) {
        let registry = metrics();
        let deltas = registry.snapshot_deltas(&self.base);
        let fsync = registry.histogram(histograms::WAL_FSYNC_NS);
        let counters = CounterStats {
            counters: deltas.counters.iter().cloned().collect(),
            delivery_queue_depth_max: deltas
                .gauge_max(psmr_common::metrics::gauges::DELIVERY_QUEUE_DEPTH),
            fsync_p50_ns: fsync.percentile(50.0).as_nanos() as u64,
            fsync_p99_ns: fsync.percentile(99.0).as_nanos() as u64,
        };
        let report = trace().report();
        let trace = TraceStats {
            intervals: report
                .intervals
                .iter()
                .map(|s| (s.name.to_string(), (s.count, s.mean.as_nanos() as f64)))
                .collect(),
        };
        (trace, counters)
    }
}

struct InFlight {
    due_ns: u64,
    expect: Vec<u8>,
    timed: bool,
}

/// The open-loop generator: sends every request when it falls due,
/// whatever is still outstanding, and matches replies as they come.
fn generate(
    mut proxies: Vec<ClientProxy>,
    plan: Plan,
    mix: Mix,
    epoch: Instant,
    window_closed: &AtomicBool,
) -> (Tally, Vec<u64>, u64) {
    let mut schedule = Schedule::new(plan.seed, mix, plan.rate, PROXIES, deadline_ns(&plan));
    let mut tally = Tally::new(plan.deadline);
    let mut late = Vec::new();
    let mut submit_ns = 0u64;
    let mut pending: Vec<HashMap<_, InFlight>> = (0..PROXIES).map(|_| HashMap::new()).collect();
    let end_ns = plan.window_end_ns();
    let give_up_ns = end_ns + deadline_ns(&plan);
    let mut next = schedule.next_arrival();
    loop {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        while next.due_ns <= now_ns && next.due_ns < end_ns {
            let sent = Instant::now();
            let request = proxies[next.conn].submit(next.op.command(), next.op.encode());
            let timed = plan.timed(next.due_ns);
            if timed {
                submit_ns += sent.elapsed().as_nanos() as u64;
                late.push(now_ns - next.due_ns);
            }
            let flight = InFlight {
                due_ns: next.due_ns,
                expect: next.expect.encode(),
                timed,
            };
            pending[next.conn].insert(request, flight);
            next = schedule.next_arrival();
        }
        for (proxy, pending) in proxies.iter_mut().zip(&mut pending) {
            while let Some((request, reply)) = proxy.try_recv_response() {
                let done_ns = epoch.elapsed().as_nanos() as u64;
                if let Some(f) = pending.remove(&request) {
                    if f.timed {
                        tally.reply(f.due_ns, done_ns, reply[..] == f.expect[..]);
                    }
                }
            }
        }
        let drained = next.due_ns >= end_ns;
        // Stay alive until the window's last CPU sample has seen this thread.
        let sampled = window_closed.load(Ordering::SeqCst);
        if drained && sampled && (pending.iter().all(HashMap::is_empty) || now_ns > give_up_ns) {
            break;
        }
        let wait = if drained {
            POLL
        } else {
            Duration::from_nanos(next.due_ns.saturating_sub(now_ns)).min(POLL)
        };
        if !wait.is_zero() {
            thread::sleep(wait);
        }
    }
    for _ in pending.iter().flat_map(HashMap::values).filter(|f| f.timed) {
        tally.unanswered();
    }
    (tally, late, submit_ns)
}

fn deadline_ns(plan: &Plan) -> u64 {
    plan.deadline.as_nanos() as u64
}

/// Mean cost of `Service::execute` over `ops` operations of the mix,
/// called directly on a freshly preloaded store: the execution share of
/// a worker's CPU, without ordering, merge or synchronization.
///
/// Returns `(ns per op, wrong replies)`.
pub fn exec_ns_per_op(mix: Mix, seed: u64, ops: usize) -> (f64, u64) {
    let store = KvService::with_keys(mix.keys());
    // Sequential calls: no request is ever outstanding, so keys need no rest.
    let mut schedule = Schedule::new(seed, mix, 1.0, 1, 0);
    let inputs: Vec<_> = (0..ops)
        .map(|_| {
            let a = schedule.next_arrival();
            (a.op.command(), a.op.encode(), a.expect.encode())
        })
        .collect();
    let mut replies = Vec::with_capacity(ops);
    let started = Instant::now();
    for (command, payload, _) in &inputs {
        replies.push(store.execute(*command, std::hint::black_box(payload)));
    }
    let ns = started.elapsed().as_nanos() as f64 / ops as f64;
    let wrong = inputs
        .iter()
        .zip(&replies)
        .filter(|((_, _, expect), reply)| expect != *reply)
        .count();
    (ns, wrong as u64)
}
