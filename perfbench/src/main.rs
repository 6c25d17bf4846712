//! Open-loop, layer-attributed benchmark of the P-SMR workspace.
//!
//! ```text
//! perfbench --workload <read-open|dep-durable-open|node-tcp> --seed <n>
//!           --seconds <s> --trace <0|1> --node-bin <path> --work-dir <dir>
//!           [--rate <ops/s>]
//! ```
//!
//! Every workload sends requests on a seeded Poisson schedule from one
//! generator thread and checks every reply. `--trace 0` splits the
//! measured seconds over [`PASSES`] fresh deployments and reports the
//! median of their end-to-end metrics; `--trace 1` runs the workload
//! once untraced and once traced, half the seconds each, and reports
//! the per-layer split. The last line of standard output is one JSON
//! object; the lines before it print every metric by name, with its
//! unit and sample count. The process exits nonzero when any reply or
//! the final state is wrong.

mod inproc;
mod outcome;
mod pass;
mod procstat;
mod schedule;
mod tcp;

use outcome::{median, percentile, Tally};
use pass::{Pass, Plan};
use schedule::Mix;
use std::path::PathBuf;
use std::time::Duration;

/// Fresh deployments per untraced run, each measuring an equal share of
/// the seconds; every end-to-end metric is the median over them, and
/// `setup_s` the median of their set-up times.
const PASSES: u32 = 6;
/// Lifecycle-trace sampling of the traced runs (the engine's default).
const TRACE_SAMPLE: u64 = 32;
/// Traffic before each timed window, so queues and caches settle.
const WARMUP: Duration = Duration::from_secs(1);
/// A reply later than this after its scheduled send time is a failure.
const DEADLINE: Duration = Duration::from_secs(1);
/// Operations of the direct `Service::execute` loop.
const EXEC_OPS: usize = 300_000;
/// The whole process gives up (and stops every node it started) after this.
const WATCHDOG: Duration = Duration::from_secs(165);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReadOpen,
    DepDurableOpen,
    NodeTcp,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "read-open" => Some(Self::ReadOpen),
            "dep-durable-open" => Some(Self::DepDurableOpen),
            "node-tcp" => Some(Self::NodeTcp),
            _ => None,
        }
    }

    fn mix(self) -> Mix {
        match self {
            Self::ReadOpen => Mix::Reads { keys: 1_000_000 },
            Self::DepDurableOpen => Mix::InsertDelete { keys: 1_000_000 },
            Self::NodeTcp => Mix::Reads { keys: 100_000 },
        }
    }

    /// Offered load in requests per second (`BENCHMARK.json` gives each
    /// as a share of the saturation measured on the reference host).
    fn rate(self) -> f64 {
        match self {
            Self::ReadOpen => 50_000.0,
            Self::DepDurableOpen => 20_000.0,
            Self::NodeTcp => 4_000.0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    node_bin: PathBuf,
    work_dir: PathBuf,
    rate: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <read-open|dep-durable-open|node-tcp> --seed <n> \
         --seconds <s> --trace <0|1> --node-bin <path> --work-dir <dir> [--rate <ops/s>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut node_bin = None;
    let mut work_dir = None;
    let mut rate = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s| *s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--node-bin" => node_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--rate" => match value.parse::<f64>() {
                Ok(r) if r > 0.0 => rate = Some(r),
                _ => usage(),
            },
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(node_bin), Some(work_dir)) =
        (workload, seed, seconds, trace, node_bin, work_dir)
    else {
        usage()
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
        node_bin,
        work_dir,
        rate,
    }
}

/// A measured value with its unit and how many samples it rests on.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: u64,
}

/// What a run reports: every request's outcome, problems with the
/// deployments' final states, and the metrics.
struct Report {
    tally: Tally,
    state_errors: Vec<String>,
    metrics: Vec<Metric>,
    /// Printed with the metrics, not part of the result object.
    notes: Vec<Metric>,
}

fn main() {
    let args = parse_args();
    // Whatever fails, stop every node process before exiting.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        tcp::kill_all_nodes();
        std::process::exit(101);
    }));
    std::thread::Builder::new()
        .name("bench-watchdog".into())
        .spawn(|| {
            std::thread::sleep(WATCHDOG);
            eprintln!("perfbench: no result after {WATCHDOG:?}; stopping");
            tcp::kill_all_nodes();
            std::process::exit(3);
        })
        .expect("spawn watchdog");
    std::fs::create_dir_all(&args.work_dir).expect("create work dir");

    let plan = Plan {
        seed: args.seed,
        rate: args.rate.unwrap_or_else(|| args.workload.rate()),
        warmup: WARMUP,
        window: Duration::from_secs(args.seconds),
        deadline: DEADLINE,
    };
    println!(
        "workload {:?} seed {} rate {}/s seconds {} trace {}",
        args.workload, plan.seed, plan.rate, args.seconds, args.trace as u8
    );
    let report = if args.trace {
        traced(&args, plan)
    } else {
        untraced(&args, plan)
    };

    let t = &report.tally;
    for e in &report.state_errors {
        println!("state error: {e}");
    }
    println!(
        "requests attempted {} ok {} late {} missing {} wrong {}",
        t.attempted(),
        t.answered_ok(),
        t.late(),
        t.missing(),
        t.wrong()
    );
    for m in report.metrics.iter().chain(&report.notes) {
        println!(
            "{:<36} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let correct = t.wrong() == 0 && report.state_errors.is_empty();
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted(),
        t.failed(),
        body.join(", ")
    );
    let _ = std::fs::remove_dir_all(&args.work_dir);
    std::process::exit(if correct { 0 } else { 1 });
}

/// One fresh deployment of the workload, measured over one pass.
fn run_pass(args: &Args, plan: Plan, trace_sample: u64, tag: &str) -> (Pass, Duration) {
    let mix = args.workload.mix();
    match args.workload {
        Workload::ReadOpen | Workload::DepDurableOpen => {
            let spec = inproc::Spec {
                mix,
                wal: args.workload == Workload::DepDurableOpen,
            };
            let (dep, setup) = inproc::Deployment::spawn(&spec, trace_sample, &args.work_dir, tag);
            (dep.measure(plan, mix), setup)
        }
        Workload::NodeTcp => {
            let spec = tcp::Spec {
                node_bin: args.node_bin.clone(),
                keys: mix.keys(),
            };
            let (cluster, setup) = tcp::Cluster::spawn(&spec, trace_sample, &args.work_dir, tag);
            (cluster.measure(plan, mix, trace_sample > 0), setup)
        }
    }
}

/// The plan of pass `i` of `n`: its share of the window, its own inputs.
fn pass_plan(plan: Plan, i: u32, n: u32) -> Plan {
    Plan {
        seed: plan
            .seed
            .wrapping_mul(u64::from(n))
            .wrapping_add(u64::from(i)),
        window: plan.window / n,
        ..plan
    }
}

/// The end-to-end metrics: the median over `PASSES` fresh deployments.
///
/// The tail is gated at p90. On the reference host the p99 of the
/// workloads that fsync swung between about 2 and 8 ms across runs of
/// identical code, with the host's disk; it is printed, not gated.
fn untraced(args: &Args, plan: Plan) -> Report {
    let mut tally = Tally::new(plan.deadline);
    let mut state_errors = Vec::new();
    let (mut setup, mut kcps, mut p50, mut p90, mut cpu) = (vec![], vec![], vec![], vec![], vec![]);
    for i in 0..PASSES {
        let (pass, setup_time) = run_pass(args, pass_plan(plan, i, PASSES), 0, &format!("pass{i}"));
        setup.push(setup_time.as_secs_f64());
        kcps.push(pass.completed() as f64 / pass.window_secs / 1e3);
        p50.push(pass.tally.percentile_ms(50.0));
        p90.push(pass.tally.percentile_ms(90.0));
        cpu.push(pass.cpu_us_per_op(pass.cpu.total_secs));
        let last = setup.len() - 1;
        println!(
            "pass {i}: setup {:.4} s, {:.3} kcmd/s, p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms, \
             {:.3} us/op",
            setup[last],
            kcps[last],
            p50[last],
            p90[last],
            pass.tally.percentile_ms(99.0),
            cpu[last]
        );
        tally.merge(pass.tally);
        state_errors.extend(pass.state_errors);
    }
    let done = tally.answered_ok();
    let attempted = tally.attempted();
    let metrics = vec![
        metric("kcps", "kcmd/s", median(&mut kcps), done),
        metric("p50_ms", "ms", median(&mut p50), attempted),
        metric("p90_ms", "ms", median(&mut p90), attempted),
        metric("cpu_us_per_op", "us", median(&mut cpu), done),
        // `err_pct` turned around, so that a healthy run never reads 0.
        metric("ok_pct", "%", 100.0 - tally.err_pct(), attempted),
        metric("setup_s", "s", median(&mut setup), u64::from(PASSES)),
    ];
    let notes = vec![
        metric("p99_ms", "ms", tally.percentile_ms(99.0), attempted),
        metric("err_pct", "%", tally.err_pct(), attempted),
    ];
    Report {
        tally,
        state_errors,
        metrics,
        notes,
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// The per-layer split: an untraced pass for the tracing overhead, then
/// a traced pass that every layer metric comes from.
fn traced(args: &Args, plan: Plan) -> Report {
    let (plain, _) = run_pass(args, pass_plan(plan, 0, 2), 0, "plain");
    let (pass, _) = run_pass(args, pass_plan(plan, 1, 2), TRACE_SAMPLE, "traced");
    let mut state_errors = plain.state_errors.clone();
    state_errors.extend(pass.state_errors.iter().cloned());
    let (exec_ns, exec_wrong) = inproc::exec_ns_per_op(args.workload.mix(), plan.seed, EXEC_OPS);
    if exec_wrong > 0 {
        state_errors.push(format!(
            "{exec_wrong} wrong replies from the direct Service::execute loop"
        ));
    }

    let done = pass.completed();
    let kops = done as f64 / 1e3;
    let role = |role: &str| pass.cpu_us_per_op(pass.cpu.role_secs(role));
    let t = &pass.trace;
    let traced_n = t.intervals.get("end_to_end").map_or(0, |&(count, _)| count);
    let c = &pass.counters;
    let per_kop = |name: &str| c.get(name) as f64 / kops.max(1e-9);
    let per_op = |name: &str| c.get(name) as f64 / done.max(1) as f64;
    let plain_cpu = plain.cpu_us_per_op(plain.cpu.total_secs);
    let traced_cpu = pass.cpu_us_per_op(pass.cpu.total_secs);
    let submits = pass.gen_late_ns.len() as u64;
    let late_p99_ms = percentile(&mut pass.gen_late_ns.clone(), 99.0) as f64 / 1e6;
    let fsyncs = c.get("wal_fsyncs");
    let metrics = vec![
        metric("paxos.coord_cpu_us_per_op", "us", role("paxos.coord"), done),
        metric(
            "paxos.acceptor_cpu_us_per_op",
            "us",
            role("paxos.acceptor"),
            done,
        ),
        metric(
            "paxos.submit_to_ordered_ms",
            "ms",
            t.mean_ms("submit_to_ordered"),
            traced_n,
        ),
        metric(
            "multicast.ticker_cpu_us_per_op",
            "us",
            role("multicast.ticker"),
            done,
        ),
        metric(
            "multicast.appended_to_delivered_ms",
            "ms",
            t.mean_ms("appended_to_delivered"),
            traced_n,
        ),
        metric(
            "multicast.delivery_queue_depth_max",
            "count",
            c.delivery_queue_depth_max as f64,
            1,
        ),
        metric(
            "multicast.delivery_stalls_per_kop",
            "1/kop",
            per_kop("delivery_backpressure_stalls"),
            done,
        ),
        metric(
            "engine.worker_cpu_us_per_op",
            "us",
            role("engine.worker"),
            done,
        ),
        metric(
            "engine.delivered_to_exec_ms",
            "ms",
            t.mean_ms("delivered_to_exec"),
            traced_n,
        ),
        metric(
            "engine.executed_to_released_ms",
            "ms",
            t.mean_ms("executed_to_released"),
            traced_n,
        ),
        metric(
            "client.submit_us",
            "us",
            pass.submit_ns_total as f64 / submits.max(1) as f64 / 1e3,
            submits,
        ),
        metric("kvstore.exec_ns_per_op", "ns", exec_ns, EXEC_OPS as u64),
        metric("wal.appends_per_kop", "1/kop", per_kop("wal_appends"), done),
        metric("wal.fsyncs_per_kop", "1/kop", per_kop("wal_fsyncs"), done),
        metric(
            "wal.fsync_p50_ms",
            "ms",
            c.fsync_p50_ns as f64 / 1e6,
            fsyncs,
        ),
        metric(
            "wal.fsync_p99_ms",
            "ms",
            c.fsync_p99_ns as f64 / 1e6,
            fsyncs,
        ),
        metric(
            "wal.ordered_to_appended_ms",
            "ms",
            t.mean_ms("ordered_to_appended"),
            traced_n,
        ),
        metric("net.frames_per_op", "1/op", per_op("net_frames_sent"), done),
        metric("net.bytes_per_op", "B/op", per_op("net_bytes_sent"), done),
        metric("net.mesh_cpu_us_per_op", "us", role("net.mesh"), done),
        metric("net.bridge_cpu_us_per_op", "us", role("net.bridge"), done),
        metric("node.exec_cpu_us_per_op", "us", role("node.exec"), done),
        metric("node.relay_cpu_us_per_op", "us", role("node.relay"), done),
        metric(
            "node.client_conn_cpu_us_per_op",
            "us",
            role("node.client_conn"),
            done,
        ),
        metric("recovery.checkpoint_ms", "ms", pass.checkpoint_ms, 1),
        metric("bench.gen_late_p99_ms", "ms", late_p99_ms, submits),
        metric(
            "bench.client_cpu_us_per_op",
            "us",
            role("bench.client"),
            done,
        ),
        metric(
            "cpu.unattributed_pct",
            "%",
            pass.cpu.unattributed_pct(),
            done,
        ),
        metric("trace.attributed_pct", "%", t.attributed_pct(), traced_n),
        metric(
            "trace.overhead_pct",
            "%",
            (traced_cpu / plain_cpu.max(1e-9) - 1.0) * 100.0,
            done,
        ),
    ];
    let mut notes = vec![
        metric("cpu_us_per_op_traced", "us", traced_cpu, done),
        metric("cpu_us_per_op_untraced", "us", plain_cpu, plain.completed()),
        metric(
            "trace_end_to_end_ms",
            "ms",
            t.mean_ms("end_to_end"),
            traced_n,
        ),
    ];
    for (name, secs) in &pass.cpu.unnamed {
        notes.push(metric(
            "unattributed_thread_us_per_op",
            "us",
            pass.cpu_us_per_op(*secs),
            done,
        ));
        println!("thread {name:?} matches no role");
    }
    let mut tally = plain.tally;
    tally.merge(pass.tally);
    Report {
        tally,
        state_errors,
        metrics,
        notes,
    }
}
