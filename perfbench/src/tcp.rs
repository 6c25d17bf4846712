//! The `node-tcp` workload: three `psmr-node` processes on loopback,
//! driven over two pipelined client connections that speak the framed
//! `Request` wire protocol — one to the orderer (node 0), one to a
//! follower (node 1).

use crate::outcome::Tally;
use crate::pass::{CounterStats, Pass, Plan, TraceStats};
use crate::procstat::{CpuSample, CpuSplit};
use crate::schedule::{Mix, Schedule};
use psmr_common::envelope::Request;
use psmr_common::ids::{ClientId, RequestId};
use psmr_kvstore::{KvOp, KvResult};
use psmr_net::{encode_frame, ClusterConfig, FrameDecoder, NodeSpec};
use psmr_node::wire::decode_response;
use psmr_node::{admin, connect_with_retry, force_checkpoint, NodeClient};
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

const NODES: usize = 3;
/// Nodes the generator holds a pipelined connection to.
const CONN_NODES: [usize; 2] = [0, 1];
const ADMIN_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a booting cluster may take to serve its first requests.
const BOOT_DEADLINE: Duration = Duration::from_secs(30);

/// Every node process this harness has started and not yet reaped, so
/// that [`kill_all_nodes`] can stop them from any exit path.
static LIVE_NODES: Mutex<Vec<Child>> = Mutex::new(Vec::new());

/// Kills and reaps every node process still running.
pub fn kill_all_nodes() {
    let mut live = LIVE_NODES.lock().unwrap_or_else(|e| e.into_inner());
    for mut child in live.drain(..) {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Options every node of the cluster starts with.
#[derive(Debug, Clone)]
pub struct Spec {
    pub node_bin: PathBuf,
    pub keys: u64,
}

/// A running three-process cluster. Dropping it kills and reaps its
/// nodes, on success and on panic alike.
pub struct Cluster {
    pids: Vec<u32>,
    config: ClusterConfig,
    conns: Vec<Conn>,
    dir: PathBuf,
}

/// A pipelined client connection.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    client: u64,
    next_request: u64,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let mut live = LIVE_NODES.lock().unwrap_or_else(|e| e.into_inner());
        let (mine, rest): (Vec<Child>, Vec<Child>) =
            live.drain(..).partition(|c| self.pids.contains(&c.id()));
        *live = rest;
        drop(live);
        for mut child in mine {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Retries `attempt` every 2 ms until it yields a value. Short enough
/// that set-up time measures the cluster, not the retry interval.
fn poll<T>(mut attempt: impl FnMut() -> Option<T>) -> T {
    let give_up = Instant::now() + BOOT_DEADLINE;
    loop {
        if let Some(value) = attempt() {
            return value;
        }
        assert!(
            Instant::now() < give_up,
            "cluster not ready after {BOOT_DEADLINE:?}"
        );
        thread::sleep(Duration::from_millis(2));
    }
}

/// Whether a node's admin `status` shows a live link to every peer.
fn mesh_connected(admin_addr: &str) -> Option<()> {
    let status = admin::query(admin_addr, "status", ADMIN_TIMEOUT).ok()?;
    let up = status
        .lines()
        .filter(|l| l.starts_with("peer ") && l.contains("connected=true"))
        .count();
    (up == NODES - 1).then_some(())
}

fn free_ports(n: usize) -> Vec<u16> {
    // Hold every listener at once so the ports are pairwise distinct.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a free port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

impl Cluster {
    /// Starts the cluster and returns it with its set-up time: spawn
    /// until every node has served a read through a retransmitting
    /// client and each pipelined connection has had one request served.
    pub fn spawn(spec: &Spec, trace_sample: u64, work: &Path, tag: &str) -> (Self, Duration) {
        let dir = work.join(format!("cluster-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create cluster dir");
        let ports = free_ports(3 * NODES);
        let nodes = (0..NODES)
            .map(|i| NodeSpec {
                addr: format!("127.0.0.1:{}", ports[i]),
                client_addr: format!("127.0.0.1:{}", ports[NODES + i]),
                admin_addr: format!("127.0.0.1:{}", ports[2 * NODES + i]),
                data_dir: dir.join(format!("n{i}")),
            })
            .collect();
        let config = ClusterConfig { nodes };
        let config_path = dir.join("cluster.toml");
        std::fs::write(&config_path, config.to_toml()).expect("write cluster config");

        let started = Instant::now();
        let mut cluster = Cluster {
            pids: Vec::new(),
            config,
            conns: Vec::new(),
            dir,
        };
        for id in 0..NODES {
            let log = File::create(cluster.dir.join(format!("node{id}.log"))).expect("node log");
            let err = log.try_clone().expect("clone log handle");
            let child = Command::new(&spec.node_bin)
                .arg("--config")
                .arg(&config_path)
                .args(["--id", &id.to_string()])
                .args(["--keys", &spec.keys.to_string()])
                .args(["--checkpoint-ms", "0"])
                .args(["--trace-sample", &trace_sample.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::from(log))
                .stderr(Stdio::from(err))
                .spawn()
                .unwrap_or_else(|e| panic!("spawn {}: {e}", spec.node_bin.display()));
            cluster.pids.push(child.id());
            LIVE_NODES
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(child);
        }
        let probe = KvOp::Read { key: spec.keys - 1 };
        let want = KvResult::Value(spec.keys - 1).encode();
        // A fresh cluster can drop a request sent before its mesh is up,
        // so wait for every link first; then the retransmitting client
        // covers whatever is still lost.
        let admins = cluster.admin_addrs();
        for admin in &admins {
            poll(|| mesh_connected(admin));
        }
        for id in 0..NODES {
            let addr = &cluster.config.nodes[id].client_addr;
            let mut client = poll(|| NodeClient::connect(addr, 900 + id as u64).ok());
            client.set_try_timeout(Duration::from_millis(100));
            let reply = client
                .execute(probe.command(), probe.encode(), BOOT_DEADLINE)
                .unwrap_or_else(|e| panic!("node {id} never served a read: {e}"));
            assert_eq!(reply, want, "node {id} answered the set-up read wrongly");
        }
        for (i, &id) in CONN_NODES.iter().enumerate() {
            let addr = &cluster.config.nodes[id].client_addr;
            let mut conn = Conn::open(addr, 1000 + i as u64);
            conn.probe(&probe, &want);
            cluster.conns.push(conn);
        }
        let setup = started.elapsed();
        (cluster, setup)
    }

    fn admin_addrs(&self) -> Vec<String> {
        self.config
            .nodes
            .iter()
            .map(|n| n.admin_addr.clone())
            .collect()
    }

    /// Runs one pass of `plan` against the cluster and tears it down.
    pub fn measure(mut self, plan: Plan, mix: Mix, checkpoint: bool) -> Pass {
        let epoch = Instant::now();
        let conns = std::mem::take(&mut self.conns);
        let mut writers = Vec::new();
        let mut shutters = Vec::new();
        let mut readers = Vec::new();
        let mut pendings = Vec::new();
        for (i, conn) in conns.into_iter().enumerate() {
            let pending: Pending = Arc::new(Mutex::new(HashMap::new()));
            shutters.push(conn.stream.try_clone().expect("clone stream"));
            writers.push((
                conn.stream.try_clone().expect("clone stream"),
                conn.client,
                conn.next_request,
            ));
            let rx_pending = Arc::clone(&pending);
            readers.push(
                thread::Builder::new()
                    .name(format!("bench-rx-{i}"))
                    .spawn(move || read_replies(conn.stream, conn.decoder, rx_pending, plan, epoch))
                    .expect("spawn reader"),
            );
            pendings.push(pending);
        }
        let gen_pendings = pendings.clone();
        let (close_window, window_closed) = mpsc::channel();
        let generator = thread::Builder::new()
            .name("bench-gen".into())
            .spawn(move || send_schedule(writers, gen_pendings, plan, mix, epoch, window_closed))
            .expect("spawn generator");

        let mut pids = self.pids.clone();
        pids.push(std::process::id());
        let admins = self.admin_addrs();
        thread::sleep((epoch + plan.warmup).saturating_duration_since(Instant::now()));
        let cpu0 = CpuSample::take(&pids);
        let scrape0 = Scrape::take(&admins);
        thread::sleep(
            (epoch + plan.warmup + plan.window).saturating_duration_since(Instant::now()),
        );
        let scrape1 = Scrape::take(&admins);
        let cpu1 = CpuSample::take(&pids);
        let _ = close_window.send(());

        let (gen_late_ns, submit_ns_total) = generator.join().expect("generator panicked");
        // Wait out the replies still due, then close the connections.
        let give_up = epoch + plan.warmup + plan.window + plan.deadline;
        while Instant::now() < give_up
            && pendings
                .iter()
                .any(|p| p.lock().expect("pending lock").values().any(|f| f.timed))
        {
            thread::sleep(Duration::from_millis(1));
        }
        for s in &shutters {
            let _ = s.shutdown(Shutdown::Both);
        }
        let mut tally = Tally::new(plan.deadline);
        for reader in readers {
            tally.merge(reader.join().expect("reader panicked"));
        }
        for pending in &pendings {
            let pending = pending.lock().expect("pending lock");
            for _ in pending.values().filter(|f| f.timed) {
                tally.unanswered();
            }
        }

        let state_errors = match converged_seq(&admins) {
            Ok(_) => Vec::new(),
            Err(e) => vec![e],
        };
        let checkpoint_ms = if checkpoint {
            self.checkpoint_ms()
        } else {
            0.0
        };
        Pass {
            tally,
            window_secs: plan.window.as_secs_f64(),
            gen_late_ns,
            submit_ns_total,
            cpu: CpuSplit::between(&cpu0, &cpu1),
            trace: scrape0.trace_delta(&scrape1),
            counters: scrape0.counter_delta(&scrape1),
            checkpoint_ms,
            state_errors,
        }
    }

    /// Wall time of one CHECKPOINT forced through the orderer.
    fn checkpoint_ms(&self) -> f64 {
        let addr = &self.config.nodes[0].client_addr;
        let mut client = connect_with_retry(addr, 950, BOOT_DEADLINE).expect("connect to node 0");
        let started = Instant::now();
        force_checkpoint(&mut client, BOOT_DEADLINE).expect("forced checkpoint");
        started.elapsed().as_secs_f64() * 1e3
    }
}

impl Conn {
    fn open(addr: &str, client: u64) -> Self {
        let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
        stream.set_nodelay(true).expect("set nodelay");
        Self {
            stream,
            decoder: FrameDecoder::new(),
            client,
            next_request: 1,
        }
    }

    /// Sends `op` until a reply arrives (a fresh cluster may drop the
    /// first request) and checks the reply.
    fn probe(&mut self, op: &KvOp, want: &[u8]) {
        self.stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("set read timeout");
        let give_up = Instant::now() + BOOT_DEADLINE;
        let mut buf = [0u8; 4096];
        while Instant::now() < give_up {
            let request = self.next_request;
            self.next_request += 1;
            let frame = frame_of(self.client, request, op);
            self.stream.write_all(&frame).expect("send probe");
            let resend_at = Instant::now() + Duration::from_secs(1);
            while Instant::now() < resend_at {
                match self.stream.read(&mut buf) {
                    Ok(0) => panic!("node closed the probe connection"),
                    Ok(n) => self.decoder.push(&buf[..n]),
                    Err(_) => continue, // read timeout: keep waiting
                }
                while let Some(body) = self.decoder.next().expect("reply framing") {
                    let (id, reply) = decode_response(&body).expect("reply body");
                    if id.as_raw() == request {
                        assert_eq!(reply, want, "probe read answered wrongly");
                        self.stream.set_read_timeout(None).expect("clear timeout");
                        return;
                    }
                }
            }
        }
        panic!("pipelined connection never served its probe");
    }
}

fn frame_of(client: u64, request: u64, op: &KvOp) -> Vec<u8> {
    let req = Request::new(
        ClientId::new(client),
        RequestId::new(request),
        op.command(),
        op.encode(),
    );
    encode_frame(&req.encode())
}

struct InFlight {
    due_ns: u64,
    expect: Vec<u8>,
    timed: bool,
}

type Pending = Arc<Mutex<HashMap<u64, InFlight>>>;

/// The open-loop sender: writes each request when it falls due.
fn send_schedule(
    mut writers: Vec<(TcpStream, u64, u64)>,
    pendings: Vec<Pending>,
    plan: Plan,
    mix: Mix,
    epoch: Instant,
    window_closed: mpsc::Receiver<()>,
) -> (Vec<u64>, u64) {
    let deadline_ns = plan.deadline.as_nanos() as u64;
    let mut schedule = Schedule::new(plan.seed, mix, plan.rate, writers.len(), deadline_ns);
    let mut late = Vec::new();
    let mut submit_ns = 0u64;
    let end_ns = plan.window_end_ns();
    loop {
        let next = schedule.next_arrival();
        if next.due_ns >= end_ns {
            break;
        }
        let now_ns = epoch.elapsed().as_nanos() as u64;
        if next.due_ns > now_ns {
            thread::sleep(Duration::from_nanos(next.due_ns - now_ns));
        }
        let (stream, client, next_request) = &mut writers[next.conn];
        let request = *next_request;
        *next_request += 1;
        let frame = frame_of(*client, request, &next.op);
        let timed = plan.timed(next.due_ns);
        pendings[next.conn].lock().expect("pending lock").insert(
            request,
            InFlight {
                due_ns: next.due_ns,
                expect: next.expect.encode(),
                timed,
            },
        );
        let sent = Instant::now();
        // A broken connection leaves its requests unanswered: they fail.
        let _ = stream.write_all(&frame);
        if timed {
            submit_ns += sent.elapsed().as_nanos() as u64;
            late.push((sent - epoch).as_nanos() as u64 - next.due_ns);
        }
    }
    // Stay alive until the window's last CPU sample has seen this thread.
    let _ = window_closed.recv();
    (late, submit_ns)
}

/// A connection's reply reader: matches each reply to its request.
fn read_replies(
    mut stream: TcpStream,
    mut decoder: FrameDecoder,
    pending: Pending,
    plan: Plan,
    epoch: Instant,
) -> Tally {
    let mut tally = Tally::new(plan.deadline);
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let done_ns = epoch.elapsed().as_nanos() as u64;
        decoder.push(&buf[..n]);
        while let Ok(Some(body)) = decoder.next() {
            let Some((request, reply)) = decode_response(&body) else {
                continue;
            };
            let flight = pending
                .lock()
                .expect("pending lock")
                .remove(&request.as_raw());
            if let Some(f) = flight {
                if f.timed {
                    tally.reply(f.due_ns, done_ns, reply == f.expect);
                }
            }
        }
    }
    tally
}

/// Admin endpoint state of every node at one instant.
struct Scrape {
    /// Per node: interval name → (count, mean ns).
    traces: Vec<BTreeMap<String, (u64, f64)>>,
    /// Per node: the `metrics.json` line.
    metrics: Vec<String>,
}

impl Scrape {
    fn take(admins: &[String]) -> Self {
        let query = |addr: &String, command: &str| {
            admin::query(addr, command, ADMIN_TIMEOUT)
                .unwrap_or_else(|e| panic!("admin {command} at {addr}: {e}"))
        };
        Self {
            traces: admins
                .iter()
                .map(|a| parse_trace(&query(a, "trace")))
                .collect(),
            metrics: admins.iter().map(|a| query(a, "metrics.json")).collect(),
        }
    }

    /// Lifecycle intervals of the lifecycles folded between two scrapes,
    /// pooled over every node.
    fn trace_delta(&self, after: &Scrape) -> TraceStats {
        let mut pooled: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        for (before, after) in self.traces.iter().zip(&after.traces) {
            for (name, &(count, mean)) in after {
                let (c0, m0) = before.get(name).copied().unwrap_or((0, 0.0));
                let entry = pooled.entry(name.clone()).or_default();
                entry.0 += count.saturating_sub(c0);
                entry.1 += count as f64 * mean - c0 as f64 * m0;
            }
        }
        TraceStats {
            intervals: pooled
                .into_iter()
                .map(|(name, (count, sum))| (name, (count, sum / count.max(1) as f64)))
                .collect(),
        }
    }

    fn counter_delta(&self, after: &Scrape) -> CounterStats {
        let mut stats = CounterStats::default();
        for (before, after) in self.metrics.iter().zip(&after.metrics) {
            let b = json_section(before, "counters");
            for (name, value) in json_section(after, "counters") {
                let base = b.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v);
                *stats.counters.entry(name.to_string()).or_default() += value - base.min(value);
            }
        }
        // Histograms and gauge peaks are cumulative since the node started.
        for m in &after.metrics {
            stats.delivery_queue_depth_max = stats.delivery_queue_depth_max.max(json_field(
                m,
                "\"delivery_queue_depth\":",
                "max",
            ));
        }
        stats.fsync_p50_ns = json_field(&after.metrics[0], "\"wal_fsync_ns\":", "p50_ns");
        stats.fsync_p99_ns = json_field(&after.metrics[0], "\"wal_fsync_ns\":", "p99_ns");
        stats
    }
}

/// Parses the admin `trace` payload into interval name → (count, mean ns).
fn parse_trace(text: &str) -> BTreeMap<String, (u64, f64)> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let mut words = line.split_whitespace();
        if words.next() != Some("interval") {
            continue;
        }
        let Some(name) = words.next() else { continue };
        let mut count = 0;
        let mut mean = 0.0;
        for kv in words {
            match kv.split_once('=') {
                Some(("count", v)) => count = v.parse().unwrap_or(0),
                Some(("mean_ns", v)) => mean = v.parse().unwrap_or(0.0),
                _ => {}
            }
        }
        out.insert(name.to_string(), (count, mean));
    }
    out
}

/// The `"name":number` pairs of one object section of a `metrics.json`
/// line (`"counters":{...}`). Labeled names such as
/// `"x{replica=0,worker=1}"` hold braces and commas, so the section is
/// scanned pair by pair rather than split.
fn json_section<'a>(line: &'a str, section: &str) -> Vec<(&'a str, u64)> {
    let key = format!("\"{section}\":{{");
    let Some(mut rest) = line.find(&key).map(|i| &line[i + key.len()..]) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    while let Some(body) = rest.strip_prefix('"') {
        let Some(close) = body.find("\":") else { break };
        let name = &body[..close];
        let value = &body[close + 2..];
        let digits = value.len() - value.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        let Ok(number) = value[..digits].parse() else {
            break;
        };
        out.push((name, number));
        rest = value[digits..]
            .strip_prefix(',')
            .unwrap_or(&value[digits..]);
    }
    out
}

/// A numeric field of the object that follows `key` (0 when absent).
fn json_field(line: &str, key: &str, field: &str) -> u64 {
    let Some(at) = line.find(key) else { return 0 };
    let object = &line[at + key.len()..];
    let object = &object[..object.find('}').unwrap_or(object.len())];
    let needle = format!("\"{field}\":");
    object
        .find(&needle)
        .and_then(|i| {
            let digits: String = object[i + needle.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .unwrap_or(0)
}

/// Polls every node's admin `status` until all report the same
/// `executed_seq`; returns it, or why they never agreed.
fn converged_seq(admins: &[String]) -> Result<u64, String> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        let seqs: Vec<Option<u64>> = admins
            .iter()
            .map(|a| {
                let status = admin::query(a, "status", ADMIN_TIMEOUT).ok()?;
                let at = status.find("executed_seq=")? + "executed_seq=".len();
                let digits: String = status[at..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                digits.parse().ok()
            })
            .collect();
        if let Some(Some(first)) = seqs.first() {
            if seqs.iter().all(|s| *s == Some(*first)) {
                return Ok(*first);
            }
        }
        if Instant::now() >= give_up {
            return Err(format!(
                "nodes disagree on executed_seq after the drain: {seqs:?}"
            ));
        }
        thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_admin_payloads() {
        let trace = "traced 3\ndropped 0\nchain_sum_ns 10\n\
                     interval submit_to_ordered count=3 mean_ns=1500 p50_ns=1 p99_ns=2 max_ns=3\n\
                     interval end_to_end count=3 mean_ns=2500 p50_ns=1 p99_ns=2 max_ns=3\n";
        let parsed = parse_trace(trace);
        assert_eq!(parsed["submit_to_ordered"], (3, 1500.0));
        assert_eq!(parsed["end_to_end"], (3, 2500.0));

        let line = "{\"ts_ms\":1,\"counters\":{\"net_frames_sent\":10,\"x{a=1,b=2}\":3,\"wal_appends\":4},\
                    \"gauges\":{\"delivery_queue_depth\":{\"current\":0,\"max\":7}},\
                    \"histograms\":{\"wal_fsync_ns\":{\"count\":2,\"mean_ns\":5,\"p50_ns\":900,\"p99_ns\":1200,\"max_ns\":1300},\
                    \"wal_fsync_ns{group=0}\":{\"count\":2,\"mean_ns\":5,\"p50_ns\":1,\"p99_ns\":1,\"max_ns\":1}}}";
        assert_eq!(
            json_section(line, "counters"),
            vec![
                ("net_frames_sent", 10),
                ("x{a=1,b=2}", 3),
                ("wal_appends", 4)
            ]
        );
        assert_eq!(json_field(line, "\"delivery_queue_depth\":", "max"), 7);
        assert_eq!(json_field(line, "\"wal_fsync_ns\":", "p99_ns"), 1200);
        assert_eq!(json_field(line, "\"missing\":", "p99_ns"), 0);
    }

    #[test]
    fn trace_deltas_pool_nodes_and_drop_the_earlier_lifecycles() {
        let node = |count, mean| {
            let mut m = BTreeMap::new();
            m.insert("end_to_end".to_string(), (count, mean));
            m
        };
        let before = Scrape {
            traces: vec![node(10, 1000.0), node(0, 0.0)],
            metrics: vec![String::new(), String::new()],
        };
        let after = Scrape {
            traces: vec![node(20, 1500.0), node(10, 4000.0)],
            metrics: vec![String::new(), String::new()],
        };
        let delta = before.trace_delta(&after);
        // Node 0 folded 10 new lifecycles averaging 2000 ns; node 1 10 at 4000.
        assert_eq!(delta.intervals["end_to_end"], (20, 3000.0));
    }
}
