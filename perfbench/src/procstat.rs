//! Per-role CPU attribution from `/proc/<pid>/task/*/stat`.
//!
//! Every spawn site in the workspace names its thread after its role
//! (`coord-g2`, `acceptor-g0-a1`, `psmr-r0-t1`, `mesh-0-read`, ...).
//! Sampling each thread's utime+stime before and after a window and
//! grouping the difference by name prefix splits a deployment's CPU by
//! layer; what no prefix claims (and the CPU of threads that exited
//! during the window) is reported as unattributed.

use std::collections::BTreeMap;
use std::fs;

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// Thread-name prefix → layer role, for every thread the benchmark's
/// deployments run (the kernel keeps the first 15 bytes of a name).
/// No prefix is a prefix of another, so the order does not matter.
const ROLES: &[(&str, &str)] = &[
    ("coord-g", "paxos.coord"),
    ("acceptor-g", "paxos.acceptor"),
    ("racceptor-g", "paxos.acceptor"),
    ("mcast-ticker", "multicast.ticker"),
    ("psmr-r", "engine.worker"),
    ("mesh-", "net.mesh"),
    ("bridge-", "net.bridge"),
    ("node-exec", "node.exec"),
    ("relay-", "node.relay"),
    ("node-ingest", "node.relay"),
    ("client-", "node.client_conn"),
    ("psmr-node", "node.main"),
    ("admin-", "node.admin"),
    ("metrics-jsonl", "node.metrics"),
    ("xfer-serve-", "recovery.xfer"),
    ("bench-", "bench.client"),
    ("perfbench", "bench.main"),
];

/// The layer role of a thread, from its name (`comm`).
pub fn role_of(comm: &str) -> Option<&'static str> {
    ROLES
        .iter()
        .find(|(prefix, _)| comm.starts_with(prefix))
        .map(|&(_, role)| role)
}

/// Parses a `stat` line into `(comm, utime + stime)`.
///
/// `comm` sits in parentheses and may itself hold spaces and
/// parentheses, so the fields resume after the *last* `)`.
pub fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    // Field 3 (state) is the first after the comm; utime and stime are
    // fields 14 and 15.
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// CPU ticks of a set of processes at one instant.
#[derive(Debug, Clone, Default)]
pub struct CpuSample {
    /// Whole-process ticks per pid (includes threads that have exited).
    process: BTreeMap<u32, u64>,
    /// `(pid, tid)` → `(comm, ticks)` of every live thread.
    threads: BTreeMap<(u32, u32), (String, u64)>,
}

impl CpuSample {
    /// Samples every process in `pids` (a vanished process reads as
    /// absent, its threads too).
    pub fn take(pids: &[u32]) -> Self {
        let mut sample = Self::default();
        for &pid in pids {
            let Some((_, ticks)) = read_stat(&format!("/proc/{pid}/stat")) else {
                continue;
            };
            sample.process.insert(pid, ticks);
            let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
                continue;
            };
            for task in tasks.flatten() {
                let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else {
                    continue;
                };
                // A thread may exit between the listing and the read.
                if let Some(stat) = read_stat(&format!("/proc/{pid}/task/{tid}/stat")) {
                    sample.threads.insert((pid, tid), stat);
                }
            }
        }
        sample
    }
}

fn read_stat(path: &str) -> Option<(String, u64)> {
    parse_stat(&fs::read_to_string(path).ok()?)
}

/// CPU spent between two samples, split by role.
#[derive(Debug, Clone, Default)]
pub struct CpuSplit {
    pub total_secs: f64,
    pub by_role: BTreeMap<&'static str, f64>,
    /// Names of threads that matched no role, with their CPU seconds.
    pub unnamed: BTreeMap<String, f64>,
}

impl CpuSplit {
    pub fn between(before: &CpuSample, after: &CpuSample) -> Self {
        let mut split = Self::default();
        for (pid, &ticks) in &after.process {
            let base = before.process.get(pid).copied().unwrap_or(0);
            split.total_secs += ticks.saturating_sub(base) as f64 / TICKS_PER_SEC;
        }
        for (key, (comm, ticks)) in &after.threads {
            let base = before.threads.get(key).map_or(0, |(_, t)| *t);
            let secs = ticks.saturating_sub(base) as f64 / TICKS_PER_SEC;
            match role_of(comm) {
                Some(role) => *split.by_role.entry(role).or_default() += secs,
                None => *split.unnamed.entry(comm.clone()).or_default() += secs,
            }
        }
        split
    }

    /// CPU seconds of one role (0 when no thread had it).
    pub fn role_secs(&self, role: &str) -> f64 {
        self.by_role.get(role).copied().unwrap_or(0.0)
    }

    /// Share of the total CPU that no role accounts for, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        if self.total_secs <= 0.0 {
            return 0.0;
        }
        let attributed: f64 = self.by_role.values().sum();
        ((self.total_secs - attributed) / self.total_secs * 100.0).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat_line(comm: &str, utime: u64, stime: u64) -> String {
        format!(
            "4242 ({comm}) S 1 4242 4242 0 -1 4194368 120 0 0 0 {utime} {stime} 0 0 20 0 7 0 \
             100 1000000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
        )
    }

    #[test]
    fn parses_plain_and_hostile_comm_strings() {
        for comm in [
            "coord-g2",
            "a b c",
            "x) S 1 2 3",
            "((()))",
            ") (",
            "",
            "mesh-0-read) 9 9",
        ] {
            let (got, ticks) = parse_stat(&stat_line(comm, 30, 12)).expect(comm);
            assert_eq!(got, comm);
            assert_eq!(ticks, 42, "comm {comm:?}");
        }
    }

    #[test]
    fn rejects_truncated_lines() {
        assert_eq!(parse_stat("12 (x) S 1 2"), None);
        assert_eq!(parse_stat("no parens at all"), None);
        assert_eq!(parse_stat(")12 ("), None);
    }

    #[test]
    fn maps_thread_names_to_roles() {
        let cases = [
            ("coord-g0", Some("paxos.coord")),
            ("acceptor-g2-a1", Some("paxos.acceptor")),
            ("racceptor-g0-a2", Some("paxos.acceptor")),
            ("psmr-r1-t0", Some("engine.worker")),
            ("mcast-ticker", Some("multicast.ticker")),
            ("mesh-2-dial-0", Some("net.mesh")),
            ("bridge-chan1", Some("net.bridge")),
            ("relay-fwd-2", Some("node.relay")),
            ("node-ingest", Some("node.relay")),
            ("client-conn-0", Some("node.client_conn")),
            ("bench-rx-1", Some("bench.client")),
            ("psmr-node", Some("node.main")),
            // A hostile name that merely contains a role is not that role.
            ("x coord-g0", None),
            (") psmr-r0-t0", None),
            ("", None),
        ];
        for (comm, role) in cases {
            assert_eq!(role_of(comm), role, "comm {comm:?}");
        }
    }

    #[test]
    fn splits_cpu_by_role_and_counts_the_rest_as_unattributed() {
        let mut before = CpuSample::default();
        let mut after = CpuSample::default();
        before.process.insert(1, 100);
        after.process.insert(1, 300);
        before.threads.insert((1, 1), ("coord-g0".into(), 50));
        after.threads.insert((1, 1), ("coord-g0".into(), 150));
        // Born during the window: counted from zero.
        after.threads.insert((1, 2), ("psmr-r0-t0".into(), 60));
        after.threads.insert((1, 3), ("mystery) (x".into(), 20));
        // Exited during the window: its 20 ticks show only in the total.
        before.threads.insert((1, 4), ("acceptor-g0-a0".into(), 5));
        let split = CpuSplit::between(&before, &after);
        assert!((split.total_secs - 2.0).abs() < 1e-9);
        assert!((split.role_secs("paxos.coord") - 1.0).abs() < 1e-9);
        assert!((split.role_secs("engine.worker") - 0.6).abs() < 1e-9);
        assert_eq!(split.role_secs("paxos.acceptor"), 0.0);
        assert!((split.unnamed["mystery) (x"] - 0.2).abs() < 1e-9);
        assert!((split.unattributed_pct() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn samples_this_process() {
        let me = std::process::id();
        let sample = CpuSample::take(&[me]);
        assert!(sample.process.contains_key(&me));
        assert!(sample.threads.keys().any(|&(pid, _)| pid == me));
    }
}
