//! Driving the program from outside: a resident `rads-node serve` cluster,
//! one-shot `rads-node run` processes, the serve coordinator's Prometheus
//! page and the resident set size of every process the benchmark started.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rads_bench::json::Json;
use rads_bench::serve::{client_round_trip, ClientOp, QueryReply};

/// Machines in every cluster the benchmark starts.
pub const MACHINES: usize = 4;

/// Where the program binary lives and where the benchmark may write.
pub struct Env {
    /// The `rads-node` binary.
    pub node: PathBuf,
    /// Scratch directory inside the checkout (Unix sockets, traces, logs).
    pub work: PathBuf,
}

impl Env {
    /// A `rads-node` command with every `RADS_*` knob of the caller's
    /// environment removed, so only the flags below configure the cluster,
    /// and with the temp dir (where the node puts its Unix sockets) inside
    /// the scratch directory.
    fn node_command(&self) -> Command {
        let mut cmd = Command::new(&self.node);
        for (key, _) in std::env::vars() {
            if key.starts_with("RADS_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("TMPDIR", self.work.join("tmp"));
        cmd.stdin(Stdio::null());
        cmd
    }

    fn log_file(&self) -> Stdio {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.work.join("node.log"))
            .map(Stdio::from)
            .unwrap_or_else(|_| Stdio::null())
    }
}

/// The cluster flags every process of one workload agrees on.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Dataset stand-in name (`rads-node --dataset`).
    pub dataset: &'static str,
    /// Generator scale.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Per-group memory budget Φ in bytes (`None` = the program default).
    pub budget: Option<u64>,
    /// Admitted queries that may run at once (serve only).
    pub max_concurrent: usize,
}

impl ClusterConfig {
    fn common_args(&self) -> Vec<String> {
        let mut args: Vec<String> = [
            "--machines",
            &MACHINES.to_string(),
            "--transport",
            "uds",
            "--dataset",
            self.dataset,
            "--scale",
            &self.scale.to_string(),
            "--seed",
            &self.seed.to_string(),
            "--workers",
            "1",
            "--driver",
            "async",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(budget) = self.budget {
            args.push("--budget".to_string());
            args.push(budget.to_string());
        }
        args
    }
}

// ---------------------------------------------------------------------------
// resident serve cluster
// ---------------------------------------------------------------------------

/// A running `rads-node serve` cluster (coordinator plus its workers).
pub struct ServeCluster {
    child: Child,
    workers: Vec<u32>,
    drain: Option<JoinHandle<()>>,
    /// The TCP client front door.
    pub client_addr: String,
    /// The coordinator's Prometheus page.
    pub http_addr: String,
}

impl ServeCluster {
    /// Spawns the cluster and returns once the coordinator printed its
    /// ready line. The ready line is printed before the workers have built
    /// their partitions, so a caller that needs a working cluster must wait
    /// for a reply to a real query ([`ServeCluster::probe`]).
    pub fn spawn(env: &Env, config: &ClusterConfig) -> Result<ServeCluster, String> {
        let mut cmd = env.node_command();
        cmd.arg("serve")
            .args(config.common_args())
            .args([
                "--max-concurrent-queries",
                &config.max_concurrent.to_string(),
            ])
            .args(["--client-addr", "127.0.0.1:0", "--http-addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(env.log_file());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", env.node.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let read = reader.read_line(&mut line);
        let ready = read
            .map_err(|e| e.to_string())
            .and_then(|_| Json::parse(line.trim()))
            .and_then(|json| {
                let field = |key: &str| {
                    json.get(key)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("ready line lacks {key}: {line:?}"))
                };
                Ok((field("client_addr")?, field("http_addr")?))
            });
        let (client_addr, http_addr) = match ready {
            Ok(addrs) => addrs,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("serve coordinator did not become ready: {e}"));
            }
        };
        let drain = std::thread::spawn(move || drain(reader));
        let mut cluster = ServeCluster {
            child,
            workers: Vec::new(),
            drain: Some(drain),
            client_addr,
            http_addr,
        };
        cluster.workers = descendants(cluster.child.id());
        Ok(cluster)
    }

    /// Sends one query and waits for its reply.
    pub fn query(&self, pattern: &str, correlation: u64) -> Result<QueryReply, String> {
        let op = ClientOp::Query {
            pattern: pattern.to_string(),
            budget: None,
        };
        client_round_trip(&self.client_addr, &op, correlation)
    }

    /// Repeats `pattern` while the cluster answers with errors (the workers
    /// may still be building their partitions), giving up after `patience`.
    /// A reply with any count but `expected` is an error at once.
    pub fn probe(&self, pattern: &str, expected: u64, patience: Duration) -> Result<(), String> {
        let deadline = Instant::now() + patience;
        let mut last = String::new();
        while Instant::now() < deadline {
            match self.query(pattern, 1) {
                Ok(QueryReply::Ok { count, .. }) if count == expected => return Ok(()),
                Ok(QueryReply::Ok { count, .. }) => {
                    return Err(format!(
                        "probe {pattern} counted {count}, the oracle {expected}"
                    ))
                }
                Ok(other) => last = format!("{other:?}"),
                Err(e) => last = e,
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(format!(
            "probe {pattern} never answered {expected}: last reply {last}"
        ))
    }

    /// Summed peak resident set size (VmHWM) of the coordinator and its
    /// workers so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let mut pids = vec![self.child.id()];
        pids.extend(descendants(self.child.id()));
        pids.iter().map(|&pid| vm_hwm_kb(pid)).sum::<u64>() as f64 / 1000.0
    }

    /// The coordinator's Prometheus page as `name -> value` (histograms
    /// appear as `name_sum` / `name_count`).
    pub fn scrape(&self) -> Result<HashMap<String, f64>, String> {
        let mut stream = std::net::TcpStream::connect(&self.http_addr)
            .map_err(|e| format!("cannot connect to metrics page: {e}"))?;
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .map_err(|e| format!("cannot request metrics page: {e}"))?;
        let mut page = String::new();
        stream
            .read_to_string(&mut page)
            .map_err(|e| format!("cannot read metrics page: {e}"))?;
        let body = page.split("\r\n\r\n").nth(1).unwrap_or("");
        Ok(body
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (name, value) = line.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    /// Orders the cluster down and waits for the coordinator to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked = client_round_trip(&self.client_addr, &ClientOp::Shutdown, 0);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("serve coordinator exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err(format!("serve coordinator ignored shutdown ({acked:?})")),
                Err(e) => return Err(format!("waiting for serve coordinator: {e}")),
            }
        }
        // the coordinator reaps its workers before it exits
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        Ok(())
    }
}

impl Drop for ServeCluster {
    /// A cluster dropped without a clean shutdown (an error path) is
    /// killed, workers first, and waited for.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            return;
        }
        for &pid in &self.workers {
            kill_and_wait(pid);
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn drain(mut reader: BufReader<ChildStdout>) {
    let mut sink = Vec::new();
    let _ = reader.read_to_end(&mut sink);
}

// ---------------------------------------------------------------------------
// one-shot runs
// ---------------------------------------------------------------------------

/// One finished `rads-node run`.
pub struct OneShot {
    /// Process wall time: spawn of the coordinator to its exit.
    pub wall: Duration,
    /// The coordinator's one-line JSON summary.
    pub summary: Json,
}

impl OneShot {
    /// Embeddings over all machines.
    pub fn count(&self) -> u64 {
        self.summary
            .get("total_embeddings")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX)
    }

    /// Real framed bytes over all machines.
    pub fn wire_bytes(&self) -> f64 {
        self.summary
            .get("wire_bytes")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// Each machine's engine time in ms (the summary's top-level
    /// `elapsed_ms` is not used: the coordinator polls for worker results
    /// every 100 ms, which rounds it up).
    pub fn machine_ms(&self) -> Vec<f64> {
        self.summary
            .get("per_machine")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("elapsed_ms").and_then(Json::as_f64))
            .collect()
    }

    /// A cluster-wide metric of the summary's `metrics` object (present
    /// when the run had metrics on).
    pub fn metric(&self, name: &str) -> f64 {
        self.summary
            .get("metrics")
            .map_or(0.0, |m| metric_value(m, name))
    }
}

/// Runs one query as a fresh one-shot cluster. With `trace_out`, every
/// machine writes its Chrome trace (machine 0 at the path, machine K at
/// `<path>.mK`); with `metrics`, the summary carries the cluster's metrics.
pub fn run_oneshot(
    env: &Env,
    config: &ClusterConfig,
    query: &str,
    trace_out: Option<&Path>,
    metrics: bool,
) -> Result<OneShot, String> {
    let mut cmd = env.node_command();
    cmd.arg("run")
        .args(config.common_args())
        .args(["--query", query, "--timeout-secs", "120", "--json"])
        .stdout(Stdio::piped())
        .stderr(env.log_file());
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    if metrics {
        cmd.env("RADS_METRICS", "1");
    }
    let start = Instant::now();
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", env.node.display()))?;
    let wall = start.elapsed();
    if !output.status.success() {
        return Err(format!(
            "rads-node run {query} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let summary = Json::parse(last).map_err(|e| format!("bad run summary {last:?}: {e}"))?;
    Ok(OneShot { wall, summary })
}

// ---------------------------------------------------------------------------
// metrics JSON, processes
// ---------------------------------------------------------------------------

/// A scalar out of a `MetricsSnapshot::to_json` object: a counter's or
/// gauge's value, a histogram's sum (`<name>_sum`) or count
/// (`<name>_count`). Missing metrics read as 0.
pub fn metric_value(snapshot: &Json, name: &str) -> f64 {
    let metrics = snapshot.get("metrics").unwrap_or(snapshot);
    if let Some(entry) = metrics.get(name) {
        // serve replies nest `{"type":..,"value":..}`; one-shot summaries
        // flatten to the number itself
        return entry
            .as_f64()
            .or_else(|| entry.get("value").and_then(Json::as_f64))
            .unwrap_or(0.0);
    }
    for (suffix, field) in [("_sum", "sum"), ("_count", "count")] {
        if let Some(base) = name.strip_suffix(suffix) {
            if let Some(entry) = metrics.get(base) {
                return entry.get(field).and_then(Json::as_f64).unwrap_or(0.0);
            }
        }
    }
    0.0
}

/// Peak resident set size of the largest process among every child the
/// benchmark has waited for (and their waited-for descendants), in MB.
pub fn children_peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, correctly laid out `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1000.0
    } else {
        0.0
    }
}

/// Every process below `pid`, from `/proc/<pid>/task/*/children`.
fn descendants(pid: u32) -> Vec<u32> {
    let mut found = Vec::new();
    let mut frontier = vec![pid];
    while let Some(parent) = frontier.pop() {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{parent}/task")) else {
            continue;
        };
        for task in tasks.flatten() {
            let children =
                std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
            for child in children.split_whitespace().filter_map(|c| c.parse().ok()) {
                found.push(child);
                frontier.push(child);
            }
        }
    }
    found
}

fn vm_hwm_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// SIGKILLs a process that is not our child and waits until it is gone.
fn kill_and_wait(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    // SAFETY: plain syscall on a pid this benchmark started.
    unsafe { kill(pid as i32, SIGKILL) };
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let state = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
        // gone, or a zombie its new parent has yet to reap
        if state.is_empty()
            || state
                .rsplit(')')
                .next()
                .is_some_and(|s| s.trim_start().starts_with('Z'))
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
