//! The served side: the `subqd` child process and the closed-loop
//! clients that drive it over loopback TCP.

use crate::check::{judge_query, judge_txn, KeptAnswer, Verdict};
use crate::gen::{Req, Schedule, Store, Workload, WARMUP_PER_CLIENT};
use crate::steal::{epoch, slice_of, SLICE_NS};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};
use subq_server::frame::{read_frame, write_frame, DEFAULT_MAX_PAYLOAD};

/// A running `subqd`: default flags plus `--dir`.
pub struct Subqd {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    pub args: Vec<String>,
}

impl Subqd {
    /// Starts `subqd --dir <dir>` and waits for its listening line.
    pub fn spawn(binary: &Path, dir: &Path) -> Result<Subqd, String> {
        let args = vec!["--dir".to_owned(), dir.display().to_string()];
        let mut child = Command::new(binary)
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", binary.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("subqd listening on ")
            .and_then(|a| a.parse().ok());
        let mut server = Subqd {
            child,
            stdin,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            args,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("subqd did not report an address (got {line:?})")),
        }
    }

    /// Sends one `PING`; the reply must be a `PONG`.
    pub fn ping(&self) -> Result<(), String> {
        let mut stream = connect(self.addr).map_err(|e| format!("connecting: {e}"))?;
        let reply = round_trip(&mut stream, b"PING").map_err(|e| format!("PING: {e}"))?;
        if reply.starts_with(b"PONG ") {
            Ok(())
        } else {
            Err(format!(
                "PING answered {:?}",
                String::from_utf8_lossy(&reply)
            ))
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set so far.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }

    /// Asks for a clean shutdown on stdin and waits for the exit.
    pub fn quit(mut self) -> Result<(), String> {
        let mut stdin = self.stdin.take().expect("stdin kept until quit");
        let _ = stdin.write_all(b"quit\n");
        drop(stdin);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for subqd: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("subqd exited with {status}"))
        }
    }

    /// Kills the server with SIGKILL and reaps it.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Subqd {
    fn drop(&mut self) {
        // Never leave a server behind, whatever path ended the run.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The peak resident set (`VmHWM`) of process `pid`, in MiB.
fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(stream)
}

/// One request out, its reply in — the exchange `Client::request` makes,
/// minus rendering and parsing, so the time is the server's.
fn round_trip(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<Vec<u8>> {
    write_frame(stream, payload)?;
    read_frame(stream, DEFAULT_MAX_PAYLOAD)
}

/// One request as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub client: usize,
    /// Position in the client's schedule.
    pub index: usize,
    /// Send time, from the run's epoch.
    pub at_ns: u64,
    /// Sent inside the timed window (not warm-up).
    pub timed: bool,
    pub latency_ns: u64,
    pub txn: Option<usize>,
    pub failed: bool,
    /// The version a query was answered at or a commit acknowledged at.
    pub version: u64,
    pub answers: usize,
}

/// What one client sent and saw.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub kept: Vec<KeptAnswer>,
    pub errors: Vec<String>,
    pub busy: usize,
    /// When the client's timed window opened, from the run's epoch.
    pub opened_ns: u64,
    /// Wall time from the opening of the timed window to the client's
    /// last reply.
    pub finished_ns: u64,
}

/// Everything the wire run measured.
pub struct WireRun {
    pub logs: Vec<ClientLog>,
    pub window_ns: u64,
    /// The server's peak resident set once [`RssProbe::after`] timed
    /// requests were answered (`None` if the run sent fewer).
    pub rss_mb: Option<f64>,
}

impl WireRun {
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.logs.iter().flat_map(|log| log.samples.iter())
    }

    /// Acknowledged requests in each whole slice of the timeline
    /// ([`SLICE_NS`]) inside the timed window. A request that spans a
    /// boundary counts in each slice by the share of its round trip that
    /// fell there.
    pub fn ops_per_slice(&self) -> BTreeMap<u64, f64> {
        let opened = self.logs.iter().map(|l| l.opened_ns).min().unwrap_or(0);
        let first = opened.div_ceil(SLICE_NS);
        let end = slice_of(opened + self.window_ns);
        let mut per_slice: BTreeMap<u64, f64> =
            (first..end.max(first + 1)).map(|s| (s, 0.0)).collect();
        for s in self.samples().filter(|s| s.timed && !s.failed) {
            let (start, end) = (s.at_ns, s.at_ns + s.latency_ns.max(1));
            let mut at = start;
            while at < end {
                let slice = slice_of(at);
                let until = end.min((slice + 1) * SLICE_NS);
                if let Some(ops) = per_slice.get_mut(&slice) {
                    *ops += (until - at) as f64 / (end - start) as f64;
                }
                at = until;
            }
        }
        per_slice
    }
}

/// What the run checks inline, per workload: scan replies against the
/// scratch answer of their view; ad-hoc and churn replies are kept for
/// checking after the run (a seeded sample of them).
pub struct Expectations<'a> {
    pub scan: Option<&'a [Vec<String>]>,
    pub seed: u64,
    /// Keep one query reply in `keep_every` (0: none).
    pub keep_every: u64,
    pub keep_max: usize,
}

impl Expectations<'_> {
    fn keeps(&self, client: usize, index: usize) -> bool {
        self.keep_every > 0
            && crate::gen::mix(self.seed ^ 0xC4EC, ((client as u64) << 32) | index as u64)
                .is_multiple_of(self.keep_every)
    }
}

/// When to read the server's peak resident set: after a fixed number of
/// timed requests rather than at the end of the window, so that a run
/// the machine slowed down, which sends fewer requests, still reports
/// the memory of the same work.
pub struct RssProbe {
    pub pid: u32,
    pub after: usize,
}

/// Runs `clients` closed-loop clients: each sends its warm-up, all meet
/// at a barrier, then each sends until `window` has passed, waiting for
/// every reply before the next request.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    addr: SocketAddr,
    workload: Workload,
    store: &Store,
    seed: u64,
    clients: usize,
    window: Duration,
    expect: &Expectations<'_>,
    rss: &RssProbe,
) -> WireRun {
    let barrier = Barrier::new(clients);
    let timed_sent = AtomicUsize::new(0);
    let rss_mb = OnceLock::new();
    let base = epoch();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let barrier = &barrier;
                let timed_sent = &timed_sent;
                let rss_mb = &rss_mb;
                scope.spawn(move || {
                    let run = ClientRun {
                        addr,
                        workload,
                        store,
                        seed,
                        client,
                        clients,
                        window,
                        expect,
                        barrier,
                        base,
                        rss,
                        timed_sent,
                        rss_mb,
                    };
                    run_client(&run)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_ns = logs.iter().map(|l| l.finished_ns).max().unwrap_or(0).max(1);
    WireRun {
        logs,
        window_ns,
        rss_mb: rss_mb.get().copied(),
    }
}

struct ClientRun<'a> {
    addr: SocketAddr,
    workload: Workload,
    store: &'a Store,
    seed: u64,
    client: usize,
    clients: usize,
    window: Duration,
    expect: &'a Expectations<'a>,
    barrier: &'a Barrier,
    base: Instant,
    rss: &'a RssProbe,
    /// Timed requests answered so far, all clients together.
    timed_sent: &'a AtomicUsize,
    rss_mb: &'a OnceLock<f64>,
}

fn run_client(run: &ClientRun<'_>) -> ClientLog {
    let ClientRun {
        addr,
        workload,
        store,
        seed,
        client,
        clients,
        window,
        expect,
        barrier,
        base,
        rss,
        timed_sent,
        rss_mb,
    } = *run;
    let mut log = ClientLog::default();
    let mut schedule = Schedule::new(workload, store, seed, client, clients);
    let mut stream = match connect(addr) {
        Ok(stream) => Some(stream),
        Err(e) => {
            log.errors.push(format!("client {client}: connecting: {e}"));
            None
        }
    };
    let mut opened: Option<Instant> = None;
    loop {
        let index = schedule.issued();
        if index == WARMUP_PER_CLIENT {
            barrier.wait();
            let now = Instant::now();
            log.opened_ns = now.duration_since(base).as_nanos() as u64;
            opened = Some(now);
        }
        if let Some(opened) = opened {
            if opened.elapsed() >= window {
                log.finished_ns = opened.elapsed().as_nanos() as u64;
                break;
            }
        }
        let Some(req) = schedule.next_req(store) else {
            log.errors.push(format!(
                "client {client}: schedule exhausted after {index} requests"
            ));
            break;
        };
        let Some(conn) = stream.as_mut() else {
            break;
        };
        let text = req.text(store);
        let sent = Instant::now();
        let reply = round_trip(conn, text.as_bytes());
        let latency_ns = sent.elapsed().as_nanos() as u64;
        let mut sample = Sample {
            client,
            index,
            at_ns: sent.duration_since(base).as_nanos() as u64,
            timed: opened.is_some(),
            latency_ns,
            txn: match req {
                Req::Txn(t) => Some(t),
                _ => None,
            },
            failed: false,
            version: 0,
            answers: 0,
        };
        let payload = match reply {
            Ok(payload) => payload,
            Err(e) => {
                sample.failed = true;
                log.errors
                    .push(format!("client {client}: request {index}: {e}"));
                log.samples.push(sample);
                stream = None;
                continue;
            }
        };
        let verdict = match &req {
            Req::Txn(_) => judge_txn(&payload),
            Req::View(view) => judge_query(&payload, expect.scan.map(|e| e[*view].as_slice())),
            Req::Adhoc(_) => judge_query(&payload, None),
        };
        sample.failed = verdict.failed();
        match verdict {
            Verdict::Failed(reason) => {
                if reason.starts_with("BUSY") {
                    log.busy += 1;
                }
                log.errors
                    .push(format!("client {client}: request {index}: {reason}"));
            }
            Verdict::Committed { version } => sample.version = version,
            Verdict::Answers { version, count } => {
                sample.version = version;
                sample.answers = count;
                if log.kept.len() < expect.keep_max && expect.keeps(client, index) {
                    let query = match req {
                        Req::View(view) => store.views[view].clone(),
                        Req::Adhoc(query) => query,
                        Req::Txn(_) => unreachable!("transactions are judged as commits"),
                    };
                    log.kept.extend(KeptAnswer::new(query, &payload));
                }
            }
        }
        log.samples.push(sample);
        if opened.is_some() && timed_sent.fetch_add(1, Ordering::Relaxed) + 1 == rss.after {
            if let Some(mb) = peak_rss_mb(rss.pid) {
                let _ = rss_mb.set(mb);
            }
        }
    }
    if opened.is_none() {
        // Ended during warm-up: keep the barrier's count, the other
        // clients wait on it.
        barrier.wait();
    }
    if let Some(mut conn) = stream {
        let _ = round_trip(&mut conn, b"BYE");
    }
    log
}

/// Transactions each write probe commits.
const PROBE_COMMITS: usize = 128;

/// A write probe of the read-only workloads, which have no commits of
/// their own: on a freshly set-up server that serves nothing else, one
/// client commits the first [`PROBE_COMMITS`] transactions of the store's
/// pool, one at a time — the commit latency of a server whose readers
/// are idle. Every probe commits the same transactions, whatever the
/// seed: transactions differ in cost by orders of magnitude (a retraction
/// that misses is free, a new object copies the name table), so a seeded
/// draw would move the median by itself, and so would keeping the commits
/// of some probes and not others if they committed different ones.
pub fn probe_commits(addr: SocketAddr, store: &Store) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            log.errors.push(format!("probe: connecting: {e}"));
            return log;
        }
    };
    let base = epoch();
    let started = Instant::now();
    for txn in 0..PROBE_COMMITS.min(store.transactions.len()) {
        let text = Req::Txn(txn).text(store);
        let sent = Instant::now();
        let reply = round_trip(&mut conn, text.as_bytes());
        let mut sample = Sample {
            client: 0,
            index: log.samples.len(),
            at_ns: sent.duration_since(base).as_nanos() as u64,
            timed: true,
            latency_ns: sent.elapsed().as_nanos() as u64,
            txn: Some(txn),
            failed: false,
            version: 0,
            answers: 0,
        };
        let broken = reply.is_err();
        match reply
            .map_err(|e| e.to_string())
            .map(|payload| judge_txn(&payload))
        {
            Ok(Verdict::Committed { version }) => sample.version = version,
            Ok(Verdict::Failed(reason)) | Err(reason) => {
                sample.failed = true;
                log.errors
                    .push(format!("probe: commit {}: {reason}", sample.index));
            }
            Ok(Verdict::Answers { .. }) => unreachable!("judge_txn never reads answers"),
        }
        log.samples.push(sample);
        if broken {
            return log;
        }
    }
    log.finished_ns = started.elapsed().as_nanos() as u64;
    let _ = round_trip(&mut conn, b"BYE");
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_ns: u64, latency_ns: u64) -> Sample {
        Sample {
            client: 0,
            index: 0,
            at_ns,
            timed: true,
            latency_ns,
            txn: None,
            failed: false,
            version: 0,
            answers: 0,
        }
    }

    #[test]
    fn ops_per_slice_splits_boundary_requests() {
        const MS: u64 = 1_000_000;
        let opened = 500 * MS;
        let mut log = ClientLog {
            opened_ns: opened,
            ..ClientLog::default()
        };
        // Slices 0 and 2: five 50 ms requests each. One slow request
        // starts at 250 ms and runs 375 ms: two thirds of it fall in
        // slice 1, one third in slice 2.
        for slice in [0, 2] {
            for i in 0..5 {
                log.samples
                    .push(sample(opened + slice * 250 * MS + i * 50 * MS, 50 * MS));
            }
        }
        log.samples.push(sample(opened + 250 * MS, 375 * MS));
        // A failed request counts nowhere.
        let mut failed = sample(opened, 10 * MS);
        failed.failed = true;
        log.samples.push(failed);
        let run = WireRun {
            logs: vec![log],
            window_ns: 750 * MS,
            rss_mb: None,
        };
        // The window's slices of the timeline are 2, 3 and 4.
        let ops: Vec<(u64, f64)> = run.ops_per_slice().into_iter().collect();
        let expected = [(2, 5.0), (3, 2.0 / 3.0), (4, 5.0 + 1.0 / 3.0)];
        assert_eq!(ops.len(), expected.len());
        for ((slice, ops), (want_slice, want_ops)) in ops.iter().zip(expected) {
            assert_eq!(*slice, want_slice);
            assert!((ops - want_ops).abs() < 1e-9, "slice {slice}: {ops}");
        }
    }
}
