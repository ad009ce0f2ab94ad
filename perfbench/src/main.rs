//! `perfbench`: the serve-path benchmark.
//!
//! ```text
//! perfbench --workload scan_100k|adhoc_100k|churn_100k --seed N --seconds N
//!           --trace 0|1 --subqd PATH --work DIR
//! ```
//!
//! Generates the workload's store, sets it up several times (open,
//! materialize the views, checkpoint, start `subqd --dir`, first PONG),
//! drives the last server from one closed-loop client for `--seconds`,
//! checks the answers, and prints the end-to-end metrics (`--trace 0`)
//! or replays the same requests in-process with a span
//! around every layer call and prints the per-layer metrics
//! (`--trace 1`). The last line of standard output is the JSON result;
//! the lines before it are the environment stamp and a readable summary.
//! Spans and the summary are written under `--work`.

mod check;
mod gen;
mod steal;
mod trace;
mod wire;

use gen::{Store, Workload, OBJECTS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use subq_oodb::{DurableOptions, FileBackend, OptimizedDatabase};
use trace::{Counts, Tracer, Twins};
use wire::{Expectations, Subqd, WireRun};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Set-up servers that take a write probe before they are shut down
/// (read-only workloads only).
const PROBES: usize = 3;

/// Closed-loop clients. One client and the server thread answering it
/// take turns, so the run never has more threads ready than CPUs, and
/// measures the program rather than the scheduler: with a client per
/// core, queries waited for a core behind the other client's work, and a
/// fifth of the CPU stolen by the hypervisor doubled the median latency.
const CLIENTS: usize = 1;

/// The group-commit setting `subqd` uses by default; in-process twins
/// open with the same.
const GROUP_COMMIT: usize = 64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    subqd: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 25;
    let mut trace = false;
    let mut subqd = None;
    let mut work = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            "--subqd" => subqd = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        subqd: subqd.ok_or("--subqd is required")?,
        work: work.ok_or("--work is required")?,
    })
}

/// Nearest-rank percentile of unsorted samples.
fn percentile<T: Copy + Ord>(samples: &[T], p: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Metrics in output order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// `<name>_p50_us` and `<name>_p99_us` of nanosecond samples (0
    /// when the layer did no work on this workload).
    fn latency_us(&mut self, name: &str, ns: &[i64]) {
        for p in [50.0, 99.0] {
            let value = percentile(ns, p).unwrap_or(0) as f64 / 1e3;
            self.put(format!("{name}_p{p}_us"), value, "us");
        }
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// One set-up: from handing the generated store to
/// `OptimizedDatabase::open`, through view materialization and the
/// checkpoint, until the recovered `subqd` answers its first `PING`.
struct Setup {
    times: SetupTimes,
    /// The in-process database the directory was built with (it no
    /// longer writes once `subqd` owns the directory).
    odb: OptimizedDatabase,
    server: Subqd,
}

fn open_store(
    store: &Store,
    dir: &Path,
) -> Result<(OptimizedDatabase, Duration, Duration), String> {
    let genesis = store.db.clone();
    let backend = FileBackend::new(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut odb = OptimizedDatabase::open(
        Arc::new(backend),
        DurableOptions {
            group_commit: GROUP_COMMIT,
        },
        move || genesis,
    )
    .map_err(|e| format!("opening the store: {e}"))?;
    let started = Instant::now();
    for name in store.view_names() {
        odb.materialize_view(name)
            .map_err(|e| format!("materializing {name}: {e}"))?;
    }
    let materialize = started.elapsed();
    let started = Instant::now();
    odb.checkpoint()
        .map_err(|e| format!("checkpointing: {e}"))?;
    Ok((odb, materialize, started.elapsed()))
}

fn image_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".img"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// What one set-up measured.
struct SetupTimes {
    /// When it started and ended, from the run's epoch.
    span_ns: (u64, u64),
    total_s: f64,
    materialize_s: f64,
    checkpoint_s: f64,
    recover_s: f64,
    image_bytes: f64,
}

fn setup(store: &Store, dir: &Path, subqd: &Path) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(dir);
    let began = Instant::now();
    let (odb, materialize, checkpoint) = open_store(store, dir)?;
    let built = began.elapsed();
    let started = Instant::now();
    let server = Subqd::spawn(subqd, dir)?;
    server.ping()?;
    let recover = started.elapsed();
    Ok(Setup {
        times: SetupTimes {
            span_ns: (
                steal::ns_since_epoch(began),
                steal::ns_since_epoch(Instant::now()),
            ),
            total_s: secs(built + recover),
            materialize_s: secs(materialize),
            checkpoint_s: secs(checkpoint),
            recover_s: secs(recover),
            image_bytes: image_bytes(dir) as f64,
        },
        odb,
        server,
    })
}

/// The filesystem type of `dir`, as `stat -f` names it.
fn filesystem(dir: &Path) -> String {
    std::process::Command::new("stat")
        .args(["-f", "-c", "%T"])
        .arg(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The machine's CPUs, as `/proc/stat` lists them.
fn machine_cores() -> usize {
    std::fs::read_to_string("/proc/stat")
        .map(|stat| {
            stat.lines()
                .filter(|l| {
                    l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit)
                })
                .count()
        })
        .unwrap_or(0)
}

/// `(all, steal)` CPU ticks of the machine so far. Steal is time a
/// virtual CPU was ready but not running; a run with much of it measured
/// a neighbour as well as the program.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Everything a run reports.
struct Outcome {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: Metrics,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let cores = machine_cores();
    // The CPUs this process may run on; `run.py` pins the runner, and
    // so `subqd`, to one.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = CLIENTS;
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("creating {}: {e}", args.work.display()))?;
    let tag = format!("{}-{}", workload.name(), args.seed);

    let ticks_before = cpu_ticks();
    let sampler = steal::StealSampler::start();
    let started = Instant::now();
    let store = Store::generate(workload);
    let generate_s = secs(started.elapsed());

    let mut setups = Vec::new();
    let mut server = None;
    let mut served_dir = PathBuf::new();
    let mut served_odb: Option<OptimizedDatabase> = None;
    // The read-only workloads have no commits of their own: their commit
    // latency comes from a write probe on the first PROBES set-up servers,
    // which do not serve the run. Every probe starts from the same fresh
    // store, so the probes pool into one sample.
    let mut probe = wire::ClientLog::default();
    for i in 0..SETUPS {
        let dir = args.work.join(format!("{tag}-store{i}"));
        let Setup {
            times,
            odb,
            server: up,
        } = setup(&store, &dir, &args.subqd)?;
        setups.push(times);
        if i + 1 < SETUPS {
            if workload != Workload::Churn && !args.trace && i < PROBES {
                let log = wire::probe_commits(up.addr, &store);
                probe.samples.extend(log.samples);
                probe.errors.extend(log.errors);
            }
            up.quit()?;
            drop(odb);
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            server = Some(up);
            served_odb = Some(odb);
            served_dir = dir;
        }
    }
    let server = server.expect("at least one set-up");
    let median_of =
        |f: fn(&SetupTimes) -> f64| median_f64(&setups.iter().map(f).collect::<Vec<_>>());

    let fs = filesystem(&served_dir);
    let mut stamp = String::new();
    let _ = write!(
        stamp,
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cores\": {cores}, \
         \"cpus_used\": {cpus}, \"clients\": {clients}, \"objects\": {OBJECTS}, \"views\": {}, \"store_fs\": {}, \
         \"flush_policy\": \"group commit {GROUP_COMMIT} (subqd default), one fsync per writer batch\", \
         \"subqd_flags\": {}, \"generate_s\": {generate_s:.3}}}",
        json_str(workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        store.views.len(),
        json_str(&fs),
        json_str(&server.args.join(" ")),
    );
    println!("env {stamp}");

    let scan_expected: Option<Vec<Vec<String>>> = (workload == Workload::Scan).then(|| {
        store
            .views
            .iter()
            .map(|view| check::expected_names(&store.db, view))
            .collect()
    });
    let expect = Expectations {
        scan: scan_expected.as_deref(),
        seed: args.seed,
        keep_every: match workload {
            Workload::Scan => 0,
            Workload::Adhoc => 16,
            Workload::Churn => 4,
        },
        keep_max: 200,
    };
    let window = Duration::from_secs(args.seconds);
    let wire = wire::drive(
        server.addr,
        workload,
        &store,
        args.seed,
        clients,
        window,
        &expect,
        &wire::RssProbe {
            pid: server.pid(),
            after: workload.rss_after(),
        },
    );
    let peak_rss_mb = wire.rss_mb.or_else(|| server.peak_rss_mb()).unwrap_or(0.0);
    let steal = sampler.finish();

    let mut errors: Vec<String> = wire
        .logs
        .iter()
        .chain([&probe])
        .flat_map(|l| l.errors.iter().cloned())
        .collect();
    let attempted = wire.samples().count() + probe.samples.len();
    let mut failed = wire
        .samples()
        .chain(&probe.samples)
        .filter(|s| s.failed)
        .count();
    let kept: Vec<_> = wire.logs.iter().flat_map(|l| l.kept.iter()).collect();
    let late_errors = match workload {
        Workload::Scan => {
            server.quit()?;
            Vec::new()
        }
        Workload::Adhoc => {
            server.quit()?;
            check::check_static(&store.db, &kept)
        }
        Workload::Churn => {
            let acked: Vec<(u64, &[subq_workload::ChurnOp])> = wire
                .samples()
                .filter(|s| !s.failed)
                .filter_map(|s| s.txn.map(|t| (s.version, store.transactions[t].as_slice())))
                .collect();
            let acked_max = acked.iter().map(|a| a.0).max().unwrap_or(0);
            let mut errs = check::check_replay(&store.db, &acked, &kept);
            // The crash check: no clean shutdown, no final sync.
            server.kill();
            if let Err(e) = check::check_recovery(&served_dir, &store.db, acked_max) {
                errs.push(format!("after SIGKILL: {e}"));
            }
            errs
        }
    };
    failed += late_errors.len();
    errors.extend(late_errors);
    let kept_checked = wire.logs.iter().map(|l| l.kept.len()).sum::<usize>();

    let mut metrics = Metrics::default();
    let mut summary = String::new();
    let timed = || wire.samples().filter(|s| s.timed && !s.failed);
    let query_ns: Vec<u64> = timed()
        .filter(|s| s.txn.is_none())
        .map(|s| s.latency_ns)
        .collect();
    let commit_ns: Vec<u64> = timed()
        .chain(probe.samples.iter().filter(|s| !s.failed))
        .filter(|s| s.txn.is_some())
        .map(|s| s.latency_ns)
        .collect();
    // The end-to-end figures come from the quiet quarter-seconds (see
    // `steal`): those of the timed window, and those the probe commits
    // were sent in.
    let ops_per_slice = wire.ops_per_slice();
    let quiet = steal.quiet(ops_per_slice.keys().copied());
    let probe_slices: std::collections::BTreeSet<u64> = probe
        .samples
        .iter()
        .map(|s| steal::slice_of(s.at_ns))
        .collect();
    let quiet_probe = steal.quiet(probe_slices);
    let quiet_query_ns: Vec<u64> = timed()
        .filter(|s| s.txn.is_none() && quiet.contains(s.at_ns))
        .map(|s| s.latency_ns)
        .collect();
    let quiet_commit_ns: Vec<u64> = timed()
        .filter(|s| quiet.contains(s.at_ns))
        .chain(
            probe
                .samples
                .iter()
                .filter(|s| !s.failed && quiet_probe.contains(s.at_ns)),
        )
        .filter(|s| s.txn.is_some())
        .map(|s| s.latency_ns)
        .collect();
    // Requests per second, from the median slice.
    let per_s = |ops: Vec<f64>| {
        if ops.is_empty() {
            0.0
        } else {
            median_f64(&ops) * 1e9 / steal::SLICE_NS as f64
        }
    };
    let ops_per_s = per_s(
        ops_per_slice
            .iter()
            .filter(|(slice, _)| quiet.slices.contains(slice))
            .map(|(_, ops)| *ops)
            .collect(),
    );
    // And set-up time from the quiet set-ups.
    let spans: Vec<(u64, u64)> = setups.iter().map(|s| s.span_ns).collect();
    let quiet_setups: Vec<f64> = setups
        .iter()
        .zip(steal.quiet_spans(&spans))
        .filter(|(_, quiet)| *quiet)
        .map(|(s, _)| s.total_s)
        .collect();
    let acked = timed().count();
    let queries_answered = timed().filter(|s| s.txn.is_none()).count().max(1);
    let non_empty = timed().filter(|s| s.txn.is_none() && s.answers > 0).count();
    let mean_answers = timed()
        .filter(|s| s.txn.is_none())
        .map(|s| s.answers)
        .sum::<usize>() as f64
        / queries_answered as f64;
    let ms = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e6;
    let _ = writeln!(
        summary,
        "wire: {acked} acknowledged ops in {:.3} s ({} queries, {} commits, {} warm-up requests), \
         {failed} of {attempted} requests failed (failed_frac {}), {kept_checked} answers kept and checked \
         after the run, mean answer {mean_answers:.0} names, non-empty answers {:.1}%, \
         query p99 {:.3} ms, commit p99 {:.3} ms (neither gated: see README)\n\
         quiet: {} of {} quarter-seconds of the timed window, {} of {} with probe commits ({} queries, {} commits kept); \
         over every quarter-second: query p50 {:.3} ms, commit p50 {:.3} ms, {:.1} ops/s",
        wire.window_ns as f64 / 1e9,
        query_ns.len(),
        commit_ns.len(),
        wire.samples().filter(|s| !s.timed).count(),
        failed as f64 / attempted.max(1) as f64,
        100.0 * non_empty as f64 / queries_answered as f64,
        ms(percentile(&query_ns, 99.0)),
        ms(percentile(&commit_ns, 99.0)),
        quiet.slices.len(),
        quiet.of,
        quiet_probe.slices.len(),
        quiet_probe.of,
        quiet_query_ns.len(),
        quiet_commit_ns.len(),
        ms(percentile(&query_ns, 50.0)),
        ms(percentile(&commit_ns, 50.0)),
        per_s(ops_per_slice.values().copied().collect()),
    );
    if !args.trace {
        metrics.put("query_p50_ms", ms(percentile(&quiet_query_ns, 50.0)), "ms");
        metrics.put(
            "commit_p50_ms",
            ms(percentile(&quiet_commit_ns, 50.0)),
            "ms",
        );
        metrics.put("ops_per_s", ops_per_s, "1/s");
        metrics.put("setup_s", median_f64(&quiet_setups), "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MiB");
    } else {
        let trace_summary = traced(
            args,
            &store,
            clients,
            &wire,
            served_odb.take(),
            &tag,
            &mut metrics,
        )?;
        summary.push_str(&trace_summary);
        metrics.put("views.materialize_s", median_of(|s| s.materialize_s), "s");
        metrics.put("durable.checkpoint_s", median_of(|s| s.checkpoint_s), "s");
        metrics.put("durable.recover_s", median_of(|s| s.recover_s), "s");
        metrics.put(
            "durable.image_bytes_per_object",
            median_of(|s| s.image_bytes) / OBJECTS as f64,
            "bytes",
        );
    }
    drop(served_odb);
    let _ = std::fs::remove_dir_all(&served_dir);
    let _ = writeln!(
        summary,
        "setup: median {:.3} s of {} quiet set-ups, {:.3} s of all {SETUPS} \
         (materialize {:.3} s, checkpoint {:.3} s, recover {:.3} s, image {} bytes)",
        median_f64(&quiet_setups),
        quiet_setups.len(),
        median_of(|s| s.total_s),
        median_of(|s| s.materialize_s),
        median_of(|s| s.checkpoint_s),
        median_of(|s| s.recover_s),
        median_of(|s| s.image_bytes),
    );
    if let (Some((all0, steal0)), Some((all1, steal1))) = (ticks_before, cpu_ticks()) {
        let steal = (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64;
        let _ = writeln!(
            summary,
            "machine: {:.1}% of CPU time stolen during the run",
            100.0 * steal
        );
    }
    print!("{summary}");
    let summary_path = args
        .work
        .join(format!("{tag}-trace{}.summary.txt", u8::from(args.trace)));
    let _ = std::fs::write(
        &summary_path,
        format!("env {stamp}\n{summary}metrics {}\n", metrics.json()),
    );
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics,
    })
}

/// A churn replay's twins, freshly set up: a durable one in its own
/// directory (the same open, materialize and checkpoint as a set-up) and
/// a volatile one.
fn churn_twins(args: &Args, store: &Store, tag: &str, pass: &str) -> Result<Twins, String> {
    let dir = args.work.join(format!("{tag}-{pass}"));
    let _ = std::fs::remove_dir_all(&dir);
    let (durable, _, _) = open_store(store, &dir)?;
    let mut volatile = OptimizedDatabase::new(store.db.clone()).map_err(|e| format!("{e:?}"))?;
    for name in store.view_names() {
        volatile
            .materialize_view(name)
            .map_err(|e| format!("materializing {name}: {e}"))?;
    }
    volatile.publish_snapshot();
    Ok(Twins {
        durable,
        volatile: Some(volatile),
        dir: Some(dir),
    })
}

/// The traced run: replays the wire run's requests in-process twice —
/// once recording nothing, once with spans — and derives the per-layer
/// metrics. Returns a readable summary line.
fn traced(
    args: &Args,
    store: &Store,
    clients: usize,
    wire: &WireRun,
    served: Option<OptimizedDatabase>,
    tag: &str,
    metrics: &mut Metrics,
) -> Result<String, String> {
    let requests = trace::sent_order(args.workload, store, args.seed, clients, wire);
    let (mut plain_twins, mut traced_twins) = if args.workload == Workload::Churn {
        (
            Some(churn_twins(args, store, tag, "twin-a")?),
            churn_twins(args, store, tag, "twin-b")?,
        )
    } else {
        let served = Twins {
            durable: served.expect("read-only runs keep the served state"),
            volatile: None,
            dir: None,
        };
        (None, served)
    };
    // The same requests without and with spans: the difference is what
    // tracing costs. The plain pass stops after a quarter of the run's
    // window; the traced pass replays exactly the requests it got through.
    let budget = Duration::from_secs(args.seconds) / 4;
    let mut plain = Tracer::new(false);
    let (untimed_ns, replayed) = trace::replay(
        store,
        plain_twins.as_mut().unwrap_or(&mut traced_twins),
        &requests,
        Some(budget),
        &mut plain,
        &mut Counts::default(),
    );
    let requests = &requests[..replayed];
    let mut tracer = Tracer::new(true);
    let mut counts = Counts::default();
    let (timed_ns, _) = trace::replay(
        store,
        &mut traced_twins,
        requests,
        None,
        &mut tracer,
        &mut counts,
    );
    for twins in plain_twins.iter().chain([&traced_twins]) {
        if let Some(dir) = &twins.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let spans = tracer.spans();
    let span_path = args.work.join(format!("{tag}.spans.tsv"));
    tracer
        .write(&span_path)
        .map_err(|e| format!("writing {}: {e}", span_path.display()))?;

    // Per request id: timed?, root kind, and wire latency.
    let timed_ids: std::collections::HashSet<usize> =
        requests.iter().filter(|r| r.1).map(|r| r.0).collect();
    let wire_ns: Vec<u64> = wire.samples().map(|s| s.latency_ns).collect();
    let selfs = trace::self_times(spans);
    let mut by_name: std::collections::BTreeMap<&str, Vec<i64>> = Default::default();
    let mut query_wait = Vec::new();
    let mut commit_wait = Vec::new();
    let mut commit_part: std::collections::HashMap<usize, i64> = Default::default();
    for (i, span) in spans.iter().enumerate() {
        if !timed_ids.contains(&span.request) {
            continue;
        }
        let root_kind = span.parent.map_or(span.name, |p| spans[p].name);
        let name = match span.name {
            // Parse and render are query-path layers.
            "proto.parse" | "proto.render" if root_kind != "query" => continue,
            name => name,
        };
        by_name.entry(name).or_default().push(selfs[i] as i64);
        let duration = (span.end_ns - span.start_ns) as i64;
        match span.name {
            "query" => query_wait.push(wire_ns[span.request] as i64 - duration),
            "durable.commit" | "durable.fsync" => {
                *commit_part.entry(span.request).or_default() += duration
            }
            _ => {}
        }
    }
    for (request, part) in commit_part {
        commit_wait.push(wire_ns[request] as i64 - part);
    }
    let layer = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let per_query = |n: usize| n as f64 / counts.queries.max(1) as f64;
    let per_txn = |n: u64| n as f64 / counts.txns.max(1) as f64;
    metrics.latency_us("proto.parse", &layer("proto.parse"));
    metrics.latency_us("oodb.plan", &layer("oodb.plan"));
    metrics.put(
        "calculus.fresh_probes",
        per_query(counts.fresh_probes),
        "count",
    );
    metrics.put(
        "calculus.saturations",
        per_query(counts.saturations),
        "count",
    );
    let probes = counts.fresh_probes + counts.cached_probes;
    metrics.put(
        "calculus.hit_ratio",
        counts.cached_probes as f64 / probes.max(1) as f64,
        "ratio",
    );
    metrics.put(
        "views.probes_pruned",
        per_query(counts.probes_pruned),
        "count",
    );
    metrics.latency_us("oodb.execute", &layer("oodb.execute"));
    metrics.put("eval.candidates", per_query(counts.candidates), "count");
    metrics.put(
        "eval.answer_ratio",
        counts.answers as f64 / counts.candidates.max(1) as f64,
        "ratio",
    );
    metrics.latency_us("store.names", &layer("store.names"));
    metrics.latency_us("proto.render", &layer("proto.render"));
    metrics.put("proto.reply_bytes", per_query(counts.reply_bytes), "bytes");
    metrics.latency_us("server.query_wait", &query_wait);
    metrics.latency_us("snapshot.adopt_query", &counts.adopt_ns);
    metrics.latency_us("oodb.update", &layer("oodb.update"));
    metrics.latency_us("maintain.refresh", &layer("maintain.refresh"));
    metrics.latency_us("snapshot.publish", &layer("snapshot.publish"));
    metrics.latency_us("durable.commit", &layer("durable.commit"));
    metrics.latency_us("durable.fsync", &layer("durable.fsync"));
    metrics.put(
        "durable.wal_bytes_per_txn",
        per_txn(counts.wal_bytes),
        "bytes",
    );
    metrics.put("durable.fsyncs_per_txn", per_txn(counts.fsyncs), "count");
    metrics.put(
        "maintain.candidates_per_txn",
        per_txn(counts.maintain_candidates),
        "count",
    );
    metrics.put(
        "maintain.memberships_per_txn",
        per_txn(counts.maintain_memberships),
        "count",
    );
    metrics.latency_us("server.commit_wait", &commit_wait);
    let busy: usize = wire.logs.iter().map(|l| l.busy).sum();
    metrics.put(
        "server.busy_frac",
        busy as f64 / wire.samples().count().max(1) as f64,
        "ratio",
    );
    metrics.put(
        "trace.overhead_frac",
        timed_ns as f64 / untimed_ns.max(1) as f64 - 1.0,
        "ratio",
    );
    Ok(format!(
        "trace: {} requests replayed ({} timed: {} queries, {} transactions), {} spans in {}, \
         replay {:.3} s traced vs {:.3} s plain\n",
        requests.len(),
        timed_ids.len(),
        counts.queries,
        counts.txns,
        spans.len(),
        span_path.display(),
        timed_ns as f64 / 1e9,
        untimed_ns as f64 / 1e9,
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            let correct = outcome.failed == 0;
            for e in outcome.errors.iter().take(20) {
                eprintln!("perfbench: {e}");
            }
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                outcome.attempted,
                outcome.failed,
                outcome.metrics.json()
            );
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
