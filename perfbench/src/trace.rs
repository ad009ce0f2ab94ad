//! The traced run: the wire run's requests replayed in-process, in the
//! order they were sent, through each layer's public functions, with a
//! span around every call.
//!
//! Spans sit in the benchmark, around the calls into the program; the
//! program itself carries no timers for this. A request's spans share its
//! id; the request's own span is the parent of its layer spans.

use crate::gen::{Req, Schedule, Store, Workload};
use crate::wire::WireRun;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use subq_oodb::{Database, OptimizedDatabase, Reader};
use subq_server::frame::encode_frame;
use subq_server::{Request, Response, TxnOp};

/// One timed interval.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: usize,
}

/// Spans kept in memory until the run ends; `None` records nothing (the
/// untimed replay that prices the tracing itself).
pub struct Tracer {
    base: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(record: bool) -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: record.then(Vec::new),
        }
    }

    /// Runs `f` inside a span named `name`.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(spans) = self.spans.as_mut() else {
            return f();
        };
        let start_ns = self.base.elapsed().as_nanos() as u64;
        let result = f();
        let end_ns = self.base.elapsed().as_nanos() as u64;
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        result
    }

    /// Opens a parent span; close it with [`Tracer::close`].
    fn open(&mut self, name: &'static str, request: usize) -> Option<usize> {
        let spans = self.spans.as_mut()?;
        let start_ns = self.base.elapsed().as_nanos() as u64;
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            request,
        });
        Some(spans.len() - 1)
    }

    fn close(&mut self, span: Option<usize>) {
        if let (Some(spans), Some(span)) = (self.spans.as_mut(), span) {
            spans[span].end_ns = self.base.elapsed().as_nanos() as u64;
        }
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Writes the spans as tab-separated rows.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\trequest\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(span.start_ns),
                        spans[c].end_ns.min(span.end_ns),
                    )
                })
                .filter(|(s, e)| s < e)
                .collect();
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = span.start_ns;
            for (s, e) in covered {
                let s = s.max(reach);
                if e > s {
                    union += e - s;
                    reach = e;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(union)
        })
        .collect()
}

/// Per-request counts the layers report.
#[derive(Default)]
pub struct Counts {
    pub queries: usize,
    pub fresh_probes: usize,
    pub cached_probes: usize,
    pub saturations: usize,
    pub probes_pruned: usize,
    pub candidates: usize,
    pub answers: usize,
    pub reply_bytes: usize,
    pub txns: usize,
    pub maintain_candidates: u64,
    pub maintain_memberships: u64,
    pub wal_bytes: u64,
    pub fsyncs: u64,
    /// Cold minus warm execute after each snapshot adoption (ns).
    pub adopt_ns: Vec<i64>,
}

/// The in-process twins one replay runs against.
pub struct Twins {
    /// Answers queries: the served state for read-only workloads, the
    /// durable twin for churn.
    pub durable: OptimizedDatabase,
    /// Where a churn transaction's apply, maintenance and publication
    /// are timed one by one.
    pub volatile: Option<OptimizedDatabase>,
    /// The durable twin's own directory (churn only), for WAL growth.
    pub dir: Option<std::path::PathBuf>,
}

fn apply_op(db: &mut Database, op: &TxnOp) {
    match op {
        TxnOp::Add { object } => {
            db.add_object(object);
        }
        TxnOp::Class {
            assert,
            object,
            class,
        } => {
            let id = db.add_object(object);
            if *assert {
                db.assert_class(id, class);
            } else {
                db.retract_class(id, class);
            }
        }
        TxnOp::Attr {
            assert,
            from,
            attr,
            to,
        } => {
            let (from, to) = (db.add_object(from), db.add_object(to));
            if *assert {
                db.assert_attr(from, attr, to);
            } else {
                db.retract_attr(from, attr, to);
            }
        }
    }
}

fn frame_len(text: &str) -> usize {
    let mut bytes = Vec::with_capacity(text.len() + 8);
    encode_frame(text.as_bytes(), &mut bytes);
    bytes.len()
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(subq_oodb::durable::wal::WAL_FILE)).map_or(0, |m| m.len())
}

/// The wire run's requests, in the order they were sent: `(request id in
/// the wire run, timed?, request)`.
pub fn sent_order(
    workload: Workload,
    store: &Store,
    seed: u64,
    clients: usize,
    wire: &WireRun,
) -> Vec<(usize, bool, Req)> {
    let mut order: Vec<(u64, usize, usize, bool)> = Vec::new();
    let mut ids: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (id, s) in wire.samples().enumerate() {
        order.push((s.at_ns, s.client, s.index, s.timed));
        ids.insert((s.client, s.index), id);
    }
    order.sort_unstable();
    let mut reqs: Vec<Vec<Req>> = (0..clients)
        .map(|client| {
            let sent = order.iter().filter(|o| o.1 == client).count();
            let mut schedule = Schedule::new(workload, store, seed, client, clients);
            (0..sent).map_while(|_| schedule.next_req(store)).collect()
        })
        .collect();
    let mut out = Vec::with_capacity(order.len());
    for (_, client, index, timed) in order.into_iter().rev() {
        // Each client's requests come off its schedule back to front.
        let req = reqs[client]
            .pop()
            .expect("schedules regenerate what was sent");
        debug_assert_eq!(reqs[client].len(), index);
        out.push((ids[&(client, index)], timed, req));
    }
    out.reverse();
    out
}

/// Replays `requests` against `twins`: the whole warm-up, then timed
/// requests until they have taken `budget`. Returns the time spent on
/// timed requests and how many requests were replayed.
pub fn replay(
    store: &Store,
    twins: &mut Twins,
    requests: &[(usize, bool, Req)],
    budget: Option<Duration>,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> (u64, usize) {
    let mut reader: Reader = twins.durable.reader();
    let mut timed_ns = 0u64;
    for (done, (id, timed, req)) in requests.iter().enumerate() {
        if budget.is_some_and(|budget| Duration::from_nanos(timed_ns) >= budget) {
            return (timed_ns, done);
        }
        let (id, timed) = (*id, *timed);
        let started = Instant::now();
        let text = req.text(store);
        let root = tracer.open(if req.is_txn() { "txn" } else { "query" }, id);
        let parsed = tracer.span("proto.parse", root, id, || Request::parse(&text));
        match parsed.expect("generated requests parse") {
            Request::Query(query) => {
                let adopted = reader.sync();
                let plan = tracer.span("oodb.plan", root, id, || reader.plan(&query));
                let cold = Instant::now();
                let (answers, exec) =
                    tracer.span("oodb.execute", root, id, || reader.execute(&query));
                let cold_ns = cold.elapsed().as_nanos() as i64;
                let names = tracer.span("store.names", root, id, || {
                    answers
                        .iter()
                        .map(|oid| reader.database().object_name(*oid).to_owned())
                        .collect::<Vec<String>>()
                });
                let version = reader.data_version();
                let bytes = tracer.span("proto.render", root, id, || {
                    frame_len(&Response::Answers { version, names }.render())
                });
                tracer.close(root);
                if adopted {
                    let warm = Instant::now();
                    std::hint::black_box(reader.execute(&query));
                    if timed {
                        counts
                            .adopt_ns
                            .push(cold_ns - warm.elapsed().as_nanos() as i64);
                    }
                }
                if timed {
                    counts.queries += 1;
                    counts.fresh_probes += plan.fresh_probes;
                    counts.cached_probes += plan.cached_probes;
                    counts.saturations += plan.fact_saturations;
                    counts.probes_pruned += plan.probes_pruned;
                    counts.candidates += exec.candidates_examined;
                    counts.answers += exec.answers;
                    counts.reply_bytes += bytes;
                }
            }
            Request::Txn(ops) => {
                let volatile = twins
                    .volatile
                    .as_mut()
                    .expect("churn replays have a volatile twin");
                let maintained = volatile.maintenance_stats();
                let wal = twins.dir.as_deref().map_or(0, wal_len);
                let fsyncs = twins.durable.durability_stats().map_or(0, |s| s.fsyncs);
                tracer.span("oodb.update", root, id, || {
                    volatile.update(|db| ops.iter().for_each(|op| apply_op(db, op)))
                });
                tracer.span("maintain.refresh", root, id, || volatile.refresh_views());
                tracer.span("snapshot.publish", root, id, || {
                    volatile.publish_snapshot();
                });
                let durable = &mut twins.durable;
                let committed = tracer.span("durable.commit", root, id, || {
                    durable.commit_durable(|db| ops.iter().for_each(|op| apply_op(db, op)))
                });
                committed.expect("the durable twin commits");
                let synced = tracer.span("durable.fsync", root, id, || durable.sync_durable());
                let version = synced.expect("the durable twin syncs");
                tracer.span("proto.render", root, id, || {
                    frame_len(&Response::Committed { version }.render())
                });
                tracer.close(root);
                if timed {
                    let after = volatile.maintenance_stats();
                    counts.txns += 1;
                    counts.maintain_candidates +=
                        after.candidates_examined - maintained.candidates_examined;
                    counts.maintain_memberships +=
                        after.memberships_evaluated - maintained.memberships_evaluated;
                    counts.wal_bytes += twins.dir.as_deref().map_or(0, wal_len) - wal;
                    counts.fsyncs +=
                        twins.durable.durability_stats().map_or(0, |s| s.fsyncs) - fsyncs;
                }
            }
            other => panic!("schedules send only queries and transactions, got {other:?}"),
        }
        if timed {
            timed_ns += started.elapsed().as_nanos() as u64;
        }
    }
    (timed_ns, requests.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_the_part_no_child_covers() {
        let spans = [
            span("query", 0, 100, None),
            span("oodb.plan", 10, 30, Some(0)),
            span("oodb.execute", 25, 60, Some(0)),
            span("store.names", 90, 120, Some(0)),
        ];
        // Children cover 10..60 and 90..100 of the root: 60 of its 100 ns.
        assert_eq!(self_times(&spans), vec![40, 20, 35, 30]);
    }
}
