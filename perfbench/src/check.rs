//! Answer checking. Every reply the benchmark times is judged here; a
//! reply that is an `ERR`, a `BUSY`, malformed, or a wrong answer counts
//! as a failed request.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use subq_dl::QueryClassDecl;
use subq_oodb::{evaluate_query, Database, DurableOptions, FileBackend, OptimizedDatabase};
use subq_workload::ChurnOp;

/// What one reply turned out to be.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Answers at `version`.
    Answers {
        version: u64,
        count: usize,
    },
    Committed {
        version: u64,
    },
    /// A failed request, with the reason.
    Failed(String),
}

impl Verdict {
    pub fn failed(&self) -> bool {
        matches!(self, Verdict::Failed(_))
    }
}

/// Splits an `ANSWERS <version> <n>` payload into its version and names.
pub fn answer_names(payload: &[u8]) -> Result<(u64, Vec<&str>), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "reply is not UTF-8".to_owned())?;
    let (head, body) = text.split_once('\n').unwrap_or((text, ""));
    let mut words = head.split(' ');
    if words.next() != Some("ANSWERS") {
        return Err(format!("expected ANSWERS, got {:?}", head));
    }
    let version = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("bad version in {head:?}"))?;
    let count: usize = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("bad count in {head:?}"))?;
    let names: Vec<&str> = body.lines().collect();
    if names.len() != count {
        return Err(format!("declared {count} names, carried {}", names.len()));
    }
    Ok((version, names))
}

/// Judges a reply to a query. With `expected`, the names must equal it
/// as a set (the server lists them in object-id order, which matches
/// the expected order whenever ids agree, so the sort is the slow path).
pub fn judge_query(payload: &[u8], expected: Option<&[String]>) -> Verdict {
    let (version, names) = match answer_names(payload) {
        Ok(parsed) => parsed,
        Err(e) => return Verdict::Failed(refusal(payload).unwrap_or(e)),
    };
    if let Some(expected) = expected {
        if !same_names(&names, expected) {
            return Verdict::Failed(format!(
                "wrong answer at version {version}: {} names, expected {}",
                names.len(),
                expected.len()
            ));
        }
    }
    Verdict::Answers {
        version,
        count: names.len(),
    }
}

/// Judges a reply to a transaction.
pub fn judge_txn(payload: &[u8]) -> Verdict {
    let text = String::from_utf8_lossy(payload);
    match text
        .strip_prefix("COMMITTED ")
        .and_then(|v| v.trim().parse().ok())
    {
        Some(version) => Verdict::Committed { version },
        None => Verdict::Failed(refusal(payload).unwrap_or_else(|| format!("unexpected {text:?}"))),
    }
}

/// `ERR`/`BUSY` replies, named.
fn refusal(payload: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(payload);
    let head = text.lines().next().unwrap_or("");
    (head.starts_with("ERR") || head.starts_with("BUSY")).then(|| head.to_owned())
}

pub fn same_names(names: &[&str], expected: &[String]) -> bool {
    if names.len() != expected.len() {
        return false;
    }
    if names.iter().zip(expected).all(|(a, b)| *a == b.as_str()) {
        return true;
    }
    let mut a: Vec<&str> = names.to_vec();
    let mut b: Vec<&str> = expected.iter().map(String::as_str).collect();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// The scratch answer of a query, as names in object-id order.
pub fn expected_names(db: &Database, query: &QueryClassDecl) -> Vec<String> {
    evaluate_query(db, query)
        .into_iter()
        .map(|id| db.object_name(id).to_owned())
        .collect()
}

/// A query reply kept for checking after the run: what was asked, the
/// version it was answered at, and the names as the server listed them.
pub struct KeptAnswer {
    pub query: QueryClassDecl,
    pub version: u64,
    pub names: Vec<String>,
}

impl KeptAnswer {
    pub fn new(query: QueryClassDecl, payload: &[u8]) -> Option<KeptAnswer> {
        let (version, names) = answer_names(payload).ok()?;
        Some(KeptAnswer {
            query,
            version,
            names: names.into_iter().map(str::to_owned).collect(),
        })
    }

    fn check(&self, db: &Database) -> Result<(), String> {
        let expected = expected_names(db, &self.query);
        let names: Vec<&str> = self.names.iter().map(String::as_str).collect();
        if same_names(&names, &expected) {
            Ok(())
        } else {
            Err(format!(
                "{} at version {}: {} names, scratch evaluation gives {}",
                self.query.name,
                self.version,
                self.names.len(),
                expected.len()
            ))
        }
    }
}

/// Checks kept answers of a read-only run against the genesis store.
pub fn check_static(db: &Database, kept: &[&KeptAnswer]) -> Vec<String> {
    kept.iter().filter_map(|k| k.check(db).err()).collect()
}

/// Replays the acknowledged transactions in version order over the
/// genesis store and checks every kept answer at the version it was
/// answered at. `acked` holds `(version, transaction)` pairs.
pub fn check_replay(
    genesis: &Database,
    acked: &[(u64, &[ChurnOp])],
    kept: &[&KeptAnswer],
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut by_version: BTreeMap<u64, Vec<&[ChurnOp]>> = BTreeMap::new();
    for (version, ops) in acked {
        by_version.entry(*version).or_default().push(ops);
    }
    let mut pending: Vec<&KeptAnswer> = kept.to_vec();
    pending.sort_by_key(|k| k.version);
    let mut pending = pending.into_iter().peekable();
    let mut db = genesis.clone();
    let mut check_through = |db: &Database, version: u64, errors: &mut Vec<String>| {
        while let Some(k) = pending.next_if(|k| k.version <= version) {
            if k.version != db.data_version() {
                errors.push(format!(
                    "answer at version {} does not match any acknowledged boundary",
                    k.version
                ));
                continue;
            }
            if let Err(e) = k.check(db) {
                errors.push(e);
            }
        }
    };
    check_through(&db, db.data_version(), &mut errors);
    for (version, mut group) in by_version {
        // Transactions acknowledged at the same version: one of them (the
        // first to commit) moved the store there; the others were no-ops
        // on that state and must stay no-ops. A lone transaction is the
        // mover if any is, and the version check below catches it if not,
        // so only a tie needs trial copies of the store.
        if db.data_version() < version && group.len() > 1 {
            let mover = group.iter().position(|ops| {
                let mut trial = db.snapshot_clone();
                ops.iter().for_each(|op| op.apply(&mut trial));
                trial.data_version() == version
            });
            match mover {
                Some(i) => {
                    let ops = group.remove(i);
                    ops.iter().for_each(|op| op.apply(&mut db));
                }
                None => {
                    errors.push(format!(
                        "no acknowledged transaction reaches version {version}"
                    ));
                    return errors;
                }
            }
        }
        for ops in group {
            ops.iter().for_each(|op| op.apply(&mut db));
        }
        if db.data_version() != version {
            errors.push(format!(
                "replay reached version {} where the server acknowledged {version}",
                db.data_version()
            ));
            return errors;
        }
        check_through(&db, version, &mut errors);
    }
    check_through(&db, u64::MAX, &mut errors);
    errors
}

/// Reopens a store directory after the server was killed: the recovered
/// version must cover every acknowledged commit and every view extent
/// must equal its scratch evaluation.
pub fn check_recovery(dir: &Path, genesis: &Database, acked_max: u64) -> Result<(), String> {
    let backend = FileBackend::new(dir).map_err(|e| format!("reopening backend: {e}"))?;
    let odb = OptimizedDatabase::open(
        Arc::new(backend),
        DurableOptions { group_commit: 64 },
        || {
            // An image exists; recovery never runs the genesis closure.
            Database::new(genesis.model().clone())
        },
    )
    .map_err(|e| format!("recovering: {e}"))?;
    let db = odb.database();
    let version = db.data_version();
    if version < acked_max {
        return Err(format!(
            "recovered version {version} is behind the acknowledged {acked_max}"
        ));
    }
    let snapshot = odb.snapshot();
    if snapshot.views().len() != genesis.model().queries.len() {
        return Err(format!(
            "recovered {} views of {}",
            snapshot.views().len(),
            genesis.model().queries.len()
        ));
    }
    for view in snapshot.views() {
        let expected = evaluate_query(db, &view.definition);
        if expected.len() != view.extent.len()
            || expected.iter().any(|id| !view.extent.contains(id))
        {
            return Err(format!(
                "view {} differs from its scratch evaluation",
                view.definition.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Req, Schedule, Store, Workload};
    use subq_server::Response;

    fn answers(version: u64, names: &[String]) -> Vec<u8> {
        Response::Answers {
            version,
            names: names.to_vec(),
        }
        .render()
        .into_bytes()
    }

    #[test]
    fn a_corrupted_reply_counts_as_failed() {
        let store = Store::generate(Workload::Scan);
        let expected = expected_names(&store.db, &store.views[3]);
        assert!(!expected.is_empty());
        assert!(!judge_query(&answers(0, &expected), Some(&expected)).failed());

        let mut dropped = expected.clone();
        dropped.pop();
        let mut renamed = expected.clone();
        renamed[0] = "o_not_an_answer".to_owned();
        let truncated = {
            let mut bytes = answers(0, &expected);
            bytes.truncate(bytes.len() / 2);
            bytes
        };
        for corrupt in [
            answers(0, &dropped),
            answers(0, &renamed),
            truncated,
            b"ERR INTERNAL boom".to_vec(),
            b"BUSY queue full".to_vec(),
        ] {
            assert!(judge_query(&corrupt, Some(&expected)).failed());
        }
        assert!(judge_txn(b"BUSY queue full").failed());
        assert!(!judge_txn(b"COMMITTED 12").failed());

        let kept = KeptAnswer::new(store.views[3].clone(), &answers(0, &renamed)).expect("parses");
        assert_eq!(check_static(&store.db, &[&kept]).len(), 1);
    }

    #[test]
    fn replay_checks_answers_at_their_versions() {
        let store = Store::generate(Workload::Churn);
        let mut schedule = Schedule::new(Workload::Churn, &store, 9, 0, 1);
        let mut db = store.db.clone();
        let mut acked = Vec::new();
        let mut kept = Vec::new();
        while acked.len() < 20 {
            match schedule.next_req(&store).expect("not exhausted") {
                Req::Txn(t) => {
                    store.transactions[t]
                        .iter()
                        .for_each(|op| op.apply(&mut db));
                    acked.push((db.data_version(), store.transactions[t].as_slice()));
                }
                Req::View(v) => {
                    let names = expected_names(&db, &store.views[v]);
                    let reply = answers(db.data_version(), &names);
                    kept.push(KeptAnswer::new(store.views[v].clone(), &reply).expect("parses"));
                }
                Req::Adhoc(_) => unreachable!("churn sends view queries"),
            }
        }
        let refs: Vec<&KeptAnswer> = kept.iter().collect();
        assert!(check_replay(&store.db, &acked, &refs).is_empty());
        // Claim a later version for an answer: the names no longer match
        // (or the version is no boundary), and the checker says so.
        let last = kept
            .iter_mut()
            .rev()
            .find(|k| !k.names.is_empty())
            .expect("some non-empty answer");
        last.names.pop();
        let refs: Vec<&KeptAnswer> = kept.iter().collect();
        assert_eq!(check_replay(&store.db, &acked, &refs).len(), 1);
    }
}
