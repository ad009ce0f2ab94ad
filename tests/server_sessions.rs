//! Multi-session equivalence for `subqd`: N loopback client threads run
//! mixed churn + query traffic concurrently, and **every** answer any
//! session received must match a scratch re-evaluation of its view at a
//! published transaction boundary. This is the concurrency-equivalence
//! oracle of PR 5 pushed across the wire: the server's snapshot
//! versions give every reply a precise place in history, so after the
//! run we can sort the acknowledged commits by version, replay them on
//! a scratch `Database`, and demand that each `ANSWERS v` equals
//! `evaluate_query` at exactly boundary `v`.
//!
//! One subtlety the oracle handles head-on: a transaction whose ops all
//! happen to be no-ops acknowledges the *unchanged* version, so two
//! commits can tie. Within a tie group the true history is "the
//! effective transaction first, then no-ops", and the replay searches
//! the (tiny) group for the permutation where every prefix lands on the
//! acknowledged version — any other order is rejected, any missing
//! order is a server bug.

use std::sync::Mutex;
use std::time::Duration;
use subq_oodb::{evaluate_query, Database, OptimizedDatabase};
use subq_server::{churn_txn_request, view_query, Client, Request, Response, Server, ServerConfig};
use subq_workload::traffic::{client_schedule, TrafficOp, TrafficParams};
use subq_workload::{churn_trace, ChurnParams, ChurnTrace};

fn serve(seed: u64, params: ChurnParams, config: ServerConfig) -> (Server, ChurnTrace) {
    let trace = churn_trace(seed, params);
    let mut odb = OptimizedDatabase::new(trace.db.clone()).expect("translates");
    for name in &trace.view_names {
        odb.materialize_view(name).expect("materializes");
    }
    let server = Server::start(odb, config).expect("binds loopback");
    (server, trace)
}

fn answer_names(trace: &ChurnTrace, db: &Database, view: usize) -> Vec<String> {
    let query = view_query(trace, view);
    let mut names: Vec<String> = evaluate_query(db, &query)
        .iter()
        .map(|id| db.object_name(*id).to_owned())
        .collect();
    names.sort();
    names
}

/// What one session observed, in its own order.
#[derive(Debug)]
enum Event {
    Commit {
        version: u64,
        txn: usize,
    },
    Answer {
        version: u64,
        view: usize,
        names: Vec<String>,
        /// The session's last acknowledged commit version when the
        /// query was sent — the read-your-writes floor.
        floor: u64,
    },
}

/// Applies commit tie-group `group` (indices into `commits`) to `db`,
/// searching for the permutation in which every prefix lands exactly on
/// the acknowledged version. Panics if no permutation works: then some
/// acknowledged version was never a published boundary of this history.
fn apply_tie_group(
    db: &mut Database,
    trace: &ChurnTrace,
    group: &[usize],
    commits: &[(u64, usize)],
) {
    let version = commits[group[0]].0;
    if group.len() == 1 {
        for op in &trace.transactions[commits[group[0]].1] {
            op.apply(db);
        }
        assert_eq!(
            db.data_version(),
            version,
            "replaying txn {} did not land on its acknowledged version",
            commits[group[0]].1
        );
        return;
    }
    // Tie: at most one member is effective and must come first; the
    // rest are no-ops at `version` and commute. Search permutations on
    // clones (groups are tiny — ties require a fully no-op txn).
    fn search(
        db: &Database,
        trace: &ChurnTrace,
        version: u64,
        remaining: &[usize],
        commits: &[(u64, usize)],
    ) -> Option<Database> {
        if remaining.is_empty() {
            return Some(db.clone());
        }
        for (i, &pick) in remaining.iter().enumerate() {
            let mut attempt = db.clone();
            for op in &trace.transactions[commits[pick].1] {
                op.apply(&mut attempt);
            }
            if attempt.data_version() != version {
                continue;
            }
            let rest: Vec<usize> = remaining
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, c)| *c)
                .collect();
            if let Some(done) = search(&attempt, trace, version, &rest, commits) {
                return Some(done);
            }
        }
        None
    }
    *db = search(db, trace, version, group, commits)
        .unwrap_or_else(|| panic!("no replay order of tied commits reaches version {version}"));
}

/// Replays all `commits` in acknowledged-version order, checking every
/// recorded answer against scratch re-evaluation at its boundary.
fn check_equivalence(trace: &ChurnTrace, events: Vec<Event>) {
    let base = trace.db.data_version();
    let mut commits: Vec<(u64, usize)> = Vec::new();
    let mut answers: Vec<(u64, usize, Vec<String>, u64)> = Vec::new();
    for event in events {
        match event {
            Event::Commit { version, txn } => commits.push((version, txn)),
            Event::Answer {
                version,
                view,
                names,
                floor,
            } => answers.push((version, view, names, floor)),
        }
    }
    commits.sort_unstable();
    answers.sort_by_key(|a| a.0);
    let boundaries: std::collections::BTreeSet<u64> = std::iter::once(base)
        .chain(commits.iter().map(|c| c.0))
        .collect();

    let mut db = trace.db.clone();
    let mut next = 0usize;
    let mut checked = 0usize;
    for (version, view, names, floor) in answers {
        assert!(
            boundaries.contains(&version),
            "ANSWERS at version {version}, which no commit ever published"
        );
        assert!(
            version >= floor,
            "read-your-writes violated: answered at {version} after an ack at {floor}"
        );
        while next < commits.len() && commits[next].0 <= version {
            // Collect the whole tie group at this version.
            let tied = commits[next].0;
            let mut group = Vec::new();
            while next < commits.len() && commits[next].0 == tied {
                group.push(next);
                next += 1;
            }
            apply_tie_group(&mut db, trace, &group, &commits);
        }
        assert_eq!(
            db.data_version(),
            version,
            "scratch replay drifted from the published boundary"
        );
        let mut sorted = names;
        sorted.sort();
        assert_eq!(
            sorted,
            answer_names(trace, &db, view),
            "view {view} answer at boundary {version} disagrees with scratch re-evaluation"
        );
        checked += 1;
    }
    assert!(checked > 0, "the run never exercised a query");
}

#[test]
fn single_session_answers_track_every_boundary_exactly() {
    let params = ChurnParams {
        transactions: 16,
        ..ChurnParams::default()
    };
    let (server, trace) = serve(23, params, ServerConfig::default());
    let mut scratch = trace.db.clone();
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for (t, txn) in trace.transactions.iter().enumerate() {
        let version = match client.request(&churn_txn_request(txn)).expect("commits") {
            Response::Committed { version } => version,
            other => panic!("txn {t}: expected COMMITTED, got {other:?}"),
        };
        for op in txn {
            op.apply(&mut scratch);
        }
        assert_eq!(scratch.data_version(), version, "txn {t} version drift");
        for view in 0..trace.view_names.len() {
            match client
                .request(&Request::Query(view_query(&trace, view)))
                .expect("answers")
            {
                Response::Answers {
                    version: answered_at,
                    names,
                } => {
                    assert_eq!(answered_at, version, "txn {t} view {view}: stale answer");
                    let mut sorted = names;
                    sorted.sort();
                    assert_eq!(
                        sorted,
                        answer_names(&trace, &scratch, view),
                        "txn {t} view {view}"
                    );
                }
                other => panic!("expected ANSWERS, got {other:?}"),
            }
        }
    }
    client.close().expect("graceful BYE");
    server.shutdown();
}

#[test]
fn four_concurrent_sessions_agree_with_scratch_reevaluation() {
    let params = ChurnParams {
        transactions: 24,
        ops_per_transaction: 5,
        ..ChurnParams::default()
    };
    let config = ServerConfig {
        workers: 2,
        write_queue: 8,
        ..ServerConfig::default()
    };
    let (server, trace) = serve(71, params, config);
    let addr = server.addr();
    let clients = 4usize;
    let events = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..clients {
            let trace = &trace;
            let events = &events;
            scope.spawn(move || {
                let schedule = client_schedule(
                    0xBEEF,
                    c,
                    clients,
                    trace.transactions.len(),
                    trace.view_names.len(),
                    TrafficParams {
                        query_percent: 50,
                        ops: 40,
                    },
                );
                let mut client = Client::connect(addr).expect("connects");
                client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut mine = Vec::new();
                let mut floor = 0u64;
                for op in schedule {
                    match op {
                        TrafficOp::Txn(txn) => loop {
                            match client
                                .request(&churn_txn_request(&trace.transactions[txn]))
                                .expect("commit round trip")
                            {
                                Response::Committed { version } => {
                                    floor = floor.max(version);
                                    mine.push(Event::Commit { version, txn });
                                    break;
                                }
                                Response::Busy { .. } => {
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                                other => panic!("client {c}: expected COMMITTED, got {other:?}"),
                            }
                        },
                        TrafficOp::Query(view) => {
                            match client
                                .request(&Request::Query(view_query(trace, view)))
                                .expect("query round trip")
                            {
                                Response::Answers { version, names } => {
                                    mine.push(Event::Answer {
                                        version,
                                        view,
                                        names,
                                        floor,
                                    });
                                }
                                other => panic!("client {c}: expected ANSWERS, got {other:?}"),
                            }
                        }
                    }
                }
                client.close().expect("graceful BYE");
                events.lock().unwrap().extend(mine);
            });
        }
    });
    server.shutdown();
    check_equivalence(&trace, events.into_inner().unwrap());
}

/// `isA` may name a declared query class on the wire, as it may in the
/// translator and the evaluator. `isA` a materialized view is
/// Σ-equivalent to it and served from its extension without a
/// membership check; `isA` a query class with a constraint clause is
/// not — its translation drops the constraint — and is filtered.
#[test]
fn query_class_superclasses_are_served_and_only_structural_ones_shortcut() {
    use subq_dl::{ClassDecl, ConstraintExpr, DlModel, QueryClassDecl, Term};
    let query = |name: &str, is_a: &str, constraint: Option<ConstraintExpr>| QueryClassDecl {
        name: name.into(),
        is_a: vec![is_a.into()],
        derived: vec![],
        where_eqs: vec![],
        constraint,
    };
    let mut model = DlModel::new();
    model.classes.push(ClassDecl {
        name: "K".into(),
        is_a: vec![],
        attributes: vec![],
        constraint: None,
    });
    model.queries.push(query("AllK", "K", None));
    // Every K but `k0`: structurally the same concept as AllK.
    model.queries.push(query(
        "Guarded",
        "K",
        Some(ConstraintExpr::Not(Box::new(ConstraintExpr::Eq(
            Term::This,
            Term::Ident("k0".into()),
        )))),
    ));
    let mut db = Database::new(model);
    for i in 0..40 {
        let object = db.add_object(&format!("k{i}"));
        db.assert_class(object, "K");
    }
    db.add_object("loose");
    let mut odb = OptimizedDatabase::new(db.clone()).expect("translates");
    odb.materialize_view("AllK").expect("materializes");
    let server = Server::start(odb, ServerConfig::default()).expect("binds loopback");
    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    for (query, equivalent, answers) in [
        (query("ViaView", "AllK", None), "AllK", 40),
        (query("ViaGuarded", "Guarded", None), "none", 39),
    ] {
        let mut expected: Vec<String> = evaluate_query(&db, &query)
            .iter()
            .map(|id| db.object_name(*id).to_owned())
            .collect();
        expected.sort();
        assert_eq!(expected.len(), answers, "{}", query.name);
        match client
            .request(&Request::Query(query.clone()))
            .expect("query")
        {
            Response::Answers { mut names, .. } => {
                names.sort();
                assert_eq!(names, expected, "{}", query.name);
            }
            other => panic!("{}: expected ANSWERS, got {other:?}", query.name),
        }
        let lines = match client
            .request(&Request::Explain(query.clone()))
            .expect("explains")
        {
            Response::Report { lines, .. } => lines,
            other => panic!("{}: expected REPORT, got {other:?}", query.name),
        };
        assert!(
            lines[0].contains(&format!(" equivalent={equivalent} ")),
            "{}: {:?}",
            query.name,
            lines[0]
        );
        let candidates = lines.last().expect("candidates line");
        assert_eq!(
            candidates == "candidates actual=0",
            equivalent != "none",
            "{}: {candidates:?}",
            query.name
        );
    }
    client.close().expect("graceful BYE");
    server.shutdown();
}
