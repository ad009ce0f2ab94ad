//! The observability surfaces over the live wire: `EXPLAIN` must report
//! exactly the counters the engine's planner produces (the parity the
//! ISSUE's acceptance gate names), and `STATS` must expose non-trivial
//! latency histograms for the query, commit, and WAL-fsync paths after a
//! mixed load — plus the slow-query ring behind `STATS SLOW`.

use std::sync::Arc;
use std::time::Duration;
use subq_oodb::{DurableOptions, FaultyBackend, OptimizedDatabase};
use subq_server::{
    run_mixed_load, view_query, Client, LoadParams, Request, Response, Server, ServerConfig,
};
use subq_workload::traffic::TrafficParams;
use subq_workload::{churn_trace, ChurnParams, ChurnTrace};

/// Extracts `key=value` from a space-separated `EXPLAIN` line.
fn field(line: &str, key: &str) -> String {
    let needle = format!("{key}=");
    line.split(' ')
        .find_map(|token| token.strip_prefix(&needle))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
        .to_owned()
}

fn numeric_field(line: &str, key: &str) -> usize {
    field(line, key)
        .parse()
        .unwrap_or_else(|_| panic!("{key} in {line:?} is not numeric"))
}

/// The EXPLAIN parity gate: every counter on the wire's `plan` line must
/// equal the `QueryPlan` a local reader built over the identical store
/// produces for the same query sequence — the wire report *is* the
/// engine's plan, not a reenactment. A single worker keeps one server
/// reader's cache evolving in request order, mirrored locally.
#[test]
fn explain_wire_counters_match_the_engine_plan() {
    let trace = churn_trace(41, ChurnParams::default());
    let build = || {
        let mut odb = OptimizedDatabase::new(trace.db.clone()).expect("translates");
        for name in &trace.view_names {
            odb.materialize_view(name).expect("materializes");
        }
        odb
    };
    let server = Server::start(
        build(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("binds loopback");
    let mut local_odb = build();
    // `Server::start` publishes after materialization; mirror that so
    // the local reader pins the same catalog.
    local_odb.publish_snapshot();
    let mut local = local_odb.reader();

    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    // Two passes: the first plans fresh (probes miss), the second answers
    // from the verdict cache — parity must hold in both cache states.
    for pass in 0..2 {
        for view in 0..trace.view_names.len() {
            let query = view_query(&trace, view);
            let lines = match client
                .request(&Request::Explain(query.clone()))
                .expect("explains")
            {
                Response::Report { lines, .. } => lines,
                other => panic!("expected REPORT, got {other:?}"),
            };
            let expected = local.plan(&query);
            let plan_line = &lines[0];
            assert!(
                plan_line.starts_with("plan "),
                "first line is {plan_line:?}"
            );
            let tag = format!("pass {pass} view {view}");
            assert_eq!(
                numeric_field(plan_line, "subsuming"),
                expected.subsuming_views.len(),
                "{tag}: subsuming"
            );
            assert_eq!(
                numeric_field(plan_line, "cached_probes"),
                expected.cached_probes,
                "{tag}: cached_probes"
            );
            assert_eq!(
                numeric_field(plan_line, "fresh_probes"),
                expected.fresh_probes,
                "{tag}: fresh_probes"
            );
            assert_eq!(
                numeric_field(plan_line, "fact_saturations"),
                expected.fact_saturations,
                "{tag}: fact_saturations"
            );
            assert_eq!(
                numeric_field(plan_line, "probes_pruned"),
                expected.probes_pruned,
                "{tag}: probes_pruned"
            );
            assert_eq!(
                numeric_field(plan_line, "lattice_depth"),
                expected.lattice_depth,
                "{tag}: lattice_depth"
            );
            // Each query is a view definition: a Σ-equivalent view names
            // itself and answers without a membership check.
            assert_eq!(
                field(plan_line, "equivalent"),
                expected.equivalent_view.as_deref().unwrap_or("none"),
                "{tag}: equivalent"
            );
            assert!(
                expected.equivalent_view.is_some(),
                "{tag}: no equivalent view"
            );
            assert_eq!(
                lines.last().map(String::as_str),
                Some("candidates actual=0"),
                "{tag}: shortcut candidates"
            );

            // The structured lines must agree with the counters they
            // itemize: one probe line per probe, one pruned line per
            // pruned view, one frontier line per subsuming view with
            // exactly one marked chosen.
            let probes = lines.iter().filter(|l| l.starts_with("probe ")).count();
            assert_eq!(
                probes,
                expected.cached_probes + expected.fresh_probes,
                "{tag}: probe lines"
            );
            let pruned = lines.iter().filter(|l| l.starts_with("pruned ")).count();
            assert_eq!(pruned, expected.probes_pruned, "{tag}: pruned lines");
            let frontier: Vec<&String> = lines
                .iter()
                .filter(|l| l.starts_with("frontier "))
                .collect();
            assert_eq!(
                frontier.len(),
                expected.subsuming_views.len(),
                "{tag}: frontier lines"
            );
            let chosen = frontier
                .iter()
                .filter(|l| field(l, "chosen") == "true")
                .count();
            assert_eq!(
                chosen,
                usize::from(!frontier.is_empty()),
                "{tag}: exactly one chosen frontier member"
            );
            assert!(
                lines.last().unwrap().starts_with("candidates actual="),
                "{tag}: closing candidates line"
            );
        }
    }
    client.close().expect("graceful BYE");
    server.shutdown();
}

fn metric_sample(lines: &[String], name: &str) -> u64 {
    let prefix = format!("{name} ");
    lines
        .iter()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no sample {name} in STATS report"))
        .parse()
        .unwrap_or_else(|_| panic!("sample {name} is not numeric"))
}

fn metric_quantile(lines: &[String], name: &str, q: &str) -> u64 {
    metric_sample(lines, &format!("{name}{{quantile=\"{q}\"}}"))
}

/// `STATS` over a loaded durable server: the query, commit, and
/// WAL-fsync histograms must be populated with ordered quantiles, and
/// `STATS SLOW` (threshold 0) must hold parseable slow-query entries.
#[test]
fn stats_over_a_loaded_server_shows_populated_histograms() {
    let trace: ChurnTrace = churn_trace(
        0xE14,
        ChurnParams {
            objects: 120,
            transactions: 64,
            ..ChurnParams::default()
        },
    );
    let backend = Arc::new(FaultyBackend::new());
    let mut odb = OptimizedDatabase::open(backend, DurableOptions { group_commit: 64 }, || {
        trace.db.clone()
    })
    .expect("genesis open");
    for name in &trace.view_names {
        odb.materialize_view(name).expect("materializes");
    }
    odb.checkpoint().expect("checkpoint after materialization");
    let server = Server::start(
        odb,
        ServerConfig {
            slow_query_us: Some(0),
            ..ServerConfig::default()
        },
    )
    .expect("binds loopback");
    let report = run_mixed_load(
        server.addr(),
        &trace,
        LoadParams {
            clients: 2,
            traffic: TrafficParams {
                query_percent: 60,
                ops: 60,
            },
            ..LoadParams::default()
        },
    )
    .expect("load run");
    assert!(report.queries > 0 && report.txns > 0, "load must mix ops");

    let mut client = Client::connect(server.addr()).expect("connects");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let lines = match client
        .request(&Request::Stats { slow: false })
        .expect("stats")
    {
        Response::Report { lines, .. } => lines,
        other => panic!("expected REPORT, got {other:?}"),
    };
    for metric in [
        "subq_server_query_ns",
        "subq_server_commit_ns",
        "subq_wal_fsync_ns",
    ] {
        let count = metric_sample(&lines, &format!("{metric}_count"));
        assert!(count > 0, "{metric} recorded nothing under load");
        let p50 = metric_quantile(&lines, metric, "0.5");
        let p99 = metric_quantile(&lines, metric, "0.99");
        assert!(
            p50 > 0 && p50 <= p99,
            "{metric}: p50 {p50} / p99 {p99} unordered or empty"
        );
    }
    // The mirrored counters engage too: queries flowed, bytes moved,
    // and view-definition queries were answered from their view.
    assert!(metric_sample(&lines, "subq_server_queries_total") > 0);
    assert!(metric_sample(&lines, "subq_answer_shortcuts_total") > 0);
    assert!(metric_sample(&lines, "subq_server_bytes_in_total") > 0);
    assert!(metric_sample(&lines, "subq_server_bytes_out_total") > 0);

    // The slow-query ring (threshold 0 records every query): each entry
    // is `<micros> <label>`.
    let slow = match client
        .request(&Request::Stats { slow: true })
        .expect("stats slow")
    {
        Response::Report { lines, .. } => lines,
        other => panic!("expected REPORT, got {other:?}"),
    };
    assert!(!slow.is_empty(), "threshold 0 must record every query");
    for line in &slow {
        let mut parts = line.splitn(2, ' ');
        parts
            .next()
            .unwrap()
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("slow entry {line:?} lacks leading micros"));
        let label = parts
            .next()
            .unwrap_or_else(|| panic!("slow entry {line:?} lacks a label"));
        assert!(!label.is_empty());
    }
    client.close().expect("graceful BYE");
    server.shutdown();
}
