//! Regression suite for the view-hit accounting: one view-served
//! execution — by the writer or by any reader — bumps the global
//! `subq_view_hits_total` counter exactly once, and an advisor pass that
//! harvests the executions' shapes only tallies them per view.
//!
//! The counter is process-wide, so this binary holds a single test:
//! nothing else in the process executes queries while it counts.

use subq::dl::samples::medical_model;
use subq::oodb::{AdvisorConfig, AdvisorMode, OptimizedDatabase};
use subq::workload::{synthetic_hospital, HospitalParams};

#[test]
fn each_view_served_execution_counts_one_hit() {
    let db = synthetic_hospital(
        3,
        HospitalParams {
            patients: 60,
            view_match_percent: 25,
            query_match_percent: 50,
            ..HospitalParams::default()
        },
    );
    let mut writer = OptimizedDatabase::new(db).expect("translates");
    writer
        .materialize_view("ViewPatient")
        .expect("materializes");
    writer.set_advisor_config(AdvisorConfig {
        mode: AdvisorMode::Observe,
        ..AdvisorConfig::default()
    });
    writer.publish_snapshot();
    // The view's own definition: a structural query (constrained ones
    // record no shape), served by the view.
    let query = medical_model()
        .query_class("ViewPatient")
        .expect("declared")
        .clone();
    let total = subq::telemetry::counter("subq_view_hits_total");
    let per_view = subq::telemetry::gauge("subq_view_hits{view=\"ViewPatient\"}");
    let before = total.get();

    let mut reader = writer.reader();
    for _ in 0..10 {
        let (_, stats) = reader.execute(&query);
        assert_eq!(stats.used_view.as_deref(), Some("ViewPatient"));
    }
    for _ in 0..3 {
        let (_, stats) = writer.execute(&query);
        assert_eq!(stats.used_view.as_deref(), Some("ViewPatient"));
    }
    assert_eq!(total.get() - before, 13, "one bump per execution");

    let pass = writer.run_advisor().expect("observe pass");
    assert_eq!(pass.harvested, 13, "writer and reader shapes alike");
    assert_eq!(per_view.get(), 13);
    assert_eq!(
        total.get() - before,
        13,
        "the harvest must not count the executions again"
    );

    // A pass with nothing new to harvest changes neither figure.
    writer.run_advisor().expect("idle pass");
    assert_eq!(per_view.get(), 13);
    assert_eq!(total.get() - before, 13);
}
