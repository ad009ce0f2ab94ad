//! Parallel maintenance oracle check, isolated in its own test binary:
//! `subq::oodb::maintain::set_maintenance_workers` is a **process-wide**
//! override (it also waives the spawn threshold), so forcing it here must
//! not race the other suites — cargo runs each integration-test binary as
//! its own process.
//!
//! With the scoped-thread propagation path forced on (4 workers, fires on
//! any machine), the incrementally maintained extensions must equal a
//! full-re-evaluation twin and a scratch evaluation after every
//! transaction of every trace — the concurrent half of the guarantee
//! whose single-threaded half is `incremental_equivalence.rs`.

use subq::oodb::maintain::set_maintenance_workers;
use subq::oodb::{evaluate_query, OptimizedDatabase};
use subq::workload::{churn_trace, ChurnParams, FamilyShape};

#[test]
fn parallel_propagation_matches_refresh_full() {
    set_maintenance_workers(Some(4));
    for seed in 0..20u64 {
        let params = ChurnParams {
            shape: if seed % 2 == 0 {
                FamilyShape::Chain
            } else {
                FamilyShape::Diamond
            },
            classes: 6,
            views: 12, // wraps around: Σ-equivalent peers join the components
            path_view_percent: 30,
            objects: 40,
            transactions: 6,
            ops_per_transaction: 5,
            retract_percent: 40,
        };
        let trace = churn_trace(seed, params);
        let mut incremental = OptimizedDatabase::new(trace.db.clone()).expect("translates");
        let mut oracle = OptimizedDatabase::new(trace.db).expect("translates");
        for name in &trace.view_names {
            incremental.materialize_view(name).expect("materializes");
            oracle.materialize_view(name).expect("materializes");
        }
        for (t, txn) in trace.transactions.iter().enumerate() {
            incremental.commit(|db| {
                for op in txn {
                    op.apply(db);
                }
            });
            oracle.update(|db| {
                for op in txn {
                    op.apply(db);
                }
            });
            oracle.refresh_views_full();
            for name in &trace.view_names {
                let inc = incremental.catalog().view(name).expect("stored");
                let full = oracle.catalog().view(name).expect("stored");
                assert_eq!(
                    inc.extent, full.extent,
                    "seed {seed}: txn {t}: view {name}: parallel incremental ≠ refresh_full"
                );
                let scratch = evaluate_query(incremental.database(), &inc.definition);
                assert_eq!(
                    *inc.extent, scratch,
                    "seed {seed}: txn {t}: view {name}: parallel incremental ≠ scratch"
                );
            }
        }
    }
}
