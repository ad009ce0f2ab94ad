//! Equivalence suite for the subsumption-lattice planner: on hundreds of
//! workload-generated and random catalogs, the lattice traversal must be
//! observationally equivalent to the flat linear scan it replaced —
//!
//! * the executed answer set equals the flat-scan plan's filtered answers
//!   **and** a from-scratch `evaluate_query`;
//! * the subsuming-view set reported by the traversal is exactly the flat
//!   scan's subsumer set restricted to its maximal-specific frontier
//!   (verified against direct pairwise view-vs-view subsumption checks);
//! * the chosen views of both planners have extensions of the same
//!   (minimal) size, so neither filters through a larger set;
//! * the lattice itself satisfies its structural invariants after every
//!   batch of insertions;
//! * the writer and a reader of the just-published snapshot plan and
//!   execute identically, and a reader's EXPLAIN reports exactly the plan
//!   the reader would return;
//! * every view definition, and a Σ-equivalent syntactic variant of it,
//!   is answered from an equivalent view's extension with no membership
//!   check; a query whose plan names an equivalent view examines 0
//!   candidates, any other exactly the candidates the forward filter
//!   narrows to (0 only when narrowing leaves none).

use std::collections::{BTreeSet, HashMap};
use subq::dl::QueryClassDecl;
use subq::oodb::{evaluate_query, evaluate_query_over, OptimizedDatabase};
use subq::workload::{
    equivalent_variant, hierarchical_catalog, synthetic_hospital, FamilyShape, HierarchyParams,
    HospitalParams,
};

/// Runs the full battery of equivalence assertions for one catalog and
/// query batch.
fn check_catalog(
    mut odb: OptimizedDatabase,
    view_names: &[String],
    queries: &[QueryClassDecl],
    label: &str,
) {
    for name in view_names {
        odb.materialize_view(name)
            .unwrap_or_else(|e| panic!("{label}: materializing {name}: {e}"));
    }
    let violations = odb.catalog().lattice_violations();
    assert!(violations.is_empty(), "{label}: {violations:?}");

    for query in queries {
        let lattice = odb.plan(query);
        let flat = odb.plan_flat(query);

        // --- Frontier: the flat subsumer set restricted to its
        // maximal-specific elements, computed from direct pairwise
        // view-vs-view subsumption probes.
        let flat_set = flat.subsuming_views.clone();
        let mut strictly_below: HashMap<(usize, usize), bool> = HashMap::new();
        for (i, a) in flat_set.iter().enumerate() {
            for (j, b) in flat_set.iter().enumerate() {
                if i == j {
                    continue;
                }
                let a_in_b = odb.view_subsumes(a, b).expect("views translate");
                let b_in_a = odb.view_subsumes(b, a).expect("views translate");
                strictly_below.insert((i, j), a_in_b && !b_in_a);
            }
        }
        let expected_frontier: BTreeSet<&String> = flat_set
            .iter()
            .enumerate()
            .filter(|(j, _)| {
                // Maximal-specific: no other subsumer strictly below it.
                !(0..flat_set.len()).any(|i| i != *j && strictly_below.get(&(i, *j)) == Some(&true))
            })
            .map(|(_, name)| name)
            .collect();
        let reported: BTreeSet<&String> = lattice.subsuming_views.iter().collect();
        assert_eq!(
            reported, expected_frontier,
            "{label}: query {} frontier mismatch (flat set {flat_set:?})",
            query.name
        );

        // --- Chosen views: both planners pick a minimal extension.
        assert_eq!(
            lattice.chosen_view.is_some(),
            flat.chosen_view.is_some(),
            "{label}: query {}",
            query.name
        );
        if let (Some(l), Some(f)) = (&lattice.chosen_view, &flat.chosen_view) {
            let l_size = odb.catalog().view(l).expect("stored").len();
            let f_size = odb.catalog().view(f).expect("stored").len();
            assert_eq!(
                l_size, f_size,
                "{label}: query {} chose extensions of different size ({l} vs {f})",
                query.name
            );
        }

        // --- Answers: executed (lattice) == flat-filtered == scratch.
        let scratch = evaluate_query(odb.database(), query);
        let (executed, stats) = odb.execute(query);
        assert_eq!(
            executed, scratch,
            "{label}: query {} lattice answers differ from scratch",
            query.name
        );
        if let Some(f) = &flat.chosen_view {
            let extent = odb.catalog().view(f).expect("stored").extent;
            let flat_answers = evaluate_query_over(odb.database(), query, Some(&extent));
            assert_eq!(
                flat_answers, scratch,
                "{label}: query {} flat-plan answers differ from scratch",
                query.name
            );
            assert!(
                stats.used_view.is_some(),
                "{label}: query {} must use a view when one subsumes",
                query.name
            );
        }
    }

    // --- Shortcut: a view definition and its variant are Σ-equivalent
    // to the view, so an equivalent view's extension is the answer.
    for name in view_names {
        let view = odb.catalog().view(name).expect("stored");
        for query in [
            (*view.definition).clone(),
            equivalent_variant(&view.definition),
        ] {
            let scratch = evaluate_query(odb.database(), &query);
            assert_eq!(
                evaluate_query_over(odb.database(), &query, Some(&view.extent)),
                scratch,
                "{label}: {}: filtered view extension differs from scratch",
                query.name
            );
            let plan = odb.plan(&query);
            let (answers, stats) = odb.execute(&query);
            assert_eq!(answers, scratch, "{label}: {}", query.name);
            assert!(
                plan.equivalent_view.is_some(),
                "{label}: {} names no equivalent view",
                query.name
            );
            assert_eq!(
                (stats.candidates_examined, &stats.used_view),
                (0, &plan.equivalent_view),
                "{label}: {} was filtered",
                query.name
            );
        }
    }

    // --- Writer ≡ reader: one query path, two callers.
    odb.publish_snapshot();
    let mut reader = odb.reader();
    for query in queries {
        let written = odb.plan(query);
        let read = reader.plan(query);
        assert_eq!(
            (
                &written.subsuming_views,
                &written.chosen_view,
                written.probes_pruned,
                written.lattice_depth
            ),
            (
                &read.subsuming_views,
                &read.chosen_view,
                read.probes_pruned,
                read.lattice_depth
            ),
            "{label}: query {} writer and reader plans differ",
            query.name
        );
        assert_eq!(
            odb.execute(query),
            reader.execute(query),
            "{label}: query {} writer and reader executions differ",
            query.name
        );
        // Both calls below find every probe cached: the same cache state.
        let planned = reader.plan(query);
        let explained = reader.explain(query).plan;
        assert_eq!(
            (
                &planned.subsuming_views,
                &planned.chosen_view,
                planned.cached_probes,
                planned.fresh_probes,
                planned.fact_saturations,
                planned.probes_pruned,
                planned.lattice_depth
            ),
            (
                &explained.subsuming_views,
                &explained.chosen_view,
                explained.cached_probes,
                explained.fresh_probes,
                explained.fact_saturations,
                explained.probes_pruned,
                explained.lattice_depth
            ),
            "{label}: query {} EXPLAIN reports a different plan",
            query.name
        );
        // 0 candidates when an equivalent view answers; else the forward
        // filter's narrowed count, or the full evaluation's.
        let report = reader.explain(query);
        let (_, stats) = reader.execute(query);
        let forward = match (&report.plan.equivalent_view, report.actual_candidates) {
            (Some(_), actual) => {
                assert_eq!(actual, Some(0), "{label}: query {}", query.name);
                0
            }
            (None, Some(narrowed)) => narrowed,
            (None, None) => odb.execute_unoptimized(query).1.candidates_examined,
        };
        assert_eq!(
            stats.candidates_examined, forward,
            "{label}: query {} examined an unexpected candidate count",
            query.name
        );
    }
}

fn hierarchy_instance(seed: u64, params: HierarchyParams, label: &str) {
    let instance = hierarchical_catalog(seed, params);
    let odb = OptimizedDatabase::new(instance.db.clone()).expect("translates");
    check_catalog(odb, &instance.view_names, &instance.queries, label);
}

/// 160 deterministic-shape catalogs: every family × sizes × seeds.
#[test]
fn workload_families_are_plan_equivalent() {
    for shape in [
        FamilyShape::Chain,
        FamilyShape::Tree,
        FamilyShape::Diamond,
        FamilyShape::Flat,
        FamilyShape::Random,
    ] {
        for views in [3usize, 6, 10, 14] {
            for seed in 0..8u64 {
                let params = HierarchyParams {
                    shape,
                    views,
                    members_per_class: 2,
                    queries: 5,
                    intersect_percent: 0,
                    duplicate_percent: 0,
                };
                hierarchy_instance(
                    seed,
                    params,
                    &format!("{}/views={views}/seed={seed}", shape.name()),
                );
            }
        }
    }
}

/// 60 random catalogs with intersection views and Σ-equivalent duplicate
/// views (peer collapse on multi-parent DAGs).
#[test]
fn random_catalogs_with_intersections_and_duplicates_are_plan_equivalent() {
    for views in [5usize, 9, 13] {
        for seed in 100..120u64 {
            let params = HierarchyParams {
                shape: FamilyShape::Random,
                views,
                members_per_class: 2,
                queries: 5,
                intersect_percent: 40,
                duplicate_percent: 25,
            };
            hierarchy_instance(seed, params, &format!("random+/views={views}/seed={seed}"));
        }
    }
}

/// Medical catalogs over synthetic hospital states: real derived-path and
/// `where`-clause concepts (ViewPatient) mixed with trivial class views,
/// growing subsets of the catalog, and the paper's QueryPatient plus
/// structural queries as the incoming workload.
#[test]
fn medical_catalog_subsets_are_plan_equivalent() {
    let all_views = [
        "ViewPatient",
        "Person",
        "Patient",
        "Doctor",
        "Male",
        "Female",
        "Drug",
        "Disease",
        "Topic",
        "String",
    ];
    let model = subq::dl::samples::medical_model();
    let mut queries: Vec<QueryClassDecl> = vec![
        model.query_class("QueryPatient").expect("declared").clone(),
        model.query_class("ViewPatient").expect("declared").clone(),
    ];
    for (name, classes) in [
        ("AllPatients", vec!["Patient"]),
        ("AllFemales", vec!["Female"]),
        ("FemalePatients", vec!["Female", "Patient"]),
        ("MaleDoctors", vec!["Male", "Doctor"]),
    ] {
        queries.push(QueryClassDecl {
            name: name.into(),
            is_a: classes.into_iter().map(str::to_owned).collect(),
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        });
    }
    let mut checked = 0usize;
    for seed in 0..5u64 {
        let db = synthetic_hospital(
            seed,
            HospitalParams {
                patients: 120,
                view_match_percent: 25,
                query_match_percent: 50,
                ..HospitalParams::default()
            },
        );
        // Growing prefixes of the catalog, and a rotated order per seed so
        // different insertion sequences classify the same sets.
        for take in [2usize, 4, 7, 10] {
            let names: Vec<String> = (0..take)
                .map(|i| all_views[(i + seed as usize) % all_views.len()].to_owned())
                .collect();
            let odb = OptimizedDatabase::new(db.clone()).expect("translates");
            check_catalog(
                odb,
                &names,
                &queries,
                &format!("medical/seed={seed}/n={take}"),
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 20);
}
