//! The one query path. The writer's [`OptimizedDatabase::plan`] and
//! [`OptimizedDatabase::execute`] and a reader's [`Reader::plan`],
//! [`Reader::execute`] and [`Reader::explain`] are thin callers that only
//! lend different state: the writer its live catalog, arena and cache
//! (every concept shareable, so its memo bound is `usize::MAX`), a
//! reader its pinned snapshot and private arena clone and cache.
//!
//! A query Σ-equivalent to a frontier view is answered with that view's
//! extension itself, without a membership check: on a Σ-legal store
//! (the one the forward route already needs for completeness), views
//! with equal translations have equal answers. Only structural
//! translations qualify — see [`structural`].

use crate::advisor::{normalize_shape, ShapeEvent, ShapeRing};
use crate::eval::{evaluate_query_set, initial_candidates};
use crate::objset::ObjSet;
use crate::optimizer::{ExecutionStats, QueryPlan};
use crate::snapshot::FrontierEstimate;
use crate::stats::{CostModel, Statistics};
use crate::store::Database;
use crate::views::{traverse_lattice, MaterializedView, TraversalTrace};
use std::sync::Arc;
use subq_calculus::{SharedSubsumptionMemo, SubsumptionCache, SubsumptionChecker};
use subq_concepts::schema::Schema;
use subq_concepts::symbol::Vocabulary;
use subq_concepts::term::TermArena;
use subq_dl::{DlModel, QueryClassDecl};
use subq_translate::translate_query;

#[cfg(doc)]
use crate::{optimizer::OptimizedDatabase, snapshot::Reader};

/// The state one plan reads and the caches it interns into.
pub(crate) struct QueryPath<'a> {
    pub(crate) db: &'a Database,
    /// The classified views to traverse (unclassified ones are ignored).
    pub(crate) views: &'a [MaterializedView],
    pub(crate) schema: &'a Schema,
    pub(crate) memo: &'a SharedSubsumptionMemo,
    /// Concept ids below this bound go through `memo`.
    pub(crate) shared_bound: usize,
    pub(crate) vocabulary: &'a mut Vocabulary,
    pub(crate) arena: &'a mut TermArena,
    pub(crate) cache: &'a mut SubsumptionCache,
}

impl QueryPath<'_> {
    /// Translates the query, traverses the lattice, sorts the frontier
    /// smallest extension first (see [`OptimizedDatabase::plan`]), and
    /// names the first frontier view `V` with `V ⊑ Q` — Σ-equivalent to
    /// the query — when both are [`structural`]. The counters are those
    /// of exactly this traversal: the reverse probes go through the same
    /// cache and memo but are not counted. `trace` receives the per-view
    /// events EXPLAIN renders. `None` when the query does not translate.
    pub(crate) fn plan(
        &mut self,
        query: &QueryClassDecl,
        trace: Option<&mut TraversalTrace>,
    ) -> Option<QueryPlan> {
        let query_concept =
            translate_query(query, self.db.model(), self.vocabulary, self.arena).ok()?;
        let checker = SubsumptionChecker::new(self.schema);
        let (hits_before, misses_before) = self.cache.stats();
        let (saturations_before, _) = self.cache.saturation_stats();
        let traversal = traverse_lattice(
            self.views,
            |view_concept| {
                checker.subsumes_shared(
                    self.arena,
                    query_concept,
                    view_concept,
                    self.cache,
                    self.memo,
                    self.shared_bound,
                )
            },
            trace,
        );
        let (hits_after, misses_after) = self.cache.stats();
        let (saturations_after, _) = self.cache.saturation_stats();
        let mut subsuming = traversal.frontier;
        subsuming.sort_by_key(|(_, size)| *size);
        let model = self.db.model();
        let equivalent_view = if structural(query, model) {
            subsuming
                .iter()
                .map(|(name, _)| name)
                .find(|name| {
                    self.views
                        .iter()
                        .find(|v| v.definition.name == **name)
                        .is_some_and(|view| {
                            structural(&view.definition, model)
                                && checker.subsumes_shared(
                                    self.arena,
                                    view.concept.expect("frontier views are classified"),
                                    query_concept,
                                    self.cache,
                                    self.memo,
                                    self.shared_bound,
                                )
                        })
                })
                .cloned()
        } else {
            None
        };
        Some(QueryPlan {
            chosen_view: subsuming.first().map(|(name, _)| name.clone()),
            equivalent_view,
            subsuming_views: subsuming.into_iter().map(|(name, _)| name).collect(),
            cached_probes: (hits_after - hits_before) as usize,
            fresh_probes: (misses_after - misses_before) as usize,
            fact_saturations: (saturations_after - saturations_before) as usize,
            probes_pruned: traversal.pruned,
            lattice_depth: traversal.depth,
        })
    }
}

/// The frontier member the executor filters: the lowest estimated
/// filter cost, the first of equal minima in plan order. `estimates`
/// receives every member's estimate in plan order, which EXPLAIN renders.
pub(crate) fn choose<'v>(
    views: &'v [MaterializedView],
    plan: &QueryPlan,
    cost: &CostModel,
    query: &QueryClassDecl,
    mut estimates: Option<&mut Vec<FrontierEstimate>>,
) -> Option<&'v MaterializedView> {
    plan.subsuming_views
        .iter()
        .filter_map(|name| views.iter().find(|v| v.definition.name == *name))
        .map(|view| {
            let estimated_candidates = cost.estimated_candidates(view.extent.len(), query);
            let estimated_cost = cost.filter_cost(estimated_candidates, query);
            if let Some(estimates) = estimates.as_deref_mut() {
                estimates.push(FrontierEstimate {
                    name: view.definition.name.clone(),
                    extent: view.extent.len(),
                    estimated_candidates,
                    estimated_cost,
                });
            }
            (view, estimated_cost)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(view, _)| view)
}

/// Whether the query's translation is exact, i.e. whether its answers
/// on a Σ-legal store are those of its concept: neither the query nor
/// any query-class superclass, transitively, has a constraint clause
/// (`translate_query` drops them). Only called on translated queries,
/// whose inheritance is acyclic.
fn structural(query: &QueryClassDecl, model: &DlModel) -> bool {
    query.constraint.is_none()
        && query.is_a.iter().all(|sup| {
            model
                .query_class(sup)
                .is_none_or(|sup_query| structural(sup_query, model))
        })
}

/// Executes a planned query: returns the extension of the plan's
/// Σ-equivalent view as it is, filters the narrowed extension of the
/// [`choose`]n view, or evaluates from scratch when no view subsumes.
/// A view-served execution bumps `subq_view_hits_total` — here, once —
/// and an equivalent-view one also `subq_answer_shortcuts_total`. With
/// `shapes`, the shape of a constraint-free query is recorded for the
/// advisor (constrained shapes cannot be materialized).
pub(crate) fn execute(
    db: &Database,
    views: &[MaterializedView],
    stats: &Statistics,
    plan: &QueryPlan,
    query: &QueryClassDecl,
    shapes: Option<&ShapeRing>,
) -> (Arc<ObjSet>, ExecutionStats) {
    let metrics = crate::metrics::metrics();
    let equivalent = plan
        .equivalent_view
        .as_deref()
        .and_then(|name| views.iter().find(|v| v.definition.name == name));
    let cost = CostModel::new(stats, db);
    let (answers, exec) = if let Some(view) = equivalent {
        metrics.view_hits.inc();
        metrics.answer_shortcuts.inc();
        let exec = ExecutionStats {
            candidates_examined: 0,
            used_view: Some(view.definition.name.clone()),
            answers: view.extent.len(),
        };
        (view.extent.clone(), exec)
    } else if let Some(view) = choose(views, plan, &cost, query, None) {
        metrics.view_hits.inc();
        let candidates = cost.narrow_candidates(&view.extent, query);
        let answers = evaluate_query_set(db, query, Some(&candidates));
        let exec = ExecutionStats {
            candidates_examined: candidates.len(),
            used_view: Some(view.definition.name.clone()),
            answers: answers.len(),
        };
        (Arc::new(answers), exec)
    } else {
        let (answers, exec) = execute_unoptimized(db, query);
        (Arc::new(answers), exec)
    };
    if let Some(ring) = shapes.filter(|_| query.constraint.is_none()) {
        ring.push(ShapeEvent {
            shape: Arc::new(normalize_shape(query)),
            used_view: exec.used_view.clone(),
            candidates_examined: exec.candidates_examined as u64,
            answers: exec.answers as u64,
        });
    }
    (answers, exec)
}

/// Evaluates a query without any materialized view: the baseline, and
/// the fallback when no view subsumes.
pub(crate) fn execute_unoptimized(
    db: &Database,
    query: &QueryClassDecl,
) -> (ObjSet, ExecutionStats) {
    let candidates = initial_candidates(db, query);
    let answers = evaluate_query_set(db, query, Some(&candidates));
    let stats = ExecutionStats {
        candidates_examined: candidates.len(),
        used_view: None,
        answers: answers.len(),
    };
    (answers, stats)
}
