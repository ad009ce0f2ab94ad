//! Snapshot-isolated concurrent reads: immutable published states and
//! lock-free reader handles.
//!
//! The engine follows the writer/reader asymmetry of the paper's serving
//! scenario (and of the deductive-database integrity-checking literature):
//! mutations are rare and funnel through the single writer
//! ([`OptimizedDatabase`]), reads dominate and must scale with cores. The
//! split is:
//!
//! * the **writer** mutates its state in place, brings the materialized
//!   views up to date (incrementally and, across independent lattice
//!   components, in parallel — see [`crate::maintain::propagate`]), and
//!   then *publishes* the result as one [`Snapshot`] with a single atomic
//!   swap ([`OptimizedDatabase::publish_snapshot`]);
//! * any number of **readers** ([`Reader`]) hold an `Arc` of a published
//!   snapshot and answer plans, view probes, and query executions against
//!   it with **no locking and no `&mut` on any shared structure** — a
//!   reader that keeps serving an old snapshot simply observes an older,
//!   internally consistent state (snapshot isolation; there is no
//!   write-write concurrency to reason about).
//!
//! Publishing is cheap because every bulky component is copy-on-write at
//! shard granularity: the store clones per-class/per-attribute `Arc`
//! shards ([`crate::store`]), the catalog clones per-view `Arc`'d
//! definitions and extensions ([`crate::views::MaterializedView`]), and
//! the translation (vocabulary, term arena, schema) is frozen into an
//! `Arc` that is rebuilt only when the writer actually interned new
//! concepts.
//!
//! # Subsumption caching across threads
//!
//! `ConceptId`s are indexes into a hash-consed, append-only arena. A
//! reader clones the frozen arena once and interns locally, so ids below
//! the frozen concept count denote identical terms in *every* clone —
//! those pairs go through the snapshot's shared, sharded
//! [`SharedSubsumptionMemo`]; pairs involving a locally interned concept
//! stay in the reader's small private [`SubsumptionCache`] (which also
//! keeps the saturated fact closures, LRU-capped). The writer probes with
//! the same memo, so query shapes it has planned are pre-warmed for every
//! reader — writer and readers plan and execute through the same code.

use crate::advisor::{ShapeEvent, ShapeRing, SHAPE_RING_CAPACITY};
use crate::objset::ObjSet;
use crate::optimizer::{ExecutionStats, QueryPlan};
use crate::query::{self, QueryPath};
use crate::stats::{CostModel, Statistics};
use crate::store::{Database, ObjId};
use crate::views::{MaterializedView, TraversalTrace};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use subq_calculus::{SharedSubsumptionMemo, SubsumptionCache};
use subq_concepts::schema::Schema;
use subq_concepts::symbol::Vocabulary;
use subq_concepts::term::TermArena;
use subq_dl::QueryClassDecl;
use subq_translate::TranslatedModel;

#[cfg(doc)]
use crate::optimizer::OptimizedDatabase;

/// The frozen structural translation a snapshot carries: everything a
/// reader needs to translate and probe queries, cloned from the writer's
/// `TranslatedModel` at publish time (and only when it changed).
#[derive(Debug)]
pub struct FrozenTranslation {
    /// The vocabulary shared by the schema and all published concepts.
    pub vocabulary: Vocabulary,
    /// The term arena holding all published concepts (readers clone it
    /// and intern on top).
    pub arena: TermArena,
    /// The SL schema Σ.
    pub schema: Schema,
}

impl FrozenTranslation {
    pub(crate) fn of(translated: &TranslatedModel) -> Self {
        FrozenTranslation {
            vocabulary: translated.vocabulary.clone(),
            arena: translated.arena.clone(),
            schema: translated.schema.clone(),
        }
    }

    /// Concept ids below this bound are shared-arena ids, identical in
    /// every reader clone — the bound of the shared subsumption memo.
    pub fn shared_bound(&self) -> usize {
        self.arena.concept_count()
    }
}

/// One published, immutable, internally consistent state: the database at
/// a data version together with view extensions that are exactly the
/// scratch evaluations of their definitions at that version.
#[derive(Debug)]
pub struct Snapshot {
    pub(crate) db: Database,
    pub(crate) views: Vec<MaterializedView>,
    pub(crate) translated: Arc<FrozenTranslation>,
    pub(crate) memo: Arc<SharedSubsumptionMemo>,
}

impl Snapshot {
    /// The database state of this snapshot.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The materialized views, in catalog order, with their lattice
    /// edges.
    pub fn views(&self) -> &[MaterializedView] {
        &self.views
    }

    /// One view by name.
    pub fn view(&self, name: &str) -> Option<&MaterializedView> {
        self.views.iter().find(|v| v.definition.name == name)
    }

    /// The data version this snapshot was published at.
    pub fn data_version(&self) -> u64 {
        self.db.data_version()
    }
}

/// The publication point: the writer swaps a new [`Snapshot`] in, readers
/// take `Arc` clones out. The lock is held only for the pointer swap /
/// pointer clone — never while planning or evaluating — so it is a
/// handover point, not a serialization point.
pub struct SnapshotCell {
    current: RwLock<Arc<Snapshot>>,
    /// Whether readers record query shapes for the advisor. One relaxed
    /// load per execution when off — the entire read-path cost of a
    /// disabled advisor.
    record_shapes: AtomicBool,
    /// The shape rings of every reader minted from this cell, harvested
    /// by the writer at the publish boundary. Touched only at reader
    /// creation and harvest time — never on the query path.
    rings: Mutex<Vec<Weak<ShapeRing>>>,
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("record_shapes", &self.record_shapes)
            .finish_non_exhaustive()
    }
}

impl SnapshotCell {
    pub(crate) fn new(snapshot: Arc<Snapshot>) -> Self {
        SnapshotCell {
            current: RwLock::new(snapshot),
            record_shapes: AtomicBool::new(false),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Turns reader-side shape recording on or off (the writer flips this
    /// when the advisor mode changes).
    pub fn set_recording(&self, on: bool) {
        self.record_shapes.store(on, Ordering::Relaxed);
    }

    /// Whether readers currently record query shapes.
    pub fn recording(&self) -> bool {
        self.record_shapes.load(Ordering::Relaxed)
    }

    /// A new shape ring, registered for harvest — one per reader, and
    /// one for the writer's own executions.
    pub(crate) fn new_ring(&self) -> Arc<ShapeRing> {
        let ring = ShapeRing::new(SHAPE_RING_CAPACITY);
        let mut rings = self.rings.lock().expect("shape ring registry poisoned");
        rings.push(Arc::downgrade(&ring));
        ring
    }

    /// Drains every live reader ring into `into` and prunes rings whose
    /// readers are gone. Writer-side, at the publish boundary.
    pub(crate) fn harvest_shapes(&self, into: &mut Vec<ShapeEvent>) {
        let mut rings = self.rings.lock().expect("shape ring registry poisoned");
        rings.retain(|weak| match weak.upgrade() {
            Some(ring) => {
                ring.harvest(into);
                true
            }
            None => false,
        });
    }

    /// The latest published snapshot.
    pub fn load(&self) -> Arc<Snapshot> {
        self.current.read().expect("snapshot cell poisoned").clone()
    }

    pub(crate) fn store(&self, snapshot: Arc<Snapshot>) {
        *self.current.write().expect("snapshot cell poisoned") = snapshot;
    }
}

/// A read handle over published snapshots: plans, probes, and executes
/// queries with zero locking and no `&mut` on shared state.
///
/// A reader owns private clones of the frozen vocabulary and arena (so
/// translating an unseen query interns locally, without touching the
/// writer) plus a private [`SubsumptionCache`]; verdicts about
/// shared-arena concept pairs flow through the snapshot's
/// [`SharedSubsumptionMemo`], so readers warm each other. The handle
/// pins one snapshot until [`Reader::sync`] adopts a newer one —
/// in-between, every answer is consistent with the pinned state.
///
/// Readers are independent: create one per thread
/// ([`OptimizedDatabase::reader`]); the creation cost is the clone of the
/// frozen arena and vocabulary.
pub struct Reader {
    cell: Arc<SnapshotCell>,
    snapshot: Arc<Snapshot>,
    vocabulary: Vocabulary,
    arena: TermArena,
    cache: SubsumptionCache,
    /// Cardinality statistics of the pinned snapshot, collected lazily on
    /// first execution and dropped when [`Reader::sync`] adopts a newer
    /// snapshot (published snapshots carry an empty log positioned at
    /// their version, so a fresh collection is the incremental path's
    /// truncation fallback anyway).
    stats: Option<Statistics>,
    /// This reader's shape log: executions are pushed here (lock-free,
    /// bounded) when the cell has recording enabled; the writer harvests
    /// at the publish boundary. See [`crate::advisor`].
    shapes: Arc<ShapeRing>,
}

impl Reader {
    pub(crate) fn new(cell: Arc<SnapshotCell>) -> Self {
        let snapshot = cell.load();
        let shapes = cell.new_ring();
        Reader {
            vocabulary: snapshot.translated.vocabulary.clone(),
            arena: snapshot.translated.arena.clone(),
            cell,
            snapshot,
            cache: SubsumptionCache::new(),
            stats: None,
            shapes,
        }
    }

    /// The snapshot this reader currently answers from.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snapshot
    }

    /// The data version of the pinned snapshot.
    pub fn data_version(&self) -> u64 {
        self.snapshot.data_version()
    }

    /// Read access to the pinned database state.
    pub fn database(&self) -> &Database {
        self.snapshot.database()
    }

    /// Adopts the latest published snapshot; returns whether it changed.
    /// When the new snapshot carries a different frozen translation (the
    /// writer interned new concepts or re-translated after a schema
    /// change), the private arena, vocabulary, and cache are rebuilt —
    /// locally interned ids would otherwise collide with the new shared
    /// prefix. Data-only publications keep all private state.
    pub fn sync(&mut self) -> bool {
        let latest = self.cell.load();
        if Arc::ptr_eq(&latest, &self.snapshot) {
            return false;
        }
        if !Arc::ptr_eq(&latest.translated, &self.snapshot.translated) {
            self.vocabulary = latest.translated.vocabulary.clone();
            self.arena = latest.translated.arena.clone();
            self.cache.clear();
        }
        self.snapshot = latest;
        self.stats = None;
        true
    }

    /// The one query path over the pinned snapshot and this reader's
    /// private translation state.
    fn path(&mut self) -> QueryPath<'_> {
        QueryPath {
            db: &self.snapshot.db,
            views: &self.snapshot.views,
            schema: &self.snapshot.translated.schema,
            memo: &self.snapshot.memo,
            shared_bound: self.snapshot.translated.shared_bound(),
            vocabulary: &mut self.vocabulary,
            arena: &mut self.arena,
            cache: &mut self.cache,
        }
    }

    /// Plans a query against the pinned snapshot's view lattice — the
    /// same traversal as [`OptimizedDatabase::plan`], over the immutable
    /// published view list: no classification pass (published views are
    /// classified), no writer involvement.
    pub fn plan(&mut self, query: &QueryClassDecl) -> QueryPlan {
        let _span = crate::metrics::metrics().reader_plan_ns.span();
        self.path().plan(query, None).unwrap_or_default()
    }

    /// Executes a query against the pinned snapshot exactly like
    /// [`OptimizedDatabase::execute`] — a Σ-equivalent view's extension
    /// as it is, else the cheapest frontier view, narrowed, filtered; a
    /// full evaluation when no view subsumes — all over immutable state.
    /// When the advisor records, the shape goes into this reader's ring
    /// (never blocks, never allocates past the ring).
    pub fn execute(&mut self, query: &QueryClassDecl) -> (BTreeSet<ObjId>, ExecutionStats) {
        let (answers, stats) = self.execute_set(query);
        (answers.to_btree(), stats)
    }

    /// [`Reader::execute`] without the ordered materialization: the
    /// answers stay a bitmap, shared with the view when a Σ-equivalent
    /// one served them.
    pub fn execute_set(&mut self, query: &QueryClassDecl) -> (Arc<ObjSet>, ExecutionStats) {
        let _span = crate::metrics::metrics().reader_execute_ns.span();
        let plan = self.plan(query);
        let snapshot = &self.snapshot;
        let stats = self
            .stats
            .get_or_insert_with(|| Statistics::collect(&snapshot.db));
        let shapes = self.cell.recording().then_some(&*self.shapes);
        query::execute(&snapshot.db, &snapshot.views, stats, &plan, query, shapes)
    }

    /// Explains how the query would be planned and executed against the
    /// pinned snapshot: the same plan [`Reader::plan`] returns in this
    /// cache state (probes go through the shared memo, so explaining
    /// warms the caches like planning does), plus the per-view probe
    /// order, the pruned views, the cost model's estimate for each
    /// frontier member with the executor's pick, and the narrowing
    /// (intersection) order.
    pub fn explain(&mut self, query: &QueryClassDecl) -> ExplainReport {
        let mut trace = TraversalTrace::default();
        let Some(plan) = self.path().plan(query, Some(&mut trace)) else {
            return ExplainReport::default();
        };
        let snapshot = &self.snapshot;
        let stats = self
            .stats
            .get_or_insert_with(|| Statistics::collect(&snapshot.db));
        let cost = CostModel::new(stats, &snapshot.db);
        let mut frontier = Vec::new();
        let picked = query::choose(&snapshot.views, &plan, &cost, query, Some(&mut frontier));
        let (chosen, actual_candidates) = match &plan.equivalent_view {
            Some(name) => (Some(name.clone()), Some(0)),
            None => (
                picked.map(|v| v.definition.name.clone()),
                picked.map(|v| cost.narrow_candidates(&v.extent, query).len()),
            ),
        };
        ExplainReport {
            chosen,
            actual_candidates,
            narrowing_order: cost
                .intersection_order(query)
                .into_iter()
                .map(|(class, cardinality)| (class.to_owned(), cardinality))
                .collect(),
            plan,
            trace,
            frontier,
        }
    }
}

/// One frontier member of an [`ExplainReport`] with the cost model's
/// estimates the executor compares.
#[derive(Clone, Debug)]
pub struct FrontierEstimate {
    /// The view's name.
    pub name: String,
    /// Stored extension size.
    pub extent: usize,
    /// Estimated candidates left after narrowing by the query's
    /// schema-superclass extents.
    pub estimated_candidates: usize,
    /// Estimated filter cost — the quantity [`Reader::execute`]
    /// minimizes over the frontier.
    pub estimated_cost: f64,
}

/// The structured answer of [`Reader::explain`]: the plan the planner
/// would return for the query (identical counters), the traversal's
/// per-view events, and the cost model's reasoning for the executor's
/// choice.
#[derive(Clone, Debug, Default)]
pub struct ExplainReport {
    /// The plan, with counters from exactly this traversal.
    pub plan: QueryPlan,
    /// Fired probes in traversal order and the views pruned without a
    /// probe.
    pub trace: TraversalTrace,
    /// The frontier in plan order (smallest extent first) with cost
    /// estimates.
    pub frontier: Vec<FrontierEstimate>,
    /// The view the executor would answer from: the plan's Σ-equivalent
    /// view, else the frontier member it would filter (cheapest
    /// estimated cost), if any view subsumes.
    pub chosen: Option<String>,
    /// The narrowing order: the query's schema superclasses, ascending
    /// by estimated cardinality, as the executor intersects them.
    pub narrowing_order: Vec<(String, usize)>,
    /// Candidates actually left after narrowing the chosen view's
    /// extension (the number the executor's filter examines); 0 when a
    /// Σ-equivalent view answers without a filter.
    pub actual_candidates: Option<usize>,
}

impl ExplainReport {
    /// Renders the report as structured text, one datum per line, no
    /// blank lines — the payload of the server's `EXPLAIN` command.
    ///
    /// Line grammar: a `plan` line carrying the executor's pick, the
    /// Σ-equivalent view (`none` when there is none) and every
    /// `QueryPlan` counter, one `probe` line per fired probe (in
    /// traversal order), one `pruned` line per unprobed view, one
    /// `frontier` line per frontier member (`chosen=true` on the
    /// executor's pick), one `narrow` line per intersected superclass,
    /// and a final `candidates` line.
    pub fn render_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!(
            "plan chosen={} equivalent={} subsuming={} cached_probes={} fresh_probes={} fact_saturations={} probes_pruned={} lattice_depth={}",
            self.chosen.as_deref().unwrap_or("-"),
            self.plan.equivalent_view.as_deref().unwrap_or("none"),
            self.plan.subsuming_views.len(),
            self.plan.cached_probes,
            self.plan.fresh_probes,
            self.plan.fact_saturations,
            self.plan.probes_pruned,
            self.plan.lattice_depth,
        ));
        for (i, (name, verdict)) in self.trace.probed.iter().enumerate() {
            lines.push(format!(
                "probe {i} {name} {}",
                if *verdict { "subsumes" } else { "rejected" }
            ));
        }
        for name in &self.trace.skipped {
            lines.push(format!("pruned {name}"));
        }
        for f in &self.frontier {
            lines.push(format!(
                "frontier {} extent={} est_candidates={} est_cost={:.3} chosen={}",
                f.name,
                f.extent,
                f.estimated_candidates,
                f.estimated_cost,
                self.chosen.as_deref() == Some(f.name.as_str()),
            ));
        }
        for (i, (class, cardinality)) in self.narrowing_order.iter().enumerate() {
            lines.push(format!("narrow {i} {class} card={cardinality}"));
        }
        lines.push(match self.actual_candidates {
            Some(n) => format!("candidates actual={n}"),
            None => "candidates actual=-".to_owned(),
        });
        lines
    }
}
