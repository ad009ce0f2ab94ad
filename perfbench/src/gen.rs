//! Seeded inputs: the three stores and the per-client request schedules.
//!
//! A store is fixed per workload (its generator seed is a constant), so
//! runs with different `--seed`s measure the same database; the seed
//! drives what the clients send — the order in which views are queried,
//! the ad-hoc shapes, and where each churn transaction falls among the
//! queries. The same seed gives the same request bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use subq_dl::{LabeledPath, PathFilter, PathStep, QueryClassDecl};
use subq_oodb::advisor::{normalize_shape, shape_key};
use subq_oodb::Database;
use subq_server::{churn_txn_request, Request};
use subq_workload::{churn_trace, ChurnOp, ChurnParams, FamilyShape};

/// Objects in every store.
pub const OBJECTS: usize = 100_000;

/// Requests each client sends before the timed window opens; the first
/// entries of every schedule touch each view once, so the subsumption
/// caches are warm when timing starts.
pub const WARMUP_PER_CLIENT: usize = 64;

/// Transactions generated for the churn store: more than any run sends,
/// so no transaction is ever applied twice.
const CHURN_TRANSACTIONS: usize = 60_000;

/// Share (percent) of ad-hoc shapes whose restriction carries a class
/// filter. A filtered path on this store almost never has a witness, so
/// these answers are nearly always empty; the unfiltered rest mostly
/// are not.
const ADHOC_FILTERED_PERCENT: u8 = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100% queries drawn from the view definitions of a 100k-object
    /// store with a tree of 8 classes and 12 views (40% with a `link`
    /// path). Answers hold 1k–100k names: answer size dominates the cost
    /// (membership filter, id→name materialization, render, socket
    /// write), the subsumption cache answers every probe, and the writer
    /// is idle.
    Scan,
    /// 100% queries, each of a shape not seen earlier in the run: a view
    /// definition of a 100k-object store with 256 flat classes and 64
    /// views (20% with paths), plus a random `link`/`rev_link` path
    /// restriction. Per-request cost dominates (parse, translation, fresh
    /// subsumption probes, lattice traversal, transport), answers are
    /// small, and the working set outgrows the readers' caches.
    Adhoc,
    /// The ad-hoc store, served durably: 50% churn transactions (1–4
    /// ops, 40% retractions) and 50% repeated view queries. It exercises
    /// the write path (writer queue, apply, view maintenance, WAL,
    /// publish) and what that path costs the readers beside it (snapshot
    /// adoption, read-your-writes wait).
    Churn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "scan_100k" => Some(Workload::Scan),
            "adhoc_100k" => Some(Workload::Adhoc),
            "churn_100k" => Some(Workload::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan_100k",
            Workload::Adhoc => "adhoc_100k",
            Workload::Churn => "churn_100k",
        }
    }

    /// Timed requests after which the server's peak resident set is
    /// read: a count every run reaches well inside its window, on a
    /// plateau of the resident set. On `adhoc_100k` it grows in steps as
    /// the caches fill with new shapes (about 56, 71 and 101 MiB after
    /// 1k, 2–3.5k and 4k+ requests); 3k sits mid-plateau.
    pub fn rss_after(self) -> usize {
        match self {
            Workload::Scan | Workload::Churn => 500,
            Workload::Adhoc => 3_000,
        }
    }

    fn store_params(self) -> ChurnParams {
        let (shape, classes, views, path_view_percent) = match self {
            Workload::Scan => (FamilyShape::Tree, 8, 12, 40),
            Workload::Adhoc | Workload::Churn => (FamilyShape::Flat, 256, 64, 20),
        };
        ChurnParams {
            shape,
            classes,
            views,
            path_view_percent,
            objects: OBJECTS,
            transactions: CHURN_TRANSACTIONS,
            ops_per_transaction: 4,
            retract_percent: 40,
        }
    }

    /// The store generator's seed. Ad-hoc and churn share one store.
    fn store_seed(self) -> u64 {
        match self {
            Workload::Scan => 0x5CA1_100C,
            Workload::Adhoc | Workload::Churn => 0xAD0C_100C,
        }
    }
}

/// A generated store: the genesis database (views declared in its
/// model), the view definitions, and the transaction pool.
pub struct Store {
    pub db: Database,
    pub views: Vec<QueryClassDecl>,
    pub transactions: Vec<Vec<ChurnOp>>,
    pub classes: usize,
}

impl Store {
    pub fn generate(workload: Workload) -> Store {
        let params = workload.store_params();
        // The transactions are drawn after the population from the same
        // stream, so the store does not depend on how many are drawn.
        let trace = churn_trace(workload.store_seed(), params);
        let views = trace
            .view_names
            .iter()
            .map(|name| {
                trace
                    .db
                    .model()
                    .query_class(name)
                    .expect("generated views are declared query classes")
                    .clone()
            })
            .collect();
        Store {
            db: trace.db,
            views,
            transactions: trace.transactions,
            classes: params.classes,
        }
    }

    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.views.iter().map(|view| view.name.as_str())
    }
}

/// One request of a schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum Req {
    /// The definition of view `i`, as a query.
    View(usize),
    /// A query of a shape new to this run.
    Adhoc(QueryClassDecl),
    /// Transaction `i` of the store's pool.
    Txn(usize),
}

impl Req {
    /// The protocol text sent for this request.
    pub fn text(&self, store: &Store) -> String {
        match self {
            Req::View(view) => Request::Query(store.views[*view].clone()).render(),
            Req::Adhoc(query) => Request::Query(query.clone()).render(),
            Req::Txn(txn) => churn_txn_request(&store.transactions[*txn]).render(),
        }
    }

    pub fn is_txn(&self) -> bool {
        matches!(self, Req::Txn(_))
    }
}

/// A seed-mixing step (SplitMix64's finalizer): distinct salts give
/// unrelated streams from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The seeded request stream of one client. Its contents depend only on
/// the workload, the seed, the client's index and the client count.
pub struct Schedule {
    workload: Workload,
    rng: StdRng,
    /// Requests handed out so far.
    issued: usize,
    /// Views left in the current round. Every round queries each view
    /// once, in a seeded order, so the view mix of a run does not depend
    /// on the seed; the first round is the warm-up's cover.
    round: Vec<usize>,
    views_sent: usize,
    /// Churn only: the kinds left in the current pair — one transaction
    /// and one query, in a seeded order.
    pair: Vec<bool>,
    /// Views this client draws ad-hoc shapes from (a partition of the
    /// catalog, so no two clients can draw the same shape).
    own_views: Vec<usize>,
    /// This client's transactions, in sending order.
    own_txns: Vec<usize>,
    next_txn: usize,
    seen: HashSet<u64>,
}

impl Schedule {
    pub fn new(
        workload: Workload,
        store: &Store,
        seed: u64,
        client: usize,
        clients: usize,
    ) -> Self {
        let clients = clients.max(1);
        let rng = StdRng::seed_from_u64(mix(seed, client as u64 + 1));
        let own_views = (0..store.views.len())
            .filter(|v| v % clients == client)
            .collect();
        // The pool in its generated order, dealt round-robin: the clients
        // together never send a transaction twice. The order is the same
        // for every seed: transactions differ in cost by orders of
        // magnitude (a retraction that misses is free, a new object
        // copies the name table), and a seeded draw of a run's few
        // hundred moved commit_p50 by a quarter from seed to seed.
        let own_txns = if workload == Workload::Churn {
            (client..store.transactions.len())
                .step_by(clients)
                .collect()
        } else {
            Vec::new()
        };
        Schedule {
            workload,
            rng,
            issued: 0,
            round: Vec::new(),
            views_sent: 0,
            pair: Vec::new(),
            own_views,
            own_txns,
            next_txn: 0,
            seen: HashSet::new(),
        }
    }

    /// How many requests this schedule has handed out.
    pub fn issued(&self) -> usize {
        self.issued
    }

    /// The next request, or `None` when the schedule is exhausted (the
    /// churn pool or the ad-hoc shape space ran out).
    pub fn next_req(&mut self, store: &Store) -> Option<Req> {
        let req = match self.workload {
            Workload::Scan => Req::View(self.next_view(store)),
            Workload::Adhoc => Req::Adhoc(self.next_adhoc(store)?),
            Workload::Churn => {
                if self.pair.is_empty() {
                    self.pair = vec![true, false];
                    shuffle(&mut self.pair, &mut self.rng);
                }
                let warm = self.views_sent >= store.views.len();
                if warm && self.pair.pop() == Some(true) {
                    let txn = *self.own_txns.get(self.next_txn)?;
                    self.next_txn += 1;
                    Req::Txn(txn)
                } else {
                    Req::View(self.next_view(store))
                }
            }
        };
        self.issued += 1;
        Some(req)
    }

    fn next_view(&mut self, store: &Store) -> usize {
        if self.round.is_empty() {
            self.round = (0..store.views.len()).collect();
            shuffle(&mut self.round, &mut self.rng);
        }
        self.views_sent += 1;
        self.round.pop().expect("refilled above")
    }

    fn random_path(&mut self, filter: Option<String>) -> LabeledPath {
        let len = self.rng.gen_range(1..=3usize);
        let mut steps: Vec<PathStep> = (0..len)
            .map(|_| PathStep {
                attr: if self.rng.gen_bool(0.5) {
                    "link"
                } else {
                    "rev_link"
                }
                .to_owned(),
                filter: PathFilter::Any,
            })
            .collect();
        if let Some(class) = filter {
            steps[len - 1].filter = PathFilter::Class(class);
        }
        LabeledPath { label: None, steps }
    }

    /// A view definition plus a path restriction, of a shape this
    /// schedule has not produced before. Filtered shapes carry one
    /// class-filtered path (and maybe one unfiltered); unfiltered shapes
    /// carry 1–4 unfiltered paths.
    fn next_adhoc(&mut self, store: &Store) -> Option<QueryClassDecl> {
        if self.own_views.is_empty() {
            return None;
        }
        for _ in 0..10_000 {
            let view = self.own_views[self.rng.gen_range(0..self.own_views.len())];
            let base = &store.views[view];
            let mut extra = Vec::new();
            if self.rng.gen_range(0..100u8) < ADHOC_FILTERED_PERCENT {
                let class = format!("K{}", self.rng.gen_range(0..store.classes));
                extra.push(self.random_path(Some(class)));
                if self.rng.gen_bool(0.5) {
                    extra.push(self.random_path(None));
                }
            } else {
                for _ in 0..self.rng.gen_range(1..=4usize) {
                    extra.push(self.random_path(None));
                }
            }
            // A repeated path adds nothing to the shape; skip the draw.
            let mut paths = base.derived.clone();
            let mut repeated = false;
            for path in extra {
                repeated |= paths.contains(&path);
                paths.push(path);
            }
            if repeated {
                continue;
            }
            let query = QueryClassDecl {
                name: format!("Q{}", self.issued),
                is_a: base.is_a.clone(),
                derived: paths,
                where_eqs: vec![],
                constraint: None,
            };
            if self.seen.insert(shape_key(&normalize_shape(&query))) {
                return Some(query);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(store: &Store, workload: Workload, seed: u64, client: usize, n: usize) -> Vec<String> {
        let mut schedule = Schedule::new(workload, store, seed, client, 2);
        (0..n)
            .map(|_| schedule.next_req(store).expect("not exhausted").text(store))
            .collect()
    }

    #[test]
    fn schedules_depend_only_on_the_seed() {
        for workload in [Workload::Scan, Workload::Adhoc, Workload::Churn] {
            let store = Store::generate(workload);
            let a = texts(&store, workload, 7, 1, 300);
            assert_eq!(a, texts(&store, workload, 7, 1, 300), "{workload:?}");
            assert_ne!(a, texts(&store, workload, 8, 1, 300), "{workload:?}");
            assert_ne!(a, texts(&store, workload, 7, 0, 300), "{workload:?}");
        }
    }

    #[test]
    fn adhoc_never_repeats_a_shape_across_clients() {
        let store = Store::generate(Workload::Adhoc);
        let mut keys = HashSet::new();
        for client in 0..2 {
            let mut schedule = Schedule::new(Workload::Adhoc, &store, 3, client, 2);
            for _ in 0..5_000 {
                let Some(Req::Adhoc(query)) = schedule.next_req(&store) else {
                    panic!("ad-hoc schedules send only ad-hoc queries");
                };
                assert!(keys.insert(shape_key(&normalize_shape(&query))));
            }
        }
    }

    #[test]
    fn churn_never_sends_a_transaction_twice() {
        let store = Store::generate(Workload::Churn);
        let mut sent = HashSet::new();
        let mut txns = 0;
        for client in 0..2 {
            let mut schedule = Schedule::new(Workload::Churn, &store, 5, client, 2);
            for _ in 0..4_000 {
                if let Some(Req::Txn(t)) = schedule.next_req(&store) {
                    assert!(sent.insert(t), "transaction {t} sent twice");
                    txns += 1;
                }
            }
        }
        assert!(txns > 3_000, "about half of the requests are transactions");
    }

    #[test]
    fn schedules_open_with_every_view() {
        let store = Store::generate(Workload::Scan);
        let mut schedule = Schedule::new(Workload::Scan, &store, 1, 0, 2);
        let mut opening: Vec<usize> = (0..store.views.len())
            .map(|_| match schedule.next_req(&store) {
                Some(Req::View(v)) => v,
                other => panic!("scan sends view queries, got {other:?}"),
            })
            .collect();
        opening.sort();
        assert_eq!(opening, (0..store.views.len()).collect::<Vec<_>>());
    }
}
