//! Hierarchical view-catalog families for the lattice experiments (E9).
//!
//! The subsumption-lattice planner pays off exactly when the materialized
//! views form a hierarchy — and degenerates gracefully when they do not.
//! This generator produces both regimes as seeded instances: a schema
//! whose classes `K0..K(n-1)` are arranged in one of several isA shapes, a
//! catalog of structural views over those classes (occasionally
//! strengthened by a second superclass, occasionally duplicating an
//! earlier view under a new name to exercise Σ-equivalence collapse), a
//! conforming database state, and a batch of incoming queries.
//!
//! Shapes:
//!
//! * [`FamilyShape::Chain`] — a single isA chain `K0 ⊒ K1 ⊒ …`; the
//!   deepest hierarchy, worst case for insertion cost, best for pruning
//!   below the query's level;
//! * [`FamilyShape::Tree`] — a balanced binary isA tree; the canonical
//!   "hierarchical catalog", probes per plan grow with `log N`;
//! * [`FamilyShape::Diamond`] — stacked 4-class diamonds (`top ⊒ left`,
//!   `top ⊒ right`, `left, right ⊒ bottom`), exercising multi-parent
//!   traversal (a node is probed only after *all* parents);
//! * [`FamilyShape::Flat`] — the adversarial anti-hierarchy: pairwise
//!   incomparable classes, so the traversal degenerates to the flat scan;
//! * [`FamilyShape::Random`] — each class draws 0–2 random earlier
//!   parents, a seeded DAG of irregular shape.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use subq_dl::{ClassDecl, DlModel, QueryClassDecl};
use subq_oodb::Database;

/// The isA shape of a hierarchical view family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FamilyShape {
    /// A single chain `K0 ⊒ K1 ⊒ …`.
    Chain,
    /// A balanced binary tree rooted at `K0`.
    Tree,
    /// Stacked 4-class diamonds.
    Diamond,
    /// Pairwise incomparable classes (the anti-hierarchy).
    Flat,
    /// A seeded random DAG (0–2 parents per class).
    Random,
}

impl FamilyShape {
    /// Stable lowercase name (used in bench tables and JSON rows).
    pub fn name(self) -> &'static str {
        match self {
            FamilyShape::Chain => "chain",
            FamilyShape::Tree => "tree",
            FamilyShape::Diamond => "diamond",
            FamilyShape::Flat => "flat",
            FamilyShape::Random => "random",
        }
    }
}

/// Parameters of the hierarchy generator.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyParams {
    /// The isA shape.
    pub shape: FamilyShape,
    /// Number of materialized views (one class per view, plus peers).
    pub views: usize,
    /// Objects asserted per class (each propagates to all ancestors).
    pub members_per_class: usize,
    /// Number of incoming queries to generate.
    pub queries: usize,
    /// Percent (0–100) of views that take a second random superclass,
    /// exercising concept-level (not purely isA-graph) subsumption.
    pub intersect_percent: u8,
    /// Percent (0–100) of views duplicated under a fresh name — the
    /// duplicates are Σ-equivalent to the original and must collapse onto
    /// its lattice node.
    pub duplicate_percent: u8,
}

impl Default for HierarchyParams {
    fn default() -> Self {
        HierarchyParams {
            shape: FamilyShape::Tree,
            views: 50,
            members_per_class: 2,
            queries: 8,
            intersect_percent: 0,
            duplicate_percent: 0,
        }
    }
}

/// A generated instance: the database (whose model declares the views as
/// query classes), the names of the views to materialize (in order), and
/// the incoming queries.
pub struct HierarchyInstance {
    /// The database state over the generated model.
    pub db: Database,
    /// View names, in materialization order.
    pub view_names: Vec<String>,
    /// Incoming queries (not declared in the model).
    pub queries: Vec<QueryClassDecl>,
}

/// The isA parents of class `i` under the shape (shared with the churn
/// generator).
pub(crate) fn class_parents(shape: FamilyShape, i: usize, rng: &mut StdRng) -> Vec<usize> {
    match shape {
        FamilyShape::Chain => {
            if i == 0 {
                vec![]
            } else {
                vec![i - 1]
            }
        }
        FamilyShape::Tree => {
            if i == 0 {
                vec![]
            } else {
                vec![(i - 1) / 2]
            }
        }
        FamilyShape::Diamond => match i % 4 {
            0 => {
                if i == 0 {
                    vec![]
                } else {
                    vec![i - 1]
                }
            }
            1 | 2 => vec![i - (i % 4)],
            _ => vec![i - 2, i - 1],
        },
        FamilyShape::Flat => vec![],
        FamilyShape::Random => {
            let max_parents = rng.gen_range(0..=2usize.min(i));
            let mut parents = Vec::new();
            for _ in 0..max_parents {
                let p = rng.gen_range(0..i);
                if !parents.contains(&p) {
                    parents.push(p);
                }
            }
            parents
        }
    }
}

/// Generates a seeded hierarchical view family.
pub fn hierarchical_catalog(seed: u64, params: HierarchyParams) -> HierarchyInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = params.views.max(1);
    let mut model = DlModel::new();

    // Schema classes in the requested shape.
    let parents: Vec<Vec<usize>> = (0..n)
        .map(|i| class_parents(params.shape, i, &mut rng))
        .collect();
    for (i, ps) in parents.iter().enumerate() {
        model.classes.push(ClassDecl {
            name: format!("K{i}"),
            is_a: ps.iter().map(|p| format!("K{p}")).collect(),
            attributes: vec![],
            constraint: None,
        });
    }

    // One structural view per class; some take a second superclass, some
    // are duplicated under a fresh name (Σ-equivalent peers).
    let mut view_names = Vec::new();
    let mut views = Vec::new();
    for i in 0..n {
        let mut is_a = vec![format!("K{i}")];
        if rng.gen_range(0..100u8) < params.intersect_percent && n > 1 {
            let other = rng.gen_range(0..n);
            if other != i {
                is_a.push(format!("K{other}"));
            }
        }
        let view = QueryClassDecl {
            name: format!("V{i}"),
            is_a,
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        };
        view_names.push(view.name.clone());
        if rng.gen_range(0..100u8) < params.duplicate_percent {
            let twin = QueryClassDecl {
                name: format!("V{i}dup"),
                ..view.clone()
            };
            view_names.push(twin.name.clone());
            views.push(view);
            views.push(twin);
        } else {
            views.push(view);
        }
    }
    model.queries.extend(views);

    // Incoming queries: one or two target classes, drawn uniformly — in
    // the deterministic shapes higher indexes sit deeper, so the draws
    // cover shallow and deep probes alike.
    let queries: Vec<QueryClassDecl> = (0..params.queries)
        .map(|q| {
            let target = rng.gen_range(0..n);
            let mut is_a = vec![format!("K{target}")];
            if rng.gen_bool(0.3) && n > 1 {
                let second = rng.gen_range(0..n);
                if second != target {
                    is_a.push(format!("K{second}"));
                }
            }
            QueryClassDecl {
                name: format!("Q{q}"),
                is_a,
                derived: vec![],
                where_eqs: vec![],
                constraint: None,
            }
        })
        .collect();

    // The state: members per class, asserted at their own class (and
    // propagated to every ancestor by the store), so deeper classes have
    // smaller extents — the "most specific view is the best filter"
    // regime of the paper.
    let mut db = Database::new(model);
    for i in 0..n {
        for m in 0..params.members_per_class {
            let obj = db.add_object(&format!("o_{i}_{m}"));
            db.assert_class(obj, &format!("K{i}"));
        }
    }

    HierarchyInstance {
        db,
        view_names,
        queries,
    }
}

/// A syntactic variant of a view definition (a query class without a
/// constraint clause) that is Σ-equivalent to it: a fresh name, the `isA` list reversed with its first entry repeated,
/// and every label renamed (in `derived` and `where` alike). The
/// equivalence suites execute it next to the original to check that a
/// planner recognizes equivalence beyond identical text.
pub fn equivalent_variant(query: &QueryClassDecl) -> QueryClassDecl {
    let rename = |label: &mut String| *label = format!("{label}_v");
    let mut variant = query.clone();
    variant.name = format!("{}Variant", query.name);
    variant.is_a.reverse();
    if let Some(first) = variant.is_a.first().cloned() {
        variant.is_a.push(first);
    }
    for path in &mut variant.derived {
        if let Some(label) = &mut path.label {
            rename(label);
        }
    }
    for (left, right) in &mut variant.where_eqs {
        rename(left);
        rename(right);
    }
    variant
}

#[cfg(test)]
mod tests {
    use super::*;
    use subq_oodb::evaluate_query;

    #[test]
    fn shapes_generate_the_requested_catalog_sizes() {
        for shape in [
            FamilyShape::Chain,
            FamilyShape::Tree,
            FamilyShape::Diamond,
            FamilyShape::Flat,
            FamilyShape::Random,
        ] {
            let params = HierarchyParams {
                shape,
                views: 12,
                queries: 4,
                ..HierarchyParams::default()
            };
            let instance = hierarchical_catalog(5, params);
            assert_eq!(instance.view_names.len(), 12, "{shape:?}");
            assert_eq!(instance.queries.len(), 4, "{shape:?}");
            for name in &instance.view_names {
                let decl = instance.db.model().query_class(name).expect("declared");
                assert!(decl.is_view());
            }
        }
    }

    #[test]
    fn deeper_chain_views_have_smaller_extents() {
        let params = HierarchyParams {
            shape: FamilyShape::Chain,
            views: 6,
            members_per_class: 3,
            queries: 1,
            ..HierarchyParams::default()
        };
        let instance = hierarchical_catalog(1, params);
        let model = instance.db.model().clone();
        let sizes: Vec<usize> = (0..6)
            .map(|i| {
                let view = model.query_class(&format!("V{i}")).expect("declared");
                evaluate_query(&instance.db, view).len()
            })
            .collect();
        // K0 sees all 18 objects, each level below loses 3.
        assert_eq!(sizes, vec![18, 15, 12, 9, 6, 3]);
    }

    #[test]
    fn duplicates_share_the_original_definition() {
        let params = HierarchyParams {
            shape: FamilyShape::Tree,
            views: 20,
            duplicate_percent: 100,
            queries: 1,
            ..HierarchyParams::default()
        };
        let instance = hierarchical_catalog(9, params);
        assert_eq!(instance.view_names.len(), 40);
        let model = instance.db.model();
        for i in 0..20 {
            let original = model.query_class(&format!("V{i}")).expect("declared");
            let twin = model.query_class(&format!("V{i}dup")).expect("declared");
            assert_eq!(original.is_a, twin.is_a);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let params = HierarchyParams {
            shape: FamilyShape::Random,
            views: 15,
            intersect_percent: 30,
            duplicate_percent: 10,
            queries: 6,
            ..HierarchyParams::default()
        };
        let a = hierarchical_catalog(7, params);
        let b = hierarchical_catalog(7, params);
        assert_eq!(a.view_names, b.view_names);
        assert_eq!(a.db.model(), b.db.model());
        assert_eq!(a.queries, b.queries);
        let c = hierarchical_catalog(8, params);
        assert!(c.view_names.len() >= 15);
        // Different seed, (almost certainly) different DAG.
        assert!(a.db.model() != c.db.model() || a.queries != c.queries);
    }
}
