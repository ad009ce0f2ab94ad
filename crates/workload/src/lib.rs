//! Seeded synthetic workloads for the experiments.
//!
//! The paper reports no measurements of its own (it defers them to
//! "practical experiments"), so every experiment in this reproduction runs
//! on synthetic inputs produced here:
//!
//! * [`scaling`] — deterministic instance families whose query size, view
//!   size, or schema size grows with a parameter, all constructed so that
//!   the subsumption holds and the completion does maximal work
//!   (experiment E5, Theorem 4.9 / Proposition 4.8);
//! * [`random`] — seeded random QL concept pairs with known or unknown
//!   subsumption status (experiments E5 and E7);
//! * [`database`] — synthetic hospital states over the paper's medical
//!   schema with tunable size and view selectivity (experiment E8);
//! * [`hierarchy`] — hierarchical view-catalog families (chains, balanced
//!   trees, diamonds, flat anti-hierarchies, random DAGs) for the
//!   subsumption-lattice planner (experiment E9);
//! * [`churn`] — seeded mixed read/write traces (class and attribute
//!   asserts and retracts in transactions) for the incremental
//!   view-maintenance engine (experiment E10);
//! * [`crash`] — crash-point and bit-flip scripting over write-ahead-log
//!   bytes for the durable engine's kill-and-recover property suite and
//!   experiment E13;
//! * [`traffic`] — per-client mixed query/transaction schedules dealing a
//!   churn trace out to a fleet of concurrent server clients (experiment
//!   E14 and the multi-session equivalence suite).
//!
//! All generators take explicit seeds (or are fully deterministic) so the
//! benches are reproducible.

pub mod churn;
pub mod crash;
pub mod database;
pub mod hierarchy;
pub mod random;
pub mod scaling;
pub mod traffic;

pub use churn::{churn_trace, ChurnOp, ChurnParams, ChurnTrace};
pub use crash::{crash_points, flip_points};
pub use database::{synthetic_hospital, HospitalParams};
pub use hierarchy::{
    equivalent_variant, hierarchical_catalog, FamilyShape, HierarchyInstance, HierarchyParams,
};
pub use random::{random_concept, random_pair, subsumed_pair, RandomConceptParams, RandomEnv};
pub use scaling::ScalingInstance;
pub use traffic::{client_schedule, shifting_schedule, ShiftParams, TrafficOp, TrafficParams};
