//! Foundations shared by every crate in the tree-pattern-query workspace.
//!
//! This crate deliberately has no knowledge of patterns, documents or
//! constraints. It provides:
//!
//! * [`TypeId`] / [`TypeInterner`] — node *types* (element names, LDAP object
//!   classes) interned to dense `u32` ids so that all hot algorithms compare
//!   and hash plain integers;
//! * [`TypeSet`] — the small sorted set of types carried by a data node
//!   (LDAP entries are multi-typed; the chase of co-occurrence constraints
//!   adds types to pattern nodes);
//! * [`FxHashMap`] / [`FxHashSet`] — std maps with the fast in-tree hasher
//!   (see DESIGN.md §5);
//! * [`Json`] — a small self-contained JSON model for serialisation;
//! * [`SmallRng`] — a deterministic PRNG for generators and tests;
//! * [`pool`] — a scoped work-stealing thread pool for batch fan-out and a
//!   persistent [`TaskPool`] for services, both with per-task panic
//!   isolation;
//! * [`Guard`] — deadlines, step budgets and cooperative cancellation
//!   for the expensive algorithms (see `docs/ROBUSTNESS.md`);
//! * [`failpoint`] — deterministic fault injection (`TPQ_FAILPOINT`);
//! * [`rows`] — bit rows over a pre-ordered tree, the candidate-pruning
//!   kernel that the matcher, the minimization engine and the containment
//!   test share;
//! * [`fd`] (Linux) — raw `epoll`/`eventfd` FFI and safe wrappers, the
//!   substrate of the `tpq-serve` event-loop reactor;
//! * [`Error`] / [`Result`] — the workspace-wide error type.

pub mod error;
pub mod failpoint;
#[cfg(target_os = "linux")]
pub mod fd;
pub mod guard;
pub mod hash;
pub mod interner;
pub mod json;
pub mod pool;
pub mod rng;
pub mod rows;
pub mod typeset;
pub mod value;

pub use error::{BudgetResource, Error, Result};
pub use guard::{Guard, GuardBuilder};
pub use hash::{FxBuildHasher, FxHasher};
pub use interner::{TypeId, TypeInterner};
pub use json::{Json, JsonError};
pub use pool::TaskPool;
pub use rng::SmallRng;
pub use typeset::TypeSet;
pub use value::{Cmp, Value};

/// Fast hash map keyed by small integer ids (in-tree hasher, DESIGN.md §5).
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// Fast hash set, companion to [`FxHashMap`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;
