//! Parallel batch minimization with a canonical-pattern memo cache.
//!
//! The paper's motivating deployment (Section 1) minimizes *many* queries
//! against *one* schema. [`BatchMinimizer`] makes that the unit of work:
//! it owns one closed constraint set (computed once) plus a memo cache
//! keyed by [`TreePattern::canonical_key`], and fans a `Vec` of queries
//! out over the scoped work-stealing pool in [`tpq_base::pool`].
//!
//! Queries that are **isomorphic** to one another — the common case in
//! query-optimizer traffic, where the same generated pattern arrives over
//! and over with different node numbering — are minimized once: the
//! canonical key folds duplicates before any worker runs, and the cache
//! persists across batches so a warmed engine answers repeats without
//! running CDM or ACIM at all. Theorem 5.1 (minimal queries are unique up
//! to isomorphism) is what makes serving a cached result sound.
//!
//! Output is **deterministic**: results come back in input order and do
//! not depend on the worker count, because keys are assigned before the
//! fan-out and each unique pattern is minimized exactly once.
//!
//! Results are **shared, not copied**: the memo holds each minimized
//! pattern behind an [`Arc`], and every slot, duplicate and later hit
//! hands out a clone of that `Arc` rather than a deep copy of the tree.
//!
//! The batch is **fault-isolated**: every task runs behind the pool's
//! panic shield, so one pattern that panics (or trips a [`Guard`] limit
//! in [`minimize_batch_guarded`](BatchMinimizer::minimize_batch_guarded))
//! becomes an error entry in its own slot while the remaining patterns
//! complete normally — the process never aborts.
//!
//! Beside the memo, each engine keeps a bounded **query-text front**: the
//! rendered answer served for one verbatim query text, so that a server
//! answers a textual repeat with one hash probe, before any parse (see
//! [`BatchMinimizer::front_probe`]). The front lives and dies with its
//! engine and memo.
//!
//! Observability (when the `tpq-obs` layer is enabled): counters
//! `batch.cache.hit`, `batch.cache.miss`, `batch.front.hit`,
//! `batch.steal`, `pool.panic` and per-worker latency histograms
//! `batch.worker.N` (see `docs/OBSERVABILITY.md`).
//!
//! ```
//! use tpq_base::TypeInterner;
//! use tpq_constraints::parse_constraints;
//! use tpq_core::batch::BatchMinimizer;
//! use tpq_pattern::parse_pattern;
//!
//! let mut tys = TypeInterner::new();
//! let ics = parse_constraints("Book -> Title", &mut tys).unwrap();
//! let engine = BatchMinimizer::new(&ics);
//! let queries = vec![
//!     parse_pattern("Book*[/Title][/Author]", &mut tys).unwrap(),
//!     parse_pattern("Book*[/Author][/Title]", &mut tys).unwrap(), // isomorphic
//! ];
//! let out = engine.minimize_batch(&queries, 2);
//! assert_eq!(out.patterns.len(), 2);
//! assert_eq!(out.stats.unique, 1, "duplicate folded by the memo cache");
//! assert_eq!(out.patterns[0].size(), 2);
//! ```

use crate::pipeline::{minimize_closed_guarded, MinimizeOutcome, Strategy};
use crate::stats::MinimizeStats;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};
use tpq_base::pool::{scoped_map, PoolStats};
use tpq_base::{FxHashMap, Guard, Result};
use tpq_constraints::ConstraintSet;
use tpq_pattern::{CanonicalKey, Syntax, TreePattern};

/// Static span names so per-worker latency lands in distinct histograms
/// without allocating names (the registry is keyed by `&'static str`).
/// Workers beyond the table share the overflow bucket.
const WORKER_SPANS: [&str; 16] = [
    "batch.worker.0",
    "batch.worker.1",
    "batch.worker.2",
    "batch.worker.3",
    "batch.worker.4",
    "batch.worker.5",
    "batch.worker.6",
    "batch.worker.7",
    "batch.worker.8",
    "batch.worker.9",
    "batch.worker.10",
    "batch.worker.11",
    "batch.worker.12",
    "batch.worker.13",
    "batch.worker.14",
    "batch.worker.15",
];

fn worker_span(worker: usize) -> &'static str {
    WORKER_SPANS.get(worker).copied().unwrap_or("batch.worker.overflow")
}

/// A batch minimization session: one closed constraint set, one strategy,
/// and a memo cache of minimized patterns keyed by canonical key. Without
/// the memo, a session is [`minimize_closed_guarded`] on a set closed
/// once.
///
/// The cache is internally synchronized — `minimize_batch` takes `&self`,
/// so one engine can serve concurrent callers.
#[derive(Debug)]
pub struct BatchMinimizer {
    closed: ConstraintSet,
    strategy: Strategy,
    cache: RwLock<FxHashMap<CanonicalKey, Arc<TreePattern>>>,
    front: RwLock<Front>,
}

/// Most query texts one engine's front holds.
pub const FRONT_MAX_ENTRIES: usize = 4096;

/// Most bytes one engine's front holds, counted as in
/// [`BatchMinimizer::front_usage`].
pub const FRONT_MAX_BYTES: usize = 1 << 20;

/// What the query-text front keeps for one query text: the rendered
/// minimized query and the two sizes a served answer reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontAnswer {
    /// The minimized query, rendered as DSL text.
    pub minimized: Box<str>,
    /// Nodes in the query as parsed.
    pub input_nodes: usize,
    /// Nodes in the minimized query.
    pub output_nodes: usize,
}

/// An engine's query-text front: one map per syntax from verbatim query
/// text to its answer, and the bytes the entries account for.
#[derive(Debug, Default)]
struct Front {
    texts: [FxHashMap<Box<str>, FrontAnswer>; 2],
    bytes: usize,
}

impl Front {
    /// The bytes one entry accounts for: its two texts plus the map
    /// slot that holds them.
    fn cost(text: &str, answer: &FrontAnswer) -> usize {
        text.len() + answer.minimized.len() + std::mem::size_of::<(Box<str>, FrontAnswer)>()
    }

    fn entries(&self) -> usize {
        self.texts.iter().map(FxHashMap::len).sum()
    }
}

/// What one batch run did, beyond the per-query results.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Distinct canonical patterns that had to be minimized.
    pub unique: usize,
    /// Queries answered from the memo cache (persistent hits plus
    /// in-batch duplicates of an already-scheduled pattern).
    pub cache_hits: u64,
    /// Queries that ran the minimization pipeline.
    pub cache_misses: u64,
    /// Work-stealing events in the pool.
    pub steals: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Items executed per worker.
    pub executed_per_worker: Vec<u64>,
    /// Wall time of the whole batch, including the key pass.
    pub wall_time: Duration,
    /// Algorithm counters summed over every minimization actually run.
    pub minimize: MinimizeStats,
    /// Queries that ended in an error entry (budget trips, injected
    /// faults, captured panics). Always 0 through the infallible
    /// [`BatchMinimizer::minimize_batch`] path.
    pub failed: usize,
    /// Worker panics captured by the pool's per-task shield.
    pub panics: u64,
}

impl BatchStats {
    /// Fraction of queries answered from the memo cache, in `[0, 1]`
    /// (0 on an empty batch).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Machine-readable snapshot of the batch run, consumed by the bench
    /// harness's persisted trajectories and the CLI's `--stats` output.
    pub fn to_json(&self) -> tpq_base::Json {
        use tpq_base::Json;
        Json::object(vec![
            ("queries", Json::Int(self.queries as i64)),
            ("unique", Json::Int(self.unique as i64)),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
            ("cache_misses", Json::Int(self.cache_misses as i64)),
            ("cache_hit_rate", Json::Float(self.cache_hit_rate())),
            ("steals", Json::Int(self.steals as i64)),
            ("workers", Json::Int(self.workers as i64)),
            (
                "executed_per_worker",
                Json::Array(
                    self.executed_per_worker.iter().map(|&n| Json::Int(n as i64)).collect(),
                ),
            ),
            ("wall_micros", Json::Float(self.wall_time.as_secs_f64() * 1e6)),
            ("failed", Json::Int(self.failed as i64)),
            ("panics", Json::Int(self.panics as i64)),
            ("minimize", self.minimize.to_json()),
        ])
    }
}

/// Result of [`BatchMinimizer::minimize_batch`]: one minimized pattern per
/// input query, in input order.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Minimized (compacted) patterns, parallel to the input slice.
    /// Isomorphic inputs share one `Arc`.
    pub patterns: Vec<Arc<TreePattern>>,
    /// Batch-level measurements.
    pub stats: BatchStats,
}

/// Result of [`BatchMinimizer::minimize_batch_guarded`]: one `Result` per
/// input query, in input order. A query whose minimization tripped the
/// guard, hit an armed failpoint or panicked carries its error in place;
/// the other slots still hold their minimized patterns.
#[derive(Debug, Clone)]
pub struct GuardedBatchOutcome {
    /// Per-query results, parallel to the input slice.
    pub results: Vec<Result<Arc<TreePattern>>>,
    /// Batch-level measurements.
    pub stats: BatchStats,
}

/// How each input query gets its result: from the persistent cache, or
/// from slot `i` of this batch's unique-work list.
enum Plan {
    Cached(Arc<TreePattern>),
    Computed(usize),
}

/// Result of [`BatchMinimizer::minimize_cached_guarded`]: the minimized
/// pattern plus where it came from.
#[derive(Debug, Clone)]
pub struct CachedOutcome {
    /// The minimized (compacted) query, shared with the memo.
    pub pattern: Arc<TreePattern>,
    /// Whether the memo cache answered without running the pipeline.
    pub cache_hit: bool,
    /// Algorithm counters of the run (all zero on a cache hit — the
    /// cached answer cost nothing).
    pub stats: MinimizeStats,
}

impl BatchMinimizer {
    /// Build from a (not necessarily closed) constraint set with the
    /// default strategy. The quadratic closure is computed once, here.
    pub fn new(ics: &ConstraintSet) -> Self {
        Self::with_strategy(ics, Strategy::default())
    }

    /// Build with an explicit strategy.
    pub fn with_strategy(ics: &ConstraintSet, strategy: Strategy) -> Self {
        Self::from_parts(ics.closure(), strategy)
    }

    /// Rebuild an engine from an **already-closed** constraint set,
    /// skipping the quadratic closure — the deserialization half of
    /// warm-restart snapshots. `closed` must be its own closure (snapshot
    /// files are checksummed, so a faithful restore guarantees this); an
    /// unclosed set would silently weaken every minimization the engine
    /// performs.
    pub fn from_parts(closed: ConstraintSet, strategy: Strategy) -> Self {
        debug_assert!(closed.is_closed(), "from_parts requires a closed constraint set");
        BatchMinimizer {
            closed,
            strategy,
            cache: RwLock::new(FxHashMap::default()),
            front: RwLock::new(Front::default()),
        }
    }

    /// Snapshot the canonical-pattern memo as `(key, minimized)` pairs,
    /// sorted by key for deterministic serialization.
    pub fn export_memo(&self) -> Vec<(CanonicalKey, Arc<TreePattern>)> {
        let cache = self.cache.read().expect("batch cache poisoned");
        let mut entries: Vec<(CanonicalKey, Arc<TreePattern>)> =
            cache.iter().map(|(k, p)| (k.clone(), Arc::clone(p))).collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        entries
    }

    /// Seed the memo with previously exported entries. Keys must have been
    /// produced under the same [`TypeId`](tpq_base::TypeId) ↔ name
    /// assignment as the patterns this engine will serve (the snapshot
    /// layer verifies this before calling); existing entries win ties.
    pub fn import_memo(&self, entries: impl IntoIterator<Item = (CanonicalKey, Arc<TreePattern>)>) {
        let mut cache = self.cache.write().expect("batch cache poisoned");
        for (key, pattern) in entries {
            cache.entry(key).or_insert(pattern);
        }
    }

    /// The closed constraint set the engine minimizes under.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.closed
    }

    /// The strategy every query runs with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Number of distinct canonical patterns memoized so far.
    pub fn cache_len(&self) -> usize {
        self.cache.read().expect("batch cache poisoned").len()
    }

    /// Drop every memoized result and the query-text front (the closed
    /// constraint set stays).
    pub fn clear_cache(&self) {
        self.cache.write().expect("batch cache poisoned").clear();
        *self.front.write().expect("batch front poisoned") = Front::default();
    }

    /// The front's answer for the verbatim query `text` in `syntax`, if
    /// it has one: a read-locked probe that parses, keys and renders
    /// nothing. A hit bumps `batch.front.hit` and, since it stands for a
    /// memo hit, `batch.cache.hit`.
    ///
    /// The front is keyed by text alone, because the engine fixes the
    /// constraint set and strategy; like the memo, it is sound only when
    /// every caller parses under one interner (see [`shared_engine`]).
    pub fn front_probe(&self, syntax: Syntax, text: &str) -> Option<FrontAnswer> {
        let hit = self.front.read().expect("batch front poisoned").texts[syntax as usize]
            .get(text)
            .cloned();
        if hit.is_some() {
            tpq_obs::incr("batch.front.hit", 1);
            tpq_obs::incr("batch.cache.hit", 1);
        }
        hit
    }

    /// Remember `answer` as the front's answer for the verbatim query
    /// `text` in `syntax`. A text the front already holds keeps its first
    /// answer. A front that would pass [`FRONT_MAX_ENTRIES`] or
    /// [`FRONT_MAX_BYTES`] starts over empty: the memo behind it still
    /// answers, so the cost of a reset is one memo hit per text.
    pub fn front_insert(&self, syntax: Syntax, text: &str, answer: FrontAnswer) {
        let cost = Front::cost(text, &answer);
        if cost > FRONT_MAX_BYTES {
            return;
        }
        let mut front = self.front.write().expect("batch front poisoned");
        if front.texts[syntax as usize].contains_key(text) {
            return;
        }
        if front.entries() >= FRONT_MAX_ENTRIES || front.bytes + cost > FRONT_MAX_BYTES {
            *front = Front::default();
        }
        front.bytes += cost;
        front.texts[syntax as usize].insert(text.into(), answer);
    }

    /// The front's size as `(entries, bytes)`. An entry's bytes are its
    /// query text, its rendered answer and its map slot.
    pub fn front_usage(&self) -> (usize, usize) {
        let front = self.front.read().expect("batch front poisoned");
        (front.entries(), front.bytes)
    }

    /// Minimize one query through the memo cache (a one-element batch
    /// without the pool), reporting cache provenance and per-run
    /// statistics — the entry point `tpq-serve` uses to answer one request
    /// and tell the client whether the memo cache already knew the
    /// pattern. A cache hit is served without spending any of the guard's
    /// budget; on a miss the whole minimization pipeline runs guarded and
    /// only a successful result is memoized — a tripped guard leaves the
    /// cache unchanged.
    pub fn minimize_cached_guarded(&self, q: &TreePattern, guard: &Guard) -> Result<CachedOutcome> {
        let key = q.canonical_key();
        match self.probe(&key) {
            Some(pattern) => {
                Ok(CachedOutcome { pattern, cache_hit: true, stats: MinimizeStats::default() })
            }
            None => self.minimize_miss(q, key, guard),
        }
    }

    /// The memo's answer for `key`, if it has one: a read-locked lookup
    /// that runs nothing and spends no guard budget. A hit bumps
    /// `batch.cache.hit`. The first half of
    /// [`minimize_cached_guarded`](BatchMinimizer::minimize_cached_guarded),
    /// split out so `tpq-serve` can answer hits on its reactor thread.
    pub fn probe(&self, key: &CanonicalKey) -> Option<Arc<TreePattern>> {
        let hit = self.cache.read().expect("batch cache poisoned").get(key).cloned();
        if hit.is_some() {
            tpq_obs::incr("batch.cache.hit", 1);
        }
        hit
    }

    /// The miss half of
    /// [`minimize_cached_guarded`](BatchMinimizer::minimize_cached_guarded):
    /// run the guarded pipeline on `q` and memoize a successful result
    /// under `key`, which must be `q.canonical_key()` (the caller already
    /// built it for its [`probe`](BatchMinimizer::probe)). The memo is not
    /// consulted again; bumps `batch.cache.miss`.
    pub fn minimize_miss(
        &self,
        q: &TreePattern,
        key: CanonicalKey,
        guard: &Guard,
    ) -> Result<CachedOutcome> {
        debug_assert!(key == q.canonical_key(), "the key must be the query's own");
        tpq_obs::incr("batch.cache.miss", 1);
        let out = minimize_closed_guarded(q, &self.closed, self.strategy, guard)?;
        let pattern = Arc::new(out.pattern);
        self.cache.write().expect("batch cache poisoned").insert(key, Arc::clone(&pattern));
        Ok(CachedOutcome { pattern, cache_hit: false, stats: out.stats })
    }

    /// Minimize every query in `queries` on up to `jobs` worker threads.
    ///
    /// Results are returned in input order and are identical for every
    /// `jobs` value: the sequential key pass fixes which patterns are
    /// computed before any thread runs, so thread scheduling cannot leak
    /// into the output.
    ///
    /// This infallible path panics on the calling thread if a task fails
    /// — which, with no guard and no armed failpoint, only happens when a
    /// minimization itself panics. Callers that want per-query isolation
    /// use [`minimize_batch_guarded`](BatchMinimizer::minimize_batch_guarded).
    pub fn minimize_batch(&self, queries: &[TreePattern], jobs: usize) -> BatchOutcome {
        let run = self.minimize_batch_guarded(queries, jobs, &Guard::unlimited());
        let patterns = run
            .results
            .into_iter()
            .map(|r| match r {
                Ok(p) => p,
                Err(e) => panic!("batch task failed: {e}"),
            })
            .collect();
        BatchOutcome { patterns, stats: run.stats }
    }

    /// [`BatchMinimizer::minimize_batch`] with resource governance and
    /// per-query fault isolation.
    ///
    /// The guard is shared by every worker: a wall-clock deadline or a
    /// cooperative [`cancel`](Guard::cancel) bounds the *whole batch*, and
    /// a step budget is one pooled allowance drawn on by all queries.
    /// Queries answered from the memo cache (including in-batch
    /// duplicates) cost nothing and succeed even after the guard trips.
    ///
    /// Each unique pattern fans out as an isolated task: a budget trip, an
    /// injected failpoint or a panic inside one minimization lands as the
    /// `Err` of that query's slot (duplicates of it share the error) while
    /// every other query completes normally. Only successful results are
    /// memoized. Captured panics bump the `pool.panic` counter; budget
    /// trips bump `guard.timeout` / `guard.budget` / `guard.cancel`.
    pub fn minimize_batch_guarded(
        &self,
        queries: &[TreePattern],
        jobs: usize,
        guard: &Guard,
    ) -> GuardedBatchOutcome {
        let _span = tpq_obs::span!("batch");
        let t0 = Instant::now();

        // Key pass: fold cache hits and in-batch duplicates, and collect
        // the unique survivors. It runs sequentially, once per query, so
        // its per-query cost bounds the batch's parallel speedup; keys are
        // built in a reused buffer and hits share the memo's `Arc`.
        let mut plan: Vec<Plan> = Vec::with_capacity(queries.len());
        let mut unique: Vec<&TreePattern> = Vec::new();
        let mut scheduled: FxHashMap<CanonicalKey, usize> = FxHashMap::default();
        let mut hits = 0u64;
        {
            let cache = self.cache.read().expect("batch cache poisoned");
            for q in queries {
                let key = q.canonical_key();
                if let Some(hit) = cache.get(&key) {
                    hits += 1;
                    plan.push(Plan::Cached(Arc::clone(hit)));
                } else if let Some(&slot) = scheduled.get(&key) {
                    hits += 1;
                    plan.push(Plan::Computed(slot));
                } else {
                    let slot = unique.len();
                    scheduled.insert(key, slot);
                    unique.push(q);
                    plan.push(Plan::Computed(slot));
                }
            }
        }
        let misses = unique.len() as u64;
        tpq_obs::incr("batch.cache.hit", hits);
        tpq_obs::incr("batch.cache.miss", misses);

        // Fan the unique patterns out over the pool. Each task is
        // isolated: a panic or guard trip stays in its own result slot.
        // Trace identity is thread-local: capture the caller's id and
        // re-establish it on whichever worker runs each task, so events
        // emitted inside the pool keep the request's attribution.
        let trace = tpq_obs::current_trace();
        let (outcomes, pool): (Vec<Result<MinimizeOutcome>>, PoolStats) =
            scoped_map(jobs, &unique, |ctx, q| {
                let _trace = tpq_obs::trace_scope(trace);
                let t = Instant::now();
                let out = minimize_closed_guarded(q, &self.closed, self.strategy, guard)?;
                tpq_obs::record_duration(worker_span(ctx.worker), t.elapsed());
                Ok(out)
            });
        tpq_obs::incr("batch.steal", pool.steals);
        tpq_obs::incr("pool.panic", pool.panics);

        let mut minimize = MinimizeStats::default();
        let computed: Vec<Result<Arc<TreePattern>>> = outcomes
            .into_iter()
            .map(|out| {
                out.map(|out| {
                    minimize.merge(out.stats);
                    Arc::new(out.pattern)
                })
            })
            .collect();

        // Memoize for the next batch — successful results only, so a
        // tripped guard never poisons the cache with a partial answer.
        {
            let mut cache = self.cache.write().expect("batch cache poisoned");
            for (key, slot) in scheduled {
                if let Ok(pattern) = &computed[slot] {
                    cache.insert(key, Arc::clone(pattern));
                }
            }
        }

        let results: Vec<Result<Arc<TreePattern>>> = plan
            .into_iter()
            .map(|p| match p {
                Plan::Cached(pattern) => Ok(pattern),
                Plan::Computed(slot) => computed[slot].clone(),
            })
            .collect();
        let failed = results.iter().filter(|r| r.is_err()).count();
        GuardedBatchOutcome {
            results,
            stats: BatchStats {
                queries: queries.len(),
                unique: unique.len(),
                cache_hits: hits,
                cache_misses: misses,
                steals: pool.steals,
                workers: pool.workers,
                executed_per_worker: pool.executed,
                wall_time: t0.elapsed(),
                minimize,
                failed,
                panics: pool.panics,
            },
        }
    }
}

/// Engines kept in the process-wide [`shared_engine`] cache. Constraint
/// sets are compared by value, so the probe is `O(|ics|)` — noise next to
/// the quadratic closure and the per-engine memo cache it preserves.
const ENGINE_CACHE_CAPACITY: usize = 8;

/// One entry of the process-wide engine table: the original (unclosed)
/// set and strategy it is keyed by, the engine built from them, and the
/// constraint text [`shared_engine_for_text`] last parsed into that set
/// (`None` until a text lookup lands on the entry, e.g. after a restore).
/// The table's lock is only ever held for a scan and an insert.
struct EngineEntry {
    ics: ConstraintSet,
    strategy: Strategy,
    text: Option<Box<str>>,
    engine: Arc<BatchMinimizer>,
}

/// The table, most recently used first.
type EngineCache = Vec<EngineEntry>;

/// A process-wide [`BatchMinimizer`] for `(ics, strategy)`, built on first
/// use and shared by every later caller with the same key (a small
/// process-wide LRU).
///
/// This is how `tpq-serve` gives every connection one canonical-pattern
/// memo cache and one constraint closure per constraint set: request
/// handlers look engines up here (through [`shared_engine_for_text`])
/// instead of constructing them, so a pattern minimized on one connection
/// is a cache hit on all of them. The one-shot [`crate::minimize_with`]
/// takes its closed set from here too. A set is closed once: a new
/// strategy for a set the table already holds borrows that entry's closed
/// set. The `engine.cache.hit` / `engine.recomputed` counters report
/// reuse by all callers; `engine.recomputed` counts closures computed.
///
/// **Interner discipline:** engines memoize by [`TreePattern::canonical_key`],
/// which is built from [`TypeId`](tpq_base::TypeId)s. All queries handed to
/// one shared engine must therefore come from one
/// [`TypeInterner`](tpq_base::TypeInterner)
/// (`tpq-serve` maintains a process-wide one) — mixing interners can map
/// different names to the same ids and serve one query's answer to another.
/// The text probe ([`probe_engine_text`], [`shared_engine_for_text`])
/// leans on the same rule: it maps constraint *text* to an engine whose
/// set holds the ids one interner gave those names, so it is sound only
/// when every caller parses under that one interner. `tpq serve` is its
/// only caller.
///
/// ```
/// use std::sync::Arc;
/// use tpq_base::{Guard, TypeInterner};
/// use tpq_constraints::parse_constraints;
/// use tpq_core::{shared_engine, Strategy};
/// use tpq_pattern::parse_pattern;
///
/// let mut tys = TypeInterner::new(); // ONE interner for everything below
/// let ics = parse_constraints("Recipe -> Ingredient", &mut tys).unwrap();
/// let engine = shared_engine(&ics, Strategy::default());
/// // A second lookup with an equal key returns the very same engine.
/// assert!(Arc::ptr_eq(&engine, &shared_engine(&ics, Strategy::default())));
///
/// let q = parse_pattern("Recipe*[/Ingredient][/Step]", &mut tys).unwrap();
/// let first = engine.minimize_cached_guarded(&q, &Guard::unlimited()).unwrap();
/// let again = engine.minimize_cached_guarded(&q, &Guard::unlimited()).unwrap();
/// assert!(!first.cache_hit);
/// assert!(again.cache_hit, "second identical query is a memo hit");
/// assert_eq!(first.pattern.size(), 2); // /Ingredient is implied by the IC
/// ```
pub fn shared_engine(ics: &ConstraintSet, strategy: Strategy) -> Arc<BatchMinimizer> {
    lookup_set(ics, strategy, None)
}

/// The text probe of [`shared_engine_for_text`] alone: the engine an
/// earlier text lookup recorded for exactly this `(text, strategy)`, or
/// `None`. It compares strategy, then length, then bytes, and neither
/// parses nor closes anything, so it holds the table's lock only for the
/// scan: `tpq serve` calls it on its reactor thread.
pub fn probe_engine_text(text: &str, strategy: Strategy) -> Option<Arc<BatchMinimizer>> {
    let mut entries = engine_cache().lock().expect("engine cache poisoned");
    let pos =
        entries.iter().position(|e| e.strategy == strategy && e.text.as_deref() == Some(text))?;
    entries[..=pos].rotate_right(1);
    tpq_obs::incr("engine.cache.hit", 1);
    Some(Arc::clone(&entries[0].engine))
}

/// [`shared_engine`] keyed by the raw constraint text: the engine for
/// `(parse(text), strategy)`, where a text the table has seen skips both
/// the parse and the set probe.
///
/// The text probe is [`probe_engine_text`]. On a miss, `parse` turns the
/// text into a set, the set probe runs as in [`shared_engine`], and the
/// text is recorded on the entry found, so two spellings of one set still
/// share one engine (each entry remembers the spelling that reached it
/// last). Parse errors come back unrecorded. Neither `parse` nor a
/// closure runs under the table's lock, so a caller can hold its
/// interner for the parse alone.
///
/// `parse` must parse under the one interner every caller of this
/// function uses — see the interner discipline on [`shared_engine`].
///
/// ```
/// use std::sync::Arc;
/// use tpq_base::TypeInterner;
/// use tpq_constraints::parse_constraints;
/// use tpq_core::{probe_engine_text, shared_engine_for_text, Strategy};
///
/// let mut tys = TypeInterner::new();
/// let mut lookup = |text: &str| {
///     shared_engine_for_text(text, Strategy::default(), |t| parse_constraints(t, &mut tys))
///         .unwrap()
/// };
/// let (a, b, c) = (lookup("Pot -> Lid"), lookup("Pot -> Lid"), lookup("Pot  ->  Lid"));
/// assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a, &c), "one set, one engine");
/// assert!(probe_engine_text("Pot  ->  Lid", Strategy::default()).is_some());
/// ```
pub fn shared_engine_for_text(
    text: &str,
    strategy: Strategy,
    parse: impl FnOnce(&str) -> Result<ConstraintSet>,
) -> Result<Arc<BatchMinimizer>> {
    if let Some(engine) = probe_engine_text(text, strategy) {
        return Ok(engine);
    }
    let ics = parse(text)?;
    Ok(lookup_set(&ics, strategy, Some(text)))
}

/// The set probe behind both lookups: the engine for `(ics, strategy)`,
/// left at the LRU front and built on a miss, with `text` (when given)
/// recorded on its entry. Only a set no entry holds is closed; a set
/// already closed under another strategy lends its closed set. The
/// closure runs outside the table's lock, so a probe never waits for
/// one; two callers that miss on one set at once may both close it, and
/// the first to insert wins.
fn lookup_set(ics: &ConstraintSet, strategy: Strategy, text: Option<&str>) -> Arc<BatchMinimizer> {
    let closed = {
        let mut entries = engine_cache().lock().expect("engine cache poisoned");
        if let Some(pos) = entries.iter().position(|e| e.strategy == strategy && e.ics == *ics) {
            tpq_obs::incr("engine.cache.hit", 1);
            return front(&mut entries, pos, text);
        }
        entries.iter().find(|e| e.ics == *ics).map(|e| e.engine.constraints().clone())
    };
    let engine = match closed {
        Some(closed) => BatchMinimizer::from_parts(closed, strategy),
        None => {
            tpq_obs::incr("engine.recomputed", 1);
            BatchMinimizer::with_strategy(ics, strategy)
        }
    };
    let mut entries = engine_cache().lock().expect("engine cache poisoned");
    if let Some(pos) = entries.iter().position(|e| e.strategy == strategy && e.ics == *ics) {
        return front(&mut entries, pos, text);
    }
    let entry = EngineEntry { ics: ics.clone(), strategy, text: None, engine: Arc::new(engine) };
    entries.insert(0, entry);
    entries.truncate(ENGINE_CACHE_CAPACITY);
    front(&mut entries, 0, text)
}

/// Move entry `pos` to the LRU front, record `text` on it (when given)
/// and return its engine.
fn front(entries: &mut EngineCache, pos: usize, text: Option<&str>) -> Arc<BatchMinimizer> {
    entries[..=pos].rotate_right(1);
    if let Some(text) = text {
        entries[0].text = Some(text.into());
    }
    Arc::clone(&entries[0].engine)
}

/// The process-wide engine LRU behind [`shared_engine`].
fn engine_cache() -> &'static Mutex<EngineCache> {
    static CACHE: OnceLock<Mutex<EngineCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Snapshot the process-wide [`shared_engine`] LRU as
/// `(original_set, strategy, engine)` triples in LRU order (most recently
/// used first). The serialization half of warm-restart snapshots.
pub fn export_engines() -> Vec<(ConstraintSet, Strategy, Arc<BatchMinimizer>)> {
    let entries = engine_cache().lock().expect("engine cache poisoned");
    entries.iter().map(|e| (e.ics.clone(), e.strategy, Arc::clone(&e.engine))).collect()
}

/// Seed the process-wide [`shared_engine`] LRU with a rebuilt engine,
/// keyed by the **original** (unclosed) constraint set — the same key a
/// later `shared_engine(&ics, strategy)` probe will present. Replaces any
/// existing entry with the same key; inserted at the LRU front, and the
/// capacity bound still applies. The entry remembers no constraint text:
/// the first [`shared_engine_for_text`] lookup to reach it parses once.
pub fn seed_engine(ics: ConstraintSet, strategy: Strategy, engine: Arc<BatchMinimizer>) {
    let mut entries = engine_cache().lock().expect("engine cache poisoned");
    entries.retain(|e| !(e.strategy == strategy && e.ics == ics));
    entries.insert(0, EngineEntry { ics, strategy, text: None, engine });
    entries.truncate(ENGINE_CACHE_CAPACITY);
}

/// The query-text fronts of every engine in the process-wide
/// [`shared_engine`] LRU, summed as `(entries, bytes)`.
pub fn shared_front_usage() -> (usize, usize) {
    let entries = engine_cache().lock().expect("engine cache poisoned");
    entries.iter().map(|e| e.engine.front_usage()).fold((0, 0), |(n, b), (en, eb)| (n + en, b + eb))
}

/// Empty the process-wide [`shared_engine`] LRU, which also holds the
/// closed sets the one-shot [`crate::minimize_with`] uses (existing
/// [`Arc`] holders keep their engines; only the cache forgets them, and
/// an engine nobody else holds goes with its memo and front). This
/// is what a true cold start looks like; the warm-restart benchmarks and
/// tests call it between server lifetimes so that in-process "restarts"
/// measure the snapshot, not leftover process state.
pub fn clear_shared_caches() {
    engine_cache().lock().expect("engine cache poisoned").clear();
}

/// Tests that empty or flood the process-wide engine table, and tests
/// that need an entry to stay in it between two lookups, hold this lock.
#[cfg(test)]
pub(crate) fn engine_table_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::{failpoint, Error, TypeInterner};
    use tpq_constraints::parse_constraints;
    use tpq_pattern::{isomorphic, parse_pattern};

    fn setup() -> (BatchMinimizer, Vec<TreePattern>, TypeInterner) {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("Article -> Title\nSection ->> Paragraph", &mut tys).unwrap();
        let queries: Vec<TreePattern> = [
            "Articles/Article*[/Title]//Section//Paragraph",
            "Article*[/Title]",
            "Article*//Section",
            "Section*//Paragraph",
            "Articles/Article*[/Title]//Section//Paragraph", // exact repeat
        ]
        .iter()
        .map(|s| parse_pattern(s, &mut tys).unwrap())
        .collect();
        (BatchMinimizer::new(&ics), queries, tys)
    }

    /// One uncached run of `q` under the engine's closed set and strategy.
    fn fresh(engine: &BatchMinimizer, q: &TreePattern) -> TreePattern {
        minimize_closed_guarded(q, engine.constraints(), engine.strategy(), &Guard::unlimited())
            .unwrap()
            .pattern
    }

    /// One query through the memo.
    fn cached(engine: &BatchMinimizer, q: &TreePattern) -> Arc<TreePattern> {
        engine.minimize_cached_guarded(q, &Guard::unlimited()).unwrap().pattern
    }

    #[test]
    fn batch_matches_sequential_session() {
        let (engine, queries, _) = setup();
        for jobs in [1, 2, 4] {
            let out = engine.minimize_batch(&queries, jobs);
            assert_eq!(out.patterns.len(), queries.len());
            for (q, m) in queries.iter().zip(&out.patterns) {
                let want = fresh(&engine, q);
                assert!(isomorphic(m, &want), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn duplicates_fold_into_one_computation() {
        let (engine, queries, _) = setup();
        let out = engine.minimize_batch(&queries, 2);
        assert_eq!(out.stats.queries, 5);
        assert_eq!(out.stats.unique, 4, "the repeated query folds");
        assert_eq!(out.stats.cache_hits, 1);
        assert_eq!(out.stats.cache_misses, 4);
        assert!(isomorphic(&out.patterns[0], &out.patterns[4]));
    }

    #[test]
    fn cache_persists_across_batches() {
        let (engine, queries, _) = setup();
        let first = engine.minimize_batch(&queries, 2);
        assert_eq!(engine.cache_len(), 4);
        let second = engine.minimize_batch(&queries, 2);
        assert_eq!(second.stats.cache_hits, 5, "everything warm");
        assert_eq!(second.stats.cache_misses, 0);
        assert_eq!(second.stats.unique, 0);
        for (a, b) in first.patterns.iter().zip(&second.patterns) {
            assert_eq!(a, b, "warm results identical, not merely isomorphic");
        }
        engine.clear_cache();
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn isomorphic_queries_share_a_cache_entry() {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("a -> b", &mut tys).unwrap();
        let engine = BatchMinimizer::new(&ics);
        let q1 = parse_pattern("a*[/b][/c]", &mut tys).unwrap();
        let q2 = parse_pattern("a*[/c][/b]", &mut tys).unwrap(); // sibling order flipped
        let out = engine.minimize_batch(&[q1, q2], 2);
        assert_eq!(out.stats.unique, 1);
        assert_eq!(out.patterns[0], out.patterns[1]);
        assert_eq!(out.patterns[0].size(), 2, "a -> b makes /b redundant");
    }

    #[test]
    fn single_query_path_uses_the_cache() {
        let (engine, queries, _) = setup();
        let a = cached(&engine, &queries[0]);
        assert_eq!(engine.cache_len(), 1);
        let b = cached(&engine, &queries[4]);
        assert_eq!(engine.cache_len(), 1, "isomorphic repeat hits");
        assert_eq!(a, b);
    }

    #[test]
    fn output_independent_of_jobs() {
        let (engine, queries, _) = setup();
        let baseline = engine.minimize_batch(&queries, 1);
        for jobs in 2..=8 {
            let engine2 = {
                let mut tys = TypeInterner::new();
                let ics =
                    parse_constraints("Article -> Title\nSection ->> Paragraph", &mut tys).unwrap();
                BatchMinimizer::new(&ics)
            };
            let out = engine2.minimize_batch(&queries, jobs);
            assert_eq!(out.patterns, baseline.patterns, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_batch() {
        let (engine, _, _) = setup();
        let out = engine.minimize_batch(&[], 4);
        assert!(out.patterns.is_empty());
        assert_eq!(out.stats.unique, 0);
        assert_eq!(out.stats.cache_hits, 0);
        assert_eq!(out.stats.cache_hit_rate(), 0.0, "empty batch has no rate");
    }

    #[test]
    fn batch_stats_serialize_machine_readably() {
        use tpq_base::Json;
        let (engine, queries, _) = setup();
        let out = engine.minimize_batch(&queries, 2);
        let json = out.stats.to_json();
        assert_eq!(json.get("queries").and_then(Json::as_i64), Some(5));
        assert_eq!(json.get("unique").and_then(Json::as_i64), Some(4));
        assert_eq!(json.get("cache_hits").and_then(Json::as_i64), Some(1));
        let rate = json.get("cache_hit_rate").and_then(Json::as_f64).unwrap();
        assert!((rate - 0.2).abs() < 1e-9, "1 hit of 5 → 0.2, got {rate}");
        assert!(json.get("wall_micros").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(json.get("minimize").is_some(), "embeds the MinimizeStats record");
        // The snapshot round-trips through the JSON writer and parser.
        let text = json.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), json);
    }

    #[test]
    fn cancelled_guard_fails_uncached_queries_but_serves_warm_hits() {
        let (engine, queries, _) = setup();
        let warm = cached(&engine, &queries[0]);
        let guard = Guard::cancellable();
        guard.cancel();
        let out = engine.minimize_batch_guarded(&queries, 2, &guard);
        assert_eq!(out.results.len(), queries.len());
        // Slot 0 and its exact repeat in slot 4 come out of the memo
        // cache, untouched by the dead guard.
        assert_eq!(out.results[0].as_ref().unwrap(), &warm);
        assert_eq!(out.results[4].as_ref().unwrap(), &warm);
        for i in [1, 2, 3] {
            let err = out.results[i].as_ref().unwrap_err();
            assert!(err.is_budget(), "slot {i}: {err}");
        }
        assert_eq!(out.stats.failed, 3);
        // Failures were not memoized.
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn expired_deadline_yields_per_query_deadline_errors() {
        let (engine, queries, _) = setup();
        let guard = Guard::with_deadline_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        let out = engine.minimize_batch_guarded(&queries, 2, &guard);
        for (i, r) in out.results.iter().enumerate() {
            assert!(
                matches!(
                    r,
                    Err(Error::Budget { resource: tpq_base::BudgetResource::Deadline, .. })
                ),
                "slot {i}: {r:?}"
            );
        }
        // The in-batch duplicate shares its representative's error.
        assert_eq!(out.results[0], out.results[4]);
        assert_eq!(out.stats.failed, 5);
        assert_eq!(out.stats.unique, 4);
        assert_eq!(engine.cache_len(), 0, "nothing memoized from a dead batch");
    }

    #[test]
    fn injected_task_panic_stays_in_its_slot() {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("a -> b", &mut tys).unwrap();
        let engine = BatchMinimizer::new(&ics);
        let queries: Vec<TreePattern> = ["a*[/b]", "b*[/c]", "c*[/d]"]
            .iter()
            .map(|s| parse_pattern(s, &mut tys).unwrap())
            .collect();
        // jobs=1 keeps the fan-out inline on this thread, so the
        // thread-scoped arming is deterministic under parallel tests.
        let _fp = failpoint::arm_for_thread("pool.task", failpoint::Action::Panic, 2);
        let out = engine.minimize_batch_guarded(&queries, 1, &Guard::unlimited());
        assert!(out.results[0].is_ok());
        assert!(out.results[2].is_ok(), "tasks after the panic still complete");
        match &out.results[1] {
            Err(Error::WorkerPanic { message }) => {
                assert!(message.contains("pool.task"), "{message}")
            }
            other => panic!("expected a captured panic, got {other:?}"),
        }
        assert_eq!(out.stats.panics, 1);
        assert_eq!(out.stats.failed, 1);
        // The poisoned slot was not memoized; the survivors were.
        assert_eq!(engine.cache_len(), 2);
    }

    #[test]
    fn guarded_single_query_serves_cache_hits_past_a_dead_guard() {
        let (engine, queries, _) = setup();
        let guard = Guard::cancellable();
        guard.cancel();
        assert!(engine.minimize_cached_guarded(&queries[0], &guard).is_err());
        assert_eq!(engine.cache_len(), 0, "the failure was not memoized");
        let warm = cached(&engine, &queries[0]);
        // A cache hit costs no budget, so even the dead guard serves it.
        assert_eq!(engine.minimize_cached_guarded(&queries[0], &guard).unwrap().pattern, warm);
    }

    #[test]
    fn cached_outcome_reports_provenance() {
        let (engine, queries, _) = setup();
        let guard = Guard::unlimited();
        let cold = engine.minimize_cached_guarded(&queries[0], &guard).unwrap();
        assert!(!cold.cache_hit);
        assert!(cold.stats.redundancy_tests > 0 || cold.stats.total_removed() > 0);
        let warm = engine.minimize_cached_guarded(&queries[0], &guard).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.pattern, cold.pattern);
        assert_eq!(warm.stats.total_removed(), 0, "hits report zero work");
    }

    #[test]
    fn shared_engine_reuses_one_engine_per_key() {
        let _table = engine_table_lock();
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("Zebra -> Stripe", &mut tys).unwrap();
        let a = shared_engine(&ics, Strategy::CdmThenAcim);
        let b = shared_engine(&ics, Strategy::CdmThenAcim);
        assert!(Arc::ptr_eq(&a, &b), "same set + strategy share an engine");
        let c = shared_engine(&ics, Strategy::CimOnly);
        assert!(!Arc::ptr_eq(&a, &c), "strategy is part of the key");
        // The shared engine's memo cache persists across lookups.
        let q = parse_pattern("Zebra*[/Stripe][/Tail]", &mut tys).unwrap();
        let first = a.minimize_cached_guarded(&q, &Guard::unlimited()).unwrap();
        assert!(!first.cache_hit);
        let again = shared_engine(&ics, Strategy::CdmThenAcim)
            .minimize_cached_guarded(&q, &Guard::unlimited())
            .unwrap();
        assert!(again.cache_hit, "memo survives via the engine cache");
        assert_eq!(again.pattern, first.pattern);
    }

    #[test]
    fn text_lookup_parses_each_text_once_and_spellings_share_an_engine() {
        let _table = engine_table_lock();
        let mut tys = TypeInterner::new();
        let mut lookup = |text: &str, strategy| {
            shared_engine_for_text(text, strategy, |t| parse_constraints(t, &mut tys))
        };
        let text = "Kettle -> Spout\nKettle ->> Handle";
        assert!(probe_engine_text(text, Strategy::CdmThenAcim).is_none(), "not seen yet");
        let first = lookup(text, Strategy::CdmThenAcim).unwrap();
        let probed = probe_engine_text(text, Strategy::CdmThenAcim).expect("text recorded");
        assert!(Arc::ptr_eq(&first, &probed));
        // The shared-engine lookups parse on the calling thread, so a
        // thread-scoped failpoint sees every parse this test makes.
        let fp = failpoint::arm_for_thread("parse.constraints", failpoint::Action::Err, 1);
        let again =
            lookup(text, Strategy::CdmThenAcim).expect("a text seen before is not parsed again");
        assert!(Arc::ptr_eq(&first, &again));
        drop(fp);
        // Another spelling of the same set parses, then finds the engine.
        let respelled =
            lookup("Kettle ->> Handle\nKettle -> Spout", Strategy::CdmThenAcim).unwrap();
        assert!(Arc::ptr_eq(&first, &respelled), "one set, one engine");
        // The strategy is part of the text key too.
        assert!(probe_engine_text(text, Strategy::CimOnly).is_none());
        let cim = lookup(text, Strategy::CimOnly).unwrap();
        assert!(!Arc::ptr_eq(&first, &cim));
        assert_eq!(cim.strategy(), Strategy::CimOnly);
        assert_eq!(cim.constraints(), first.constraints(), "the closed set is shared");
        // A text that does not parse is an error, and is not remembered.
        for _ in 0..2 {
            assert!(lookup("Kettle ->", Strategy::CdmThenAcim).is_err());
            assert!(probe_engine_text("Kettle ->", Strategy::CdmThenAcim).is_none());
        }
        // The set lookup reaches the same engine as the text lookups.
        let ics = parse_constraints(text, &mut tys).unwrap();
        assert!(Arc::ptr_eq(&first, &shared_engine(&ics, Strategy::CdmThenAcim)));
    }

    fn answer(minimized: &str) -> FrontAnswer {
        FrontAnswer { minimized: minimized.into(), input_nodes: 3, output_nodes: 2 }
    }

    #[test]
    fn the_front_answers_verbatim_texts_per_syntax() {
        let (engine, _, _) = setup();
        assert_eq!(engine.front_probe(Syntax::Dsl, "Article*[/Title]"), None);
        engine.front_insert(Syntax::Dsl, "Article*[/Title]", answer("Article*"));
        assert_eq!(engine.front_probe(Syntax::Dsl, "Article*[/Title]"), Some(answer("Article*")));
        // The key is the verbatim text in its syntax: no re-spelling and
        // no other syntax shares it.
        assert_eq!(engine.front_probe(Syntax::Dsl, "Article*[ /Title]"), None);
        assert_eq!(engine.front_probe(Syntax::Xpath, "Article*[/Title]"), None);
        // A text keeps its first answer, and is counted once.
        engine.front_insert(Syntax::Dsl, "Article*[/Title]", answer("Other"));
        assert_eq!(engine.front_probe(Syntax::Dsl, "Article*[/Title]"), Some(answer("Article*")));
        let (entries, bytes) = engine.front_usage();
        assert_eq!(entries, 1);
        assert_eq!(bytes, Front::cost("Article*[/Title]", &answer("Article*")));
        // Clearing the memo clears the front with it.
        engine.clear_cache();
        assert_eq!(engine.front_usage(), (0, 0));
        assert_eq!(engine.front_probe(Syntax::Dsl, "Article*[/Title]"), None);
    }

    #[test]
    fn the_front_stays_within_its_bounds() {
        let (engine, _, _) = setup();
        for i in 0..FRONT_MAX_ENTRIES + 10 {
            engine.front_insert(Syntax::Dsl, &format!("Q{i}*"), answer("Q*"));
            let (entries, bytes) = engine.front_usage();
            assert!(entries <= FRONT_MAX_ENTRIES && bytes <= FRONT_MAX_BYTES, "{i}");
        }
        // The entry cap was reached, so the front started over.
        assert_eq!(engine.front_usage().0, 10);
        assert_eq!(engine.front_probe(Syntax::Dsl, "Q0*"), None);
        assert!(engine.front_probe(Syntax::Dsl, &format!("Q{}*", FRONT_MAX_ENTRIES + 9)).is_some());
        // Long texts reach the byte cap first.
        engine.clear_cache();
        let long = "L".repeat(FRONT_MAX_BYTES / 8);
        for i in 0..20 {
            engine.front_insert(Syntax::Xpath, &format!("{long}{i}"), answer("L*"));
            let (entries, bytes) = engine.front_usage();
            assert!(entries <= 8 && bytes <= FRONT_MAX_BYTES, "{i}: {entries} {bytes}");
        }
        // A text larger than the whole budget is never kept.
        engine.clear_cache();
        engine.front_insert(Syntax::Dsl, &"H".repeat(FRONT_MAX_BYTES), answer("H*"));
        assert_eq!(engine.front_usage(), (0, 0));
    }

    #[test]
    fn clear_shared_caches_and_engine_eviction_drop_the_front() {
        let _table = engine_table_lock();
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("Lantern -> Wick", &mut tys).unwrap();
        let filled = || {
            let engine = shared_engine(&ics, Strategy::CdmThenAcim);
            assert_eq!(engine.front_usage(), (0, 0), "a new engine starts with an empty front");
            engine.front_insert(Syntax::Dsl, "Lantern*[/Wick]", answer("Lantern*"));
            let again = shared_engine(&ics, Strategy::CdmThenAcim);
            assert!(again.front_probe(Syntax::Dsl, "Lantern*[/Wick]").is_some());
            assert!(shared_front_usage().0 >= 1, "the table's fronts include it");
            Arc::downgrade(&engine)
        };

        let weak = filled();
        clear_shared_caches();
        assert!(weak.upgrade().is_none(), "the cleared table dropped the engine and its front");

        let weak = filled();
        for i in 0..ENGINE_CACHE_CAPACITY {
            let other = parse_constraints(&format!("Lantern -> Glass{i}"), &mut tys).unwrap();
            shared_engine(&other, Strategy::CdmThenAcim);
        }
        assert!(weak.upgrade().is_none(), "the evicted engine went with its front");
        assert_eq!(shared_engine(&ics, Strategy::CdmThenAcim).front_usage(), (0, 0));
    }

    #[test]
    fn every_strategy_is_supported() {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("a -> b", &mut tys).unwrap();
        let q = parse_pattern("a*[/b][/c]", &mut tys).unwrap();
        for strategy in
            [Strategy::CimOnly, Strategy::AcimOnly, Strategy::CdmOnly, Strategy::CdmThenAcim]
        {
            let engine = BatchMinimizer::with_strategy(&ics, strategy);
            let out = engine.minimize_batch(std::slice::from_ref(&q), 2);
            let want = fresh(&engine, &q);
            assert!(isomorphic(&out.patterns[0], &want), "{strategy:?}");
        }
    }

    #[test]
    fn session_constraints_are_closed() {
        let mut tys = TypeInterner::new();
        let ics = parse_constraints("a -> b\nb -> c", &mut tys).unwrap();
        let engine = BatchMinimizer::new(&ics);
        let (a, c) = (tys.lookup("a").unwrap(), tys.lookup("c").unwrap());
        assert!(engine.constraints().has_required_descendant(a, c));
    }
}
