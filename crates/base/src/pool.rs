//! Thread pools: a scoped work-stealing batch pool and a persistent
//! [`TaskPool`] for services.
//!
//! Built on `std::thread::scope` only — the workspace builds offline with
//! no external dependencies. The unit of work is an *index range* over a
//! shared slice: each worker starts with an even share of the input and,
//! when its own range drains, steals the upper half of the largest
//! remaining range from another worker. Range splitting keeps the
//! scheduler tiny (one `Mutex<Range>` per worker, locked only to take the
//! next index or to be robbed) while still balancing skewed workloads.
//!
//! Results come back **in input order** regardless of which worker ran
//! which item, so callers get deterministic output for free.
//!
//! Tasks are *isolated*: every task runs under `catch_unwind`, so one
//! panicking item becomes an [`Error::WorkerPanic`] entry in the result
//! of [`scoped_map`] while the remaining items complete — the pool, and
//! the process, survive.
//!
//! For workloads that outlive any single batch — the `tpq-serve` request
//! loop — [`TaskPool`] keeps a fixed set of workers alive and executes
//! one job at a time per worker. Both pools isolate panics with the one
//! [`shielded`] runner.
//!
//! ```
//! let (squares, stats) = tpq_base::pool::scoped_map(4, &[1u64, 2, 3, 4, 5], |ctx, &x| {
//!     assert!(ctx.worker < 4);
//!     Ok(x * x)
//! });
//! let squares: Vec<u64> = squares.into_iter().map(Result::unwrap).collect();
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! assert_eq!(stats.executed.iter().sum::<u64>(), 5);
//! ```

use crate::error::{Error, Result};
use crate::failpoint;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a unit of work ran: handed to the mapped closure so callers can
/// attribute metrics (latency histograms, counters) per worker.
#[derive(Debug, Clone, Copy)]
pub struct TaskCtx {
    /// Worker index in `0..jobs`.
    pub worker: usize,
    /// Index of the item in the input slice.
    pub index: usize,
}

/// Scheduler measurements for one [`scoped_map`] run.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Number of worker threads that ran (1 means the inline fast path).
    pub workers: usize,
    /// Successful steals (a worker took half of another worker's range).
    pub steals: u64,
    /// Items executed per worker, indexed by worker id.
    pub executed: Vec<u64>,
    /// Wall time each worker spent inside the mapped closure.
    pub busy: Vec<Duration>,
    /// Wall time of the whole map, including scheduling.
    pub wall: Duration,
    /// Tasks whose panic was captured and turned into an error entry.
    pub panics: u64,
}

/// A half-open index range `[next, end)` owned by one worker.
struct Range {
    next: usize,
    end: usize,
}

impl Range {
    fn remaining(&self) -> usize {
        self.end.saturating_sub(self.next)
    }
}

/// Render a panic payload as text (best effort).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Run one unit of pool work behind the `pool.task` failpoint and a panic
/// shield: a panic in `f` (or an injected one) comes back as
/// [`Error::WorkerPanic`] instead of unwinding the caller. The scoped
/// maps run every item through this, and `tpq-serve` runs the first half
/// of every admitted request through it (on its reactor thread or a
/// [`TaskPool`] worker).
///
/// ```
/// use tpq_base::{pool::shielded, Error};
///
/// assert_eq!(shielded(|| Ok(3 * 3)).unwrap(), 9);
/// let boom: tpq_base::Result<()> = shielded(|| panic!("bad input"));
/// assert!(matches!(boom, Err(Error::WorkerPanic { .. })));
/// ```
pub fn shielded<R>(f: impl FnOnce() -> Result<R>) -> Result<R> {
    // The failpoint fires inside the shield so an injected panic is
    // captured exactly like one from the task itself.
    catch_panic(|| {
        failpoint::hit("pool.task")?;
        f()
    })
}

/// [`shielded`] without the `pool.task` failpoint: the panic shield for
/// the rest of a unit of work whose first part already passed the
/// failpoint, so that the unit meets it exactly once. `tpq-serve` runs the
/// second half of a memo miss its reactor prepared through this.
pub fn catch_panic<R>(f: impl FnOnce() -> Result<R>) -> Result<R> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(Error::WorkerPanic { message: panic_message(payload) }),
    }
}

/// Map `f` over `items` on up to `jobs` threads, returning the results in
/// input order together with scheduler statistics.
///
/// `jobs` is clamped to `1..=items.len()`; `jobs <= 1` (or a single item)
/// runs inline on the calling thread with no scheduling overhead, so the
/// function is safe to call unconditionally on small inputs.
///
/// Tasks are isolated: the mapped closure is fallible, every call runs
/// under `catch_unwind`, and each item yields `Ok(R)` or the `Err` that
/// stopped it — a panicking or erroring item never disturbs the others.
/// `stats.panics` counts captured panics.
pub fn scoped_map<T, R, F>(jobs: usize, items: &[T], f: F) -> (Vec<Result<R>>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(TaskCtx, &T) -> Result<R> + Sync,
{
    let t0 = Instant::now();
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        let mut results = Vec::with_capacity(items.len());
        let busy0 = Instant::now();
        for (index, item) in items.iter().enumerate() {
            results.push(shielded(|| f(TaskCtx { worker: 0, index }, item)));
        }
        let panics = count_panics(&results);
        let stats = PoolStats {
            workers: 1,
            steals: 0,
            executed: vec![items.len() as u64],
            busy: vec![busy0.elapsed()],
            wall: t0.elapsed(),
            panics,
        };
        return (results, stats);
    }

    // Even initial partition: worker w owns [w*chunk.., ..] with the
    // remainder spread over the first `extra` workers.
    let chunk = items.len() / jobs;
    let extra = items.len() % jobs;
    let mut start = 0usize;
    let queues: Vec<Mutex<Range>> = (0..jobs)
        .map(|w| {
            let len = chunk + usize::from(w < extra);
            let r = Range { next: start, end: start + len };
            start += len;
            Mutex::new(r)
        })
        .collect();

    struct WorkerOut<R> {
        results: Vec<(usize, Result<R>)>,
        executed: u64,
        steals: u64,
        busy: Duration,
    }

    let outputs: Vec<std::thread::Result<WorkerOut<R>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let queues = &queues;
                let f = &f;
                scope.spawn(move || {
                    let mut out = WorkerOut {
                        results: Vec::new(),
                        executed: 0,
                        steals: 0,
                        busy: Duration::ZERO,
                    };
                    loop {
                        let index = {
                            let mut own = queues[w].lock().expect("pool queue poisoned");
                            if own.next < own.end {
                                let i = own.next;
                                own.next += 1;
                                Some(i)
                            } else {
                                None
                            }
                        };
                        let index = match index {
                            Some(i) => i,
                            None => match steal(queues, w) {
                                Some(i) => {
                                    out.steals += 1;
                                    i
                                }
                                None => break,
                            },
                        };
                        let t = Instant::now();
                        let r = shielded(|| f(TaskCtx { worker: w, index }, &items[index]));
                        out.busy += t.elapsed();
                        out.executed += 1;
                        out.results.push((index, r));
                    }
                    out
                })
            })
            .collect();
        // join() only fails if a worker died outside the per-task shield
        // (a scheduler bug). Collect the failure instead of asserting so
        // the surviving workers' results still reach the caller.
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut stats = PoolStats {
        workers: jobs,
        steals: 0,
        executed: vec![0; jobs],
        busy: vec![Duration::ZERO; jobs],
        wall: Duration::ZERO,
        panics: 0,
    };
    let mut slots: Vec<Option<Result<R>>> = (0..items.len()).map(|_| None).collect();
    let mut worker_loss: Option<String> = None;
    for (w, out) in outputs.into_iter().enumerate() {
        match out {
            Ok(out) => {
                stats.steals += out.steals;
                stats.executed[w] = out.executed;
                stats.busy[w] = out.busy;
                for (i, r) in out.results {
                    slots[i] = Some(r);
                }
            }
            Err(payload) => {
                worker_loss = Some(panic_message(payload));
            }
        }
    }
    // Items lost to a dead worker (or never scheduled because its range
    // died with it) degrade to error entries rather than a process abort.
    let loss = worker_loss.unwrap_or_else(|| "pool worker died".to_owned());
    let results: Vec<Result<R>> = slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(Error::WorkerPanic { message: loss.clone() })))
        .collect();
    stats.panics = count_panics(&results);
    stats.wall = t0.elapsed();
    (results, stats)
}

fn count_panics<R>(results: &[Result<R>]) -> u64 {
    results.iter().filter(|r| matches!(r, Err(Error::WorkerPanic { .. }))).count() as u64
}

/// Rob the victim with the most remaining work: take one index now and
/// move the upper half of the rest into the thief's own queue.
fn steal(queues: &[Mutex<Range>], thief: usize) -> Option<usize> {
    loop {
        // Pick the victim with the largest remaining range (snapshot; the
        // range may shrink before we lock it again, so re-check under the
        // lock and retry while any queue looks non-empty).
        let victim = queues
            .iter()
            .enumerate()
            .filter(|&(w, _)| w != thief)
            .map(|(w, q)| (w, q.lock().expect("pool queue poisoned").remaining()))
            .max_by_key(|&(_, len)| len)
            .filter(|&(_, len)| len > 0)?
            .0;
        let mut v = queues[victim].lock().expect("pool queue poisoned");
        if v.next >= v.end {
            continue; // drained between snapshot and lock; rescan
        }
        let index = v.next;
        v.next += 1;
        let mid = v.next + v.remaining() / 2;
        let tail = Range { next: mid, end: v.end };
        v.end = mid;
        drop(v);
        if tail.remaining() > 0 {
            *queues[thief].lock().expect("pool queue poisoned") = tail;
        }
        return Some(index);
    }
}

// ------------------------------------------------------------ TaskPool

/// A boxed unit of work queued on a [`TaskPool`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent worker pool for long-running services.
///
/// [`scoped_map`] fans one batch out and tears its threads down; a server
/// needs threads that outlive any single request. A [`TaskPool`] spawns
/// its workers once and feeds them jobs over a channel;
/// [`TaskPool::spawn`] queues a job and returns at once, so callers
/// collect results through their own channel. A job that wants its panic
/// reported runs its work through [`shielded`]; a panic that escapes a
/// job anyway is caught and dropped, so the worker thread — and every
/// other queued job — carries on.
///
/// [`TaskPool::shutdown`] (also invoked on drop) closes the queue and
/// joins the workers; jobs already queued are drained first, so a
/// graceful server shutdown never abandons an accepted request.
///
/// ```
/// use std::sync::mpsc;
/// use tpq_base::pool::{shielded, TaskPool};
///
/// let pool = TaskPool::new(2);
/// let (tx, rx) = mpsc::channel();
/// for x in [3, 4] {
///     let tx = tx.clone();
///     pool.spawn(move || tx.send(shielded(|| Ok(x * x))).unwrap()).unwrap();
/// }
/// let mut squares: Vec<i32> = rx.iter().take(2).map(|r| r.unwrap()).collect();
/// squares.sort_unstable();
/// assert_eq!(squares, [9, 16]);
/// pool.shutdown();
/// assert!(pool.spawn(|| {}).is_err(), "a shut-down pool takes no jobs");
/// ```
#[derive(Debug)]
pub struct TaskPool {
    sender: Mutex<Option<mpsc::Sender<Job>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    executed: Arc<AtomicU64>,
    size: usize,
}

impl TaskPool {
    /// Spawn a pool of `jobs.max(1)` worker threads, idle until fed.
    pub fn new(jobs: usize) -> TaskPool {
        let size = jobs.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|w| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("tpq-pool-{w}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while dequeuing, so
                        // workers execute concurrently.
                        let job = match receiver.lock() {
                            Ok(rx) => rx.recv(),
                            Err(_) => break, // poisoned: a worker died mid-recv
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // queue closed and drained
                        }
                    })
                    .expect("spawning a pool worker thread")
            })
            .collect();
        TaskPool {
            sender: Mutex::new(Some(sender)),
            workers: Mutex::new(workers),
            executed: Arc::new(AtomicU64::new(0)),
            size,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Jobs completed so far, across all workers.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Submit `f` to the pool and return immediately, without waiting
    /// for a worker to pick it up. Callers (the `tpq-serve` reactor)
    /// collect results through their own completion channel.
    ///
    /// A panic that escapes `f` is caught so it can never kill the worker
    /// thread, but its payload has nowhere to go and is dropped, and the
    /// `pool.task` failpoint is *not* hit here: a caller that wants
    /// per-job fault injection and error reporting runs its work through
    /// [`shielded`] inside `f`, where it can route the outcome to its own
    /// channel. Fails fast once the queue is closed.
    pub fn spawn<F>(&self, f: F) -> Result<()>
    where
        F: FnOnce() + Send + 'static,
    {
        let executed = Arc::clone(&self.executed);
        let job: Job = Box::new(move || {
            let _ = std::panic::catch_unwind(AssertUnwindSafe(f));
            executed.fetch_add(1, Ordering::Relaxed);
        });
        let sender = self.sender.lock().expect("task pool sender poisoned");
        match sender.as_ref() {
            Some(sender) => sender.send(job).map_err(|_| Error::WorkerPanic {
                message: "task pool workers are gone".to_owned(),
            }),
            None => Err(Error::WorkerPanic { message: "task pool is shut down".to_owned() }),
        }
    }

    /// Close the queue and join every worker. Jobs already queued are
    /// executed before the workers exit (mpsc delivers buffered messages
    /// after the sender drops); jobs submitted afterwards fail fast.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        drop(self.sender.lock().expect("task pool sender poisoned").take());
        let workers =
            std::mem::take(&mut *self.workers.lock().expect("task pool workers poisoned"));
        for handle in workers {
            // A worker that somehow died outside the shield has nothing
            // left to clean up; ignore its panic payload.
            let _ = handle.join();
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The values of an all-`Ok` result vector.
    fn values<R: std::fmt::Debug>(out: Vec<Result<R>>) -> Vec<R> {
        out.into_iter().map(Result::unwrap).collect()
    }

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for jobs in [1, 2, 3, 8] {
            let (out, stats) = scoped_map(jobs, &items, |_, &x| Ok(x * 2));
            assert_eq!(values(out), items.iter().map(|x| x * 2).collect::<Vec<_>>(), "jobs={jobs}");
            assert_eq!(stats.executed.iter().sum::<u64>(), 1000);
            assert_eq!(stats.workers, jobs);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<usize> = (0..257).collect();
        let (out, _) = scoped_map(4, &items, |_, &i| {
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(i)
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(values(out), items);
    }

    #[test]
    fn more_jobs_than_items_clamps() {
        let (out, stats) = scoped_map(64, &[1, 2, 3], |_, &x| Ok(x));
        assert_eq!(values(out), vec![1, 2, 3]);
        assert!(stats.workers <= 3);
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, stats) = scoped_map(4, &[] as &[u32], |_, &x| Ok(x));
        assert!(out.is_empty());
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn skewed_work_gets_stolen() {
        // One pathological item at the front of worker 0's range; the other
        // workers should drain the rest. We cannot assert steals happened
        // (timing-dependent on a loaded machine) but the results must be
        // complete and ordered.
        let items: Vec<u64> = (0..64).collect();
        let (out, stats) = scoped_map(4, &items, |_, &x| {
            if x == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(x)
        });
        assert_eq!(values(out), items);
        assert_eq!(stats.executed.iter().sum::<u64>(), 64);
        assert!(stats.busy.iter().any(|b| *b >= Duration::from_millis(20)));
    }

    #[test]
    fn worker_ids_are_in_range() {
        let items: Vec<u32> = (0..100).collect();
        let (_, stats) = scoped_map(5, &items, |ctx, &x| {
            assert!(ctx.worker < 5);
            assert_eq!(ctx.index as u32, x);
            Ok(x)
        });
        assert_eq!(stats.executed.len(), 5);
        assert_eq!(stats.busy.len(), 5);
    }

    #[test]
    fn one_panicking_task_in_eight_leaves_seven_results() {
        // The regression the `join().expect` rewrite exists for: a batch
        // of 8 with one poisoned item yields 7 results + 1 error, in
        // order, on every jobs setting.
        let items: Vec<u64> = (0..8).collect();
        for jobs in [1, 2, 4, 8] {
            let (out, stats) = scoped_map(jobs, &items, |_, &x| {
                if x == 3 {
                    panic!("poisoned item {x}");
                }
                Ok(x * 10)
            });
            assert_eq!(out.len(), 8, "jobs={jobs}");
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    match r {
                        Err(Error::WorkerPanic { message }) => {
                            assert!(message.contains("poisoned item 3"), "{message}")
                        }
                        other => panic!("jobs={jobs}: expected a panic entry, got {other:?}"),
                    }
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i as u64 * 10), "jobs={jobs}");
                }
            }
            assert_eq!(stats.panics, 1, "jobs={jobs}");
        }
    }

    #[test]
    fn pool_is_usable_after_a_panicking_batch() {
        let items: Vec<u64> = (0..8).collect();
        let (_, _) = scoped_map(4, &items, |_, &x| {
            if x % 2 == 0 {
                panic!("even");
            }
            Ok(x)
        });
        // A fresh batch on the same thread works normally.
        let (out, stats) = scoped_map(4, &items, |_, &x| Ok(x + 1));
        assert_eq!(values(out), (1..=8).collect::<Vec<_>>());
        assert_eq!(stats.panics, 0);
    }

    #[test]
    fn fallible_tasks_return_their_errors_in_place() {
        let items: Vec<u32> = (0..6).collect();
        let (out, stats) = scoped_map(3, &items, |_, &x| {
            if x == 5 {
                Err(Error::InvalidPattern("bad".into()))
            } else {
                Ok(x)
            }
        });
        assert_eq!(out[5], Err(Error::InvalidPattern("bad".into())));
        assert_eq!(out[..5].iter().filter(|r| r.is_ok()).count(), 5);
        assert_eq!(stats.panics, 0, "plain errors are not panics");
    }

    #[test]
    fn task_panics_come_back_as_entries_not_as_unwinds() {
        let caught = std::panic::catch_unwind(|| {
            scoped_map(2, &[1u32, 2, 3], |_, &x| {
                if x == 2 {
                    panic!("kaboom");
                }
                Ok(x)
            })
        });
        let (out, stats) = caught.expect("a task panic must not unwind into the caller");
        match &out[1] {
            Err(Error::WorkerPanic { message }) => assert!(message.contains("kaboom"), "{message}"),
            other => panic!("expected a captured panic, got {other:?}"),
        }
        assert_eq!((out[0].clone(), out[2].clone()), (Ok(1), Ok(3)));
        assert_eq!(stats.panics, 1);
    }

    #[test]
    fn shielded_turns_a_panic_into_an_error() {
        let boom: Result<()> = shielded(|| panic!("poisoned request"));
        match boom {
            Err(Error::WorkerPanic { message }) => {
                assert!(message.contains("poisoned"), "{message}")
            }
            other => panic!("expected a captured panic, got {other:?}"),
        }
        assert_eq!(shielded(|| Ok(7)).unwrap(), 7);
    }

    #[test]
    fn task_pool_executes_concurrently() {
        // Two jobs that each wait for the other prove that at least two
        // workers run at once (a serial pool would never release the
        // barrier, and the receive below would time out).
        let pool = TaskPool::new(2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (tx, rx) = mpsc::channel();
        for _ in 0..2 {
            let (barrier, tx) = (Arc::clone(&barrier), tx.clone());
            pool.spawn(move || tx.send(barrier.wait().is_leader()).unwrap()).unwrap();
        }
        let first = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        let second = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_ne!(first, second, "exactly one barrier waiter is the leader");
    }

    #[test]
    fn spawned_jobs_run_without_blocking_the_caller() {
        let pool = TaskPool::new(2);
        assert_eq!(pool.size(), 2);
        let (tx, rx) = mpsc::channel();
        for i in 0..10u64 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i * i).unwrap()).unwrap();
        }
        let mut results: Vec<u64> =
            (0..10).map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, (0..10u64).map(|i| i * i).collect::<Vec<_>>());
        // A worker counts its job after the job's send; only once the
        // workers are joined is the count final.
        pool.shutdown();
        assert_eq!(pool.executed(), 10);
    }

    #[test]
    fn spawned_panic_is_contained_and_the_worker_survives() {
        let pool = TaskPool::new(1);
        pool.spawn(|| panic!("spawned boom")).unwrap();
        // The single worker survived: a follow-up job still executes.
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || tx.send(5u32).unwrap()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 5);
        pool.shutdown();
        assert!(pool.spawn(|| {}).is_err(), "spawn fails fast after shutdown");
    }

    #[test]
    fn task_pool_rejects_jobs_after_shutdown() {
        let pool = TaskPool::new(2);
        pool.shutdown();
        let late = pool.spawn(|| {});
        assert!(matches!(late, Err(Error::WorkerPanic { .. })), "{late:?}");
        pool.shutdown(); // idempotent
    }

    #[test]
    fn pool_task_failpoint_injects_an_error_entry() {
        // Thread-scoped arming + jobs=1 (inline on this thread) keeps the
        // shared "pool.task" name deterministic under parallel tests.
        let _fp = crate::failpoint::arm_for_thread("pool.task", crate::failpoint::Action::Err, 2);
        let items: Vec<u32> = (0..4).collect();
        let (out, _) = scoped_map(1, &items, |_, &x| Ok(x));
        let errors: Vec<_> = out.iter().filter(|r| r.is_err()).collect();
        assert_eq!(errors.len(), 1);
        assert_eq!(out[1], Err(Error::Injected { point: "pool.task".into() }));
    }
}
