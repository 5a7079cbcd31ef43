//! # relim-pool — a persistent thread pool with one task cursor per batch (std-only)
//!
//! The round elimination engine's hot paths (the universal side of
//! `R̄(·)`, the Lemma 6 and Lemma 8 parameter sweeps, the bench grids) are
//! embarrassingly parallel at coarse granularity but with *wildly* uneven
//! task sizes: one DFS subtree or one `(a, x)` parameter point can cost
//! orders of magnitude more than its neighbours. A fixed block split
//! therefore wastes most of the hardware; this crate balances load by
//! handing out tasks one at a time instead.
//!
//! Like the `vendor/` shims, it is dependency-free by necessity (the build
//! environment has no crates.io route), so the pool is built from `std`
//! primitives only and contains no `unsafe`.
//!
//! ## Persistent worker set
//!
//! Round elimination submits one batch per `R̄` step (the DFS split at its
//! top candidate level) and one per sweep, many times per fixed-point
//! search and per served request, so spawning workers per call would make
//! the spawn cost the hot path. Instead the crate keeps one
//! **process-wide worker set**, created lazily on the first parallel batch
//! and grown on demand up to the widest pool ever requested (bounded by
//! [`MAX_WORKERS`]). Idle workers park on a condition variable; there is
//! no explicit shutdown — parked threads cost nothing and die with the
//! process.
//!
//! Work reaches the workers through a **submission queue** of batches:
//! [`Pool::map_owned`] / [`Pool::try_map_owned`] take `'static` task
//! payloads (the items and the closure are *owned* by the batch — use
//! `Arc` for shared context instead of borrows) and push one batch onto
//! the queue. Each batch carries **one atomic cursor**: participants (the
//! submitting thread plus any idle persistent workers, at most one per
//! slot of the pool's width) take the next unstarted index with
//! `fetch_add` and run it, until the cursor passes the last item. Tasks
//! therefore start in input order, and a participant stuck on a heavy
//! task never holds back unstarted work. Each finished task writes its
//! result into its own slot of the batch's result buffer (one slot per
//! item, in input order); the submitter waits on a condition variable
//! until every slot is filled.
//!
//! ## Determinism
//!
//! Each index is handed out exactly once (`fetch_add` returns every value
//! once), and task `i`'s result lands in slot `i`, so `map_owned` output
//! is **byte-identical at any thread count** — the invariant the engine's
//! differential tests enforce. Only the *schedule* is nondeterministic;
//! the result never is. How many persistent workers actually join a batch
//! (zero is possible when they are busy — the submitter always
//! participates and can drain the batch alone) affects wall-clock only,
//! never output.
//!
//! ## Panics — pinned semantics
//!
//! A panic inside a `map_owned` task is caught at the task boundary: the
//! **worker survives** (the pool is never poisoned and stays usable for
//! later batches), the batch still runs its remaining tasks, and the
//! submitter re-raises the payload of the **lowest-indexed** panicking
//! task (the first one met walking the slots) — deterministic at any
//! thread count.
//!
//! ## Nesting
//!
//! `map_owned` called from inside a pool worker (or from a task the
//! submitting thread runs while participating) executes inline and
//! sequentially (a thread-local guard detects re-entry). This lets
//! high-level sweeps shard over parameter points while the engine
//! underneath unconditionally requests parallelism for its own
//! sub-problems: whichever level reaches the pool first gets the workers,
//! and nothing oversubscribes or deadlocks.

#![forbid(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on the persistent worker set. Batches may request wider
/// pools; the shared cursor lets fewer participants drain any batch, so
/// the cap changes wall-clock only, never output.
pub const MAX_WORKERS: usize = 64;

/// A panic payload carried from a worker back to the submitting thread.
type Payload = Box<dyn Any + Send + 'static>;

thread_local! {
    /// Set while the current thread is running batch tasks; nested map
    /// calls observe it and degrade to inline sequential execution.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A handle to the shared worker set plus a *width policy* (how many
/// workers a batch is split for).
///
/// Cheap to construct and copy; the worker threads themselves are
/// process-global, created lazily by the first parallel
/// [`Pool::map_owned`] call and reused by every later batch.
///
/// # Example
///
/// ```
/// use relim_pool::Pool;
///
/// let pool = Pool::new(4);
/// let squares = pool.map_owned((1u64..=4).collect(), |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]); // input order, any thread count
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

/// Error returned by [`Pool::try_from_env`] when `RELIM_THREADS` is set
/// to something other than a positive integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsEnvError {
    raw: String,
}

impl std::fmt::Display for ThreadsEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RELIM_THREADS must be a positive integer (e.g. 4), got `{}`; \
             unset it to use available parallelism",
            self.raw
        )
    }
}

impl std::error::Error for ThreadsEnvError {}

/// Parses a `RELIM_THREADS` value: a positive integer, with surrounding
/// whitespace tolerated. `0`, empty, and non-numeric values are rejected
/// (use an unset variable, not `0`, to mean "available parallelism").
///
/// # Errors
///
/// Returns [`ThreadsEnvError`] describing the rejected value.
pub fn parse_threads(raw: &str) -> Result<usize, ThreadsEnvError> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(ThreadsEnvError { raw: raw.to_owned() }),
    }
}

impl Pool {
    /// A pool with exactly `threads` workers; `0` means
    /// [`Pool::available_parallelism`].
    pub fn new(threads: usize) -> Pool {
        if threads == 0 {
            Pool { threads: Self::available_parallelism() }
        } else {
            Pool { threads }
        }
    }

    /// The single-threaded pool: every map runs inline, no worker
    /// participates. This is the reference schedule parallel runs must
    /// match.
    pub const fn sequential() -> Pool {
        Pool { threads: 1 }
    }

    /// Reads the thread count from the `RELIM_THREADS` environment
    /// variable, falling back to [`Pool::available_parallelism`] when the
    /// variable is unset.
    ///
    /// # Errors
    ///
    /// Returns [`ThreadsEnvError`] when the variable is set but is not a
    /// positive integer (`0`, empty, non-numeric, or non-unicode) — a
    /// misconfiguration that used to be silently absorbed.
    pub fn try_from_env() -> Result<Pool, ThreadsEnvError> {
        match std::env::var("RELIM_THREADS") {
            Ok(raw) => parse_threads(&raw).map(Pool::new),
            Err(std::env::VarError::NotPresent) => Ok(Pool::new(0)),
            Err(std::env::VarError::NotUnicode(raw)) => {
                Err(ThreadsEnvError { raw: raw.to_string_lossy().into_owned() })
            }
        }
    }

    /// What the standard library reports as available parallelism
    /// (at least 1).
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    }

    /// Number of workers this pool splits batches for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every owned item on the **persistent worker set**,
    /// returning results in input order regardless of thread count or
    /// schedule.
    ///
    /// The batch owns its payload (`items` and `f` move in), which is what
    /// lets long-lived workers run it without `unsafe`: share context with
    /// the closure via `Arc`, not borrows. Runs inline (nothing submitted)
    /// when the pool is sequential, the input has at most one item, or the
    /// caller is itself running pool tasks (nested parallelism degrades
    /// rather than deadlocking).
    ///
    /// # Panics
    ///
    /// A panic in `f` is re-raised on the caller once the batch drains;
    /// with several panicking tasks, the lowest-indexed payload is the one
    /// re-raised (deterministic at any thread count). Workers survive.
    pub fn map_owned<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 || IN_WORKER.with(Cell::get) {
            return items.iter().map(f).collect();
        }

        let batch: Arc<BatchState<T, R, F>> = Arc::new(BatchState {
            items,
            f,
            next: AtomicUsize::new(0),
            claims: AtomicUsize::new(0),
            slots: workers,
            results: Mutex::new(Results { outcomes: (0..n).map(|_| None).collect(), done: 0 }),
            all_done: Condvar::new(),
        });

        let registry = registry();
        registry.submit(batch.clone() as Arc<dyn Batch>, workers - 1);
        // The submitter always participates: the batch completes even if
        // every persistent worker is busy elsewhere.
        batch.participate();

        let outcomes = {
            let mut results = batch.results.lock().expect("pool batch results poisoned");
            while results.done < n {
                results = batch.all_done.wait(results).expect("pool batch results poisoned");
            }
            std::mem::take(&mut results.outcomes)
        };
        registry.retire(&(batch as Arc<dyn Batch>));

        // Slots are in input order, so the first panic met is the
        // lowest-indexed one.
        outcomes
            .into_iter()
            .map(|outcome| match outcome.expect("every task has finished") {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }

    /// Fallible [`Pool::map_owned`]: returns the collected successes, or
    /// the error of the **earliest** failing item (deterministic at any
    /// thread count).
    ///
    /// All items are evaluated even when one fails; sweeps here are finite
    /// and an early-cancel protocol is not worth its nondeterminism risk.
    ///
    /// # Errors
    ///
    /// The error produced by the lowest-indexed failing item.
    pub fn try_map_owned<T, R, E, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, E>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        E: Send + 'static,
        F: Fn(&T) -> Result<R, E> + Send + Sync + 'static,
    {
        self.map_owned(items, f).into_iter().collect()
    }
}

/// The object-safe face of a submitted batch, as seen by the persistent
/// workers.
trait Batch: Send + Sync {
    /// Claims a participant slot and runs the next unstarted task until
    /// the batch's cursor passes its last item. Returns `false` without
    /// doing work when every slot is already claimed.
    fn participate(&self) -> bool;

    /// Whether another idle worker could still contribute: an unclaimed
    /// slot remains and some task is unstarted.
    fn wants_workers(&self) -> bool;
}

/// A submitted batch: the owned payload, the task cursor, and the result
/// buffer the submitter waits on.
struct BatchState<T, R, F> {
    items: Vec<T>,
    f: F,
    /// Index of the next unstarted task; at or past `items.len()` every
    /// task has been handed out.
    next: AtomicUsize,
    /// Participant slots handed out so far; beyond `slots`, late arrivals
    /// are turned away.
    claims: AtomicUsize,
    /// How many participants (the submitter included) may run the batch.
    slots: usize,
    /// One result slot per item, filled as tasks finish.
    results: Mutex<Results<R>>,
    /// Signalled when the last slot is filled.
    all_done: Condvar,
}

/// A batch's result buffer: slot `i` holds task `i`'s outcome once it has
/// run, and `done` counts the filled slots.
struct Results<R> {
    outcomes: Vec<Option<Result<R, Payload>>>,
    done: usize,
}

impl<T, R, F> Batch for BatchState<T, R, F>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    fn participate(&self) -> bool {
        if self.claims.fetch_add(1, Ordering::Relaxed) >= self.slots {
            return false;
        }
        let was_worker = IN_WORKER.with(|g| g.replace(true));
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = self.items.get(i) else { break };
            // Task panics are caught at the task boundary: the worker (and
            // the pool) survive, and the submitter re-raises the payload
            // deterministically once the batch drains.
            let result = catch_unwind(AssertUnwindSafe(|| (self.f)(item)));
            let mut results = self.results.lock().expect("pool batch results poisoned");
            results.outcomes[i] = Some(result);
            results.done += 1;
            if results.done == self.items.len() {
                self.all_done.notify_one();
            }
        }
        IN_WORKER.with(|g| g.set(was_worker));
        true
    }

    fn wants_workers(&self) -> bool {
        self.claims.load(Ordering::Relaxed) < self.slots
            && self.next.load(Ordering::Relaxed) < self.items.len()
    }
}

/// The process-wide submission queue and worker accounting.
struct Registry {
    state: Mutex<RegistryState>,
    work_ready: Condvar,
}

struct RegistryState {
    /// Open batches that may still want participants.
    batches: Vec<Arc<dyn Batch>>,
    /// Persistent workers spawned so far (high-water mark, never shrinks).
    workers: usize,
}

/// The lazily-created global registry. Workers hold `&'static` references
/// to it; they park on `work_ready` between batches and die with the
/// process (no explicit shutdown — see the crate docs).
fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        state: Mutex::new(RegistryState { batches: Vec::new(), workers: 0 }),
        work_ready: Condvar::new(),
    })
}

impl Registry {
    /// Publishes a batch and grows the worker set toward `extra` helpers
    /// (the submitter is the remaining participant), capped at
    /// [`MAX_WORKERS`].
    fn submit(&self, batch: Arc<dyn Batch>, extra: usize) {
        // Reserve the worker ordinals under the lock, but spawn outside
        // it: a spawn failure (thread exhaustion) must not poison the
        // registry mutex and take the process-wide pool down with it.
        let (first, target) = {
            let mut state = self.state.lock().expect("pool registry poisoned");
            state.batches.push(batch);
            let target = state.workers.max(extra.min(MAX_WORKERS));
            let first = state.workers + 1;
            state.workers = target;
            (first, target)
        };
        for ordinal in first..=target {
            if !spawn_worker(ordinal) {
                // Give the unspawned ordinals back; the submitter always
                // participates, so the batch completes regardless.
                let mut state = self.state.lock().expect("pool registry poisoned");
                state.workers -= target + 1 - ordinal;
                break;
            }
        }
        // Wake only as many parked workers as the batch can seat —
        // notify_all would stampede the whole set through the registry
        // lock for every batch. A worker woken for a batch that
        // filled up meanwhile simply re-parks.
        for _ in 0..extra.min(MAX_WORKERS) {
            self.work_ready.notify_one();
        }
    }

    /// Eagerly removes a completed batch (workers also prune lazily).
    fn retire(&self, batch: &Arc<dyn Batch>) {
        let mut state = self.state.lock().expect("pool registry poisoned");
        state.batches.retain(|b| !Arc::ptr_eq(b, batch));
    }
}

/// Spawns one detached persistent worker; returns whether the OS granted
/// the thread (a refusal degrades parallelism, never correctness — the
/// submitter can drain any batch alone). The thread parks on the
/// registry's condition variable whenever the submission queue has no
/// batch wanting workers.
fn spawn_worker(ordinal: usize) -> bool {
    std::thread::Builder::new()
        .name(format!("relim-pool-{ordinal}"))
        .spawn(|| {
            let registry = registry();
            loop {
                let batch = {
                    let mut state = registry.state.lock().expect("pool registry poisoned");
                    loop {
                        // Prune batches that no longer want participants;
                        // anything left is claimable right now.
                        state.batches.retain(|b| b.wants_workers());
                        if let Some(batch) = state.batches.first() {
                            break Arc::clone(batch);
                        }
                        state = registry.work_ready.wait(state).expect("pool registry poisoned");
                    }
                };
                batch.participate();
            }
        })
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 31 + 7).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = Pool::new(threads).map_owned(items.clone(), |&x| x * 31 + 7);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn owned_uneven_tasks_all_run_exactly_once() {
        let items: Vec<u64> = (0..64).collect();
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let out = Pool::new(4).map_owned(items.clone(), move |&x| {
            ran2.fetch_add(1, Ordering::Relaxed);
            let spins = (64 - x) * 2_000;
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(ran.load(Ordering::Relaxed), items.len());
        assert_eq!(out, items);
    }

    #[test]
    fn nested_map_degrades_to_inline() {
        let outer: Vec<usize> = (0..8).collect();
        let pool = Pool::new(4);
        let got = pool.map_owned(outer.clone(), move |&i| {
            // Inside a batch task: this inner map must run inline (the
            // re-entry guard is observable) and still be correct.
            assert!(IN_WORKER.with(Cell::get) || pool.threads() <= 1);
            let inner: Vec<usize> = (0..4).collect();
            pool.map_owned(inner, move |&j| i * 10 + j).iter().sum::<usize>()
        });
        let expected: Vec<usize> = outer.iter().map(|&i| 4 * (i * 10) + 6).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn try_map_returns_earliest_error() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 4] {
            let got: Result<Vec<u32>, u32> = Pool::new(threads)
                .try_map_owned(items.clone(), |&x| if x % 30 == 17 { Err(x) } else { Ok(x) });
            assert_eq!(got, Err(17), "threads = {threads}");
        }
    }

    #[test]
    fn zero_means_available_parallelism() {
        assert_eq!(Pool::new(0).threads(), Pool::available_parallelism());
        assert!(Pool::new(0).threads() >= 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(8);
        assert_eq!(pool.map_owned(Vec::<u8>::new(), |&x| x), Vec::<u8>::new());
        assert_eq!(pool.map_owned(vec![5u8], |&x| x + 1), vec![6]);
    }

    #[test]
    fn panics_propagate() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map_owned(items, |&x| {
                assert!(x != 13, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn sequential_pool_spawns_nothing() {
        // Observable via the worker guard: it stays false on this thread.
        let pool = Pool::sequential();
        let out = pool.map_owned(vec![1, 2, 3], |&x| {
            assert!(!IN_WORKER.with(Cell::get));
            x * 2
        });
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        assert_eq!(parse_threads("64"), Ok(64));
        for bad in ["0", "", "  ", "-3", "4.5", "four", "1e3", "0x4"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(
                err.to_string().contains("positive integer"),
                "`{bad}` must be rejected with a clear message, got: {err}"
            );
            assert!(err.to_string().contains(bad.trim()) || bad.trim().is_empty());
        }
    }
}
