//! Stress tests for the persistent pool: oversubscription, nested
//! submission, degenerate shapes, concurrent submitters, the input-order
//! task cursor, and the pinned panic semantics (workers survive; the
//! submitter re-raises the lowest-indexed payload deterministically).

use relim_pool::Pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Tasks ≫ workers: a 4-wide pool must drain a 20k-task batch exactly
/// once per task, in input order, and stay reusable afterwards.
#[test]
fn oversubscription_tasks_much_greater_than_workers() {
    let pool = Pool::new(4);
    let items: Vec<u64> = (0..20_000).collect();
    let ran = Arc::new(AtomicUsize::new(0));
    for round in 0..3u64 {
        let ran2 = Arc::clone(&ran);
        let got = pool.map_owned(items.clone(), move |&x| {
            ran2.fetch_add(1, Ordering::Relaxed);
            x.wrapping_mul(2654435761).rotate_left((x % 31) as u32) ^ round
        });
        let expected: Vec<u64> = items
            .iter()
            .map(|&x| x.wrapping_mul(2654435761).rotate_left((x % 31) as u32) ^ round)
            .collect();
        assert_eq!(got, expected, "round {round}");
    }
    assert_eq!(ran.load(Ordering::Relaxed), 3 * items.len());
}

/// A pool wider than the task count: the batch is split over `len` virtual
/// workers only, and extra width is harmless.
#[test]
fn more_workers_than_tasks() {
    let pool = Pool::new(32);
    let got = pool.map_owned(vec![10u32, 20, 30], |&x| x + 1);
    assert_eq!(got, vec![11, 21, 31]);
}

/// Tasks start in input order: every participant takes the next
/// unstarted index from the batch's one cursor. Item 0 records its start
/// and then holds its participant until a second item has started, so the
/// other participant's first task shows; a contiguous split per
/// participant would start item 4 there. The other items wait for item 0
/// to start before recording, so the record order is the order in which
/// the indices were taken. Every wait gives up after 5 s; a worker that
/// never joins (busy with another test's batch) leaves the submitter to
/// run the batch alone, in order.
#[test]
fn tasks_start_in_input_order() {
    const WAIT: Duration = Duration::from_secs(5);
    let starts = Arc::new((Mutex::new(Vec::new()), Condvar::new()));
    let starts2 = Arc::clone(&starts);
    let got = Pool::new(2).map_owned((0..8usize).collect(), move |&i| {
        let (lock, started) = &*starts2;
        let mut seen = lock.lock().unwrap();
        if i != 0 {
            seen = started.wait_timeout_while(seen, WAIT, |s| s.is_empty()).unwrap().0;
        }
        seen.push(i);
        started.notify_all();
        if i == 0 {
            drop(started.wait_timeout_while(seen, WAIT, |s| s.len() < 2).unwrap());
        }
        i
    });
    assert_eq!(got, (0..8).collect::<Vec<usize>>());
    let starts = starts.0.lock().unwrap();
    assert_eq!(starts[..2], [0, 1], "start order {starts:?}");
}

/// Nested submission: tasks of an outer batch submit their own batches.
/// The inner maps must degrade to inline execution (no deadlock, no
/// oversubscription) and still be correct — at several pool widths.
#[test]
fn nested_submission_from_inside_tasks() {
    for threads in [2, 4, 8] {
        let pool = Pool::new(threads);
        let outer: Vec<u64> = (0..48).collect();
        let got = pool.map_owned(outer.clone(), move |&i| {
            let inner: Vec<u64> = (0..16).collect();
            let doubly_nested = pool.map_owned(inner, move |&j| {
                pool.map_owned(vec![i, j], |&k| k + 1).iter().sum::<u64>()
            });
            doubly_nested.iter().sum::<u64>()
        });
        let expected: Vec<u64> =
            outer.iter().map(|&i| (0..16).map(|j| (i + 1) + (j + 1)).sum::<u64>()).collect();
        assert_eq!(got, expected, "threads = {threads}");
    }
}

/// Zero-task batches cost nothing and return nothing, at any width and
/// repeatedly (they must not wedge the submission queue).
#[test]
fn zero_task_batches() {
    for threads in [1, 2, 8] {
        let pool = Pool::new(threads);
        for _ in 0..100 {
            assert_eq!(pool.map_owned(Vec::<u64>::new(), |&x| x), Vec::<u64>::new());
            let ok: Result<Vec<u64>, ()> = pool.try_map_owned(Vec::new(), |&x: &u64| Ok(x));
            assert_eq!(ok, Ok(Vec::new()));
        }
    }
}

/// The 1-worker degenerate pool runs everything inline on the submitting
/// thread: observable via thread identity.
#[test]
fn one_worker_pool_runs_inline() {
    let pool = Pool::new(1);
    let submitter = std::thread::current().id();
    let got = pool.map_owned((0..64u64).collect(), move |&x| {
        assert_eq!(std::thread::current().id(), submitter, "1-worker pool must not offload");
        x * 3
    });
    assert_eq!(got, (0..64).map(|x| x * 3).collect::<Vec<u64>>());
}

/// Pinned panic semantics, part 1: a panic in a task is re-raised on the
/// submitter, and with several panicking tasks the **lowest-indexed**
/// payload wins — at any thread count.
#[test]
fn panic_propagates_lowest_index_payload() {
    for threads in [2, 4, 8] {
        let items: Vec<u32> = (0..256).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::new(threads).map_owned(items, |&x| {
                if x % 50 == 37 {
                    panic!("task {x} exploded");
                }
                x
            })
        });
        let payload = result.expect_err("a panicking batch must panic the submitter");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is the formatted message");
        assert_eq!(message, "task 37 exploded", "threads = {threads}");
    }
}

/// Pinned panic semantics, part 2: workers **survive** a panicking batch —
/// the pool is not poisoned and later batches on the same (global) worker
/// set complete normally.
#[test]
fn workers_survive_task_panics() {
    let pool = Pool::new(4);
    for round in 0..5u64 {
        let result = std::panic::catch_unwind(|| {
            pool.map_owned((0..64u64).collect(), |&x| {
                assert!(x != 13, "boom");
                x
            })
        });
        assert!(result.is_err(), "round {round}");
        // Immediately after the panic, a clean batch must still succeed.
        let got = pool.map_owned((0..512u64).collect(), move |&x| x + round);
        assert_eq!(got, (0..512).map(|x| x + round).collect::<Vec<u64>>(), "round {round}");
    }
}

/// Many submitting threads share the persistent worker set concurrently;
/// every batch must come back complete and in order.
#[test]
fn concurrent_submitters_share_the_worker_set() {
    let handles: Vec<_> = (0..8u64)
        .map(|s| {
            std::thread::spawn(move || {
                let pool = Pool::new(4);
                for round in 0..20 {
                    let items: Vec<u64> = (0..300).collect();
                    let got = pool.map_owned(items, move |&x| x * s + round);
                    assert_eq!(got, (0..300).map(|x| x * s + round).collect::<Vec<u64>>());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter thread panicked");
    }
}

/// Skewed task sizes drain fully: the heavy head of the batch must not
/// leave the tail stranded when participants exit early.
#[test]
fn skewed_batches_drain_completely() {
    let pool = Pool::new(8);
    let items: Vec<u64> = (0..128).collect();
    let got = pool.map_owned(items.clone(), |&x| {
        let spins = if x < 4 { 200_000 } else { 10 };
        let mut acc = x;
        for i in 0..spins {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        x
    });
    assert_eq!(got, items);
}

/// The owned path fully replaces the retired scoped `map` shim: borrowed
/// context that used to cross into scoped threads now travels as `Arc`s
/// captured by the `'static` closure, with identical ordering semantics.
#[test]
fn arc_shared_context_replaces_borrowed_captures() {
    let pool = Pool::new(4);
    // Context that a scoped closure would have borrowed.
    let table: Arc<Vec<u64>> = Arc::new((0..256).map(|x| x * x).collect());
    let indices: Vec<usize> = (0..256).rev().collect();
    let table2 = Arc::clone(&table);
    let got = pool.map_owned(indices.clone(), move |&i| table2[i]);
    let expected: Vec<u64> = indices.iter().map(|&i| table[i]).collect();
    assert_eq!(got, expected);
}

/// The fallible owned entry point reports the earliest error even when a
/// later item also fails, and evaluates every item (no early cancel).
#[test]
fn try_map_owned_earliest_error_and_full_evaluation() {
    for threads in [1, 4, 8] {
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let got: Result<Vec<u32>, u32> =
            Pool::new(threads).try_map_owned((0..500u32).collect(), move |&x| {
                ran2.fetch_add(1, Ordering::Relaxed);
                if x == 499 || x == 77 {
                    Err(x)
                } else {
                    Ok(x)
                }
            });
        assert_eq!(got, Err(77), "threads = {threads}");
        assert_eq!(ran.swap(0, Ordering::Relaxed), 500, "threads = {threads}");
    }
}
