//! The one work-sharing loop counting and the served batch run on: an
//! in-order, streaming map over a slice on scoped threads.
//!
//! Items differ in cost by orders of magnitude (a single-edge pattern
//! beside a 6-cycle; a warm miss beside a cold one), so they are not
//! partitioned up front: every worker claims the next unclaimed index off
//! one shared cursor, and the partition balances itself. The calling
//! thread is one of the workers, and the only one that hands results on:
//! in item order, each ready prefix as soon as it is ready. Its callers
//! are the catalog fill (`ceg_catalog::count_patterns`) and the workload
//! generator's ground truths (`ceg_workload::Workload::build`), both
//! through [`map_ordered`], and the served batch
//! (`ceg_service::Engine::estimate_batch`), which streams its replies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Condvar;
use std::thread;
use std::time::Duration;

use ceg_graph::sync::{self, LockRank, OrderedMutex};

/// What [`for_each_ordered`] hands its sink, always on the calling
/// thread.
#[derive(Debug, PartialEq)]
pub enum Handover<R> {
    /// Item `i`'s result. Every index arrives once, in increasing order.
    Done(usize, R),
    /// The calling thread is about to block: inside `f`, which said so
    /// through its `wait` argument, or on a helper's result. A sink that
    /// holds output back should let it go now.
    Wait,
}

/// Results helpers posted that the calling thread has not handed on.
struct Board<R> {
    results: Vec<Option<R>>,
    /// Helpers that have stopped, normally or by a panic.
    stopped: usize,
}

/// Counts a helper as stopped when it leaves, by return or by unwind, so
/// the calling thread never waits for a result a panicked helper owes.
struct Stopped<'a, R> {
    board: &'a OrderedMutex<Board<R>>,
    posted: &'a Condvar,
}

impl<R> Drop for Stopped<'_, R> {
    fn drop(&mut self) {
        if let Ok(mut board) = self.board.checked_lock() {
            board.stopped += 1;
        }
        self.posted.notify_one();
    }
}

/// Run `f` on every item on up to `workers` threads and hand the results
/// to `sink` in item order.
///
/// The calling thread is one of the workers, so up to `workers - 1`
/// scoped helpers are spawned, and none at all — `f` and `sink` alternate inline, in
/// order, allocating nothing — when `workers <= 1` or there is at most
/// one item. A helper that cannot be spawned leaves its share to the
/// others. Between its own items the calling thread hands `sink` every
/// result that is ready in order, and it sends [`Handover::Wait`] before
/// it blocks on a helper's result. `f` gets a `wait` callback to call
/// before it blocks itself: on the calling thread it hands over the
/// ready prefix and then sends `Wait`; on a helper it does nothing.
///
/// # Panics
/// A panic in `f` is re-raised on the calling thread once every worker
/// has stopped; the other workers run the remaining items to the end
/// first.
pub fn for_each_ordered<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T, &mut dyn FnMut()) -> R + Sync,
    mut sink: impl FnMut(Handover<R>),
) {
    if workers.min(items.len()) <= 1 {
        for (i, item) in items.iter().enumerate() {
            let r = f(item, &mut || sink(Handover::Wait));
            sink(Handover::Done(i, r));
        }
        return;
    }
    let results = std::iter::repeat_with(|| None).take(items.len()).collect();
    let board = OrderedMutex::new(
        LockRank::Handover,
        Board {
            results,
            stopped: 0,
        },
    );
    let posted = Condvar::new();
    // Relaxed: the cursor hands out indices and publishes nothing else —
    // `items` is shared immutably and results travel through the board.
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        items.get(i).map(|item| (i, item))
    };
    let post = |i: usize, r: R| {
        board.lock().results[i] = Some(r);
        posted.notify_one();
    };
    // Hand `sink` every posted result from `next` on, until a gap; the
    // lock is never held while `sink` runs.
    let hand_over = |next: &mut usize, sink: &mut dyn FnMut(Handover<R>)| loop {
        let ready = board.lock().results.get_mut(*next).and_then(Option::take);
        let Some(r) = ready else { break };
        sink(Handover::Done(*next, r));
        *next += 1;
    };
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(items.len()))
            .filter_map(|_| {
                let run = || {
                    let _stopped = Stopped {
                        board: &board,
                        posted: &posted,
                    };
                    while let Some((i, item)) = claim() {
                        post(i, f(item, &mut || {}));
                    }
                };
                thread::Builder::new().spawn_scoped(scope, run).ok()
            })
            .collect();
        // The first index not yet handed on.
        let mut next = 0;
        while let Some((i, item)) = claim() {
            let r = f(item, &mut || {
                hand_over(&mut next, &mut sink);
                sink(Handover::Wait);
            });
            if i == next {
                sink(Handover::Done(i, r));
                next += 1;
            } else {
                post(i, r);
            }
            hand_over(&mut next, &mut sink);
        }
        loop {
            hand_over(&mut next, &mut sink);
            if next == items.len() {
                break;
            }
            sink(Handover::Wait);
            let mut ready = board.lock();
            while ready.results[next].is_none() && ready.stopped < helpers.len() {
                ready = sync::wait_timeout(&posted, ready, Duration::from_secs(3600)).0;
            }
            let owed = ready.results[next].is_none();
            drop(ready);
            if owed {
                // Every helper stopped and this result never came: the
                // helper that claimed it panicked, and `join` says so.
                break;
            }
        }
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// `f` of every item, in item order, computed on up to `workers` threads
/// by [`for_each_ordered`]. The result does not depend on `workers` as
/// long as `f` is a function of its item.
///
/// # Panics
/// As [`for_each_ordered`].
pub fn map_ordered<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let mut out = Vec::with_capacity(items.len());
    let keep = |step| {
        if let Handover::Done(_, r) = step {
            out.push(r);
        }
    };
    for_each_ordered(items, workers, |item, _| f(item), keep);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn results_are_in_item_order_whatever_finishes_first() {
        // The first item cannot finish until every later one has: with
        // two workers, whoever claims it waits on the barrier while the
        // other drains the rest and then arrives itself.
        let items: Vec<usize> = (0..64).collect();
        let others_done = Barrier::new(2);
        let later_done = AtomicUsize::new(0);
        let out = map_ordered(&items, 2, |&i| {
            let last_of_the_rest = || later_done.fetch_add(1, Ordering::SeqCst) + 2 == items.len();
            if i == 0 || last_of_the_rest() {
                others_done.wait();
            }
            i * 10
        });
        assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items_give_an_empty_result() {
        let out: Vec<u32> = map_ordered(&[] as &[u32], 8, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_every_item_once() {
        let items = [3u64, 1, 2];
        for workers in [0, 1, 2, 3, 4, 64] {
            let calls = AtomicUsize::new(0);
            let out = map_ordered(&items, workers, |&x| {
                calls.fetch_add(1, Ordering::SeqCst);
                x * x
            });
            assert_eq!(out, [9, 1, 4], "{workers} workers");
            assert_eq!(
                calls.load(Ordering::SeqCst),
                items.len(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_calling_thread() {
        let me = thread::current().id();
        let ran_on = map_ordered(&[(); 16], 1, |()| thread::current().id());
        assert!(ran_on.iter().all(|&id| id == me));
        let ran_on = map_ordered(&[()], 8, |()| thread::current().id());
        assert_eq!(ran_on, [me]);
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        // Two workers, two items, each waiting for the other: both are
        // claimed at once, one of them by the caller.
        let me = thread::current().id();
        let both_claimed = Barrier::new(2);
        let ran_on = map_ordered(&[(); 2], 2, |()| {
            both_claimed.wait();
            thread::current().id()
        });
        assert_ne!(ran_on[0], ran_on[1]);
        assert!(ran_on.contains(&me));
    }

    #[test]
    fn wait_and_results_reach_the_sink_in_order_inline() {
        let mut steps = Vec::new();
        for_each_ordered(
            &[10, 20, 30],
            1,
            |&x, wait| {
                wait();
                x + 1
            },
            |step| steps.push(step),
        );
        use Handover::{Done, Wait};
        assert_eq!(
            steps,
            [Wait, Done(0, 11), Wait, Done(1, 21), Wait, Done(2, 31)]
        );
    }

    #[test]
    fn the_caller_sends_wait_before_it_blocks_on_a_helper() {
        // A helper's item finishes only once the sink has seen `Wait`: a
        // caller that blocked on it without saying so would hang here
        // for the ten seconds and fail.
        let me = thread::current().id();
        let waited = AtomicBool::new(false);
        let mut done = Vec::new();
        for_each_ordered(
            &[(); 8],
            2,
            |(), _| {
                let on_helper = thread::current().id() != me;
                let until = Instant::now() + Duration::from_secs(10);
                while on_helper && !waited.load(Ordering::SeqCst) && Instant::now() < until {
                    thread::yield_now();
                }
                (on_helper, waited.load(Ordering::SeqCst))
            },
            |step| match step {
                Handover::Wait => waited.store(true, Ordering::SeqCst),
                Handover::Done(i, ran) => done.push((i, ran)),
            },
        );
        let order: Vec<usize> = done.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
        for (i, (on_helper, saw_wait)) in done {
            assert!(!on_helper || saw_wait, "item {i} finished before any Wait");
        }
    }

    #[test]
    fn helpers_are_workers_less_one_capped_by_the_items() {
        // Each of the first `workers.min(items)` items waits until all of
        // them are claimed, so they run on as many threads: the caller and
        // every helper.
        for (items, workers, helpers) in [(4, 3, 2), (1, 8, 0), (16, 1, 0), (2, 8, 1), (0, 4, 0)] {
            let first = workers.min(items).max(1);
            let all_claimed = Barrier::new(first);
            let started = AtomicUsize::new(0);
            let ran_on = OrderedMutex::new(LockRank::Handover, HashSet::new());
            for_each_ordered(
                &vec![(); items],
                workers,
                |(), _| {
                    if started.fetch_add(1, Ordering::SeqCst) < first {
                        all_claimed.wait();
                    }
                    ran_on.lock().insert(thread::current().id());
                },
                |_| {},
            );
            let threads = ran_on.into_inner().len();
            let caller = usize::from(items > 0);
            assert_eq!(
                threads,
                caller + helpers,
                "{items} items, {workers} workers"
            );
        }
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        for workers in [1, 2, 4] {
            let items: Vec<u32> = (0..32).collect();
            let calls = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                map_ordered(&items, workers, |&i| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    assert_ne!(i, 17, "item 17 is broken");
                    i
                })
            }));
            let panic = result.expect_err("a short result must not be returned");
            let message = panic
                .downcast_ref::<String>()
                .expect("assert_ne! panics with a String");
            assert!(message.contains("item 17 is broken"), "{message}");
            assert!(calls.load(Ordering::SeqCst) >= 18, "{workers} workers");
        }
    }
}
