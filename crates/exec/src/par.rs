//! The one work-sharing loop counting runs on: an ordered map over a slice
//! on scoped threads.
//!
//! Counts differ in cost by orders of magnitude (a single-edge pattern
//! beside a 6-cycle; a 4-edge join beside an 8-edge tree), so the items
//! are not partitioned up front: every worker claims the next unclaimed
//! index off one shared cursor, and the partition balances itself. The
//! catalog fill (`ceg_catalog::count_patterns`) and the workload
//! generator's ground truths (`ceg_workload::Workload::build`) are its two
//! callers.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `f` of every item, in item order, computed on up to `workers` threads.
///
/// The calling thread is one of the workers, so `workers - 1` scoped
/// threads are spawned, and none at all — `f` runs inline, in order, with
/// no allocation beyond the result vector — when `workers <= 1` or there
/// is at most one item. The result does not depend on `workers` as long as
/// `f` is a function of its item.
///
/// # Panics
/// A panic in `f` is re-raised on the calling thread once every worker has
/// stopped; the other workers run the remaining items to the end first.
pub fn map_ordered<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Relaxed: the cursor hands out indices and publishes nothing else —
    // `items` is shared immutably and results travel through `join`.
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done: Vec<(usize, R)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            done.push((i, f(item)));
        }
        done
    };
    let finished: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut finished = vec![claim()];
        for handle in spawned {
            match handle.join() {
                Ok(done) => finished.push(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        finished
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, r) in finished.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index below the length is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

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
