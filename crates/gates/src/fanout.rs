//! Ordered fan-out of independent work items over scoped worker threads.
//!
//! Fault grading (one item per fault batch) and PODEM (one item per
//! target of a round) both need the same thing: run a pure function over
//! a list, spread over a pool, and get the results back in list order no
//! matter which worker ran what. [`fan_out`] is that one mechanism.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count a `threads` setting resolves to: `None` uses
/// [`std::thread::available_parallelism`], and the result is at least 1.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    requested
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// Runs `work` over every item on up to `threads` workers and returns the
/// results in item order, plus each worker's state in worker order.
///
/// Every worker starts from `init()` and threads that state through each
/// item it claims (scratch buffers, accounting). Workers claim items from
/// a shared cursor, so which worker runs which item is unspecified; a
/// `work` that is a pure function of its item therefore gives results
/// independent of the thread count.
///
/// The worker count is `threads` clamped to `1..=items.len()` (1 for an
/// empty list). With one worker everything runs inline on the calling
/// thread and no thread is spawned.
pub fn fan_out<T, S, R>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &T) -> R + Sync,
) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    S: Send,
    R: Send,
{
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        let mut state = init();
        let results = items.iter().map(|item| work(&mut state, item)).collect();
        return (results, vec![state]);
    }

    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<(S, Vec<(usize, R)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        // The cursor only hands out indices; the results
                        // travel back through the join.
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else { break };
                        done.push((index, work(&mut state, item)));
                    }
                    (state, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut states = Vec::with_capacity(workers);
    for (state, done) in per_worker {
        for (index, result) in done {
            slots[index] = Some(result);
        }
        states.push(state);
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every item is claimed exactly once"))
        .collect();
    (results, states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..40).collect();
        for threads in [1, 2, 7, items.len() + 3] {
            let (results, states) = fan_out(
                &items,
                threads,
                || 0usize,
                |count, &x| {
                    *count += 1;
                    x * x
                },
            );
            let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(results, expected, "{threads} threads");
            assert_eq!(states.len(), threads.min(items.len()), "{threads} threads");
            assert_eq!(
                states.iter().sum::<usize>(),
                items.len(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn empty_input_runs_one_idle_worker() {
        let (results, states) = fan_out(&[] as &[u32], 4, || 7u8, |_, &x| x);
        assert!(results.is_empty());
        assert_eq!(states, vec![7]);
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items = [1, 2, 3];
        let (ran_on, _) = fan_out(&items, 1, || (), |_, _| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
        // A single item clamps any pool down to the caller too.
        let (ran_on, _) = fan_out(&items[..1], 8, || (), |_, _| std::thread::current().id());
        assert_eq!(ran_on, vec![caller]);
    }

    #[test]
    fn resolve_threads_is_at_least_one() {
        assert_eq!(resolve_threads(Some(0)), 1);
        assert_eq!(resolve_threads(Some(5)), 5);
        assert!(resolve_threads(None) >= 1);
    }
}
