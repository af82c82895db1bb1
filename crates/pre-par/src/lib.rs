//! Minimal std-only data parallelism for the PRE experiment engine.
//!
//! Simulations in the evaluation matrix are independent per
//! (workload, technique) cell, so the runner only needs an ordered parallel
//! map. The container this workspace builds in has no crates.io access, so
//! instead of depending on rayon this crate implements the one primitive the
//! workspace needs on top of [`std::thread::scope`]: [`par_map`], an
//! order-preserving parallel map over a slice. The API is shaped so that a
//! future swap to `rayon::par_iter` is a one-line change at each call site.
//!
//! Work is distributed dynamically: an atomic cursor hands out the next item
//! to whichever worker is free, so uneven cell runtimes do not leave threads
//! idle the way static chunking would. They are very uneven: at 60 k
//! micro-ops the large pointer chase (`asm-chase-large`) takes about 1.5 s
//! under traditional runahead, which keeps fetching at full width while
//! every hop is INV, and under 0.1 s under PRE. The cursor hands items out
//! in slice order, so a long item placed last still runs alone at the end;
//! callers that can predict cost put the longest items first, as the batch
//! executor in `pre-sim` does.
//!
//! # Example
//!
//! ```
//! let squares = pre_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Environment variable overriding the worker count (`0` or unset = one
/// worker per available core).
pub(crate) const THREADS_ENV: &str = "PRE_THREADS";

/// Number of worker threads [`par_map`] will use for a workload of `len`
/// items: `min(len, PRE_THREADS or available cores)`, and at least 1.
pub fn num_threads(len: usize) -> usize {
    let configured = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
    configured.min(len).max(1)
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Equivalent to `items.iter().map(f).collect()` — same outputs, same order —
/// but distributed over [`num_threads`] scoped worker threads. `f` runs at
/// most once per item. Panics in `f` propagate to the caller once all workers
/// have stopped.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = num_threads(items.len());
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else { break };
                let result = f(item);
                *slots[idx].lock().expect("result slot poisoned") = Some(result);
            }));
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker pool completed without filling every slot")
        })
        .collect()
}

/// A captured panic from one work item of a [`try_par_map`] call.
///
/// The pool converts the opaque panic payload into a string eagerly (panic
/// payloads are `Box<dyn Any>` and rarely more structured than a `&str` or
/// `String`), so the error is `Send + Sync` and can cross further channel /
/// store boundaries without dragging `dyn Any` along.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Index of the input item whose closure panicked.
    pub index: usize,
    /// Stringified panic payload (`&str` / `String` payloads verbatim,
    /// anything else a placeholder).
    pub payload: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work item {} panicked: {}", self.index, self.payload)
    }
}

impl std::error::Error for JobError {}

/// Best-effort conversion of a panic payload into a human-readable string.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Supervised sibling of [`par_map`]: maps `f` over `items` in parallel,
/// capturing a panic in any single item as a [`JobError`] instead of tearing
/// down the pool.
///
/// Results come back in input order, one `Result` per item. A worker whose
/// current item panics catches the unwind, records `Err(JobError)` for that
/// slot, and moves on to the next item — so one poisoned cell cannot take the
/// rest of the grid down with it, and every non-panicking item still produces
/// its `Ok` value.
///
/// `f` is wrapped in [`AssertUnwindSafe`]: if it panics halfway through
/// mutating shared state it is the caller's responsibility that survivors can
/// still make sense of that state (the simulation stores recover poisoned
/// mutexes for exactly this reason).
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, JobError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let run_one = |idx: usize, item: &T| -> Result<R, JobError> {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| JobError {
            index: idx,
            payload: panic_message(payload.as_ref()),
        })
    };

    let workers = num_threads(items.len());
    if workers <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(idx, item)| run_one(idx, item))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, JobError>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else { break };
                let result = run_one(idx, item);
                // A panic inside `f` was already caught above; the slot lock
                // is only ever held for this assignment, so recover rather
                // than cascade a poisoned-mutex panic through the pool.
                *slots[idx].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            }));
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                // Workers only unwind on bugs outside `f` (e.g. allocation
                // failure); that is not an isolatable per-item fault.
                std::panic::resume_unwind(panic);
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("worker pool completed without filling every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        let parallel = par_map(&items, |&x| x * 3 + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u64> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[41u64], |&x| x + 1), vec![42]);
    }

    #[test]
    fn runs_each_item_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        par_map(&(0..64usize).collect::<Vec<_>>(), |&i| {
            counters[i].fetch_add(1, Ordering::Relaxed)
        });
        for c in &counters {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn num_threads_is_clamped_by_len() {
        assert_eq!(num_threads(0), 1);
        assert_eq!(num_threads(1), 1);
        assert!(num_threads(1024) >= 1);
    }

    /// Runs `f` with the default panic hook silenced, so tests that
    /// deliberately panic inside workers do not spam the test log. Serialized
    /// because the hook is process-global.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        static HOOK_LOCK: Mutex<()> = Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = f();
        std::panic::set_hook(prev);
        result
    }

    #[test]
    fn try_par_map_matches_par_map_when_nothing_panics() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 7 + 3).collect();
        let supervised = try_par_map(&items, |&x| x * 7 + 3);
        assert_eq!(supervised.len(), serial.len());
        for (got, want) in supervised.into_iter().zip(serial) {
            assert_eq!(got.unwrap(), want);
        }
    }

    #[test]
    fn try_par_map_isolates_a_single_panic() {
        with_quiet_panics(|| {
            let items: Vec<u64> = (0..64).collect();
            let results = try_par_map(&items, |&x| {
                if x == 13 {
                    panic!("injected fault in item {x}");
                }
                x * 2
            });
            for (i, result) in results.iter().enumerate() {
                if i == 13 {
                    let err = result.as_ref().unwrap_err();
                    assert_eq!(err.index, 13);
                    assert!(err.payload.contains("injected fault"), "{}", err.payload);
                } else {
                    assert_eq!(*result.as_ref().unwrap(), i as u64 * 2);
                }
            }
        });
    }

    #[test]
    fn try_par_map_survives_many_panics_and_keeps_indices_straight() {
        with_quiet_panics(|| {
            let items: Vec<u64> = (0..97).collect();
            let results = try_par_map(&items, |&x| {
                if x % 3 == 0 {
                    panic!("boom {x}");
                }
                x
            });
            for (i, result) in results.iter().enumerate() {
                if i % 3 == 0 {
                    let err = result.as_ref().unwrap_err();
                    assert_eq!(err.index, i);
                    assert_eq!(err.payload, format!("boom {i}"));
                } else {
                    assert_eq!(*result.as_ref().unwrap(), i as u64);
                }
            }
        });
    }

    #[test]
    fn try_par_map_stringifies_non_string_payloads() {
        with_quiet_panics(|| {
            let results = try_par_map(&[0u64], |_| -> u64 {
                std::panic::panic_any(1234u32);
            });
            let err = results[0].as_ref().unwrap_err();
            assert_eq!(err.payload, "<non-string panic payload>");
        });
    }

    #[test]
    fn par_map_still_propagates_panics() {
        with_quiet_panics(|| {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                par_map(&[1u64, 2, 3], |&x| {
                    if x == 2 {
                        panic!("unsupervised");
                    }
                    x
                })
            }));
            assert!(outcome.is_err());
        });
    }
}
