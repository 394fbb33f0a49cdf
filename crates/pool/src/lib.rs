//! # netsmith-pool
//!
//! The workspace's one way to run independent jobs in parallel: annealing
//! walkers (`netsmith-gen`), injection-rate load points (`netsmith-sim`)
//! and experiment cells (`netsmith-exp`) all need nothing more than "run
//! these closures and give me their results in order".
//!
//! [`WorkerPool::run`] runs a batch on the submitting thread plus up to
//! [`WorkerPool::threads`] helpers started with `std::thread::scope`, so
//! tasks may borrow the caller's stack without any `unsafe` code.  Every
//! thread pulls task indices in submission order from one shared counter
//! until the batch is drained.
//!
//! A thread that is running tasks of a multi-threaded batch is marked, and
//! any batch it submits (a sweep inside an experiment cell inside the
//! suite runner) runs in place on that thread.  Nested submissions
//! therefore never oversubscribe the CPU and cannot deadlock.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Cumulative activity counters of a pool since its creation, read with
/// [`WorkerPool::stats`].  The pool keeps these itself (plain relaxed
/// atomics, no dependencies) so callers — the experiment CLI publishes
/// them as `pool.*` obs counters — can snapshot activity without wrapping
/// every submission site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Batches submitted through [`WorkerPool::run`].
    pub batches: u64,
    /// Tasks across all batches.
    pub tasks: u64,
    /// Total microseconds tasks spent queued before starting to run.
    pub queue_wait_us: u64,
}

#[derive(Default)]
struct StatCells {
    batches: AtomicU64,
    tasks: AtomicU64,
    queue_wait_us: AtomicU64,
}

/// Tasks run under `catch_unwind` and never while a pool lock is held, so
/// no pool mutex can be poisoned.
const UNPOISONED: &str = "no pool lock is held while a task runs";

thread_local! {
    /// Set while this thread runs tasks of a multi-threaded batch.
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

/// A pool of scoped helper threads shared by sweeps, annealing and the
/// experiment runner.  See the crate docs for the execution model.
pub struct WorkerPool {
    threads: usize,
    stats: StatCells,
}

impl WorkerPool {
    /// A pool whose batches start up to `threads` helper threads.
    /// `threads == 0` is allowed: every batch then runs entirely on the
    /// submitting thread (useful for deterministic single-threaded
    /// debugging).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads,
            stats: StatCells::default(),
        }
    }

    /// The process-wide shared pool, sized to the machine.  All workspace
    /// parallel sites submit here so the process never oversubscribes the
    /// CPU with nested thread scopes.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            WorkerPool::new(threads)
        })
    }

    /// Number of helper threads a batch may start (the submitting thread
    /// adds one more unit of parallelism while a batch is in flight).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the pool's cumulative activity counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            batches: self.stats.batches.load(Ordering::Relaxed),
            tasks: self.stats.tasks.load(Ordering::Relaxed),
            queue_wait_us: self.stats.queue_wait_us.load(Ordering::Relaxed),
        }
    }

    /// Run a batch of tasks to completion and return their results in
    /// submission order.  Blocks until every task has finished; if any
    /// task panicked, the first panic is resumed on the submitting thread
    /// after the whole batch has run.
    ///
    /// The batch runs in place on the submitting thread when it would
    /// start no helper (one task, or a pool of zero threads) and when it
    /// is submitted from inside another multi-threaded batch.
    ///
    /// Tasks may borrow from the caller's stack frame (`'env`), exactly
    /// like `std::thread::scope` closures.
    pub fn run<'env, T: Send + 'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        let size = tasks.len();
        if size == 0 {
            return Vec::new();
        }
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.tasks.fetch_add(size as u64, Ordering::Relaxed);
        let submitted = Instant::now();
        let tasks: Vec<Mutex<Option<_>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..size).map(|_| Mutex::new(None)).collect();
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        // Only hands out indices; the slots' mutexes publish the data.
        let next = AtomicUsize::new(0);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= size {
                return;
            }
            let task = tasks[i]
                .lock()
                .expect(UNPOISONED)
                .take()
                .expect("each task runs once");
            let waited = submitted.elapsed().as_micros().min(u64::MAX as u128) as u64;
            self.stats
                .queue_wait_us
                .fetch_add(waited, Ordering::Relaxed);
            match catch_unwind(AssertUnwindSafe(task)) {
                Ok(value) => *results[i].lock().expect(UNPOISONED) = Some(value),
                Err(payload) => {
                    first_panic.lock().expect(UNPOISONED).get_or_insert(payload);
                }
            }
        };

        let helpers = if IN_BATCH.get() {
            0
        } else {
            self.threads.min(size - 1)
        };
        if helpers == 0 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..helpers {
                    scope.spawn(|| {
                        IN_BATCH.set(true);
                        work();
                    });
                }
                IN_BATCH.set(true);
                work();
                IN_BATCH.set(false);
            });
        }

        if let Some(payload) = first_panic.into_inner().expect(UNPOISONED) {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect(UNPOISONED)
                    .expect("every task ran")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn boxed<'env, T: Send + 'env>(
        fs: Vec<impl FnOnce() -> T + Send + 'env>,
    ) -> Vec<Box<dyn FnOnce() -> T + Send + 'env>> {
        fs.into_iter()
            .map(|f| Box::new(f) as Box<dyn FnOnce() -> T + Send + 'env>)
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let tasks = (0..64).map(|i| move || i * i).collect::<Vec<_>>();
        let results = pool.run(boxed(tasks));
        assert_eq!(results, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_may_borrow_the_callers_stack() {
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let chunks: Vec<&[u64]> = data.chunks(7).collect();
        let sums = pool.run(boxed(
            chunks
                .iter()
                .map(|chunk| move || chunk.iter().sum::<u64>())
                .collect::<Vec<_>>(),
        ));
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn zero_thread_pool_runs_on_the_submitter() {
        let pool = WorkerPool::new(0);
        let submitter = std::thread::current().id();
        let ids = pool.run(boxed(
            (0..8)
                .map(|_| move || std::thread::current().id())
                .collect::<Vec<_>>(),
        ));
        assert!(ids.iter().all(|&id| id == submitter));
    }

    #[test]
    fn nested_submissions_complete() {
        // A task submitted to the pool submits its own batch to the same
        // pool: the nested batch runs in place on the task's thread, so it
        // completes even when the batch count exceeds the worker count.
        let pool = Arc::new(WorkerPool::new(1));
        let outer: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..4)
            .map(|i: u64| {
                let pool = Arc::clone(&pool);
                Box::new(move || {
                    let inner = pool.run(boxed(
                        (0..4).map(|j: u64| move || i * 10 + j).collect::<Vec<_>>(),
                    ));
                    inner.iter().sum()
                }) as Box<dyn FnOnce() -> u64 + Send>
            })
            .collect();
        let sums = pool.run(outer);
        assert_eq!(sums.len(), 4);
        assert_eq!(sums[1], 10 + 11 + 12 + 13);
    }

    #[test]
    fn panics_propagate_after_the_batch_finishes() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                .map(|i: usize| {
                    let completed = &completed;
                    Box::new(move || {
                        if i == 3 {
                            panic!("task 3 exploded");
                        }
                        completed.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run(tasks);
        }));
        assert!(result.is_err(), "the task panic must resurface");
        // Every non-panicking task still ran: the barrier waits for the
        // whole batch before resuming the panic.
        assert_eq!(completed.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn stats_count_batches_and_tasks() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.stats(), PoolStats::default());
        pool.run(boxed((0..5).map(|i| move || i).collect::<Vec<_>>()));
        pool.run(boxed((0..3).map(|i| move || i).collect::<Vec<_>>()));
        let stats = pool.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.tasks, 8);
        // Queue wait is wall-clock and may legitimately round to zero on
        // an idle pool; it only has to be finite and monotone.
        let again = pool.stats();
        assert!(again.queue_wait_us >= stats.queue_wait_us);
    }

    #[test]
    fn the_global_pool_is_shared_and_sized() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
        let results = a.run(boxed((0..3).map(|i| move || i + 1).collect::<Vec<_>>()));
        assert_eq!(results, vec![1, 2, 3]);
    }
}
