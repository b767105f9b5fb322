//! A persistent worker pool shared by every parallel kernel in the crate.
//!
//! The pool spawns its helper threads once per process, parks them on a
//! condvar between jobs, and hands out *jobs* — a closure run once per
//! worker index — so a factorization-sized pipeline pays one wakeup per
//! phase instead of one thread spawn (~50 µs each) per threaded
//! [`gemm_with`](crate::gemm::gemm_with) call on the critical path of
//! every trailing update.
//!
//! Design constraints, in order:
//!
//! * **Determinism is the caller's problem, re-entrancy is ours.** A job
//!   that calls [`WorkerPool::run`] again (e.g. a TRSM slice whose trailing
//!   update calls `gemm_auto`) must not deadlock on the busy pool; nested
//!   submissions execute every worker index inline on the calling thread.
//!   Kernels built on the pool are written so their results do not depend
//!   on which thread ran which index (see the bitwise-parity notes in
//!   [`lu_parallel`][mod@crate::lu_parallel]).
//! * **Oversubscription is allowed.** A caller may ask for more workers
//!   than cores (CI pins `DENSELIN_THREADS`); the pool grows lazily to the
//!   largest request and never shrinks.
//! * **Panics propagate.** A panicking worker poisons the job; `run`
//!   re-panics on the submitting thread after every worker has retired, so
//!   no stack borrow escapes.

use std::cell::Cell;
use std::sync::{Condvar, Mutex, OnceLock};

/// Raw pointer into a shared buffer that pool jobs may cross thread
/// boundaries with. Soundness rests on the job handing out pairwise
/// disjoint regions of the buffer (every user documents its split).
pub(crate) struct SyncPtr(pub(crate) *mut f64);
unsafe impl Send for SyncPtr {}
unsafe impl Sync for SyncPtr {}

impl SyncPtr {
    /// The wrapped pointer. Going through a method (rather than field
    /// access) makes closures capture the `Sync` wrapper, not the raw
    /// pointer field.
    pub(crate) fn get(&self) -> *mut f64 {
        self.0
    }
}

/// A job handed to the pool: a closure pointer (lifetime-erased; `run`
/// does not return before every participant is done with it) plus the
/// number of worker indices to cover.
#[derive(Clone, Copy)]
struct Job {
    /// Type- and lifetime-erased `&dyn Fn(usize) + Sync` from `run`'s
    /// caller. Valid until the submitting `run` observes `active == 0`.
    f: *const (dyn Fn(usize) + Sync),
    /// Worker indices `0..workers` are executed; index 0 runs on the
    /// submitting thread.
    workers: usize,
    /// Submission counter, so a helper never re-runs a job it has seen.
    epoch: u64,
    /// The submitter's test-only forced blocking, which the helpers run
    /// the job under.
    #[cfg(test)]
    blocking: Option<crate::gemm::GemmBlocking>,
}

// SAFETY: the raw closure pointer is only dereferenced while the submitting
// `run` call is blocked waiting for `active == 0`, which keeps the referent
// alive; `Sync` on the closure makes concurrent calls sound.
unsafe impl Send for Job {}

struct Shared {
    job: Option<Job>,
    epoch: u64,
    /// Helpers that have not yet retired from the current epoch.
    active: usize,
    /// Helper threads spawned so far (their indices are `1..=helpers`).
    helpers: usize,
    /// Set when any worker panicked during the current job.
    poisoned: bool,
}

/// A process-wide pool of parked helper threads executing indexed jobs.
///
/// Obtain it via [`global`]; see the module docs for the contract.
pub struct WorkerPool {
    shared: Mutex<Shared>,
    work: Condvar,
    done: Condvar,
}

thread_local! {
    /// True while this thread is executing a pool job (helper or submitter),
    /// so nested `run` calls degrade to inline serial execution.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// The process-wide pool. Helpers are spawned lazily by the first `run`
/// that needs them and persist (parked) for the process lifetime.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool {
        shared: Mutex::new(Shared {
            job: None,
            epoch: 0,
            active: 0,
            helpers: 0,
            poisoned: false,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    })
}

impl WorkerPool {
    /// Execute `f(w)` once for every worker index `w in 0..workers`.
    /// Index 0 runs on the calling thread; the rest run on parked helper
    /// threads (spawned on first use). Returns after every index has
    /// completed. Nested calls (from inside a job) run all indices inline
    /// on the caller — the pool never deadlocks on itself.
    ///
    /// # Panics
    /// Re-panics on the calling thread if any worker index panicked.
    pub fn run(&'static self, workers: usize, f: &(dyn Fn(usize) + Sync)) {
        let workers = workers.max(1);
        if workers == 1 || IN_JOB.with(|c| c.get()) {
            for w in 0..workers {
                f(w);
            }
            return;
        }

        {
            let mut g = self.shared.lock().unwrap();
            // Wait out any job submitted by another thread (two top-level
            // submitters are rare but legal, e.g. two solversrv workers).
            while g.job.is_some() {
                g = self.done.wait(g).unwrap();
            }
            while g.helpers < workers - 1 {
                g.helpers += 1;
                spawn_helper(self, g.helpers, g.epoch);
            }
            g.epoch += 1;
            g.active = g.helpers;
            g.poisoned = false;
            g.job = Some(Job {
                // SAFETY(lifetime erasure): see `Job.f` — we block below
                // until every helper retires before returning.
                f: unsafe {
                    std::mem::transmute::<
                        *const (dyn Fn(usize) + Sync + '_),
                        *const (dyn Fn(usize) + Sync + 'static),
                    >(f as *const _)
                },
                workers,
                epoch: g.epoch,
                #[cfg(test)]
                blocking: crate::gemm::test_blocking::forced_blocking(),
            });
            self.work.notify_all();
        }

        IN_JOB.with(|c| c.set(true));
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0)));
        IN_JOB.with(|c| c.set(false));

        let poisoned = {
            let mut g = self.shared.lock().unwrap();
            while g.active > 0 {
                g = self.done.wait(g).unwrap();
            }
            g.job = None;
            self.done.notify_all();
            g.poisoned
        };
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        if poisoned {
            panic!("worker pool job panicked on a helper thread");
        }
    }
}

fn spawn_helper(pool: &'static WorkerPool, id: usize, seen_epoch: u64) {
    std::thread::Builder::new()
        .name(format!("denselin-pool-{id}"))
        .spawn(move || helper_loop(pool, id, seen_epoch))
        .expect("failed to spawn denselin pool helper");
}

fn helper_loop(pool: &'static WorkerPool, id: usize, mut seen: u64) {
    loop {
        let job = {
            let mut g = pool.shared.lock().unwrap();
            loop {
                match g.job {
                    Some(j) if j.epoch != seen => break j,
                    _ => g = pool.work.wait(g).unwrap(),
                }
            }
        };
        seen = job.epoch;
        let mut panicked = false;
        if id < job.workers {
            IN_JOB.with(|c| c.set(true));
            #[cfg(test)]
            let _blocking = crate::gemm::test_blocking::force_blocking(job.blocking);
            // SAFETY: the submitter blocks until we retire (below), so the
            // closure behind the raw pointer is still alive.
            let f = unsafe { &*job.f };
            panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(id))).is_err();
            IN_JOB.with(|c| c.set(false));
        }
        let mut g = pool.shared.lock().unwrap();
        if panicked {
            g.poisoned = true;
        }
        g.active -= 1;
        if g.active == 0 {
            pool.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_index_exactly_once() {
        for workers in [1, 2, 3, 5, 8] {
            let hits: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
            global().run(workers, &|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
            for (w, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {w} of {workers}");
            }
        }
    }

    #[test]
    fn nested_run_executes_inline() {
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        global().run(3, &|_| {
            outer.fetch_add(1, Ordering::Relaxed);
            global().run(4, &|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 3);
        assert_eq!(inner.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn sequential_jobs_reuse_helpers() {
        for round in 0..32 {
            let sum = AtomicUsize::new(0);
            global().run(4, &|w| {
                sum.fetch_add(w + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 10, "round {round}");
        }
    }

    #[test]
    fn helper_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            global().run(2, &|w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
        // and the pool still works afterwards
        let ok = AtomicUsize::new(0);
        global().run(2, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }
}
