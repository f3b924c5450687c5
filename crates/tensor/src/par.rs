//! Host parallelism: one process-wide pool of persistent helper threads.
//!
//! Every parallel host loop in the workspace — the simulator's sharded
//! block loop (`gnnadvisor-gpu`) and the row-parallel GEMMs and
//! aggregations — runs through [`run`]. The caller runs the job itself
//! beside up to `workers - 1` helpers, and the job hands out its work
//! units from a shared claim counter, so the units a call is cut into
//! depend only on the *requested* worker count, never on how many
//! threads end up running them. That is why results are bitwise equal at
//! any worker count, and why a call that finds the pool busy — another
//! thread's call, or a nested call from inside a job — can simply run
//! the whole job on the calling thread.
//!
//! Helpers start lazily, one per extra worker, and grow to the largest
//! `workers - 1` any call has asked for; they are never torn down. After
//! a job a helper spins for a bounded interval (200 µs) waiting for the
//! next one, then parks on a condition variable, so back-to-back calls
//! (one kernel launch per served batch) pay no thread start-up and no
//! wake-up. With one worker nothing is ever started.
//!
//! Every GEMM and host aggregation writes each output row from its own
//! inputs alone, so splitting the output into contiguous chunks of whole
//! rows and computing the chunks on different threads leaves every
//! element's accumulation order untouched. [`for_each_row_chunk`] is the
//! one place that split happens; with one worker, or below
//! [`MIN_WORK_PER_WORKER`], the body runs once over the whole output on
//! the calling thread.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::matrix::Matrix;

/// Minimum work per worker, in multiply-adds: `m·k·n` for a GEMM,
/// `(edges + rows)·d` for an aggregation. Below it a call stays on the
/// calling thread, where handing a chunk to a helper would cost more than
/// it saves.
pub const MIN_WORK_PER_WORKER: usize = 1 << 18;

/// How long a helper that finished a job spins for the next one before it
/// parks. Long enough to bridge the serial stretch between two kernel
/// launches of a served batch, short enough that an idle process stops
/// burning a core almost at once.
const SPIN: Duration = Duration::from_micros(200);

/// Chunks start on multiples of this many rows, so neighbouring chunks
/// rarely share a cache line.
const ROW_ALIGN: usize = 8;

/// A job the pool runs: it claims work units until none are left.
type Job<'a> = dyn Fn() + Sync + 'a;

/// A panic payload carried from a helper back to the caller.
type Payload = Box<dyn Any + Send + 'static>;

/// Runs `job` on the calling thread and on up to `workers - 1` pool
/// helpers at once, and returns once every helper that took the job has
/// finished it.
///
/// The job must claim its work units from state it shares (a counter, a
/// queue): a call may run it on any number of threads from one (the
/// caller alone) to `workers`, and each unit must run exactly once
/// whichever thread claims it. `workers` of `0` or `1`, or a pool that is
/// busy with another call, runs the job once on the calling thread. A
/// panic in any thread's share is re-raised here.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use gnnadvisor_tensor::par::run;
///
/// let units: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
/// let next = AtomicUsize::new(0);
/// run(4, &|| {
///     while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
///         unit.fetch_add(1, Ordering::Relaxed);
///     }
/// });
/// assert!(units.iter().all(|u| u.load(Ordering::Relaxed) == 1));
/// ```
pub fn run(workers: usize, job: &(dyn Fn() + Sync)) {
    if workers <= 1 || !POOL.try_run(workers - 1, job) {
        job();
    }
}

/// The process-wide pool.
static POOL: Pool = Pool {
    busy: AtomicBool::new(false),
    posted: AtomicU64::new(0),
    running: AtomicUsize::new(0),
    state: Mutex::new(State {
        job: None,
        posted: 0,
        seats: 0,
        running: 0,
        helpers: 0,
        parked: 0,
        caller_waiting: false,
        panic: None,
    }),
    wake: Condvar::new(),
    done: Condvar::new(),
};

struct Pool {
    /// Held by the one call that owns the helpers; a call that finds it
    /// set runs on its own thread.
    busy: AtomicBool,
    /// [`State::posted`], readable without the lock by spinning helpers.
    posted: AtomicU64,
    /// [`State::running`], readable without the lock by a spinning
    /// caller.
    running: AtomicUsize,
    state: Mutex<State>,
    /// Parked helpers wait here for a job.
    wake: Condvar,
    /// The caller waits here for the helpers that took its job.
    done: Condvar,
}

struct State {
    /// The open job, if any; `None` once its caller has closed it.
    job: Option<&'static Job<'static>>,
    /// Jobs posted so far; a helper takes each job at most once.
    posted: u64,
    /// Helpers that may still take the open job.
    seats: usize,
    /// Helpers running the open (or just-closed) job.
    running: usize,
    /// Helpers started so far.
    helpers: usize,
    /// Helpers waiting on [`Pool::wake`].
    parked: usize,
    /// The caller is waiting on [`Pool::done`].
    caller_waiting: bool,
    /// The first panic of a helper's share of the current job.
    panic: Option<Payload>,
}

impl Pool {
    /// The pool state. No code that can panic runs under this lock, so a
    /// poisoned lock still holds consistent state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `job` on the calling thread and up to `seats` helpers, or
    /// returns `false` without running it when another call owns the
    /// pool.
    #[allow(unsafe_code)]
    fn try_run(&'static self, seats: usize, job: &Job<'_>) -> bool {
        if self.busy.swap(true, Ordering::Acquire) {
            return false;
        }
        // SAFETY: the helpers need `job` as `&'static` because they
        // outlive this call; it is only borrowed for this call. The
        // erased reference never reaches a helper after `try_run`
        // returns or unwinds:
        //
        // 1. A helper takes the job (reads `State::job`, takes a seat,
        //    counts itself in `running`) under the state lock, and
        //    `Close` clears `State::job` under that same lock before
        //    waiting for `running` to reach zero. So every helper either
        //    took the job before the close, and is waited for, or finds
        //    it gone. Release/Acquire flags without the lock would not
        //    do: store-buffer reordering could let a helper see the job
        //    after the caller read `running == 0`.
        // 2. `Close` is a drop guard made before the caller's own share
        //    runs, so the wait happens on unwinding too, when `job`
        //    panics on the calling thread.
        // 3. A helper runs its share under `catch_unwind`, so a panic
        //    there still leaves it counted out of `running`; the payload
        //    is re-raised here on the caller once the wait is over.
        let job: &'static Job<'static> =
            unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        let mut helper_panic = None;
        {
            let mut st = self.lock();
            while st.helpers < seats && self.start_helper(st.posted) {
                st.helpers += 1;
            }
            st.job = Some(job);
            st.seats = seats;
            st.posted += 1;
            self.posted.store(st.posted, Ordering::Release);
            for _ in 0..st.parked.min(seats) {
                self.wake.notify_one();
            }
            drop(st);
            let _close = Close {
                pool: self,
                helper_panic: &mut helper_panic,
            };
            job();
        }
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
        true
    }

    /// Starts one helper that will take jobs posted after `posted`;
    /// `false` if the thread could not be started. Helpers are never
    /// joined: they live as long as the process, and no panic unwinds out
    /// of [`Pool::serve`] (shares run under `catch_unwind`).
    fn start_helper(&'static self, posted: u64) -> bool {
        std::thread::Builder::new()
            .name("gnnadvisor-par".into())
            .spawn(move || self.serve(posted))
            .is_ok()
    }

    /// A helper's life: take each posted job at most once, run it, spin
    /// for the next one, park.
    fn serve(&self, mut seen: u64) -> ! {
        let mut spin_until = Instant::now() + SPIN;
        loop {
            spin_while(spin_until, || self.posted.load(Ordering::Acquire) == seen);
            let mut st = self.lock();
            while st.posted == seen {
                st.parked += 1;
                st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.parked -= 1;
            }
            seen = st.posted;
            // A job already closed, or with every seat taken, is missed.
            let job = st.job.filter(|_| st.seats > 0);
            if let Some(job) = job {
                st.seats -= 1;
                st.running += 1;
                self.running.store(st.running, Ordering::Release);
                drop(st);
                let result = panic::catch_unwind(AssertUnwindSafe(job));
                let mut st = self.lock();
                if let Err(payload) = result {
                    st.panic.get_or_insert(payload);
                }
                st.running -= 1;
                self.running.store(st.running, Ordering::Release);
                if st.running == 0 && st.caller_waiting {
                    self.done.notify_one();
                }
            }
            spin_until = Instant::now() + SPIN;
        }
    }
}

/// Closes a call's job when the caller's own share ends, normally or by
/// panic: no helper may take the job afterwards, every helper that took
/// it is waited for, and the pool is released.
struct Close<'a> {
    pool: &'a Pool,
    /// Receives the first helper panic, for the caller to re-raise.
    helper_panic: &'a mut Option<Payload>,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let mut st = self.pool.lock();
        st.job = None;
        st.seats = 0;
        if st.running > 0 {
            // Closed, so `running` only falls from here. The helpers'
            // last units usually end within microseconds of the caller's:
            // spin for them before sleeping.
            drop(st);
            let spin_until = Instant::now() + SPIN;
            spin_while(spin_until, || self.pool.running.load(Ordering::Acquire) > 0);
            st = self.pool.lock();
        }
        while st.running > 0 {
            st.caller_waiting = true;
            st = self
                .pool
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.caller_waiting = false;
        *self.helper_panic = st.panic.take();
        drop(st);
        self.pool.busy.store(false, Ordering::Release);
    }
}

/// Spins while `waiting()` holds, until `until` at the latest.
fn spin_while(until: Instant, waiting: impl Fn() -> bool) {
    let mut spins = 0u32;
    while waiting() && (!spins.is_multiple_of(64) || Instant::now() < until) {
        std::hint::spin_loop();
        spins = spins.wrapping_add(1);
    }
}

/// Runs `body(rows, chunk)` over contiguous chunks of whole rows of
/// `out`, where `chunk` holds exactly the rows `rows`, on up to `workers`
/// threads of the pool. `work` is the call's total multiply-adds; each
/// worker gets at least [`MIN_WORK_PER_WORKER`] of it. `workers` of `0`
/// or `1` is the serial path.
///
/// # Examples
///
/// ```
/// use gnnadvisor_tensor::par::for_each_row_chunk;
/// use gnnadvisor_tensor::Matrix;
///
/// let mut out = Matrix::zeros(3, 2);
/// for_each_row_chunk(&mut out, 4, 6, |rows, chunk| {
///     for (i, row) in rows.zip(chunk.chunks_mut(2)) {
///         row.fill(i as f32);
///     }
/// });
/// assert_eq!(out.as_slice(), &[0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
/// ```
pub fn for_each_row_chunk<F>(out: &mut Matrix, workers: usize, work: usize, body: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    #[cfg(not(test))]
    let min_work = MIN_WORK_PER_WORKER;
    #[cfg(test)]
    let min_work = tests::MIN_WORK.with(std::cell::Cell::get);
    let (rows, cols) = out.shape();
    let by_work = work.checked_div(min_work).unwrap_or(usize::MAX);
    let workers = workers.min(by_work).min(rows.div_ceil(ROW_ALIGN));
    let data = out.as_mut_slice();
    if workers <= 1 || cols == 0 {
        body(0..rows, data);
        return;
    }
    // Each chunk is claimed once, by whichever thread draws its index.
    let chunk_rows = rows.div_ceil(workers).next_multiple_of(ROW_ALIGN);
    let chunks: Vec<_> = data
        .chunks_mut(chunk_rows * cols)
        .enumerate()
        .map(|(i, chunk)| {
            let start = i * chunk_rows;
            Mutex::new(Some((start..start + chunk.len() / cols, chunk)))
        })
        .collect();
    let next = AtomicUsize::new(0);
    run(workers, &|| {
        while let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
            let (rows, chunk) = chunk
                .lock()
                .expect("a chunk's lock is only held to take it")
                .take()
                .expect("each chunk index is drawn once");
            body(rows, chunk);
        }
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::Mutex;

    thread_local! {
        /// This thread's per-worker minimum, [`MIN_WORK_PER_WORKER`]
        /// unless a test lowers it through [`with_min_work`].
        pub(crate) static MIN_WORK: Cell<usize> = const { Cell::new(MIN_WORK_PER_WORKER) };
    }

    /// Runs `f` with the per-worker minimum at `min_work` on this thread,
    /// so tests can split outputs far below the real threshold.
    pub(crate) fn with_min_work<T>(min_work: usize, f: impl FnOnce() -> T) -> T {
        let previous = MIN_WORK.with(|m| m.replace(min_work));
        let out = f();
        MIN_WORK.with(|m| m.set(previous));
        out
    }

    /// The chunks `for_each_row_chunk` hands out, in row order, after checking that
    /// each chunk holds exactly its rows and that they tile the output.
    fn chunks_of(rows: usize, cols: usize, workers: usize, min_work: usize) -> Vec<Range<usize>> {
        let mut out = Matrix::zeros(rows, cols);
        let seen = Mutex::new(Vec::new());
        with_min_work(min_work, || {
            for_each_row_chunk(&mut out, workers, rows * cols, |r, chunk| {
                assert_eq!(chunk.len(), r.len() * cols, "chunk holds rows {r:?}");
                for (i, row) in r.clone().zip(chunk.chunks_mut(cols.max(1))) {
                    row.fill(i as f32);
                }
                seen.lock().unwrap().push(r);
            })
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|r| r.start);
        let mut next = 0;
        for r in &seen {
            assert_eq!(r.start, next, "chunks tile the rows: {seen:?}");
            next = r.end;
        }
        assert_eq!(next, rows, "chunks cover every row: {seen:?}");
        let want = Matrix::from_fn(rows, cols, |r, _| r as f32);
        assert_eq!(out, want, "every row written by its own chunk");
        seen
    }

    #[test]
    fn empty_outputs_run_once_serially() {
        assert_eq!(chunks_of(0, 4, 4, 0), vec![0..0]);
        assert_eq!(chunks_of(0, 0, 4, 0), vec![0..0]);
        assert_eq!(chunks_of(37, 0, 4, 0), vec![0..37], "no columns, no split");
    }

    #[test]
    fn one_worker_is_one_serial_call() {
        assert_eq!(chunks_of(100, 3, 1, 0), vec![0..100]);
        assert_eq!(chunks_of(100, 3, 0, 0), vec![0..100], "0 workers is serial");
        let caller = std::thread::current().id();
        let mut out = Matrix::zeros(1_000, 8);
        for_each_row_chunk(&mut out, 1, usize::MAX, |rows, _| {
            assert_eq!(rows, 0..1_000);
            assert_eq!(std::thread::current().id(), caller, "nothing spawned");
        });
    }

    #[test]
    fn fewer_rows_than_workers() {
        // One aligned chunk's worth of rows: nothing to split.
        assert_eq!(chunks_of(3, 5, 4, 0), vec![0..3]);
        assert_eq!(chunks_of(ROW_ALIGN, 5, 16, 0), vec![0..ROW_ALIGN]);
        // Two aligned chunks for five workers.
        assert_eq!(chunks_of(ROW_ALIGN + 1, 2, 5, 0), vec![0..8, 8..9]);
    }

    #[test]
    fn unaligned_row_counts_leave_a_short_last_chunk() {
        assert_eq!(chunks_of(17, 3, 2, 0), vec![0..16, 16..17]);
        assert_eq!(chunks_of(25, 3, 4, 0), vec![0..8, 8..16, 16..24, 24..25]);
        assert_eq!(chunks_of(100, 1, 3, 0), vec![0..40, 40..80, 80..100]);
        for rows in 1..70 {
            for workers in 1..=5 {
                let got = chunks_of(rows, 2, workers, 0);
                assert!(got.len() <= workers, "{rows} rows, {workers} workers");
                assert!(got.iter().all(|r| r.start % ROW_ALIGN == 0));
            }
        }
    }

    #[test]
    fn more_workers_than_rows() {
        assert_eq!(chunks_of(2, 4, 64, 0), vec![0..2]);
        assert_eq!(chunks_of(20, 4, 64, 0), vec![0..8, 8..16, 16..20]);
    }

    #[test]
    fn small_work_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut out = Matrix::zeros(1_000, 8);
        let work = 2 * MIN_WORK_PER_WORKER - 1;
        for_each_row_chunk(&mut out, 4, work, |rows, _| {
            assert_eq!(rows, 0..1_000);
            assert_eq!(std::thread::current().id(), caller);
        });
        // Enough work for two workers, not four.
        let calls = Mutex::new(0);
        for_each_row_chunk(&mut out, 4, work + 1, |_, _| {
            *calls.lock().unwrap() += 1;
        });
        assert_eq!(calls.into_inner().unwrap(), 2);
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    use std::thread;

    /// Runs `job` with the pool owned by this call, waiting while another
    /// test holds it, so that helpers are known to be available.
    fn run_pooled(workers: usize, job: &Job<'_>) {
        while !POOL.try_run(workers - 1, job) {
            thread::yield_now();
        }
    }

    /// Claims `units` units from a counter and counts each unit's runs.
    fn count_units(workers: usize, units: usize, pooled: bool) -> Vec<usize> {
        let runs: Vec<AtomicUsize> = (0..units).map(|_| AtomicUsize::new(0)).collect();
        let next = AtomicUsize::new(0);
        let job = || {
            while let Some(unit) = runs.get(next.fetch_add(1, Ordering::Relaxed)) {
                unit.fetch_add(1, Ordering::Relaxed);
            }
        };
        if pooled {
            run_pooled(workers, &job);
        } else {
            run(workers, &job);
        }
        runs.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn every_unit_runs_exactly_once_with_more_units_than_helpers() {
        for workers in 1..=8 {
            for units in [0, 1, workers, 3 * workers + 1, 257] {
                let want = vec![1; units];
                assert_eq!(
                    count_units(workers, units, false),
                    want,
                    "{workers} workers"
                );
                if workers > 1 {
                    assert_eq!(count_units(workers, units, true), want, "{workers} pooled");
                }
            }
        }
    }

    #[test]
    fn jobs_write_borrowed_data() {
        let mut data = vec![0u64; 1_000];
        let chunks: Vec<Mutex<Option<&mut [u64]>>> =
            data.chunks_mut(7).map(|c| Mutex::new(Some(c))).collect();
        let next = AtomicUsize::new(0);
        run_pooled(4, &|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = chunks.get(i) else {
                break;
            };
            let chunk = chunk.lock().unwrap().take().unwrap();
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (i * 7 + j) as u64 * 3;
            }
        });
        drop(chunks);
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }

    #[test]
    fn panics_in_either_share_propagate_and_the_pool_recovers() {
        let caller = thread::current().id();
        let on_caller = || thread::current().id() == caller;

        // A helper's share panics while the caller waits for it to start.
        let helper_in = AtomicBool::new(false);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            run_pooled(2, &|| {
                if on_caller() {
                    while !helper_in.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                } else {
                    helper_in.store(true, Ordering::Release);
                    panic!("helper share");
                }
            })
        }))
        .expect_err("the helper's panic reaches the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"helper share"));

        // The caller's share panics while a helper is still running: the
        // call must not return before the helper is done.
        let (helper_in, caller_failing, helper_done) = (
            AtomicBool::new(false),
            AtomicBool::new(false),
            AtomicBool::new(false),
        );
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            run_pooled(2, &|| {
                if on_caller() {
                    while !helper_in.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    caller_failing.store(true, Ordering::Release);
                    panic!("caller share");
                } else {
                    helper_in.store(true, Ordering::Release);
                    while !caller_failing.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    for _ in 0..10_000 {
                        std::hint::spin_loop();
                    }
                    helper_done.store(true, Ordering::Release);
                }
            })
        }))
        .expect_err("the caller's panic propagates");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"caller share"));
        assert!(helper_done.load(Ordering::Acquire), "helper waited for");

        // The pool still hands jobs to helpers.
        let helper_in = AtomicBool::new(false);
        run_pooled(2, &|| {
            if on_caller() {
                while !helper_in.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            } else {
                helper_in.store(true, Ordering::Release);
            }
        });
        assert_eq!(count_units(3, 100, true), vec![1; 100]);
    }

    /// Sums `lo..hi` on `workers` workers, one claimed unit per 100
    /// numbers; `inner` runs once, from inside the job.
    fn sum(workers: usize, lo: u64, hi: u64, inner: &(dyn Fn() + Sync)) -> u64 {
        let total = AtomicU64::new(0);
        let next = AtomicU64::new(lo);
        let once = AtomicBool::new(false);
        run(workers, &|| loop {
            let start = next.fetch_add(100, Ordering::Relaxed);
            if start >= hi {
                break;
            }
            if !once.swap(true, Ordering::Relaxed) {
                inner();
            }
            total.fetch_add((start..(start + 100).min(hi)).sum(), Ordering::Relaxed);
        });
        total.into_inner()
    }

    #[test]
    fn concurrent_callers_and_a_nested_call_agree() {
        let start = Barrier::new(8);
        let nested = AtomicU64::new(0);
        let sums: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let (start, nested) = (&start, &nested);
                    s.spawn(move || {
                        start.wait();
                        let hi = 10_000 + t * 1_000;
                        if t == 0 {
                            sum(4, 0, hi, &|| {
                                let inner = sum(3, 5, 5_000, &|| {});
                                nested.store(inner, Ordering::Relaxed);
                            })
                        } else {
                            sum(t as usize + 1, 0, hi, &|| {})
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, &got) in sums.iter().enumerate() {
            let hi = 10_000 + t as u64 * 1_000;
            assert_eq!(got, hi * (hi - 1) / 2, "caller {t}");
        }
        assert_eq!(nested.into_inner(), (5..5_000).sum::<u64>());
    }

    #[test]
    fn one_worker_never_leaves_the_calling_thread() {
        let caller = thread::current().id();
        for workers in [0, 1] {
            let runs = AtomicUsize::new(0);
            run(workers, &|| {
                assert_eq!(thread::current().id(), caller);
                runs.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(runs.into_inner(), 1);
        }
    }
}
