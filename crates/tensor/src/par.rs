//! Row-parallel execution of dense numerics.
//!
//! Every GEMM and host aggregation writes each output row from its own
//! inputs alone, so splitting the output into contiguous chunks of whole
//! rows and computing the chunks on different threads leaves every
//! element's accumulation order untouched: the result is bitwise equal
//! at any worker count. [`for_each_row_chunk`] is the one place that
//! split happens. The calling thread computes the last chunk and
//! `workers - 1` scoped threads the others; with one worker, or below
//! [`MIN_WORK_PER_WORKER`], the body runs once over the whole output on
//! the calling thread and nothing is spawned.

use std::ops::Range;

use crate::matrix::Matrix;

/// Minimum work per worker, in multiply-adds: `m·k·n` for a GEMM,
/// `(edges + rows)·d` for an aggregation. Below it a call stays on the
/// calling thread, where spawning a worker would cost more than it saves.
pub const MIN_WORK_PER_WORKER: usize = 1 << 18;

/// Chunks start on multiples of this many rows, so neighbouring chunks
/// rarely share a cache line.
const ROW_ALIGN: usize = 8;

/// Runs `body(rows, chunk)` over contiguous chunks of whole rows of
/// `out`, where `chunk` holds exactly the rows `rows`, on up to `workers`
/// threads. `work` is the call's total multiply-adds; each worker gets at
/// least [`MIN_WORK_PER_WORKER`] of it. `workers` of `0` or `1` is the
/// serial path.
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
    let chunk_rows = rows.div_ceil(workers).next_multiple_of(ROW_ALIGN);
    let mut chunks = data
        .chunks_mut(chunk_rows * cols)
        .enumerate()
        .map(|(i, chunk)| {
            let start = i * chunk_rows;
            (start..start + chunk.len() / cols, chunk)
        });
    let (last_rows, last) = chunks.next_back().expect("rows > 0 when workers > 1");
    std::thread::scope(|s| {
        for (rows, chunk) in chunks {
            let body = &body;
            s.spawn(move || body(rows, chunk));
        }
        body(last_rows, last);
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
