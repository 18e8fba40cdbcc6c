//! Taking turns: how one call runs on more than one core.
//!
//! [`in_turns`] runs a call's chunks on the calling thread and `workers − 1`
//! scoped threads, each claiming the next unclaimed chunk until none is
//! left. It is the only place below `mfn-dist` and `mfn-serve` that starts a
//! thread: the no-grad decode takes its query blocks this way, and the
//! tape's layer node its column slabs and feature rows. The kernels under a
//! chunk stay single-threaded.
//!
//! Taking turns instead of halving the chunks up front is for the host, not
//! the output: a helper that starts late or sits on a core someone else is
//! using slows only the chunks it took. A chunk's result must not depend on
//! which thread computes it, or in what order — each caller's chunks write
//! disjoint parts of its output — so one worker and many give the same
//! bits. At one worker nothing is spawned and the same chunks run in order
//! on the caller.
//!
//! [`ColumnSlabs`] is how turns write one matrix together: a row-major
//! matrix split into slabs of columns, each handed out once.

use crate::gemm::OutputRows;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Mutex;

/// Cores this process may run on, and at least one. Asked per call, not
/// cached: it honours an affinity mask set later.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The chunks of one [`in_turns`] call: iterating `&Turns` claims the next
/// chunk, so each is handed to exactly one worker.
pub struct Turns<I>(Mutex<I>);

impl<I: Iterator> Iterator for &Turns<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        // Held for the `next()` only, so a panic in a turn cannot poison it.
        self.0.lock().expect("no holder panics").next()
    }
}

/// Runs `caller` on this thread and `helper` on up to `workers − 1` scoped
/// threads — no more than `chunks` has chunks — each taking turns at
/// `chunks` until none is left. The caller may do work of its own before
/// or after its turns (the layer backward computes its weight gradient
/// first); with one worker, or one chunk, nothing is spawned.
///
/// Each worker gets its own `scratch()`, all made here before any thread
/// starts and all dropped here after every thread has finished: a turn
/// that draws its buffers from its scratch rather than the workspace pool
/// leaves the pool in a state that does not depend on when the helpers ran.
///
/// The threads live for this call only. A panic in any turn comes out of
/// this call as a panic once the other workers have run out of chunks.
pub fn in_turns<I, S, C, H>(
    workers: usize,
    chunks: I,
    mut scratch: impl FnMut() -> S,
    caller: C,
    helper: H,
) where
    I: Iterator + Send,
    S: Send,
    C: FnOnce(&mut S, &Turns<I>),
    H: Fn(&mut S, &Turns<I>) + Sync,
{
    let most = chunks.size_hint().1.unwrap_or(usize::MAX);
    let helpers = workers.min(most).saturating_sub(1);
    let turns = Turns(Mutex::new(chunks));
    let mut own = scratch();
    if helpers == 0 {
        return caller(&mut own, &turns);
    }
    let mut theirs: Vec<S> = (0..helpers).map(|_| scratch()).collect();
    let (turns, helper) = (&turns, &helper);
    std::thread::scope(|scope| {
        for s in &mut theirs {
            scope.spawn(move || helper(s, turns));
        }
        caller(&mut own, turns);
    });
}

/// A row-major matrix `[rows, cols]` split into slabs of `width` columns —
/// the last one narrower — for turns to write: slab `s` is columns
/// `s·width..` of every row, the output of one GEMM column range
/// (`PackedConv3d::forward_columns`). Each slab is handed out once, and the
/// iterator holds the matrix's one mutable borrow, so no two writers ever
/// share an element.
pub struct ColumnSlabs<'a> {
    ptr: *mut f32,
    rows: usize,
    cols: usize,
    width: usize,
    next: usize,
    _matrix: PhantomData<&'a mut [f32]>,
}

// SAFETY: a `ColumnSlabs` stands for the `&'a mut [f32]` it was made from,
// which is `Send`; it only hands out disjoint slabs of it.
unsafe impl Send for ColumnSlabs<'_> {}

impl<'a> ColumnSlabs<'a> {
    /// Splits `matrix: [rows, cols]` into slabs of `width` columns.
    ///
    /// # Panics
    /// Panics if `matrix` is not `rows · cols` long or `width` is 0.
    pub fn new(matrix: &'a mut [f32], rows: usize, cols: usize, width: usize) -> Self {
        assert_eq!(matrix.len(), rows * cols, "not a [{rows}, {cols}] matrix");
        assert!(width > 0, "a slab holds at least one column");
        let ptr = matrix.as_mut_ptr();
        ColumnSlabs { ptr, rows, cols, width, next: 0, _matrix: PhantomData }
    }
}

impl<'a> Iterator for ColumnSlabs<'a> {
    type Item = ColumnSlab<'a>;

    fn next(&mut self) -> Option<ColumnSlab<'a>> {
        let start = self.next;
        if start >= self.cols {
            return None;
        }
        self.next = self.cols.min(start + self.width);
        let (ptr, rows, cols) = (self.ptr, self.rows, self.cols);
        Some(ColumnSlab { ptr, rows, cols, range: start..self.next, _matrix: PhantomData })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.cols - self.next.min(self.cols)).div_ceil(self.width);
        (left, Some(left))
    }
}

/// One slab of a [`ColumnSlabs`] matrix: the columns [`ColumnSlab::range`]
/// of every row, which only this slab writes. Its rows are GEMM output rows.
pub struct ColumnSlab<'a> {
    ptr: *mut f32,
    rows: usize,
    cols: usize,
    range: Range<usize>,
    _matrix: PhantomData<&'a mut [f32]>,
}

// SAFETY: as for `ColumnSlabs`; the slab's elements belong to it alone.
unsafe impl Send for ColumnSlab<'_> {}

impl ColumnSlab<'_> {
    /// The columns this slab holds.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }
}

impl OutputRows for ColumnSlab<'_> {
    /// Row `r`'s part of the slab.
    ///
    /// # Panics
    /// Panics if `r` is not a row of the matrix.
    fn row(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} of {}", self.rows);
        // SAFETY: `r·cols + range.end <= rows·cols`, inside the matrix, and
        // these columns of every row belong to this slab alone: slabs
        // partition the columns and `ColumnSlabs` hands each out once, while
        // it holds the matrix's only mutable borrow for `'a`. The row is
        // borrowed from `self`, so no two of its rows are live at once.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.ptr.add(r * self.cols + self.range.start),
                self.range.len(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every chunk runs exactly once, on whichever worker claims it, for
    /// more workers than chunks too; the caller's own work runs once.
    #[test]
    fn every_chunk_runs_once_on_any_worker_count() {
        for workers in [1, 2, 3, 8] {
            for chunks in [0, 1, 5, 64] {
                let seen: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
                let mut own = 0;
                let made = AtomicUsize::new(0);
                let take = |_: &mut (), turns: &Turns<std::ops::Range<usize>>| {
                    for c in turns {
                        seen[c].fetch_add(1, Ordering::Relaxed);
                    }
                };
                in_turns(
                    workers,
                    0..chunks,
                    || {
                        made.fetch_add(1, Ordering::Relaxed);
                    },
                    |s, turns| {
                        own += 1;
                        take(s, turns)
                    },
                    take,
                );
                assert_eq!(own, 1);
                let spawned = workers.min(chunks).max(1);
                assert_eq!(made.load(Ordering::Relaxed), spawned, "one scratch a worker");
                assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1), "{workers}/{chunks}");
            }
        }
    }

    /// At one worker, the chunks run in order on the calling thread.
    #[test]
    fn one_worker_runs_the_chunks_in_order_on_the_caller() {
        let me = std::thread::current().id();
        let mut order = Vec::new();
        in_turns(
            1,
            0..10,
            || (),
            |_, turns| {
                for c in turns {
                    assert_eq!(std::thread::current().id(), me);
                    order.push(c);
                }
            },
            |_, _| unreachable!("nothing is spawned"),
        );
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    /// A panic in any turn — here the last chunk, which either worker may
    /// claim — leaves the call as a panic, after the other turns finished.
    #[test]
    fn a_panic_in_any_turn_leaves_the_call_as_a_panic() {
        for workers in [1, 2, 3] {
            let done = AtomicUsize::new(0);
            let take = |_: &mut (), turns: &Turns<std::ops::Range<usize>>| {
                for c in turns {
                    assert!(c != 31, "turn {c} fails");
                    done.fetch_add(1, Ordering::Relaxed);
                }
            };
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                in_turns(workers, 0..32, || (), take, take)
            }));
            assert!(caught.is_err(), "{workers} workers: the panic was lost");
            // The worker that panicked stops; the others run out the chunks.
            assert_eq!(done.load(Ordering::Relaxed), 31, "{workers} workers");
        }
    }

    /// Slabs partition the columns of every row, the last one narrower,
    /// whichever worker writes which.
    #[test]
    fn column_slabs_write_every_element_once() {
        let (rows, cols) = (5, 37);
        for width in [1, 8, 36, 37, 64] {
            for workers in [1, 2, 3] {
                let mut m = vec![-1.0f32; rows * cols];
                let slabs = ColumnSlabs::new(&mut m, rows, cols, width);
                assert_eq!(slabs.size_hint(), (cols.div_ceil(width), Some(cols.div_ceil(width))));
                let write = |_: &mut (), turns: &Turns<ColumnSlabs<'_>>| {
                    for mut slab in turns {
                        for r in 0..rows {
                            let at = r * cols + slab.range().start;
                            for (i, v) in slab.row(r).iter_mut().enumerate() {
                                *v = (at + i) as f32;
                            }
                        }
                    }
                };
                in_turns(workers, slabs, || (), write, write);
                let want: Vec<f32> = (0..m.len()).map(|i| i as f32).collect();
                assert_eq!(m, want, "width {width}, {workers} workers");
            }
        }
    }
}
