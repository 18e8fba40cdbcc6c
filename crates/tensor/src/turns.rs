//! Taking turns: how one call runs on more than one core.
//!
//! [`in_turns`] runs a call's chunks on the calling thread and up to
//! `workers − 1` helpers, each claiming the next unclaimed chunk until none
//! is left. It is the only place below `mfn-dist` and `mfn-serve` that starts
//! a thread: the no-grad decode takes its query blocks this way, the tape's
//! layer node its column slabs and feature rows, and the tape's conv node its
//! batch items and weight-gradient blocks. The kernels under a chunk stay
//! single-threaded.
//!
//! Taking turns instead of halving the chunks up front is for the host, not
//! the output: a helper that starts late or sits on a core someone else is
//! using slows only the chunks it took. A chunk's result must not depend on
//! which thread computes it, or in what order — each caller's chunks write
//! disjoint parts of its output — so one worker and many give the same
//! bits. At one worker nothing is handed to a helper and the same chunks run
//! in order on the caller.
//!
//! The helpers belong to the thread that calls: each thread hires its own
//! the first time a call needs them, keeps them between calls, and they exit
//! when it does. A training step runs dozens of rounds of turns, and a
//! thread spawned and joined per round cost more than many a round's chunks; a helper that has finished a round checks for the next one for
//! [`SPIN`] before it blocks, and the caller checks for its helpers'
//! reports the same way (DESIGN §9, "Helpers that wait between turns").
//!
//! [`ColumnSlabs`] is how turns write one matrix together: a row-major
//! matrix split into slabs of columns, each handed out once.

use crate::gemm::OutputRows;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a helper that has finished its turns keeps checking for the
/// next call's before it blocks, and how long a caller checks for a
/// helper's report before it blocks. Long enough to span nearly every gap
/// between two rounds of a training step's turns, so a busy thread's helpers
/// seldom sleep; short enough that an idle thread's give their core back within a
/// fraction of a millisecond (DESIGN §9 gives the figures it is set from).
pub const SPIN: Duration = Duration::from_micros(200);

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

/// Runs `caller` on this thread and `helper` on up to `workers − 1` of this
/// thread's helpers — no more than `chunks` has chunks — each taking turns at
/// `chunks` until none is left. The caller may do work of its own before or
/// after its turns (the layer backward computes its weight gradient first);
/// with one worker, or one chunk, no helper is involved.
///
/// Each worker gets its own `scratch()`, all made here before any turn
/// starts and all dropped here after the last one has ended: a turn that
/// draws its buffers from its scratch rather than the workspace pool leaves
/// the pool in a state that does not depend on when the helpers ran.
///
/// The call returns once every helper it used has reported back. A helper
/// that has not yet picked its share up by then — one asleep when the caller
/// ran out of chunks — has its share run by the caller instead. A panic in
/// any turn comes out of this call as a panic once the other workers have run
/// out of chunks; the helper it happened on serves the next call. A call
/// made from inside a turn of this thread runs on the caller alone.
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
    let theirs: Vec<Mutex<S>> = (0..helpers).map(|_| Mutex::new(scratch())).collect();
    let share =
        |i: usize| helper(&mut theirs[i].lock().unwrap_or_else(PoisonError::into_inner), &turns);
    let mut caller = Some(|| caller(&mut own, &turns));
    let _ = CREW.try_with(|crew| {
        if let Ok(mut crew) = crew.try_borrow_mut() {
            let caller = caller.take().expect("the caller runs once");
            crew.run(helpers, &share, caller);
        }
    });
    // This thread's crew is busy (a call from inside a turn) or gone (a call
    // from a thread-local destructor): the caller takes every turn.
    if let Some(caller) = caller {
        caller();
    }
}

thread_local! {
    /// This thread's helpers, hired by its first call that needs them.
    static CREW: RefCell<Crew> = RefCell::new(Crew::default());
}

/// One call's share for helper `i`, its lifetime erased ([`Crew::run`]).
type Share = &'static (dyn Fn(usize) + Sync);

/// The helpers of one thread, each with the slot it is handed work through.
/// Dropped with the thread: each helper is told to exit and joined.
#[derive(Default)]
struct Crew {
    slots: Vec<Arc<Slot>>,
    helpers: Vec<JoinHandle<()>>,
}

impl Crew {
    /// Runs `caller` here and `share(i)` on helper `i` for `i <
    /// helpers`, hiring helpers up to that count (as many as the host lets
    /// it start: a share that finds no helper is the caller's), and
    /// returns or unwinds once every helper has reported back.
    fn run(&mut self, helpers: usize, share: &(dyn Fn(usize) + Sync), caller: impl FnOnce()) {
        while self.slots.len() < helpers && self.hire() {}
        let helpers = helpers.min(self.slots.len());
        // SAFETY: `share` borrows the caller's frame, which outlives this
        // call. No helper touches it after reporting back: a helper takes the
        // share out of its slot, calls it, drops it and then reports. And
        // this function neither returns nor unwinds before every slot it
        // posted to has either reported back or had the share taken back
        // unrun: the caller's panic is caught, `Slot::collect` cannot panic,
        // and the panics it returns are resumed only after the last one.
        let share = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Share>(share) };
        for (i, slot) in self.slots[..helpers].iter().enumerate() {
            slot.post(share, i);
        }
        let mine = panic::catch_unwind(AssertUnwindSafe(caller));
        let theirs: Vec<thread::Result<()>> =
            self.slots[..helpers].iter().map(|slot| slot.collect()).collect();
        for outcome in std::iter::once(mine).chain(theirs) {
            if let Err(payload) = outcome {
                panic::resume_unwind(payload);
            }
        }
    }

    /// Starts one more helper; false if the host would not.
    fn hire(&mut self) -> bool {
        let slot = Arc::new(Slot::default());
        let theirs = Arc::clone(&slot);
        #[cfg(test)]
        let live = tests::Live::new(thread::current().id());
        let started = thread::Builder::new().name("mfn-turns".into()).spawn(move || {
            #[cfg(test)]
            let _live = live;
            theirs.serve()
        });
        let Ok(helper) = started else { return false };
        self.slots.push(slot);
        self.helpers.push(helper);
        true
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        for slot in &self.slots {
            slot.lock().exit = true;
            slot.posted.store(true, Ordering::Release);
            slot.to_helper.notify_one();
        }
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
}

/// Where one helper gets its share of a call and reports back. The flags
/// mirror the mail for a side that is still spinning; the mail, under its
/// lock, is what counts.
#[derive(Default)]
struct Slot {
    mail: Mutex<Mail>,
    to_helper: Condvar,
    to_owner: Condvar,
    /// A share is posted.
    posted: AtomicBool,
    /// An outcome is reported.
    reported: AtomicBool,
}

#[derive(Default)]
struct Mail {
    share: Option<(Share, usize)>,
    outcome: Option<thread::Result<()>>,
    exit: bool,
    helper_blocked: bool,
    owner_blocked: bool,
}

impl Slot {
    fn lock(&self) -> MutexGuard<'_, Mail> {
        self.mail.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper's loop: take a share, run it, report, until told to exit.
    fn serve(&self) {
        loop {
            spin_until(&self.posted);
            // The share is taken, run and dropped inside this block: nothing
            // of the call it came from is left by the time of the report.
            let outcome = {
                let mut mail = self.lock();
                while mail.share.is_none() && !mail.exit {
                    mail.helper_blocked = true;
                    mail = self.to_helper.wait(mail).unwrap_or_else(PoisonError::into_inner);
                    mail.helper_blocked = false;
                }
                let Some((share, i)) = mail.share.take() else { return };
                self.posted.store(false, Ordering::Relaxed);
                drop(mail);
                panic::catch_unwind(AssertUnwindSafe(|| share(i)))
            };
            let mut mail = self.lock();
            mail.outcome = Some(outcome);
            self.reported.store(true, Ordering::Release);
            if mail.owner_blocked {
                self.to_owner.notify_one();
            }
        }
    }

    /// Hands share `i` to the helper.
    fn post(&self, share: Share, i: usize) {
        let mut mail = self.lock();
        mail.share = Some((share, i));
        self.posted.store(true, Ordering::Release);
        if mail.helper_blocked {
            self.to_helper.notify_one();
        }
    }

    /// The outcome of the posted share, once the helper has reported it —
    /// or, if the helper has not picked the share up yet, of running it here.
    fn collect(&self) -> thread::Result<()> {
        let untaken = {
            let mut mail = self.lock();
            self.posted.store(false, Ordering::Relaxed);
            mail.share.take()
        };
        if let Some((share, i)) = untaken {
            return panic::catch_unwind(AssertUnwindSafe(|| share(i)));
        }
        spin_until(&self.reported);
        let mut mail = self.lock();
        loop {
            if let Some(outcome) = mail.outcome.take() {
                self.reported.store(false, Ordering::Relaxed);
                return outcome;
            }
            mail.owner_blocked = true;
            mail = self.to_owner.wait(mail).unwrap_or_else(PoisonError::into_inner);
            mail.owner_blocked = false;
        }
    }
}

/// Checks `flag` until it is set or [`SPIN`] has passed, yielding the core
/// every 64 checks so that a thread it shares one with gets to set it.
fn spin_until(flag: &AtomicBool) {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if flag.load(Ordering::Acquire) {
                return;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN {
            return;
        }
        thread::yield_now();
    }
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
    use std::sync::atomic::AtomicUsize;
    use std::thread::ThreadId;

    /// The owner of every helper alive, one entry per helper.
    static LIVE: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

    /// A helper's entry in [`LIVE`], from its hiring to its thread's end.
    pub(super) struct Live(ThreadId);

    impl Live {
        pub(super) fn new(owner: ThreadId) -> Self {
            LIVE.lock().unwrap().push(owner);
            Live(owner)
        }
    }

    impl Drop for Live {
        fn drop(&mut self) {
            let mut live = LIVE.lock().unwrap();
            let at = live.iter().position(|&o| o == self.0).expect("an entry per helper");
            live.swap_remove(at);
        }
    }

    /// Helpers alive that `owner` hired.
    fn live(owner: ThreadId) -> usize {
        LIVE.lock().unwrap().iter().filter(|&&o| o == owner).count()
    }

    /// Waits for `flag`, yielding the core.
    fn wait_for(flag: &AtomicBool) {
        while !flag.load(Ordering::Acquire) {
            thread::yield_now();
        }
    }

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

    /// A helper whose turn panicked reports the panic and serves the next
    /// call: the same thread, and no second one hired.
    #[test]
    fn a_helper_whose_turn_panicked_serves_the_next_call() {
        thread::spawn(|| {
            let me = thread::current().id();
            let (ran_on, started, done) =
                (Mutex::new(Vec::new()), AtomicBool::new(false), AtomicUsize::new(0));
            // The caller waits for the helper's turn to start, so the
            // helper, not the caller, is the one whose turn fails.
            let call = |fails: bool| {
                started.store(false, Ordering::Release);
                in_turns(
                    2,
                    0..4,
                    || (),
                    |_, turns| {
                        wait_for(&started);
                        turns.for_each(|_| {
                            done.fetch_add(1, Ordering::Relaxed);
                        })
                    },
                    |_, turns| {
                        ran_on.lock().unwrap().push(thread::current().id());
                        started.store(true, Ordering::Release);
                        assert!(!fails, "the helper's turn fails");
                        turns.for_each(|_| {
                            done.fetch_add(1, Ordering::Relaxed);
                        })
                    },
                )
            };
            let caught = panic::catch_unwind(AssertUnwindSafe(|| call(true)));
            assert!(caught.is_err(), "the helper's panic was lost");
            done.store(0, Ordering::Relaxed);
            call(false);
            assert_eq!(done.load(Ordering::Relaxed), 4, "every chunk of the second call ran");
            let ran_on = ran_on.into_inner().unwrap();
            assert_eq!(ran_on.len(), 2);
            assert!(ran_on[0] == ran_on[1] && ran_on[0] != me, "{ran_on:?}");
            assert_eq!(live(me), 1, "a second helper was hired");
        })
        .join()
        .expect("the owner thread passes");
    }

    /// Two threads that take turns at once each do so with helpers of their
    /// own, and every chunk of each call runs exactly once.
    #[test]
    fn callers_at_once_each_get_their_own_helpers() {
        const CHUNKS: usize = 64;
        let barrier = std::sync::Barrier::new(2);
        let calls: Vec<(ThreadId, Vec<ThreadId>)> = thread::scope(|scope| {
            let call = || {
                let me = thread::current().id();
                let ran: Vec<Mutex<Vec<ThreadId>>> =
                    (0..CHUNKS).map(|_| Mutex::default()).collect();
                let take = |_: &mut (), turns: &Turns<Range<usize>>| {
                    for c in turns {
                        ran[c].lock().unwrap().push(thread::current().id());
                        thread::sleep(Duration::from_micros(50));
                    }
                };
                barrier.wait();
                in_turns(3, 0..CHUNKS, || (), take, take);
                assert_eq!(live(me), 2, "each caller hires its own two helpers");
                let ran: Vec<Vec<ThreadId>> =
                    ran.into_iter().map(|r| r.into_inner().unwrap()).collect();
                assert!(ran.iter().all(|r| r.len() == 1), "a chunk ran other than once");
                (me, ran.into_iter().flatten().collect())
            };
            let (a, b) = (scope.spawn(call), scope.spawn(call));
            [a, b].map(|h| h.join().expect("a caller passes")).into()
        });
        let (a, b) = (&calls[0], &calls[1]);
        assert!(!a.1.contains(&b.0) && !b.1.contains(&a.0), "a caller ran the other's chunks");
        assert!(a.1.iter().all(|t| !b.1.contains(t)), "a helper served both callers");
    }

    /// Helpers are hired on first need, kept between calls, and exit with
    /// the thread that hired them.
    #[test]
    fn helpers_exit_with_their_owner_thread() {
        let owner = thread::spawn(|| {
            let me = thread::current().id();
            let take = |_: &mut (), turns: &Turns<Range<usize>>| turns.for_each(drop);
            in_turns(1, 0..8, || (), take, take);
            assert_eq!(live(me), 0, "one worker hires nobody");
            in_turns(3, 0..8, || (), take, take);
            assert_eq!(live(me), 2);
            in_turns(2, 0..8, || (), take, take);
            in_turns(3, 0..8, || (), take, take);
            assert_eq!(live(me), 2, "helpers are kept between calls");
            me
        })
        .join()
        .expect("the owner thread passes");
        assert_eq!(live(owner), 0, "a helper outlived its owner");
    }
}
