//! Parked helper threads: the one fork-join mechanism of the workspace.
//! The solver's worker pool (`crate::parallel`) runs on them, and so does
//! any other caller's fork-join through [`fork_join`] (the runtime's
//! `par_map_with`, behind fleet evaluation and `/v1/batch`).
//!
//! Spawning workers afresh costs more than a median arrival re-solve can
//! spare: on a 2-vCPU host a `thread::scope` with two spawned threads
//! took 44–50 µs at p50. So the calling thread does a share of the work
//! itself and hands the rest to helper threads that outlive the call.
//! Between calls they park on a condvar, and a call pays a wake per
//! helper instead (10–12 µs at p50 to wake one and join it).
//!
//! * Helpers are spawned lazily, by the first call that finds too few of
//!   them idle, so a process that never runs a fork-join starts none.
//! * A call *claims* idle helpers for its whole duration and returns
//!   them when it ends. Concurrent calls never share a helper, so none
//!   waits on another's, and the pool grows to the peak number of
//!   helpers claimed at once, never beyond.
//! * A helper runs its task under `catch_unwind` and stays alive; the
//!   claiming call re-raises the first panic once every helper it claimed
//!   has finished, as `thread::scope` does.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A borrowed task with its lifetime erased; see the `SAFETY:` comment in
/// [`Pool::run`] for why no helper calls it after the borrow ends.
type Task = &'static (dyn Fn(usize) + Sync);

/// A caught panic's payload.
type Panic = Box<dyn Any + Send>;

/// What a helper is doing, as seen by it and by the call that claimed it.
enum Slot {
    /// Parked, waiting for a task.
    Idle,
    /// Handed `task`, to be called with this helper's index in the call.
    Run(Task, usize),
    /// The task returned, with its panic payload if it panicked.
    Done(Option<Panic>),
}

/// One helper thread's slot. The helper and the call that claimed it take
/// turns waiting on `wake`: the helper while its slot is not `Run`, the
/// call while it is, so one `notify_one` always reaches the right side.
struct Helper {
    slot: Mutex<Slot>,
    wake: Condvar,
}

impl Helper {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        // No lock here is held while user code runs, so none is poisoned.
        self.slot.lock().expect("helper slot lock")
    }
}

/// A set of parked helper threads; [`POOL`] is the process-wide one.
/// Helpers live as long as the process: dropping a pool leaves its idle
/// helpers parked.
pub(crate) struct Pool {
    idle: Mutex<Vec<Arc<Helper>>>,
    spawned: AtomicUsize,
}

/// The helpers every parallel solve and every [`fork_join`] draws from.
pub(crate) static POOL: Pool = Pool::new();

/// Available CPUs, or 1 where the count cannot be read: what "one worker
/// per CPU" means everywhere, for the solver's `threads: 0`, the fleet's
/// default worker count and the serve daemon's default alike.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Calls `task(i)` for every `i < helpers` on a parked helper thread
/// while the calling thread runs `work`, and returns `work`'s result
/// once every task has returned. With `helpers == 0` this is `work()`.
/// A panic in `work` or in a task is re-raised here after every task has
/// returned. If the OS refuses a new helper thread, fewer tasks run, so
/// hand out work such that `work` alone could complete it (e.g. from a
/// shared cursor).
pub fn fork_join<R>(helpers: usize, task: &(dyn Fn(usize) + Sync), work: impl FnOnce() -> R) -> R {
    POOL.run(helpers, task, work)
}

impl Pool {
    pub(crate) const fn new() -> Self {
        Pool {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
        }
    }

    /// [`fork_join`] on this pool's helpers.
    pub(crate) fn run<R>(
        &self,
        helpers: usize,
        task: &(dyn Fn(usize) + Sync),
        work: impl FnOnce() -> R,
    ) -> R {
        // SAFETY: the `'static` reference lives only in the `Slot::Run` of
        // helpers held by `crew`. A helper calls it only while its slot is
        // `Run` and leaves `Run` (for `Done`) only after the call returned
        // or unwound. `crew` waits until none of its helpers is in `Run`,
        // on the way out of this function whether it returns (`join`) or
        // unwinds (`Drop`). So no helper touches `task`, or anything it
        // borrows, after this call ends.
        let task: Task = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), Task>(task) };
        let mut crew = Crew {
            pool: self,
            helpers: self.claim(helpers),
        };
        for (i, helper) in crew.helpers.iter().enumerate() {
            *helper.lock() = Slot::Run(task, i);
            helper.wake.notify_one();
        }
        let out = work();
        if let Some(panic) = crew.join() {
            resume_unwind(panic);
        }
        out
    }

    /// Takes up to `n` idle helpers, spawning what is missing.
    fn claim(&self, n: usize) -> Vec<Arc<Helper>> {
        if n == 0 {
            return Vec::new();
        }
        let mut claimed = {
            let mut idle = self.idle.lock().expect("pool lock");
            let keep = idle.len().saturating_sub(n);
            idle.split_off(keep)
        };
        while claimed.len() < n {
            let helper = Arc::new(Helper {
                slot: Mutex::new(Slot::Idle),
                wake: Condvar::new(),
            });
            let parked = Arc::clone(&helper);
            let spawned = std::thread::Builder::new()
                .name("haxconn-helper".into())
                .spawn(move || park(&parked));
            if spawned.is_err() {
                break;
            }
            self.spawned.fetch_add(1, Ordering::Relaxed);
            claimed.push(helper);
        }
        claimed
    }
}

/// A helper thread's life: park until handed a task, run it, report back.
fn park(helper: &Helper) {
    let mut slot = helper.lock();
    loop {
        if let Slot::Run(task, index) = *slot {
            drop(slot);
            let panic = catch_unwind(AssertUnwindSafe(|| task(index))).err();
            slot = helper.lock();
            *slot = Slot::Done(panic);
            helper.wake.notify_one();
        }
        slot = helper.wake.wait(slot).expect("helper slot lock");
    }
}

/// The helpers one [`Pool::run`] claimed. Waiting for them is the latch
/// that keeps the borrowed task alive; dropping the crew waits too, so an
/// unwinding caller cannot leave a helper running on its stack.
struct Crew<'p> {
    pool: &'p Pool,
    helpers: Vec<Arc<Helper>>,
}

impl Crew<'_> {
    /// Waits for every helper to finish, returns them to the pool's idle
    /// list, and hands back the first panic payload.
    fn join(&mut self) -> Option<Panic> {
        if self.helpers.is_empty() {
            return None;
        }
        let mut first = None;
        for helper in &self.helpers {
            let mut slot = helper.lock();
            while matches!(*slot, Slot::Run(..)) {
                slot = helper.wake.wait(slot).expect("helper slot lock");
            }
            if let Slot::Done(Some(panic)) = std::mem::replace(&mut *slot, Slot::Idle) {
                first.get_or_insert(panic);
            }
        }
        let mut idle = self.pool.idle.lock().expect("pool lock");
        idle.append(&mut self.helpers);
        first
    }
}

impl Drop for Crew<'_> {
    fn drop(&mut self) {
        // Only reached with helpers left when `work` unwound: its panic
        // wins, so the helpers' payloads are dropped.
        self.join();
    }
}

#[cfg(test)]
impl Pool {
    /// Helper threads this pool has spawned so far.
    pub(crate) fn spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }
}
