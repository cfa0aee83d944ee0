//! CPU placement of the `hot-hits` server.
//!
//! Left to the kernel, the request ping-pong between the client thread
//! and the server's reactor settles for a whole run into one of two
//! placements whose cache-hit latencies differ by half. `hot-hits`
//! therefore boots the server with every thread on one allowed CPU and
//! runs the client on another, as if the client were a separate machine,
//! so every run measures the same placement. `cold-solves` stays
//! unpinned: its CPU-bound solves measured steadier when free to move off
//! a busy CPU. With fewer than two allowed CPUs nothing is pinned.

use std::sync::OnceLock;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the process was allowed at first use.
fn allowed() -> &'static CpuSet {
    static ALLOWED: OnceLock<CpuSet> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            set = [0; 16];
        }
        set
    })
}

fn set_current(set: &CpuSet) {
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread. A failure leaves the placement as
    // it was, which only costs steadiness.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set);
    }
}

fn only(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    set
}

/// The first two allowed CPUs: `(client, server)`.
fn pair() -> Option<(usize, usize)> {
    let set = allowed();
    let mut cpus = (0..1024).filter(|&c| set[c / 64] & (1 << (c % 64)) != 0);
    Some((cpus.next()?, cpus.next()?))
}

/// Runs `boot` with the calling thread on the server CPU (threads it
/// spawns inherit that placement), then moves the calling thread to the
/// client CPU.
pub fn split<T>(boot: impl FnOnce() -> T) -> T {
    let Some((client, server)) = pair() else {
        return boot();
    };
    set_current(&only(server));
    let out = boot();
    set_current(&only(client));
    out
}

/// Lets the calling thread run on every allowed CPU again.
pub fn release() {
    if pair().is_some() {
        set_current(allowed());
    }
}
