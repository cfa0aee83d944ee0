//! Allocation-truth: a counting global allocator and a scoped guard
//! that *proves* a region of code performed zero heap allocations.
//!
//! The steady-state loops in this workspace — DES replay across a fleet
//! batch, B&B node expansion, LNS repair — are documented as
//! allocation-free. Documentation rots; this module makes the claim
//! machine-checkable. When the workspace is built with the
//! `alloc-truth` cargo feature, a `CountingAllocator` wrapping
//! [`std::alloc::System`] is installed as the `#[global_allocator]`.
//! It increments two thread-local counters (allocation count and bytes
//! requested) on every `alloc`/`realloc`/`alloc_zeroed`; `dealloc` is
//! free. The counters are plain `Cell<u64>`s initialised with a `const`
//! block, so reading or bumping them can never itself allocate (a lazy
//! thread-local would recurse into the allocator on first touch).
//!
//! Without the feature the allocator is not installed, [`is_counting`]
//! returns `false`, and every API below compiles to a no-op returning
//! zeros — callers can leave guards in place unconditionally.
//!
//! # Reading the counters
//!
//! * [`current`] — the calling thread's running totals since thread
//!   start. Totals are per-thread by design: a guard on a worker thread
//!   is not polluted by a sibling's allocations.
//! * [`AllocGuard`] — scoped delta: [`AllocGuard::begin`] snapshots the
//!   totals, [`AllocGuard::finish`] returns the delta, and
//!   [`AllocGuard::assert_zero`] panics (naming the guard's label) if
//!   the region allocated while counting was on.
//! * [`phase`] — runs a closure under a guard and, when telemetry is
//!   enabled, drains the delta into the `alloc.count.<phase>` /
//!   `alloc.bytes.<phase>` counters so `haxconn telemetry` can report
//!   per-phase allocation truth alongside the other instruments.

#[cfg(feature = "alloc-truth")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        pub(super) static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
        pub(super) static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    }

    /// Forwards to [`System`], counting each allocation into the
    /// calling thread's totals. `dealloc` is pass-through: the guard
    /// API cares about allocation pressure, not live bytes.
    pub struct CountingAllocator;

    #[inline]
    fn bump(bytes: usize) {
        // `Cell<u64>` with const init: no lazy-init branch can allocate,
        // so the allocator never recurses into itself.
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        ALLOC_BYTES.with(|b| b.set(b.get() + bytes as u64));
    }

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;
}

#[cfg(feature = "alloc-truth")]
pub use counting::CountingAllocator;

/// Running allocation totals (or a delta between two snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of `alloc`/`alloc_zeroed`/`realloc` calls.
    pub count: u64,
    /// Total bytes requested by those calls.
    pub bytes: u64,
}

impl AllocStats {
    /// True when no allocation was observed.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.count == 0 && self.bytes == 0
    }
}

/// Whether the counting allocator is compiled in (the `alloc-truth`
/// feature). When `false`, [`current`] and the guard API return zeros
/// and assert nothing — regions are only *proven* allocation-free in
/// builds where this returns `true`.
#[inline(always)]
pub fn is_counting() -> bool {
    cfg!(feature = "alloc-truth")
}

/// The calling thread's allocation totals since thread start. Zeros
/// when the `alloc-truth` feature is off.
#[inline]
pub fn current() -> AllocStats {
    #[cfg(feature = "alloc-truth")]
    {
        AllocStats {
            count: counting::ALLOC_COUNT.with(|c| c.get()),
            bytes: counting::ALLOC_BYTES.with(|b| b.get()),
        }
    }
    #[cfg(not(feature = "alloc-truth"))]
    {
        AllocStats::default()
    }
}

/// Scoped allocation meter: snapshots the thread totals at
/// [`AllocGuard::begin`] and reports the delta at [`AllocGuard::finish`]
/// (or on demand via [`AllocGuard::stats`]). The label names the region
/// in [`AllocGuard::assert_zero`] panics.
///
/// Guards measure the *calling thread only*; a region that spawns
/// workers must place guards inside the workers.
#[derive(Debug)]
pub struct AllocGuard {
    label: &'static str,
    start: AllocStats,
}

impl AllocGuard {
    /// Starts measuring on the calling thread.
    #[inline]
    pub fn begin(label: &'static str) -> Self {
        AllocGuard {
            label,
            start: current(),
        }
    }

    /// Allocations observed since [`AllocGuard::begin`], so far.
    #[inline]
    pub fn stats(&self) -> AllocStats {
        let now = current();
        AllocStats {
            count: now.count - self.start.count,
            bytes: now.bytes - self.start.bytes,
        }
    }

    /// Ends the region and returns the observed delta.
    #[inline]
    pub fn finish(self) -> AllocStats {
        self.stats()
    }

    /// Ends the region, panicking if it allocated. A no-op (vacuously
    /// passing) when the counting allocator is not compiled in — gate
    /// tests on [`is_counting`] when they must be meaningful.
    #[track_caller]
    pub fn assert_zero(self) {
        let label = self.label;
        let delta = self.finish();
        if is_counting() && !delta.is_zero() {
            panic!(
                "AllocGuard `{label}`: region allocated {} time(s) / {} byte(s), expected zero",
                delta.count, delta.bytes
            );
        }
    }
}

/// Static counter names for one measured phase, so draining a phase
/// never formats (and therefore never allocates) on the hot path.
#[derive(Debug, Clone, Copy)]
pub struct PhaseNames {
    /// Counter receiving the allocation count, e.g. `alloc.count.solve`.
    pub count: &'static str,
    /// Counter receiving the allocated bytes, e.g. `alloc.bytes.solve`.
    pub bytes: &'static str,
}

/// One B&B/portfolio solve (per worker thread).
pub const PHASE_SOLVE: PhaseNames = PhaseNames {
    count: "alloc.count.solve",
    bytes: "alloc.bytes.solve",
};
/// One DES replay of a scheduled workload.
pub const PHASE_DES_REPLAY: PhaseNames = PhaseNames {
    count: "alloc.count.des_replay",
    bytes: "alloc.bytes.des_replay",
};
/// One batched fleet evaluation (the dispatching thread).
pub const PHASE_FLEET_BATCH: PhaseNames = PhaseNames {
    count: "alloc.count.fleet_batch",
    bytes: "alloc.bytes.fleet_batch",
};
/// One LNS worker's destroy/repair loop.
pub const PHASE_LNS_REPAIR: PhaseNames = PhaseNames {
    count: "alloc.count.lns_repair",
    bytes: "alloc.bytes.lns_repair",
};

/// Runs `f` under an [`AllocGuard`] and, when telemetry is enabled,
/// drains the observed delta into `phase`'s counters. With the
/// `alloc-truth` feature off this is exactly `f()` plus two atomic
/// loads; counters stay absent rather than reporting misleading zeros.
#[inline]
pub fn phase<R>(names: PhaseNames, f: impl FnOnce() -> R) -> R {
    let guard = AllocGuard::begin(names.count);
    let out = f();
    let delta = guard.finish();
    if is_counting() && crate::enabled() {
        crate::counter_add(names.count, delta.count);
        crate::counter_add(names.bytes, delta.bytes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_reports_zero_for_pure_arithmetic() {
        let guard = AllocGuard::begin("pure");
        let mut acc = 0u64;
        for i in 0..64u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(acc);
        guard.assert_zero();
    }

    #[test]
    fn counting_sees_heap_traffic_when_enabled() {
        let guard = AllocGuard::begin("vec");
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let delta = guard.finish();
        if is_counting() {
            assert!(delta.count >= 1, "Vec::with_capacity must allocate");
            assert!(delta.bytes >= 4096, "delta bytes {} < 4096", delta.bytes);
        } else {
            assert_eq!(delta, AllocStats::default());
        }
    }

    #[test]
    fn stats_is_monotone_within_a_guard() {
        let guard = AllocGuard::begin("monotone");
        let first = guard.stats();
        let v: Vec<u8> = Vec::with_capacity(128);
        std::hint::black_box(&v);
        let second = guard.stats();
        assert!(second.count >= first.count);
        assert!(second.bytes >= first.bytes);
    }

    #[test]
    fn phase_passes_through_result() {
        let out = phase(PHASE_DES_REPLAY, || 41 + 1);
        assert_eq!(out, 42);
    }
}
