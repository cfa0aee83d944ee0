//! Proves the disabled-telemetry fast path allocates nothing.
//!
//! The facade documents that disabled telemetry costs one relaxed
//! atomic load per call. That claim only holds if no call site slips
//! in a format, boxing, or lazy init — this test wraps every facade
//! entry point in an `AllocGuard` with telemetry off and asserts a
//! zero delta. Runs in its own integration-test process so no sibling
//! test can have created the global recorder or flipped the enabled flag.
//!
//! Meaningful only under `--features alloc-truth` (otherwise the guard
//! is vacuous); the CI alloc-gate job runs it with the feature on.

use haxconn_telemetry as tel;
use tel::alloc::AllocGuard;

#[test]
fn disabled_fast_path_is_allocation_free() {
    assert!(!tel::enabled(), "no global recorder in this process");

    // Warm anything lazily initialised outside the facade (the clock
    // epoch is a OnceLock<Instant>; Instant::now does not allocate but
    // warm it anyway so the guard measures steady state).
    let _ = tel::clock_ms();

    let guard = AllocGuard::begin("disabled-facade");
    for i in 0..256u64 {
        tel::counter_add("alloc_truth.test.counter", i);
        tel::gauge_set("alloc_truth.test.gauge", i as f64);
        tel::series_record("alloc_truth.test.series", i as f64, i as f64 * 0.5);
        tel::histogram_record("alloc_truth.test.histogram", i as f64);
        tel::span_event("alloc_truth.test", "span", i as f64, 1.0);
        assert!(!tel::enabled());
    }
    guard.assert_zero();
}

#[test]
fn alloc_phase_wrapper_is_inert_while_disabled() {
    assert!(!tel::enabled());
    let guard = AllocGuard::begin("disabled-phase");
    let out = tel::alloc::phase(tel::alloc::PHASE_DES_REPLAY, || {
        std::hint::black_box(7u64) * 6
    });
    guard.assert_zero();
    assert_eq!(out, 42);
}
