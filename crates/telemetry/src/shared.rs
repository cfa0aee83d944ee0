//! A lock-free, thread-shareable histogram for hot serving paths.
//!
//! [`Histogram`] is single-owner (`&mut self` record);
//! a server recording request latency from many worker threads needs a
//! shared counterpart that never takes a lock on the record path.
//! [`SharedHistogram`] keeps the exact same log₂ bucket layout (so
//! snapshots merge exactly into recorder histograms) with every field an
//! atomic: buckets/count are plain relaxed adds, sum/min/max are CAS
//! loops over `f64` bit patterns.
//!
//! [`SharedHistogram::snapshot`] reads the fields without a global
//! barrier, so a snapshot taken *while* recorders are active may be
//! momentarily inconsistent between count and sum (each field is
//! individually correct). Quiesced histograms (the bench reports after a
//! load phase ends) snapshot exactly.

use crate::{bucket_index, Histogram, HIST_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free log₂-bucket histogram; `record` is wait-free on the bucket
/// and count, and lock-free (short CAS loops) on sum/min/max.
pub struct SharedHistogram {
    count: AtomicU64,
    /// `f64` bit patterns, updated by compare-exchange.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl SharedHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        SharedHistogram {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // Sum: CAS loop over the f64 bit pattern.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        update_extreme(&self.min_bits, value, |new, old| new < old);
        update_extreme(&self.max_bits, value, |new, old| new > old);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state into an owned [`Histogram`] (same bucket
    /// layout, so quantiles/mean/merge behave identically).
    pub fn snapshot(&self) -> Histogram {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u32, c));
            }
        }
        Histogram {
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            buckets,
        }
    }

    /// Resets every field to the empty state (not atomic as a whole;
    /// reset while recording loses, never corrupts, observations).
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for SharedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// CAS loop moving `bits` toward `value` under the `wins` ordering.
fn update_extreme(bits: &AtomicU64, value: f64, wins: impl Fn(f64, f64) -> bool) {
    let mut cur = bits.load(Ordering::Relaxed);
    while wins(value, f64::from_bits(cur)) {
        match bits.compare_exchange_weak(cur, value.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => break,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn matches_owned_histogram_exactly_when_sequential() {
        let shared = SharedHistogram::new();
        let mut owned = Histogram::default();
        for i in 1..=1000 {
            let v = (i as f64) * 0.173;
            shared.record(v);
            owned.record(v);
        }
        let snap = shared.snapshot();
        assert_eq!(snap.count, owned.count);
        assert_eq!(snap.sum.to_bits(), owned.sum.to_bits());
        assert_eq!(snap.min.to_bits(), owned.min.to_bits());
        assert_eq!(snap.max.to_bits(), owned.max.to_bits());
        assert_eq!(snap.buckets, owned.buckets);
        assert_eq!(
            snap.quantile(0.99).to_bits(),
            owned.quantile(0.99).to_bits()
        );
    }

    #[test]
    fn concurrent_records_lose_nothing() {
        let shared = Arc::new(SharedHistogram::new());
        let threads = 8;
        let per_thread = 5000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(((t * per_thread + i) % 97 + 1) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = shared.snapshot();
        assert_eq!(snap.count, threads * per_thread);
        let bucket_total: u64 = snap.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(bucket_total, snap.count);
        assert_eq!(snap.min, 1.0);
        assert_eq!(snap.max, 97.0);
        // Sum is order-dependent in fp, but bounded by the value range.
        let expected_mean = snap.sum / snap.count as f64;
        assert!(expected_mean > 1.0 && expected_mean < 97.0);
    }

    #[test]
    fn reset_empties_the_histogram() {
        let h = SharedHistogram::new();
        h.record(3.0);
        h.reset();
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert!(snap.buckets.is_empty());
        assert_eq!(snap.min, f64::INFINITY);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let h = SharedHistogram::new();
        for _ in 0..99 {
            h.record(1.0);
        }
        h.record(1000.0);
        let snap = h.snapshot();
        assert!(snap.quantile(0.5) <= 2.0);
        assert_eq!(snap.quantile(1.0), 1000.0);
    }
}
