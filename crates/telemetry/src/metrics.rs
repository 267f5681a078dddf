//! Lock-free instruments: counters, gauges, log2 histograms, and a
//! sliding-window rate.
//!
//! Everything here is a plain struct of atomics recorded with
//! `Ordering::Relaxed` — no locks, no allocation after construction —
//! so a handle can sit on the per-chunk (or per-job) hot path of the
//! session driver and engine pool. Counter and histogram totals are
//! exact under concurrency (`fetch_add` never loses an increment; the
//! concurrency proptest hammers one registry from many threads and
//! checks the sums); only [`SlidingRate`], which trades a bounded race
//! on second-bucket recycling for lock freedom, is approximate.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// A monotonically increasing count (events, tables, bytes).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that goes up and down (active sessions, queue depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`sub`](Gauge::sub)).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the value to `v` if it is higher (high-water marks).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fractional gauge (utilization ratios) stored as `f64` bits in an
/// atomic word.
#[derive(Debug, Default)]
pub struct GaugeF(AtomicU64);

impl GaugeF {
    /// A gauge at zero.
    pub fn new() -> GaugeF {
        GaugeF::default()
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Bucket count of a [`Histogram`]: bucket 0 holds the value 0 and
/// bucket `i ≥ 1` holds values with bit length `i`, i.e. the range
/// `[2^(i-1), 2^i)` — 64 value-bit lengths plus the zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` samples (latencies in
/// nanoseconds, queue occupancies).
///
/// Recording touches three relaxed atomics: the bucket, the count, and
/// the sum. Count and sum are exact; quantiles resolve to the upper
/// bound of the log2 bucket holding the nearest-rank sample, so any
/// reported percentile `p` satisfies `true_p ≤ p < 2 × true_p` (a
/// factor-2 resolution, which is what stage-latency triage needs —
/// "microseconds or milliseconds?" — at a fraction of the cost of
/// exact quantile sketches).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket holding `v`: its bit length (0 for 0).
#[inline]
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Samples recorded (exact).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (exact, wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the
    /// bucket holding the nearest-rank sample; 0 when empty. Factor-2
    /// resolution (see the type docs).
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        // Racing recorders can leave `count` ahead of the bucket sums
        // momentarily; answer with the highest non-empty bucket.
        bucket_upper(
            self.buckets
                .iter()
                .enumerate()
                .rev()
                .find(|(_, b)| b.load(Ordering::Relaxed) > 0)
                .map_or(0, |(i, _)| i),
        )
    }

    /// Median (factor-2 resolution).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile (factor-2 resolution).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile (factor-2 resolution).
    pub(crate) fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Per-bucket counts (bucket `i` covers `[2^(i-1), 2^i)`, bucket 0
    /// the value 0).
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// Seconds of history a [`SlidingRate`] remembers.
const RATE_WINDOW_SECS: u64 = 10;
/// One-second slots; more than the window so a slot is never read and
/// recycled in the same second.
const RATE_SLOTS: usize = 16;

/// A sliding-window event rate (aggregate gates/s over the last
/// ~10 seconds, `RATE_WINDOW_SECS`) built from per-second atomic slots.
///
/// Lock-free and allocation-free; recycling a slot whose second has
/// passed races benignly with concurrent adds (a handful of events can
/// land in a slot as it resets), so the reported rate is approximate —
/// fine for a throughput gauge, unlike [`Counter`]s, which stay exact.
#[derive(Debug)]
pub struct SlidingRate {
    start: Instant,
    /// (second stamp, count) per slot.
    slots: [(AtomicU64, AtomicU64); RATE_SLOTS],
}

impl Default for SlidingRate {
    fn default() -> SlidingRate {
        SlidingRate::new()
    }
}

impl SlidingRate {
    /// An empty window anchored at now.
    pub fn new() -> SlidingRate {
        SlidingRate {
            start: Instant::now(),
            slots: std::array::from_fn(|_| (AtomicU64::new(u64::MAX), AtomicU64::new(0))),
        }
    }

    fn now_sec(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Records `n` events at the current second.
    pub fn add(&self, n: u64) {
        let sec = self.now_sec();
        let (stamp, count) = &self.slots[(sec % RATE_SLOTS as u64) as usize];
        let seen = stamp.load(Ordering::Relaxed);
        if seen != sec
            && stamp.compare_exchange(seen, sec, Ordering::Relaxed, Ordering::Relaxed).is_ok()
        {
            count.store(0, Ordering::Relaxed);
        }
        count.fetch_add(n, Ordering::Relaxed);
    }

    /// Events per second over the window (the last
    /// `RATE_WINDOW_SECS` = 10 complete-or-current seconds, or the
    /// process-so-far span when younger than the window).
    pub fn per_sec(&self) -> f64 {
        let sec = self.now_sec();
        let oldest = sec.saturating_sub(RATE_WINDOW_SECS - 1);
        let total: u64 = self
            .slots
            .iter()
            .filter(|(stamp, _)| {
                let s = stamp.load(Ordering::Relaxed);
                s != u64::MAX && s >= oldest && s <= sec
            })
            .map(|(_, count)| count.load(Ordering::Relaxed))
            .sum();
        let span = self.start.elapsed().as_secs_f64().clamp(1e-3, RATE_WINDOW_SECS as f64);
        total as f64 / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set_max(10);
        g.set_max(7);
        assert_eq!(g.get(), 10);
        let f = GaugeF::new();
        f.set(0.75);
        assert!((f.get() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn percentiles_bracket_a_uniform_distribution() {
        // 1..=1000 uniformly: every reported quantile must sit within
        // a factor of 2 of the true nearest-rank value.
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        for (q, truth) in [(0.50, 500u64), (0.99, 990), (0.999, 999)] {
            let est = h.quantile(q);
            assert!(
                est >= truth && est < truth * 2,
                "q={q}: estimate {est} outside [{truth}, {})",
                truth * 2
            );
        }
    }

    #[test]
    fn percentiles_bracket_a_bimodal_distribution() {
        // 90% fast (~1 µs), 10% slow (~1 ms): p50 must answer in the
        // fast mode, p99 and p999 in the slow mode.
        let h = Histogram::new();
        for _ in 0..900 {
            h.record(1_000);
        }
        for _ in 0..100 {
            h.record(1_000_000);
        }
        let p50 = h.p50();
        assert!((1_000..2_000).contains(&p50), "p50 {p50} not in the fast mode");
        for p in [h.p99(), h.p999()] {
            assert!((1_000_000..2_000_000).contains(&p), "tail {p} not in the slow mode");
        }
        assert!(h.mean() > 1_000.0 && h.mean() < 1_000_000.0);
    }

    #[test]
    fn empty_and_zero_histograms() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), 0);
    }

    #[test]
    fn sliding_rate_sees_recent_events() {
        let r = SlidingRate::new();
        r.add(500);
        r.add(500);
        // 1000 events within the first instants: the observed rate is
        // at least the window-average floor (span clamps at 1 ms).
        assert!(r.per_sec() >= 100.0, "rate {} lost recent events", r.per_sec());
    }
}
