//! Streaming statistics for measuring simulations.
//!
//! All accumulators here are O(1) per sample and never store the sample
//! stream itself:
//!
//! * [`Welford`] — numerically stable mean / variance / min / max.
//! * [`LogHistogram`] — an HDR-histogram-style log-bucketed histogram of
//!   `u64` values (we use it for nanosecond latencies) with bounded relative
//!   error, supporting quantile queries and merging.
//! * [`TimeWeighted`] — time-weighted average of a piecewise-constant signal
//!   (e.g. queue length, number of busy CPUs).
//! * [`RateMeter`] — events per second over a measurement window.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Numerically stable streaming mean and variance (Welford's algorithm).
///
/// ```
/// use simcore::stats::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.count(), 8);
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n), or 0 if empty.
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (divides by n−1), or 0 if fewer than two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of variation (σ/μ), or 0 if the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean().abs() < f64::EPSILON {
            0.0
        } else {
            self.stddev() / self.mean()
        }
    }

    /// Smallest sample, or +∞ if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample, or −∞ if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Log-bucketed histogram of `u64` values with ~2.2% worst-case relative
/// error on quantiles (64 sub-buckets per power of two).
///
/// Designed for latency recording: value range `[1, 2^40)` ns covers
/// sub-nanosecond to ~18 minutes. A latency distribution touches a few of
/// the 36 power-of-two tiers, so a tier's row of counts is allocated only
/// when the tier first gets a count.
///
/// ```
/// use simcore::stats::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5);
/// assert!((450..=550).contains(&p50), "p50 = {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    // Bucket layout: values < SUBBUCKETS are exact (one bucket per value);
    // beyond that, each power-of-two range is split into SUBBUCKETS linear
    // sub-buckets. Bucket `i` is `rows[tier_row[i / ROW]][i % ROW]`; a tier
    // without a row (`NO_ROW`) counts zero everywhere, and a tier gets its
    // row with its first count.
    tier_row: [u8; TIERS],
    rows: Vec<[u64; ROW]>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUBBUCKET_BITS: u32 = 6;
const SUBBUCKETS: u64 = 1 << SUBBUCKET_BITS; // 64
const MAX_EXPONENT: u32 = 40;
/// Buckets per tier: the exact values below `SUBBUCKETS`, or one power of two.
const ROW: usize = SUBBUCKETS as usize;
/// Tiers: the exact tier plus one per power of two up to `MAX_EXPONENT`.
const TIERS: usize = (MAX_EXPONENT - SUBBUCKET_BITS + 2) as usize; // 36
/// `tier_row` of a tier with no counts: past any index of `rows`, which
/// never holds more than `TIERS` rows.
const NO_ROW: u8 = u8::MAX;
const ZERO_ROW: [u64; ROW] = [0; ROW];

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram. It allocates nothing until a value is
    /// recorded.
    pub fn new() -> Self {
        LogHistogram {
            tier_row: [NO_ROW; TIERS],
            rows: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUBBUCKETS {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros(); // floor(log2(value)) >= 6
        let exp = exp.min(MAX_EXPONENT);
        let shifted = if exp >= MAX_EXPONENT {
            SUBBUCKETS - 1
        } else {
            (value >> (exp - SUBBUCKET_BITS)) - SUBBUCKETS
        };
        ((exp - SUBBUCKET_BITS + 1) as usize) * SUBBUCKETS as usize + shifted as usize
    }

    fn bucket_midpoint(index: usize) -> u64 {
        let idx = index as u64;
        if idx < SUBBUCKETS {
            return idx;
        }
        let tier = idx / SUBBUCKETS; // >= 1
        let sub = idx % SUBBUCKETS;
        let exp = SUBBUCKET_BITS as u64 + tier - 1;
        let base = (SUBBUCKETS + sub) << (exp - SUBBUCKET_BITS as u64);
        let width = 1u64 << (exp - SUBBUCKET_BITS as u64);
        base + width / 2
    }

    /// Tier `tier`'s counts, or `None` while the tier has none.
    fn row(&self, tier: usize) -> Option<&[u64; ROW]> {
        self.rows.get(usize::from(self.tier_row[tier]))
    }

    /// Tier `tier`'s counts, allocating the row on first use. Rows grow one
    /// at a time: a histogram holds exactly the tiers it has seen.
    fn row_mut(&mut self, tier: usize) -> &mut [u64; ROW] {
        if self.tier_row[tier] == NO_ROW {
            self.tier_row[tier] = self.rows.len() as u8;
            self.rows.reserve_exact(1);
            self.rows.push(ZERO_ROW);
        }
        &mut self.rows[usize::from(self.tier_row[tier])]
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let i = Self::index_of(value);
        self.row_mut(i / ROW)[i % ROW] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded value, or `u64::MAX` if empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Heap bytes of the allocated tier rows (capacity, not length).
    pub fn footprint_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<[u64; ROW]>()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) as a bucket-midpoint estimate, clamped
    /// to the observed min/max. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if self.total == 0 {
            return 0;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for tier in 0..TIERS {
            let Some(row) = self.row(tier) else { continue };
            for (sub, &c) in row.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return Self::bucket_midpoint(tier * ROW + sub).clamp(self.min, self.max);
                }
            }
        }
        self.max
    }

    /// Convenience: quantile as a [`SimDuration`].
    pub fn quantile_duration(&self, q: f64) -> SimDuration {
        SimDuration::from_nanos(self.quantile(q))
    }

    /// Mean as a [`SimDuration`] (rounded).
    pub fn mean_duration(&self) -> SimDuration {
        SimDuration::from_nanos(self.mean().round() as u64)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for tier in 0..TIERS {
            if let Some(theirs) = other.row(tier) {
                let ours = self.row_mut(tier);
                for (a, b) in ours.iter_mut().zip(theirs) {
                    *a += b;
                }
            }
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all recorded values, keeping the rows' allocation for reuse.
    pub fn reset(&mut self) {
        self.tier_row = [NO_ROW; TIERS];
        self.rows.clear();
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

/// Equal counts, not equal layouts: rows are allocated in first-use order,
/// and a missing row equals a row of zeros.
impl PartialEq for LogHistogram {
    fn eq(&self, other: &Self) -> bool {
        (self.total, self.sum, self.min, self.max) == (other.total, other.sum, other.min, other.max)
            && (0..TIERS)
                .all(|t| self.row(t).unwrap_or(&ZERO_ROW) == other.row(t).unwrap_or(&ZERO_ROW))
    }
}

/// Time-weighted average of a piecewise-constant signal.
///
/// Feed it level changes as they happen; it integrates level × time.
///
/// ```
/// use simcore::stats::TimeWeighted;
/// use simcore::SimTime;
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
/// tw.set(SimTime::from_secs(1), 10.0); // level 0 for 1s
/// tw.set(SimTime::from_secs(3), 0.0);  // level 10 for 2s
/// assert!((tw.average(SimTime::from_secs(4)) - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    start: SimTime,
    last_change: SimTime,
    level: f64,
    integral: f64,
    peak: f64,
}

impl TimeWeighted {
    /// Starts integrating at `start` with initial `level`.
    pub fn new(start: SimTime, level: f64) -> Self {
        TimeWeighted {
            start,
            last_change: start,
            level,
            integral: 0.0,
            peak: level,
        }
    }

    /// Sets the signal to `level` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous change (signals are causal).
    pub fn set(&mut self, now: SimTime, level: f64) {
        let dt = now
            .checked_since(self.last_change)
            .expect("time-weighted signal changed in the past");
        self.integral += self.level * dt.as_secs_f64();
        self.last_change = now;
        self.level = level;
        self.peak = self.peak.max(level);
    }

    /// Adds `delta` to the current level at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let level = self.level + delta;
        self.set(now, level);
    }

    /// The current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// The maximum level observed.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-average of the signal from start to `now`, or the current level
    /// if no time has passed.
    pub fn average(&self, now: SimTime) -> f64 {
        let total = now.saturating_since(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.level;
        }
        let pending = now.saturating_since(self.last_change).as_secs_f64();
        (self.integral + self.level * pending) / total
    }

    /// Folds a signal measured in parallel (a disjoint set of CPUs, another
    /// shard's machine) into this one at `now`: levels and integrals add, so
    /// the merged `average(now)` is exactly the sum of the two averages when
    /// both signals started together. The merged peak is the sum of the
    /// per-signal peaks — an upper bound on the true peak of the summed
    /// signal (the peaks need not have coincided), which is the conservative
    /// figure for capacity questions.
    pub fn merge_parallel(&mut self, other: &TimeWeighted, now: SimTime) {
        // Flatten both integrals through `now` so the sum is exact.
        let pending = now.saturating_since(self.last_change).as_secs_f64();
        self.integral += self.level * pending;
        let other_pending = now.saturating_since(other.last_change).as_secs_f64();
        self.integral += other.integral + other.level * other_pending;
        self.last_change = now;
        self.level += other.level;
        self.peak += other.peak;
        self.start = self.start.min(other.start);
    }

    /// Restarts integration at `now`, keeping the current level.
    pub fn reset(&mut self, now: SimTime) {
        self.start = now;
        self.last_change = now;
        self.integral = 0.0;
        self.peak = self.level;
    }
}

/// Counts events and reports a rate over the elapsed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RateMeter {
    count: u64,
    window_start: SimTime,
}

impl RateMeter {
    /// Creates a meter whose window opens at `start`.
    pub fn new(start: SimTime) -> Self {
        RateMeter {
            count: 0,
            window_start: start,
        }
    }

    /// Records one event.
    pub fn tick(&mut self) {
        self.count += 1;
    }

    /// Records `n` events.
    pub fn tick_n(&mut self, n: u64) {
        self.count += n;
    }

    /// Events recorded since the window opened.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Events per second of simulated time up to `now` (0 if no time passed).
    pub fn rate_per_sec(&self, now: SimTime) -> f64 {
        let secs = now.saturating_since(self.window_start).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.count as f64 / secs
        }
    }

    /// Reopens the window at `now` with a zero count.
    pub fn reset(&mut self, now: SimTime) {
        self.count = 0;
        self.window_start = now;
    }
}

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

crate::snap_fields!(Welford {
    n,
    mean,
    m2,
    min,
    max
});

impl Snap for LogHistogram {
    /// A mask of the tiers that hold counts (bit `t` for tier `t`), then
    /// those tiers' rows in tier order, then the scalars.
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            tier_row,
            rows,
            total,
            sum,
            min,
            max,
        } = self;
        w.u64(
            (0..TIERS)
                .filter(|&t| tier_row[t] != NO_ROW)
                .fold(0, |mask, t| mask | 1 << t),
        );
        for row in tier_row.iter().filter_map(|&r| rows.get(usize::from(r))) {
            for &count in row {
                w.u64(count);
            }
        }
        w.u64(*total);
        w.u128(*sum);
        w.u64(*min);
        w.u64(*max);
    }

    /// Rebuilds rows for the tiers in the mask, allocating exactly those,
    /// and rejects a present row without counts, counts that do not add up
    /// to the total, and counts that disagree with `min`, `max` and `sum`.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let corrupt = |what: String| Err(SnapError::Corrupt(format!("histogram {what}")));
        let mask = r.u64()?;
        if mask >> TIERS != 0 {
            return corrupt(format!("tier mask {mask:#x} names tiers past {TIERS}"));
        }
        let mut tier_row = [NO_ROW; TIERS];
        let mut rows = Vec::with_capacity(mask.count_ones() as usize);
        let (mut counted, mut first, mut last) = (0u128, None, 0);
        for tier in (0..TIERS).filter(|&t| mask >> t & 1 != 0) {
            let mut row = ZERO_ROW;
            for count in &mut row {
                *count = r.u64()?;
            }
            let Some(lo) = row.iter().position(|&c| c != 0) else {
                return corrupt(format!("tier {tier} is present but holds no counts"));
            };
            first = first.or(Some(tier * ROW + lo));
            last = tier * ROW + row.iter().rposition(|&c| c != 0).unwrap_or(lo);
            counted += row.iter().map(|&c| u128::from(c)).sum::<u128>();
            tier_row[tier] = rows.len() as u8;
            rows.push(row);
        }
        let h = LogHistogram {
            tier_row,
            rows,
            total: r.u64()?,
            sum: r.u128()?,
            min: r.u64()?,
            max: r.u64()?,
        };
        let (total, sum) = (u128::from(h.total), h.sum);
        if counted != total {
            return corrupt(format!("buckets hold {counted} values, total says {total}"));
        }
        let consistent = match first {
            None => (h.sum, h.min, h.max) == (0, u64::MAX, 0),
            Some(first) => {
                Self::index_of(h.min) == first
                    && Self::index_of(h.max) == last
                    && h.min <= h.max
                    && (total * u128::from(h.min)..=total * u128::from(h.max)).contains(&sum)
            }
        };
        if !consistent {
            return corrupt(format!(
                "min {} / max {} / sum {sum} disagree with its buckets",
                h.min, h.max
            ));
        }
        Ok(h)
    }
}

crate::snap_fields!(TimeWeighted {
    start,
    last_change,
    level,
    integral,
    peak
});
crate::snap_fields!(RateMeter {
    count,
    window_start
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_basics() {
        let mut w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        w.push(1.0);
        w.push(3.0);
        assert_eq!(w.count(), 2);
        assert!((w.mean() - 2.0).abs() < 1e-12);
        assert!((w.population_variance() - 1.0).abs() < 1e-12);
        assert!((w.sample_variance() - 2.0).abs() < 1e-12);
        assert_eq!(w.min(), 1.0);
        assert_eq!(w.max(), 3.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut left = Welford::new();
        let mut right = Welford::new();
        xs[..37].iter().for_each(|&x| left.push(x));
        xs[37..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.population_variance() - whole.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(5.0);
        let b = Welford::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 5.0);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUBBUCKETS {
            h.record(v);
        }
        assert_eq!(h.count(), SUBBUCKETS);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUBBUCKETS - 1);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn histogram_quantile_relative_error_is_bounded() {
        let mut h = LogHistogram::new();
        // Uniform values across a wide range.
        for i in 1..=100_000u64 {
            h.record(i * 37); // up to 3.7M
        }
        for &(q, expect) in &[
            (0.5, 50_000u64 * 37),
            (0.9, 90_000 * 37),
            (0.99, 99_000 * 37),
        ] {
            let got = h.quantile(q);
            let rel = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(rel < 0.03, "q={q}: got {got}, want ~{expect}, rel {rel}");
        }
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(20);
        h.record(60);
        assert!((h.mean() - 30.0).abs() < 1e-12);
        assert_eq!(h.mean_duration(), SimDuration::from_nanos(30));
    }

    #[test]
    fn histogram_merge() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 1..=500u64 {
            a.record(i);
        }
        for i in 501..=1000u64 {
            b.record(i);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let p50 = a.quantile(0.5);
        assert!((450..=550).contains(&p50), "p50 {p50}");
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn histogram_reset() {
        let mut h = LogHistogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn histogram_handles_huge_values() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(1 << 50);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Quantiles clamp to observed extremes, so no overflow nonsense.
        assert!(h.quantile(1.0) >= h.quantile(0.0));
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn histogram_rejects_bad_quantile() {
        LogHistogram::new().quantile(1.5);
    }

    /// The histogram as one dense `Vec` of every bucket, kept as the
    /// reference for the rows' counts and quantiles.
    #[derive(Debug, Clone, PartialEq)]
    struct DenseHistogram {
        counts: Vec<u64>,
        total: u64,
        sum: u128,
        min: u64,
        max: u64,
    }

    impl DenseHistogram {
        fn new() -> Self {
            DenseHistogram {
                counts: vec![0; TIERS * ROW],
                total: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }
        }

        fn record(&mut self, value: u64) {
            self.counts[LogHistogram::index_of(value)] += 1;
            self.total += 1;
            self.sum += value as u128;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }

        fn merge(&mut self, other: &DenseHistogram) {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.total += other.total;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.total == 0 {
                return 0;
            }
            let rank = (q * self.total as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return LogHistogram::bucket_midpoint(i).clamp(self.min, self.max);
                }
            }
            self.max
        }
    }

    fn histogram_bytes(h: &LogHistogram) -> Vec<u8> {
        let mut w = SnapWriter::bare(Vec::new());
        h.save(&mut w);
        w.into_bare()
    }

    fn load_histogram(bytes: &[u8]) -> Result<LogHistogram, SnapError> {
        LogHistogram::load(&mut SnapReader::bare(bytes))
    }

    const QUANTILE_GRID: [f64; 12] = [
        0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0,
    ];

    /// Every observable of `h` matches the reference `d`.
    fn assert_matches_dense(h: &LogHistogram, d: &DenseHistogram) {
        assert_eq!(h.count(), d.total);
        let mean = if d.total == 0 {
            0.0
        } else {
            d.sum as f64 / d.total as f64
        };
        assert_eq!(h.mean().to_bits(), mean.to_bits());
        assert_eq!((h.min(), h.max()), (d.min, d.max));
        for q in QUANTILE_GRID {
            assert_eq!(h.quantile(q), d.quantile(q), "q {q}");
        }
        let bytes = histogram_bytes(h);
        let loaded = load_histogram(&bytes).expect("a saved histogram loads");
        assert_eq!(&loaded, h);
        assert_eq!(
            histogram_bytes(&loaded),
            bytes,
            "save, load, save is stable"
        );
    }

    /// A value whose magnitude is uniform over every tier, including 0 and
    /// values past the last power of two.
    fn any_magnitude() -> impl proptest::strategy::Strategy<Value = u64> {
        use proptest::strategy::Strategy;
        (proptest::arbitrary::any::<u64>(), 0u32..64).prop_map(|(raw, shift)| raw >> shift)
    }

    /// `(op, value)` pairs: record into either histogram, merge either way,
    /// or reset either one.
    fn histogram_ops() -> impl proptest::strategy::Strategy<Value = Vec<(u8, u64)>> {
        proptest::collection::vec((0u8..12, any_magnitude()), 0..160)
    }

    /// A histogram with counts in several tiers.
    fn populated() -> LogHistogram {
        let mut h = LogHistogram::new();
        for v in [3, 70, 900, 12_345, 12_346, 1 << 30, u64::MAX] {
            h.record(v);
        }
        h
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn rows_match_a_dense_histogram(ops in histogram_ops()) {
            let (mut a, mut b) = (LogHistogram::new(), LogHistogram::new());
            let (mut da, mut db) = (DenseHistogram::new(), DenseHistogram::new());
            for (step, &(op, value)) in ops.iter().enumerate() {
                match op {
                    0..=4 => { a.record(value); da.record(value); }
                    5..=7 => { b.record(value); db.record(value); }
                    8 => { a.merge(&b); da.merge(&db); }
                    9 => { b.merge(&a); db.merge(&da); }
                    10 => { a.reset(); da = DenseHistogram::new(); }
                    _ => { b.reset(); db = DenseHistogram::new(); }
                }
                if op >= 8 || step + 1 == ops.len() {
                    assert_matches_dense(&a, &da);
                    assert_matches_dense(&b, &db);
                    proptest::prop_assert_eq!(a == b, da == db);
                    proptest::prop_assert_eq!(a.clone() == a, true);
                }
            }
        }

        #[test]
        fn damaged_histogram_bytes_fail_cleanly(
            cut in proptest::arbitrary::any::<usize>(),
            bit in proptest::arbitrary::any::<usize>(),
            word in proptest::arbitrary::any::<usize>(),
            junk in proptest::arbitrary::any::<u64>(),
            noise in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..400),
        ) {
            let good = histogram_bytes(&populated());
            // The tier mask, six rows, then the total, sum, min and max.
            proptest::prop_assert_eq!(good.len(), 8 + 6 * ROW * 8 + 40);
            // Truncated anywhere: an error, never a panic.
            proptest::prop_assert!(load_histogram(&good[..cut % good.len()]).is_err());
            // One flipped bit in the tier mask, a count or the total breaks
            // the frame or the sum of counts; anywhere else the decoder
            // either refuses or returns exactly what the bytes say.
            let bit = bit % (good.len() * 8);
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let in_counts = bit / 8 < good.len() - 32;
            match load_histogram(&flipped) {
                Err(_) => {}
                Ok(h) => {
                    proptest::prop_assert!(!in_counts, "flip at bit {} accepted", bit);
                    proptest::prop_assert_eq!(histogram_bytes(&h), flipped);
                }
            }
            // An overwritten word: refused, or decoded faithfully.
            let word = word % (good.len() / 8);
            let mut overwritten = good.clone();
            overwritten[word * 8..word * 8 + 8].copy_from_slice(&junk.to_le_bytes());
            if let Ok(h) = load_histogram(&overwritten) {
                proptest::prop_assert_eq!(histogram_bytes(&h), overwritten);
                for q in QUANTILE_GRID {
                    let v = h.quantile(q);
                    proptest::prop_assert!(h.min() <= v && v <= h.max());
                }
            }
            // Random bytes, bare and behind the correct tier mask.
            proptest::prop_assert!(load_histogram(&noise).is_err());
            let mut framed = good[..8].to_vec();
            framed.extend(noise.iter().cycle().take(good.len() - 8));
            if !noise.is_empty() {
                proptest::prop_assert!(load_histogram(&framed).is_err());
            }
        }
    }

    #[test]
    fn histogram_rows_are_allocated_per_tier() {
        let mut h = LogHistogram::new();
        assert_eq!(
            h.footprint_bytes(),
            0,
            "an empty histogram allocates nothing"
        );
        h.record(1_000);
        h.record(1_001);
        let row = std::mem::size_of::<[u64; ROW]>();
        assert_eq!(h.footprint_bytes(), row);
        h.record(1 << 20);
        assert_eq!(h.footprint_bytes(), 2 * row);
        h.reset();
        assert_eq!(
            h.footprint_bytes(),
            2 * row,
            "reset keeps the rows for reuse"
        );
        h.record(5);
        assert_eq!(h.footprint_bytes(), 2 * row);
        // Row order differs from a histogram fed in another order; the
        // counts, and so equality and the snapshot bytes, do not.
        let (mut x, mut y) = (LogHistogram::new(), LogHistogram::new());
        for v in [10, 5_000, 1 << 25] {
            x.record(v);
        }
        for v in [1 << 25, 5_000, 10] {
            y.record(v);
        }
        assert_ne!(x.tier_row, y.tier_row);
        assert_eq!(x, y);
        assert_eq!(histogram_bytes(&x), histogram_bytes(&y));
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 2.0);
        tw.set(SimTime::from_secs(2), 6.0); // 2.0 for 2s
        let avg = tw.average(SimTime::from_secs(4)); // 6.0 for 2s
        assert!((avg - 4.0).abs() < 1e-12, "avg {avg}");
        assert_eq!(tw.peak(), 6.0);
        assert_eq!(tw.level(), 6.0);
    }

    #[test]
    fn time_weighted_add_and_reset() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.add(SimTime::from_secs(1), 3.0);
        tw.add(SimTime::from_secs(2), -3.0);
        assert_eq!(tw.level(), 0.0);
        tw.reset(SimTime::from_secs(2));
        assert_eq!(tw.average(SimTime::from_secs(3)), 0.0);
        assert_eq!(tw.peak(), 0.0);
    }

    #[test]
    fn time_weighted_average_with_zero_elapsed() {
        let tw = TimeWeighted::new(SimTime::from_secs(5), 7.0);
        assert_eq!(tw.average(SimTime::from_secs(5)), 7.0);
    }

    #[test]
    fn rate_meter() {
        let mut m = RateMeter::new(SimTime::ZERO);
        m.tick();
        m.tick_n(9);
        assert_eq!(m.count(), 10);
        assert!((m.rate_per_sec(SimTime::from_secs(2)) - 5.0).abs() < 1e-12);
        assert_eq!(m.rate_per_sec(SimTime::ZERO), 0.0);
        m.reset(SimTime::from_secs(2));
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn accumulators_snapshot_round_trip() {
        let mut wf = Welford::new();
        let mut hist = LogHistogram::new();
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        let mut rate = RateMeter::new(SimTime::ZERO);
        for i in 1..500u64 {
            wf.push((i as f64).sin() * 100.0);
            hist.record(i * 997);
            tw.set(SimTime::from_millis(i), (i % 7) as f64);
            rate.tick();
        }
        let mut w = SnapWriter::new();
        wf.save(&mut w);
        hist.save(&mut w);
        tw.save(&mut w);
        rate.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(Welford::load(&mut r).unwrap(), wf);
        assert_eq!(LogHistogram::load(&mut r).unwrap(), hist);
        assert_eq!(TimeWeighted::load(&mut r).unwrap(), tw);
        assert_eq!(RateMeter::load(&mut r).unwrap(), rate);
    }
}
