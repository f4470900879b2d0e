//! Windowed time series: sampling a quantity over fixed intervals.
//!
//! Experiments often need a quantity *over time* (throughput per 100 ms
//! bucket, queue depth every tick) rather than a single end-of-run scalar.
//! [`TimeSeries`] accumulates events or samples into fixed-width windows
//! keyed by [`SimTime`] and exposes them as `(window_start, value)` points.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How values landing in the same window combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Agg {
    /// Sum of values (e.g. completed requests → per-window throughput).
    Sum,
    /// Arithmetic mean of samples (e.g. sampled queue depth).
    Mean,
    /// Maximum sample.
    Max,
}

/// A fixed-window time series.
///
/// ```
/// use simcore::series::{Agg, TimeSeries};
/// use simcore::{SimDuration, SimTime};
///
/// let mut ts = TimeSeries::new(SimDuration::from_millis(100), Agg::Sum);
/// ts.record(SimTime::from_millis(30), 1.0);
/// ts.record(SimTime::from_millis(80), 1.0);
/// ts.record(SimTime::from_millis(150), 1.0);
/// let pts = ts.points();
/// assert_eq!(pts[0], (SimTime::ZERO, 2.0));
/// assert_eq!(pts[1], (SimTime::from_millis(100), 1.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    window: SimDuration,
    agg: Agg,
    // (sum, count, max) per consecutive window starting at `origin`.
    buckets: Vec<(f64, u64, f64)>,
    origin: SimTime,
    started: bool,
    /// Bucket-count bound; exceeding it doubles the window (streaming mode).
    max_buckets: usize,
}

impl TimeSeries {
    /// Creates a series with the given window width and aggregation.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration, agg: Agg) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        TimeSeries {
            window,
            agg,
            buckets: Vec::new(),
            origin: SimTime::ZERO,
            started: false,
            max_buckets: usize::MAX,
        }
    }

    /// Creates a *streaming* series whose memory is capped at `max_buckets`
    /// windows: when a record would land past the cap, the window width
    /// doubles and adjacent buckets merge (sums add, counts add, maxima
    /// max), halving the bucket count. Resolution degrades gracefully as
    /// the run grows; memory never does. The values reported for already
    /// closed windows are exactly what a fresh series at the final width
    /// would have recorded.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `max_buckets < 2`.
    pub fn bounded(window: SimDuration, agg: Agg, max_buckets: usize) -> Self {
        assert!(max_buckets >= 2, "need at least two buckets to coarsen");
        let mut s = Self::new(window, agg);
        s.max_buckets = max_buckets;
        s
    }

    /// The window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Records a value at `now`. The first record pins the series origin to
    /// the start of `now`'s window; earlier records then panic (series are
    /// causal, like everything else in the simulation).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the origin established by the first record.
    pub fn record(&mut self, now: SimTime, value: f64) {
        if !self.started {
            let w = self.window.as_nanos();
            self.origin = SimTime::from_nanos((now.as_nanos() / w) * w);
            self.started = true;
        }
        let offset = now
            .checked_since(self.origin)
            .expect("time series recorded into the past");
        let mut idx = (offset.as_nanos() / self.window.as_nanos()) as usize;
        while idx >= self.max_buckets {
            self.coarsen();
            idx = (now.saturating_since(self.origin).as_nanos() / self.window.as_nanos()) as usize;
        }
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, (0.0, 0, f64::NEG_INFINITY));
        }
        let bucket = &mut self.buckets[idx];
        bucket.0 += value;
        bucket.1 += 1;
        bucket.2 = bucket.2.max(value);
    }

    /// Counts an event (records 1.0); with [`Agg::Sum`] this yields
    /// per-window event counts.
    pub fn tick(&mut self, now: SimTime) {
        self.record(now, 1.0);
    }

    /// The aggregated `(window_start, value)` points; empty windows between
    /// populated ones report 0 (Sum), or are skipped (Mean/Max).
    pub fn points(&self) -> Vec<(SimTime, f64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, &(sum, count, max))| {
                let at = self.origin + self.window * (i as u64);
                match self.agg {
                    Agg::Sum => Some((at, sum)),
                    Agg::Mean if count > 0 => Some((at, sum / count as f64)),
                    Agg::Max if count > 0 => Some((at, max)),
                    _ => None,
                }
            })
            .collect()
    }

    /// Values only, in window order (convenience for plotting).
    pub fn values(&self) -> Vec<f64> {
        self.points().into_iter().map(|(_, v)| v).collect()
    }

    /// Number of populated-or-interior windows.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Merges another series into this one: bucket sums and counts add,
    /// maxima take the max. The two series coarsen to the wider of their
    /// windows first (both widths are the construction width times a power
    /// of two, so they always meet), and origins align to the earlier one.
    /// This is the deterministic reduction for combining per-shard series
    /// into one machine-wide view: for [`Agg::Sum`] the result is exactly
    /// what a single recorder fed both event streams would report at the
    /// final width.
    ///
    /// # Panics
    ///
    /// Panics if the aggregations differ, or the window widths are not
    /// power-of-two multiples of each other.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(self.agg, other.agg, "merging series with different Agg");
        if !other.started {
            return;
        }
        if !self.started {
            *self = other.clone();
            return;
        }
        let mut o;
        let other = if other.window < self.window {
            o = other.clone();
            while o.window < self.window {
                o.coarsen();
            }
            &o
        } else {
            while self.window < other.window {
                self.coarsen();
            }
            other
        };
        assert_eq!(self.window, other.window, "series windows never met");
        let w = self.window.as_nanos();
        let new_origin = self.origin.min(other.origin);
        let self_off = ((self.origin.as_nanos() - new_origin.as_nanos()) / w) as usize;
        let other_off = ((other.origin.as_nanos() - new_origin.as_nanos()) / w) as usize;
        let len = (self_off + self.buckets.len()).max(other_off + other.buckets.len());
        let mut merged = vec![(0.0, 0u64, f64::NEG_INFINITY); len];
        for (i, &(sum, count, max)) in self.buckets.iter().enumerate() {
            let b = &mut merged[self_off + i];
            b.0 += sum;
            b.1 += count;
            b.2 = b.2.max(max);
        }
        for (i, &(sum, count, max)) in other.buckets.iter().enumerate() {
            let b = &mut merged[other_off + i];
            b.0 += sum;
            b.1 += count;
            b.2 = b.2.max(max);
        }
        self.origin = new_origin;
        self.buckets = merged;
        self.max_buckets = self.max_buckets.min(other.max_buckets);
        while self.buckets.len() > self.max_buckets {
            self.coarsen();
        }
    }

    /// Doubles the window width, re-snapping the origin and merging the
    /// existing buckets into the coarser grid in place.
    fn coarsen(&mut self) {
        let old_w = self.window.as_nanos();
        let new_w = old_w * 2;
        let old_origin = self.origin.as_nanos();
        let new_origin = (old_origin / new_w) * new_w;
        let mut merged: Vec<(f64, u64, f64)> = Vec::with_capacity(self.buckets.len() / 2 + 1);
        for (i, &(sum, count, max)) in self.buckets.iter().enumerate() {
            let at = old_origin + i as u64 * old_w;
            let idx = ((at - new_origin) / new_w) as usize;
            if idx >= merged.len() {
                merged.resize(idx + 1, (0.0, 0, f64::NEG_INFINITY));
            }
            let b = &mut merged[idx];
            b.0 += sum;
            b.1 += count;
            b.2 = b.2.max(max);
        }
        self.window = SimDuration::from_nanos(new_w);
        self.origin = SimTime::from_nanos(new_origin);
        self.buckets = merged;
    }
}

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for Agg {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            Agg::Sum => 0,
            Agg::Mean => 1,
            Agg::Max => 2,
        });
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(Agg::Sum),
            1 => Ok(Agg::Mean),
            2 => Ok(Agg::Max),
            other => Err(SnapError::Corrupt(format!("unknown Agg tag {other}"))),
        }
    }
}

impl Snap for TimeSeries {
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            window,
            agg,
            buckets,
            origin,
            started,
            max_buckets,
        } = self;
        window.save(w);
        agg.save(w);
        buckets.save(w);
        origin.save(w);
        w.bool(*started);
        w.usize(*max_buckets);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let window = SimDuration::load(r)?;
        if window.is_zero() {
            return Err(SnapError::Corrupt("time series window is zero".into()));
        }
        Ok(TimeSeries {
            window,
            agg: Agg::load(r)?,
            buckets: Vec::load(r)?,
            origin: SimTime::load(r)?,
            started: r.bool()?,
            max_buckets: r.usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn sum_counts_events_per_window() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(10), Agg::Sum);
        for t in [1u64, 2, 3, 11, 25] {
            ts.tick(ms(t));
        }
        assert_eq!(
            ts.values(),
            vec![3.0, 1.0, 1.0],
            "windows [0,10) [10,20) [20,30)"
        );
    }

    #[test]
    fn mean_averages_samples() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(10), Agg::Mean);
        ts.record(ms(0), 2.0);
        ts.record(ms(5), 4.0);
        ts.record(ms(12), 10.0);
        assert_eq!(ts.values(), vec![3.0, 10.0]);
    }

    #[test]
    fn max_takes_peaks_and_skips_empty() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(10), Agg::Max);
        ts.record(ms(0), 2.0);
        ts.record(ms(1), 7.0);
        ts.record(ms(25), 1.0);
        let pts = ts.points();
        assert_eq!(pts.len(), 2, "the empty middle window is skipped");
        assert_eq!(pts[0].1, 7.0);
        assert_eq!(pts[1], (ms(20), 1.0));
    }

    #[test]
    fn sum_reports_zero_for_interior_gaps() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(10), Agg::Sum);
        ts.tick(ms(0));
        ts.tick(ms(29));
        assert_eq!(ts.values(), vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn origin_snaps_to_window_boundary() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(10), Agg::Sum);
        ts.tick(ms(25));
        assert_eq!(ts.points()[0].0, ms(20));
        // A later event in the same window accumulates there.
        ts.tick(ms(27));
        assert_eq!(ts.values(), vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "recorded into the past")]
    fn rejects_out_of_order_before_origin() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(10), Agg::Sum);
        ts.tick(ms(50));
        ts.tick(ms(10));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rejects_zero_window() {
        TimeSeries::new(SimDuration::ZERO, Agg::Sum);
    }

    #[test]
    fn bounded_series_coarsens_instead_of_growing() {
        let mut ts = TimeSeries::bounded(SimDuration::from_millis(10), Agg::Sum, 4);
        for t in 0..32u64 {
            ts.tick(ms(t * 10 + 1));
        }
        assert!(ts.len() <= 4, "bucket count {} exceeds the cap", ts.len());
        // Coarsening is lossless for sums: every tick is still counted.
        let total: f64 = ts.values().iter().sum();
        assert_eq!(total, 32.0);
        // 32 original 10 ms windows squeezed under 4 buckets → 80 ms+ wide.
        assert!(ts.window() >= SimDuration::from_millis(80));
    }

    #[test]
    fn bounded_series_matches_fresh_series_at_final_width() {
        let samples: Vec<(u64, f64)> = (0..50).map(|i| (i * 7 + 3, (i % 5) as f64)).collect();
        let mut bounded = TimeSeries::bounded(SimDuration::from_millis(10), Agg::Max, 4);
        for &(t, v) in &samples {
            bounded.record(ms(t), v);
        }
        let mut fresh = TimeSeries::new(bounded.window(), Agg::Max);
        for &(t, v) in &samples {
            fresh.record(ms(t), v);
        }
        assert_eq!(bounded.points(), fresh.points());
    }

    #[test]
    fn unbounded_series_never_coarsens() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(10), Agg::Sum);
        for t in 0..100u64 {
            ts.tick(ms(t * 10));
        }
        assert_eq!(ts.window(), SimDuration::from_millis(10));
        assert_eq!(ts.len(), 100);
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new(SimDuration::from_millis(10), Agg::Sum);
        assert!(ts.is_empty());
        assert_eq!(ts.len(), 0);
        assert!(ts.points().is_empty());
    }

    #[test]
    fn snapshot_round_trip_keeps_coarsening_state() {
        use crate::snap::{Snap, SnapReader, SnapWriter};
        let mut ts = TimeSeries::bounded(SimDuration::from_millis(10), Agg::Mean, 4);
        for i in 0..40u64 {
            ts.record(ms(i * 10 + 3), (i % 5) as f64);
        }
        let mut w = SnapWriter::new();
        ts.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let mut restored = TimeSeries::load(&mut r).unwrap();
        assert_eq!(restored, ts);
        // Continuing both series stays in lockstep (same width, same origin).
        ts.record(ms(500), 9.0);
        restored.record(ms(500), 9.0);
        assert_eq!(restored.points(), ts.points());
    }
}
