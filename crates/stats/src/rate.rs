//! Event-rate measurement over time windows.
//!
//! The central quantity in both protocols is a *load* measured in probes per
//! second: the device's nominal load `L_nom` is 10 probes/s in every paper
//! experiment, and Figure 5 plots the DCPP device's observed load over time.
//! [`JumpingWindowRate`] produces the per-interval series used for plotting.

/// Jumping (non-overlapping) window rate series.
///
/// Closes a window every `width` seconds and reports `(window_start, rate)`
/// pairs — exactly the series plotted as "Device Load" in Figure 5.
#[derive(Debug, Clone)]
pub struct JumpingWindowRate {
    width: f64,
    origin: f64,
    current_index: u64,
    current_count: u64,
    closed: Vec<(f64, f64)>,
}

impl JumpingWindowRate {
    /// Creates a series with windows `[origin + k·width, origin + (k+1)·width)`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive and finite.
    #[must_use]
    pub fn new(origin: f64, width: f64) -> Self {
        Self::with_capacity(origin, width, 0)
    }

    /// [`JumpingWindowRate::new`] with room pre-allocated for `windows`
    /// closed windows — size it as `horizon / width` so long-horizon runs
    /// never regrow the series.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive and finite.
    #[must_use]
    pub fn with_capacity(origin: f64, width: f64, windows: usize) -> Self {
        assert!(width > 0.0 && width.is_finite(), "width must be positive");
        Self {
            width,
            origin,
            current_index: 0,
            current_count: 0,
            closed: Vec::with_capacity(windows),
        }
    }

    /// Records one event at time `t ≥ origin`; closes any windows that ended
    /// before `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the origin or moves backwards past an already
    /// closed window.
    #[inline]
    pub fn record(&mut self, t: f64) {
        let idx = self.index_of(t);
        assert!(
            idx >= self.current_index,
            "event at {t} falls in an already-closed window"
        );
        self.close_until(idx);
        self.current_count += 1;
    }

    #[inline]
    fn index_of(&self, t: f64) -> u64 {
        assert!(t >= self.origin, "event precedes origin");
        ((t - self.origin) / self.width) as u64
    }

    #[inline]
    fn close_until(&mut self, idx: u64) {
        while self.current_index < idx {
            let start = self.origin + self.current_index as f64 * self.width;
            self.closed
                .push((start, self.current_count as f64 / self.width));
            self.current_count = 0;
            self.current_index += 1;
        }
    }

    /// Flushes windows up to (not including) the one containing `t`.
    pub fn advance_to(&mut self, t: f64) {
        let idx = self.index_of(t);
        self.close_until(idx);
    }

    /// Closed `(window_start, events_per_second)` pairs, in time order.
    #[must_use]
    pub fn series(&self) -> &[(f64, f64)] {
        &self.closed
    }

    /// Removes every closed window, yielding each `(window_start, rate)`
    /// pair in time order; the in-progress window is untouched. Streaming
    /// recorders call this after each `record`/`advance_to` to fold closed
    /// windows into a constant-size accumulator instead of retaining the
    /// series, so memory stays flat at any horizon.
    pub fn drain_closed(&mut self, mut f: impl FnMut(f64, f64)) {
        for (start, rate) in self.closed.drain(..) {
            f(start, rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jumping_windows_close_in_order() {
        let mut j = JumpingWindowRate::new(0.0, 1.0);
        j.record(0.1);
        j.record(0.9);
        j.record(2.5); // skips window [1,2): closed with rate 0
        let s = j.series();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], (0.0, 2.0));
        assert_eq!(s[1], (1.0, 0.0));
        j.advance_to(3.0);
        let all = j.series();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2], (2.0, 1.0));
    }

    #[test]
    fn jumping_window_advance_flushes_empties() {
        let mut j = JumpingWindowRate::new(10.0, 2.0);
        j.advance_to(16.0);
        assert_eq!(j.series().len(), 3);
        assert!(j.series().iter().all(|&(_, r)| r == 0.0));
    }

    #[test]
    #[should_panic(expected = "precedes origin")]
    fn jumping_rejects_pre_origin() {
        let mut j = JumpingWindowRate::new(5.0, 1.0);
        j.record(4.0);
    }

    #[test]
    fn jumping_rate_values() {
        let mut j = JumpingWindowRate::new(0.0, 0.5);
        for i in 0..10 {
            j.record(i as f64 * 0.1); // 10 events in [0, 1)
        }
        j.advance_to(1.0);
        let s = j.series();
        // Two windows of width 0.5 with 5 events each → rate 10/s. The
        // horizon ends exactly on a window boundary, so no third (empty)
        // window `[1.0, 1.5)` is emitted.
        assert_eq!(s.len(), 2);
        assert!((s[0].1 - 10.0).abs() < 1e-12);
        assert!((s[1].1 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn finish_on_boundary_emits_no_phantom_window() {
        // A run that finishes exactly on a window boundary: `advance_to(end)`
        // closes every window before `end` and no zero-rate window
        // `[end, end + width)`.
        let mut j = JumpingWindowRate::new(0.0, 0.5);
        j.record(0.2);
        j.advance_to(1.0);
        assert_eq!(j.series(), &[(0.0, 2.0), (0.5, 0.0)]);

        // Earlier-window events still flush even when the window at the
        // boundary is empty.
        let mut j = JumpingWindowRate::new(0.0, 0.5);
        j.record(0.2);
        j.advance_to(0.5);
        assert_eq!(j.series(), &[(0.0, 2.0)]);
    }

    #[test]
    fn advance_mid_window_leaves_it_open() {
        // `end` strictly inside a window → that window stays open, its
        // events kept, until time passes its end.
        let mut j = JumpingWindowRate::new(0.0, 0.5);
        j.record(0.6);
        j.advance_to(0.75);
        assert_eq!(j.series(), &[(0.0, 0.0)]);
        j.advance_to(1.0);
        assert_eq!(j.series(), &[(0.0, 0.0), (0.5, 2.0)]);
    }

    #[test]
    fn finish_on_boundary_keeps_recorded_events() {
        // An event recorded exactly at the boundary belongs to the window
        // starting there; a run finishing at that same boundary must not
        // drop it — the window stays open and closes with its event.
        let mut j = JumpingWindowRate::new(0.0, 0.5);
        j.record(0.5);
        j.advance_to(0.5);
        assert_eq!(j.series(), &[(0.0, 0.0)]);
        j.advance_to(1.0);
        assert_eq!(j.series(), &[(0.0, 0.0), (0.5, 2.0)]);
    }

    #[test]
    fn drain_closed_yields_and_empties() {
        let mut j = JumpingWindowRate::new(0.0, 1.0);
        j.record(0.5);
        j.record(2.5); // closes [0,1) and [1,2)
        let mut got = Vec::new();
        j.drain_closed(|s, r| got.push((s, r)));
        assert_eq!(got, vec![(0.0, 1.0), (1.0, 0.0)]);
        assert!(j.series().is_empty(), "drained");
        // The in-progress window survives the drain.
        j.advance_to(3.0);
        assert_eq!(j.series(), &[(2.0, 1.0)]);
    }
}
