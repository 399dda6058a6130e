//! Result types extracted from finished scenarios.

use crate::cp_actor::CpRecord;
use presence_core::{CpId, CpStats};
use serde::{Deserialize, Serialize};

/// Per-CP summary, flattened for serialisation and table rendering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpSummary {
    /// The CP's identity.
    pub id: CpId,
    /// Mean of the per-cycle delay δ (seconds); `NaN` if no cycle finished.
    pub mean_delay: f64,
    /// Sample variance of the per-cycle delay.
    pub delay_variance: f64,
    /// Mean probe frequency: successful cycles per active second would be
    /// ideal, but to match the paper's plots this is the mean of `1/δ`
    /// samples.
    pub mean_frequency: f64,
    /// `(t, 1/δ)` series for plotting (Figures 2–4).
    pub frequency_series: Vec<(f64, f64)>,
    /// Probes transmitted (including retransmissions).
    pub probes_sent: u64,
    /// Completed (successful) probe cycles.
    pub cycles_succeeded: u64,
    /// Failed cycles (absence verdicts).
    pub cycles_failed: u64,
    /// Retransmissions sent.
    pub retransmissions: u64,
    /// When this CP declared the device absent (seconds), if it did.
    pub detected_absent_at: Option<f64>,
    /// How many times the CP joined.
    pub joins: u64,
}

impl CpSummary {
    /// Builds a summary from an actor record, borrowed: the frequency
    /// series is copied once, into the summary. `live` is the statistics
    /// of a session still in progress, which the record has not folded in
    /// yet.
    #[must_use]
    pub fn from_record(rec: &CpRecord, live: Option<&CpStats>) -> Self {
        let freq_series: Vec<(f64, f64)> = rec
            .frequency_series
            .samples()
            .iter()
            .map(|s| (s.t, s.value))
            .collect();
        let mean_freq = if freq_series.is_empty() {
            f64::NAN
        } else {
            freq_series.iter().map(|&(_, f)| f).sum::<f64>() / freq_series.len() as f64
        };
        let mut stats = rec.stats;
        if let Some(live) = live {
            stats += live;
        }
        Self {
            id: rec.id,
            mean_delay: rec.delay_stats.mean(),
            delay_variance: rec.delay_stats.sample_variance(),
            mean_frequency: mean_freq,
            frequency_series: freq_series,
            probes_sent: stats.probes_sent,
            cycles_succeeded: stats.cycles_succeeded,
            cycles_failed: stats.cycles_failed,
            retransmissions: stats.retransmissions,
            detected_absent_at: rec.detected_absent_at.map(|t| t.as_secs_f64()),
            joins: rec.joins,
        }
    }
}

/// Everything a finished scenario reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Virtual seconds simulated.
    pub duration: f64,
    /// Events the engine processed.
    pub events_processed: u64,
    /// Probes the device answered.
    pub device_probes: u64,
    /// `(window_start, probes_per_second)` — the Figure 5 load curve.
    pub load_series: Vec<(f64, f64)>,
    /// Mean of the load series (excluding the first, warm-up window).
    pub load_mean: f64,
    /// Sample variance of the load series.
    pub load_variance: f64,
    /// Time-weighted mean in-flight message count (the paper's "average
    /// buffer length", ≈ 0.004 in §3).
    pub mean_buffer_occupancy: Option<f64>,
    /// Messages offered to the network.
    pub messages_offered: u64,
    /// Messages whose delivery deadline passed within the run.
    pub messages_delivered: u64,
    /// Messages dropped by buffer overflow.
    pub messages_dropped_overflow: u64,
    /// Messages dropped by the loss model.
    pub messages_dropped_loss: u64,
    /// Messages addressed to an unregistered address — always 0 in a
    /// correctly wired scenario (misroutes must not masquerade as loss).
    pub messages_unroutable: u64,
    /// `(t, active CPs)` step series — Figure 5's second curve.
    pub population_series: Vec<(f64, f64)>,
    /// Per-CP summaries (the whole pool, including never-active CPs).
    pub cps: Vec<CpSummary>,
    /// Jain fairness index over the mean frequencies of CPs that completed
    /// at least one cycle.
    pub fairness_jain: f64,
}

impl ScenarioResult {
    /// Engine events spent on the network path per delivered message,
    /// computed as `(offered + delivered) / delivered`: one `Send`
    /// dispatch per offered message plus one `Deliver` firing per
    /// delivered one. The single-hop delivery path holds this at 2 plus
    /// the drop/in-flight share (the old route cost 3);
    /// `tests/golden_equivalence.rs::typed_dispatch_preserves_golden_trio_trajectories`
    /// fails above 2.05. `None` when nothing was delivered.
    ///
    /// Approximation: a `Broadcast` is one engine dispatch but increments
    /// `offered` once per copy, so broadcast-heavy runs *over*state the
    /// true event cost — conservative for the ≤ gate. (Unroutable sends,
    /// one dispatch with nothing offered, are the tiny inverse.)
    #[must_use]
    pub fn events_per_delivered_message(&self) -> Option<f64> {
        if self.messages_delivered == 0 {
            return None;
        }
        let events = self.messages_offered + self.messages_delivered;
        Some(events as f64 / self.messages_delivered as f64)
    }

    /// Summaries of CPs that completed at least one probe cycle.
    #[must_use]
    pub fn active_cps(&self) -> Vec<&CpSummary> {
        self.cps.iter().filter(|c| c.cycles_succeeded > 0).collect()
    }

    /// Mean delays of active CPs, sorted ascending.
    #[must_use]
    pub fn sorted_mean_delays(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .active_cps()
            .iter()
            .map(|c| c.mean_delay)
            .filter(|d| d.is_finite())
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v
    }

    /// Ratio between the fastest and slowest active CP's mean frequency
    /// (1.0 = perfectly fair).
    #[must_use]
    pub fn frequency_spread(&self) -> f64 {
        let freqs: Vec<f64> = self
            .active_cps()
            .iter()
            .map(|c| c.mean_frequency)
            .filter(|f| f.is_finite())
            .collect();
        presence_stats::max_min_ratio(&freqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presence_des::SimTime;
    use presence_stats::{TimeSeries, Welford};

    fn record(id: u32, delays: &[f64]) -> CpRecord {
        let mut freq = TimeSeries::new();
        let mut stats = Welford::new();
        for (i, &d) in delays.iter().enumerate() {
            freq.push(i as f64, 1.0 / d);
            stats.push(d);
        }
        CpRecord {
            id: CpId(id),
            frequency_series: freq,
            delay_stats: stats,
            stats: CpStats {
                probes_sent: delays.len() as u64,
                cycles_started: delays.len() as u64,
                cycles_succeeded: delays.len() as u64,
                cycles_failed: 0,
                stale_replies: 0,
                retransmissions: 0,
            },
            detected_absent_at: Some(SimTime::from_secs_f64(99.0)),
            joins: 1,
        }
    }

    #[test]
    fn summary_from_record() {
        let rec = record(3, &[2.0, 2.0, 4.0]);
        let s = CpSummary::from_record(&rec, None);
        assert_eq!(s.id, CpId(3));
        assert!((s.mean_delay - 8.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.cycles_succeeded, 3);
        assert_eq!(s.detected_absent_at, Some(99.0));
        assert_eq!(s.frequency_series.len(), 3);
        // mean of (0.5, 0.5, 0.25)
        assert!((s.mean_frequency - 1.25 / 3.0).abs() < 1e-9);
        // A session in progress adds its counters and nothing else.
        let live = CpSummary::from_record(&rec, Some(&rec.stats));
        assert_eq!((live.cycles_succeeded, live.probes_sent), (6, 6));
        assert_eq!(live.frequency_series, s.frequency_series);
    }

    #[test]
    fn result_helpers() {
        let cps = vec![
            CpSummary::from_record(&record(0, &[1.0, 1.0]), None),
            CpSummary::from_record(&record(1, &[4.0, 4.0]), None),
        ];
        let r = ScenarioResult {
            duration: 10.0,
            events_processed: 0,
            device_probes: 4,
            load_series: vec![],
            load_mean: f64::NAN,
            load_variance: f64::NAN,
            mean_buffer_occupancy: None,
            messages_offered: 0,
            messages_delivered: 0,
            messages_dropped_overflow: 0,
            messages_dropped_loss: 0,
            messages_unroutable: 0,
            population_series: vec![],
            cps,
            fairness_jain: 0.5,
        };
        assert_eq!(r.active_cps().len(), 2);
        assert_eq!(r.sorted_mean_delays(), vec![1.0, 4.0]);
        assert!((r.frequency_spread() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn result_serialises() {
        let r = ScenarioResult {
            duration: 1.0,
            events_processed: 10,
            device_probes: 5,
            load_series: vec![(0.0, 10.0)],
            load_mean: 10.0,
            load_variance: 0.0,
            mean_buffer_occupancy: Some(0.004),
            messages_offered: 10,
            messages_delivered: 5,
            messages_dropped_overflow: 0,
            messages_dropped_loss: 0,
            messages_unroutable: 0,
            population_series: vec![(0.0, 3.0)],
            cps: vec![],
            fairness_jain: 1.0,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: ScenarioResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
