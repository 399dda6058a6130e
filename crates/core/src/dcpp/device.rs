//! DCPP device behaviour (§4, "Device behavior").
//!
//! The device owns the probe schedule. It remembers the time instant `nt`
//! for which the last probing CP has been scheduled; a probe arriving at
//! time `t` is scheduled for
//!
//! ```text
//! nt' = max{nt, t} + Δ(nt, t),   Δ(nt, t) = max{δ_min, d_min − (nt − t)}
//! ```
//!
//! and the reply tells the CP to wait `nt' − t`. The two constraints this
//! encodes: (i) consecutive scheduled probes are at least `δ_min` apart, so
//! the device load never exceeds `L_nom = 1/δ_min`; (ii) the waiting time
//! is at least `d_min`, so no CP is asked to probe more often than
//! `f_max = 1/d_min`.
//!
//! **Idle-device subtlety.** Read literally, `Δ(nt, t)` with `nt` far in the
//! past (an idle device) yields `d_min + (t − nt)` — an arbitrarily long
//! wait after a quiet period, which contradicts the protocol's intent and
//! its stated constraints. We therefore clamp the backlog term at zero:
//! `Δ(nt, t) = max{δ_min, d_min − max(nt − t, 0)}`, equivalently
//! `nt' = max{ max(nt, t) + δ_min, t + d_min }` ([`DcppConfig::schedule`]).
//!
//! The two agree exactly while the device is backlogged (`nt ≥ t`): there
//! `max(nt − t, 0) = nt − t`, so the clamped `Δ` is the literal one. Once
//! it is idle (`nt < t`) the literal `Δ` is `max{δ_min, d_min + (t − nt)} =
//! d_min + (t − nt)` (as `d_min ≥ δ_min`), a wait of `d_min` plus the idle
//! gap, where the clamped rule waits exactly `d_min`. With `δ_min = 0.1`,
//! `d_min = 0.5`, `t = 1.0` and `nt = 0.8`, the literal formula gives
//! `nt' = 1.7` and the clamped rule `1.5`. The proptest
//! `dcpp_schedule_is_the_literal_rule_while_backlogged` in
//! `crates/core/tests/proptests.rs` checks both statements.

use crate::config::{slot, DcppConfig};
use crate::types::{DeviceId, Probe, Reply, ReplyBody};
use presence_des::{SimDuration, SimTime};

/// The device side of the device-controlled probe protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct DcppDevice {
    id: DeviceId,
    /// `(δ_min, d_min)`: all of its config the slot rule reads.
    spacing: (SimDuration, SimDuration),
    /// The time instant for which the last probing CP was scheduled.
    nt: SimTime,
    /// Total probes answered.
    probes_received: u64,
}

impl DcppDevice {
    /// Creates a device with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; validate at the boundary with
    /// [`DcppConfig::validate`] for a recoverable error.
    #[must_use]
    pub fn new(id: DeviceId, cfg: DcppConfig) -> Self {
        cfg.validate().expect("invalid DCPP configuration");
        Self {
            id,
            spacing: (cfg.delta_min, cfg.d_min),
            nt: SimTime::ZERO,
            probes_received: 0,
        }
    }

    /// The device's identity.
    #[must_use]
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The next-probe-time register `nt`.
    #[must_use]
    pub fn next_slot(&self) -> SimTime {
        self.nt
    }

    /// Total probes answered.
    #[must_use]
    pub fn probes_received(&self) -> u64 {
        self.probes_received
    }

    /// The scheduling backlog at time `now`: how far `nt` lies in the
    /// future. Zero when the device is idle. Roughly `k · δ_min` when `k`
    /// CPs are enqueued — a direct observable for the Figure 5 join spikes.
    #[must_use]
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.nt.saturating_since(now)
    }

    /// Handles a probe arriving at `now`: advances the schedule and replies
    /// with the wait time.
    #[inline]
    pub fn on_probe(&mut self, now: SimTime, probe: Probe) -> Reply {
        self.probes_received += 1;
        self.nt = slot(self.nt, now, self.spacing);
        let wait = self.nt - now;
        Reply {
            probe,
            device: self.id,
            body: ReplyBody::Dcpp { wait },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CpId;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn device() -> DcppDevice {
        DcppDevice::new(DeviceId(0), DcppConfig::paper_default())
    }

    fn probe(cp: u32, seq: u64) -> Probe {
        Probe { cp: CpId(cp), seq }
    }

    fn wait_of(reply: &Reply) -> SimDuration {
        match reply.body {
            ReplyBody::Dcpp { wait } => wait,
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn single_cp_waits_d_min() {
        // A lone CP is told to wait exactly d_min = 0.5 s each time: the
        // per-CP frequency cap binds, not the device budget.
        let mut d = device();
        let r = d.on_probe(t(10.0), probe(1, 0));
        assert_eq!(wait_of(&r), SimDuration::from_millis(500));
        // It obeys, probing again at 10.5.
        let r = d.on_probe(t(10.5), probe(1, 1));
        assert_eq!(wait_of(&r), SimDuration::from_millis(500));
    }

    #[test]
    fn idle_device_does_not_penalise_newcomer() {
        // nt = 0, first probe at t = 1000: the literal paper formula would
        // produce a wait of d_min + 1000 s; the clamped rule yields d_min.
        let mut d = device();
        let r = d.on_probe(t(1000.0), probe(1, 0));
        assert_eq!(wait_of(&r), SimDuration::from_millis(500));
    }

    #[test]
    fn burst_of_cps_serialised_at_delta_min() {
        // Five CPs all probe at t = 0. The first is floored at d_min; the
        // rest land δ_min apart once the backlog exceeds d_min.
        let mut d = device();
        let waits: Vec<f64> = (0..5)
            .map(|i| wait_of(&d.on_probe(t(0.0), probe(i, 0))).as_secs_f64())
            .collect();
        assert!((waits[0] - 0.5).abs() < 1e-9, "first: d_min floor");
        assert!((waits[1] - 0.6).abs() < 1e-9, "second: 0.5 + δ_min");
        assert!((waits[2] - 0.7).abs() < 1e-9);
        assert!((waits[3] - 0.8).abs() < 1e-9);
        assert!((waits[4] - 0.9).abs() < 1e-9);
        // Slots are exactly δ_min apart → device load is at most L_nom.
        for w in waits.windows(2) {
            assert!((w[1] - w[0] - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn steady_state_load_is_l_nom() {
        // 20 CPs in lock-step: after the initial transient every reply
        // schedules δ_min after the previous, so the aggregate probe rate
        // equals L_nom = 10/s and every CP gets the same inter-probe gap.
        let mut d = device();
        let k = 20u32;
        // Each CP probes exactly when scheduled.
        let mut next_time: Vec<SimTime> = (0..k).map(|_| SimTime::ZERO).collect();
        let mut seq = vec![0u64; k as usize];
        let mut last_gap = vec![None::<SimDuration>; k as usize];
        // Run 40 "rounds" of everyone probing at their scheduled instant.
        for _round in 0..40 {
            // Process in time order (stable by CP id).
            let mut order: Vec<usize> = (0..k as usize).collect();
            order.sort_by_key(|&i| next_time[i]);
            for i in order {
                let now = next_time[i];
                let r = d.on_probe(now, probe(i as u32, seq[i]));
                seq[i] += 1;
                let w = wait_of(&r);
                last_gap[i] = Some(w);
                next_time[i] = now + w;
            }
        }
        // In steady state every CP's wait converges to k·δ_min = 2 s.
        for (i, gap) in last_gap.iter().enumerate() {
            let g = gap.unwrap().as_secs_f64();
            assert!(
                (g - 2.0).abs() < 0.11,
                "cp{i} steady gap {g} (expected ~2.0)"
            );
        }
    }

    #[test]
    fn backlog_reflects_queue_depth() {
        let mut d = device();
        assert_eq!(d.backlog(t(0.0)), SimDuration::ZERO);
        for i in 0..10 {
            d.on_probe(t(0.0), probe(i, 0));
        }
        // First slot at 0.5, then 9 more δ_min slots → backlog 1.4 s.
        let b = d.backlog(t(0.0)).as_secs_f64();
        assert!((b - 1.4).abs() < 1e-9, "backlog {b}");
        assert_eq!(d.probes_received(), 10);
    }

    #[test]
    fn late_cp_is_appended_to_schedule() {
        let mut d = device();
        d.on_probe(t(0.0), probe(1, 0)); // nt = 0.5
        d.on_probe(t(0.0), probe(2, 0)); // nt = 0.6
                                         // A third CP arrives later but before the backlog clears.
        let r = d.on_probe(t(0.55), probe(3, 0));
        // max(nt, t) + δ_min = 0.6 + 0.1 = 0.7; floor t + d_min = 1.05 wins.
        assert!((wait_of(&r).as_secs_f64() - 0.5).abs() < 1e-9);
        assert_eq!(d.next_slot(), t(1.05));
    }

    #[test]
    fn reply_echoes_probe() {
        let mut d = device();
        let p = probe(3, 9);
        let r = d.on_probe(t(1.0), p);
        assert_eq!(r.probe, p);
        assert_eq!(r.device, DeviceId(0));
    }

    #[test]
    fn custom_config_rates() {
        let cfg = DcppConfig {
            delta_min: SimDuration::from_millis(50), // L_nom = 20
            d_min: SimDuration::from_millis(200),    // f_max = 5
            ..DcppConfig::paper_default()
        };
        let mut d = DcppDevice::new(DeviceId(1), cfg);
        let r = d.on_probe(t(0.0), probe(0, 0));
        assert_eq!(wait_of(&r), SimDuration::from_millis(200));
        let r = d.on_probe(t(0.0), probe(1, 0));
        // Second slot: max(0.2, 0+0.05)… nt = 0.2, so 0.2+0.05 = 0.25 vs
        // floor 0.2 → 0.25.
        assert_eq!(wait_of(&r), SimDuration::from_millis(250));
    }
}
