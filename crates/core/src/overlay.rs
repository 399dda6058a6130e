//! The CP overlay and leave-notice dissemination.
//!
//! SAPP organises CPs "dynamically […] in an overlay network by letting the
//! device, on each probe, return the ids of the last two (distinct)
//! processes that probed it. On detecting the absence of a device, the CP
//! uses this overlay network to inform all CPs about the leave of the
//! device rapidly." The paper explicitly does **not** analyse that
//! dissemination phase; we implement it anyway as the natural completion of
//! the protocol: a gossip flood with duplicate suppression over the learned
//! neighbour links.

use crate::types::{CpId, DeviceId, LeaveNotice};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A CP's view of the overlay: the peers it has learned from device
/// replies, most recent last.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverlayView {
    me: CpId,
    neighbors: BTreeSet<CpId>,
    capacity: usize,
}

impl OverlayView {
    /// Default neighbour capacity: enough for rapid dissemination without
    /// turning gossip into broadcast.
    pub const DEFAULT_CAPACITY: usize = 8;

    /// Creates an empty view for CP `me`.
    #[must_use]
    pub fn new(me: CpId) -> Self {
        Self::with_capacity(me, Self::DEFAULT_CAPACITY)
    }

    /// Creates an empty view retaining at most `capacity` neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_capacity(me: CpId, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            me,
            neighbors: BTreeSet::new(),
            capacity,
        }
    }

    /// The owning CP.
    #[must_use]
    pub fn me(&self) -> CpId {
        self.me
    }

    /// Absorbs the `last_probers` field of a reply. The own id is never
    /// stored. When over capacity, the smallest-id neighbour is evicted
    /// (deterministic, and id-diverse enough for gossip in practice).
    pub fn observe(&mut self, last_probers: [Option<CpId>; 2]) {
        for peer in last_probers.into_iter().flatten() {
            if peer == self.me {
                continue;
            }
            // A full view would evict a peer below its minimum at once:
            // same final set, so the tree is left alone.
            let full = self.neighbors.len() >= self.capacity;
            if full && self.neighbors.first().is_some_and(|&min| peer < min) {
                continue;
            }
            self.neighbors.insert(peer);
            while self.neighbors.len() > self.capacity {
                self.neighbors.pop_first();
            }
        }
    }

    /// The current neighbour set.
    #[must_use]
    pub fn neighbors(&self) -> &BTreeSet<CpId> {
        &self.neighbors
    }

    /// Number of known neighbours.
    #[must_use]
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether no neighbour is known yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }
}

/// Outcome of receiving a leave notice.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NoticeDisposition {
    /// First time we hear of this departure: deliver it to the application
    /// and forward to the listed peers.
    Fresh {
        /// Peers to forward the (re-stamped) notice to.
        forward_to: Vec<CpId>,
    },
    /// Already known; suppress.
    Duplicate,
}

/// Gossip dissemination of device departures with duplicate suppression.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Disseminator {
    me: CpId,
    seen: BTreeSet<DeviceId>,
    /// Notices originated or forwarded by this CP.
    forwarded: u64,
    /// Duplicates suppressed.
    suppressed: u64,
}

impl Disseminator {
    /// Creates a disseminator for CP `me`.
    #[must_use]
    pub fn new(me: CpId) -> Self {
        Self {
            me,
            seen: BTreeSet::new(),
            forwarded: 0,
            suppressed: 0,
        }
    }

    /// Called when this CP *itself* detects the departure of `device`.
    /// Returns the notices to send to every overlay neighbour. Idempotent:
    /// a second local detection of the same device emits nothing.
    pub fn on_local_detection(
        &mut self,
        device: DeviceId,
        view: &OverlayView,
    ) -> Vec<(CpId, LeaveNotice)> {
        if !self.seen.insert(device) {
            return Vec::new();
        }
        let notice = LeaveNotice {
            device,
            reporter: self.me,
        };
        let out: Vec<_> = view
            .neighbors()
            .iter()
            .map(|&peer| (peer, notice))
            .collect();
        self.forwarded += out.len() as u64;
        out
    }

    /// Called when a leave notice arrives from a peer.
    pub fn on_notice(&mut self, notice: LeaveNotice, view: &OverlayView) -> NoticeDisposition {
        if !self.seen.insert(notice.device) {
            self.suppressed += 1;
            return NoticeDisposition::Duplicate;
        }
        let forward_to: Vec<CpId> = view
            .neighbors()
            .iter()
            .copied()
            .filter(|&p| p != notice.reporter)
            .collect();
        self.forwarded += forward_to.len() as u64;
        NoticeDisposition::Fresh { forward_to }
    }

    /// Whether this CP already knows `device` has left.
    #[must_use]
    pub fn knows(&self, device: DeviceId) -> bool {
        self.seen.contains(&device)
    }

    /// Notices sent (originated + relayed).
    #[must_use]
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Duplicate notices suppressed.
    #[must_use]
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_filters_self_and_none() {
        let mut v = OverlayView::new(CpId(1));
        v.observe([Some(CpId(1)), None]);
        assert!(v.is_empty());
        v.observe([Some(CpId(2)), Some(CpId(3))]);
        assert_eq!(v.len(), 2);
        assert!(v.neighbors().contains(&CpId(2)));
        assert!(v.neighbors().contains(&CpId(3)));
    }

    #[test]
    fn observe_dedupes() {
        let mut v = OverlayView::new(CpId(1));
        v.observe([Some(CpId(2)), None]);
        v.observe([Some(CpId(2)), None]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn capacity_evicts() {
        let mut v = OverlayView::with_capacity(CpId(0), 2);
        v.observe([Some(CpId(1)), Some(CpId(2))]);
        v.observe([Some(CpId(3)), None]);
        assert_eq!(v.len(), 2);
        // Smallest id evicted.
        assert!(!v.neighbors().contains(&CpId(1)));
        assert!(v.neighbors().contains(&CpId(2)));
        assert!(v.neighbors().contains(&CpId(3)));
    }

    #[test]
    fn full_view_ignores_a_peer_below_its_minimum() {
        let mut v = OverlayView::with_capacity(CpId(0), 3);
        v.observe([Some(CpId(5)), Some(CpId(7))]);
        v.observe([Some(CpId(9)), None]);
        let full = v.clone();
        // Below the minimum: would be inserted and evicted again.
        v.observe([Some(CpId(2)), Some(CpId(4))]);
        assert_eq!(v, full);
        assert_eq!(v.len(), 3);
        // Above the minimum: the minimum goes, as before.
        v.observe([Some(CpId(6)), None]);
        let ids: Vec<CpId> = v.neighbors().iter().copied().collect();
        assert_eq!(ids, vec![CpId(6), CpId(7), CpId(9)]);
        // Already a neighbour: nothing to evict.
        v.observe([Some(CpId(7)), None]);
        assert_eq!(v.len(), 3);
        assert!(v.neighbors().contains(&CpId(6)));
    }

    #[test]
    fn local_detection_notifies_all_neighbors() {
        let mut v = OverlayView::new(CpId(0));
        v.observe([Some(CpId(1)), Some(CpId(2))]);
        let mut d = Disseminator::new(CpId(0));
        let out = d.on_local_detection(DeviceId(9), &v);
        assert_eq!(out.len(), 2);
        for (_, notice) in &out {
            assert_eq!(notice.device, DeviceId(9));
            assert_eq!(notice.reporter, CpId(0));
        }
        assert!(d.knows(DeviceId(9)));
        // Second detection emits nothing.
        assert!(d.on_local_detection(DeviceId(9), &v).is_empty());
    }

    #[test]
    fn notice_forwarded_once_and_not_back_to_reporter() {
        let mut v = OverlayView::new(CpId(1));
        v.observe([Some(CpId(0)), Some(CpId(2))]);
        let mut d = Disseminator::new(CpId(1));
        let notice = LeaveNotice {
            device: DeviceId(9),
            reporter: CpId(0),
        };
        match d.on_notice(notice, &v) {
            NoticeDisposition::Fresh { forward_to } => {
                assert_eq!(forward_to, vec![CpId(2)], "must skip the reporter");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(d.on_notice(notice, &v), NoticeDisposition::Duplicate);
        assert_eq!(d.suppressed(), 1);
    }

    #[test]
    fn flood_terminates_and_reaches_everyone() {
        // Build a ring overlay of 10 CPs, each knowing its two ring
        // neighbours, and flood a departure from CP 0. Every CP must learn
        // of it, and the flood must terminate (finite message count).
        let n = 10u32;
        let mut views: Vec<OverlayView> = (0..n).map(|i| OverlayView::new(CpId(i))).collect();
        for i in 0..n {
            let left = CpId((i + n - 1) % n);
            let right = CpId((i + 1) % n);
            views[i as usize].observe([Some(left), Some(right)]);
        }
        let mut dss: Vec<Disseminator> = (0..n).map(|i| Disseminator::new(CpId(i))).collect();

        let mut queue: Vec<(CpId, LeaveNotice)> = dss[0].on_local_detection(DeviceId(5), &views[0]);
        let mut messages = queue.len();
        while let Some((to, notice)) = queue.pop() {
            let idx = to.0 as usize;
            if let NoticeDisposition::Fresh { forward_to } = dss[idx].on_notice(notice, &views[idx])
            {
                let restamped = LeaveNotice {
                    device: notice.device,
                    reporter: to,
                };
                for peer in forward_to {
                    queue.push((peer, restamped));
                    messages += 1;
                }
            }
        }
        assert!(
            dss.iter().all(|d| d.knows(DeviceId(5))),
            "flood must cover the ring"
        );
        assert!(
            messages <= (2 * n) as usize + 2,
            "flood of {messages} messages too chatty"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = OverlayView::with_capacity(CpId(0), 0);
    }
}
