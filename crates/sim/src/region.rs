//! Region planning for single-run parallelism.
//!
//! `presence-des` provides the conservative windowed driver
//! ([`presence_des::region`], one engine lane per region); this module
//! decides *whether a given scenario topology can use it*. A partition
//! is sound only if every cross-region route carries a positive minimum
//! delay (the lookahead — see [`presence_net::DelayModel::min_delay`]): a
//! zero-delay route crossing the cut would admit same-instant causality
//! across regions, which no safe window can contain.
//!
//! The paper's hub network is **one region by construction**: every CP
//! and the device reach each other through one `NetworkActor`, and the
//! CP→network leg is a same-instant `send_now`, so any cut separating a
//! participant from the hub has zero lookahead. Partitions that *do*
//! parallelise are the hub-free ones: the multi-plane topology
//! ([`crate::Topology::Planes`], one or more network planes per region,
//! joined by legs of positive wire time) and independent population
//! shards ([`crate::run_mega_sharded`]). Regions are always asked for
//! explicitly — a topology argument or a `--regions` flag — never through
//! the environment.

use presence_des::SimDuration;
use std::fmt;

/// Why a candidate partition cannot run conservatively in parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A route with zero minimum delay crosses the region cut: the
    /// partition admits no safe window.
    ZeroLookaheadRoute {
        /// Source actor index of the offending route.
        from: usize,
        /// Target actor index of the offending route.
        to: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroLookaheadRoute { from, to } => write!(
                f,
                "route {from} → {to} has zero minimum delay and crosses the \
                 region cut: no safe window exists for this partition"
            ),
        }
    }
}

/// An explicit actor → region assignment, with the validator that decides
/// whether it supports conservative parallel execution.
#[derive(Debug, Clone)]
pub struct RegionPartition {
    region_of: Vec<u32>,
    regions: usize,
}

impl RegionPartition {
    /// Builds a partition from an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if `regions == 0` or any assignment is out of range.
    #[must_use]
    pub fn from_assignment(region_of: Vec<u32>, regions: usize) -> Self {
        assert!(regions > 0, "a partition needs at least one region");
        assert!(
            region_of.iter().all(|&r| (r as usize) < regions),
            "region assignment out of range"
        );
        Self { region_of, regions }
    }

    /// The region of actor `member`.
    #[must_use]
    pub fn region_of(&self, member: usize) -> u32 {
        self.region_of[member]
    }

    /// The region count.
    #[must_use]
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// Validates this partition against the scenario's routes
    /// (`(from, to, min_delay)` triples) and returns the usable
    /// cross-region lookahead:
    ///
    /// * `Ok(Some(l))` — every cross-region route has minimum delay
    ///   ≥ `l > 0`; a conservative window of `l` is sound.
    /// * `Ok(None)` — no route crosses the cut at all (an *isolated*
    ///   partition: independent shards, one window per run).
    /// * `Err(_)` — some zero-delay route crosses the cut. The partition
    ///   is rejected loudly; running it would deadlock or reorder.
    ///
    /// # Errors
    ///
    /// [`PartitionError::ZeroLookaheadRoute`] naming the first offending
    /// route.
    pub fn lookahead(
        &self,
        routes: &[(usize, usize, SimDuration)],
    ) -> Result<Option<SimDuration>, PartitionError> {
        let mut min: Option<SimDuration> = None;
        for &(from, to, delay) in routes {
            if self.region_of[from] == self.region_of[to] {
                continue;
            }
            if delay == SimDuration::ZERO {
                return Err(PartitionError::ZeroLookaheadRoute { from, to });
            }
            min = Some(min.map_or(delay, |m| m.min(delay)));
        }
        Ok(min)
    }
}

/// The outcome of region planning: what was requested, what the topology
/// actually supports, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPlan {
    /// Regions requested (a [`crate::Topology`] or an explicit `--regions`).
    pub requested: usize,
    /// Regions the run will actually use.
    pub effective: usize,
    /// Human-readable planning decision (surfaced by `lab --regions`).
    pub reason: String,
}

impl RegionPlan {
    /// The plan of a run that needs no cut: one region, nothing to validate.
    #[must_use]
    pub fn single(requested: usize) -> Self {
        Self {
            requested,
            effective: 1,
            reason: "single region requested".into(),
        }
    }
}

/// Plans a run: validates an explicit actor → region assignment against
/// `routes`, collapsing to one region when the topology cannot support the
/// cut. The reason string always carries the decision's evidence: the
/// planned cross-region lookahead on success, or the offending zero-delay
/// route on collapse.
///
/// Collapse is a *planning* outcome, not an error: a genuinely unsound
/// configuration never reaches the engine.
#[must_use]
pub fn plan_partitioned(
    requested: usize,
    partition: &RegionPartition,
    routes: &[(usize, usize, SimDuration)],
) -> RegionPlan {
    if requested <= 1 {
        return RegionPlan::single(requested);
    }
    let regions = partition.regions();
    match partition.lookahead(routes) {
        Ok(Some(lookahead)) => RegionPlan {
            requested,
            effective: regions,
            reason: format!(
                "{regions} regions with {} ns cross-region lookahead",
                lookahead.as_nanos()
            ),
        },
        Ok(None) => RegionPlan {
            requested,
            effective: regions,
            reason: format!("{regions} isolated regions (no cross-region routes)"),
        },
        Err(err) => RegionPlan {
            requested,
            effective: 1,
            reason: format!("collapsed to one region: {err}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: SimDuration = SimDuration::from_millis(1);

    /// Actor `i` → region `i % regions`.
    fn round_robin(members: usize, regions: usize) -> RegionPartition {
        RegionPartition::from_assignment(
            (0..members).map(|i| (i % regions) as u32).collect(),
            regions,
        )
    }

    #[test]
    fn lookahead_is_min_over_cross_routes() {
        let p = round_robin(4, 2);
        // 0,2 → region 0; 1,3 → region 1.
        let routes = [
            (0, 2, MS),
            (0, 1, SimDuration::from_millis(3)),
            (1, 2, SimDuration::from_millis(2)),
        ];
        assert_eq!(p.lookahead(&routes), Ok(Some(SimDuration::from_millis(2))));
    }

    #[test]
    fn no_cross_routes_is_isolated() {
        let p = round_robin(4, 2);
        let routes = [(0, 2, SimDuration::ZERO), (1, 3, SimDuration::ZERO)];
        assert_eq!(p.lookahead(&routes), Ok(None));
    }

    #[test]
    fn zero_delay_cross_route_is_rejected() {
        let p = round_robin(2, 2);
        let routes = [(0, 1, SimDuration::ZERO)];
        assert_eq!(
            p.lookahead(&routes),
            Err(PartitionError::ZeroLookaheadRoute { from: 0, to: 1 })
        );
    }

    #[test]
    fn plan_collapses_hub_topologies() {
        // Star around actor 0 with instant spokes: every multi-region cut
        // severs a spoke, so the planner must fall back to one region.
        let routes: Vec<_> = (1..6).map(|i| (i, 0, SimDuration::ZERO)).collect();
        let plan = plan_partitioned(4, &round_robin(6, 4), &routes);
        assert_eq!(plan.effective, 1);
        assert!(
            plan.reason.contains("zero minimum delay"),
            "{}",
            plan.reason
        );
    }

    #[test]
    fn plan_keeps_sound_partitions() {
        let routes = [(0, 1, MS)];
        let plan = plan_partitioned(2, &round_robin(2, 2), &routes);
        assert_eq!(plan.effective, 2);
        assert!(plan.reason.contains("lookahead"), "{}", plan.reason);
    }

    #[test]
    fn explicit_assignment_validates_bounds() {
        let p = RegionPartition::from_assignment(vec![0, 1, 1, 0], 2);
        assert_eq!(p.region_of(2), 1);
        assert_eq!(p.regions(), 2);
    }
}
