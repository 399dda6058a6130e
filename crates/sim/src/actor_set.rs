//! The closed actor set of a presence simulation: typed engine dispatch.
//!
//! A presence scenario is built from a closed set of actor kinds. Naming them
//! in one enum lets [`presence_des::Simulation`] store members inline and
//! dispatch each event through a direct `match` — no `Box<dyn Actor>` per
//! node, no vtable call per event. Everything scenario-shaped in this
//! crate runs on [`PresenceActorSet`] via the [`PresenceSim`] alias.
//!
//! Every actor kind gets a `From` impl (so assembly reads
//! `sim.add_member(actor.into())`) and a [`ProjectActor`] impl (so
//! `sim.actor::<CpActor>(id)` is a variant match).

use crate::churn::ChurnActor;
use crate::cp_actor::CpActor;
use crate::device_actor::DeviceActor;
use crate::event::SimEvent;
use crate::mega::MegaDcppShard;
use crate::network_actor::NetworkActor;
use crate::regime::RegimeActor;
use presence_des::{Actor, Context, ProjectActor, SimTime, Simulation};

/// A presence simulation: the engine over [`PresenceActorSet`] members
/// that [`crate::Scenario`] and [`crate::MegaScenario`] run on. Nothing
/// requires the set to be `Send`:
/// the parallel study runners ([`crate::parallel`]) build each scenario
/// inside the worker that runs it and send back only its result.
pub type PresenceSim = Simulation<SimEvent, PresenceActorSet>;

/// A passive recorder node: logs every event delivered to it, with its
/// timestamp. Tests and diagnostics register one as an extra network
/// route (or schedule events at it directly) to observe traffic without
/// defining one-off sink actors — the monitor member of the actor set.
#[derive(Debug, Default)]
pub struct CollectorActor {
    events: Vec<(SimTime, SimEvent)>,
}

impl CollectorActor {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything received so far, in firing order.
    #[must_use]
    pub fn events(&self) -> &[(SimTime, SimEvent)] {
        &self.events
    }

    /// How many [`SimEvent::Deliver`] events arrived (the network-traffic
    /// count a monitor route usually wants).
    #[must_use]
    pub fn deliveries(&self) -> usize {
        self.events
            .iter()
            .filter(|(_, e)| matches!(e, SimEvent::Deliver(_)))
            .count()
    }
}

impl Actor<SimEvent> for CollectorActor {
    fn on_event(&mut self, ctx: &mut Context<'_, SimEvent>, event: SimEvent) {
        self.events.push((ctx.now(), event));
    }
}

/// The actor kinds a presence simulation is built from, as an inline
/// engine member type (see the [module docs](self)).
#[allow(clippy::large_enum_variant)] // members live in a Vec, one per node
pub enum PresenceActorSet {
    /// A control point (prober).
    Cp(CpActor),
    /// The probed device.
    Device(DeviceActor),
    /// The network fabric router.
    Network(NetworkActor),
    /// The churn driver.
    Churn(ChurnActor),
    /// The regime-switch scheduler.
    Regime(RegimeActor),
    /// The passive recorder/monitor.
    Collector(CollectorActor),
    /// A mega-scale DCPP population shard (millions of pairs, one member).
    /// Boxed: the shard's aggregate recorders would otherwise inflate
    /// every member slot of every scenario past the next-largest variant.
    Mega(Box<MegaDcppShard>),
}

impl Actor<SimEvent> for PresenceActorSet {
    fn on_start(&mut self, ctx: &mut Context<'_, SimEvent>) {
        match self {
            PresenceActorSet::Cp(a) => a.on_start(ctx),
            PresenceActorSet::Device(a) => a.on_start(ctx),
            PresenceActorSet::Network(a) => a.on_start(ctx),
            PresenceActorSet::Churn(a) => a.on_start(ctx),
            PresenceActorSet::Regime(a) => a.on_start(ctx),
            PresenceActorSet::Collector(a) => a.on_start(ctx),
            PresenceActorSet::Mega(a) => a.on_start(ctx),
        }
    }

    fn on_event(&mut self, ctx: &mut Context<'_, SimEvent>, event: SimEvent) {
        match self {
            PresenceActorSet::Cp(a) => a.on_event(ctx, event),
            PresenceActorSet::Device(a) => a.on_event(ctx, event),
            PresenceActorSet::Network(a) => a.on_event(ctx, event),
            PresenceActorSet::Churn(a) => a.on_event(ctx, event),
            PresenceActorSet::Regime(a) => a.on_event(ctx, event),
            PresenceActorSet::Collector(a) => a.on_event(ctx, event),
            PresenceActorSet::Mega(a) => a.on_event(ctx, event),
        }
    }
}

/// Wires one actor kind into the set: `From<Kind>` plus the
/// [`ProjectActor`] accessor projection.
macro_rules! set_member {
    ($variant:ident, $kind:ty) => {
        impl From<$kind> for PresenceActorSet {
            fn from(actor: $kind) -> Self {
                PresenceActorSet::$variant(actor)
            }
        }

        impl ProjectActor<$kind> for PresenceActorSet {
            fn project(&self) -> Option<&$kind> {
                match self {
                    PresenceActorSet::$variant(a) => Some(a),
                    _ => None,
                }
            }
            fn project_mut(&mut self) -> Option<&mut $kind> {
                match self {
                    PresenceActorSet::$variant(a) => Some(a),
                    _ => None,
                }
            }
        }
    };
}

set_member!(Cp, CpActor);
set_member!(Device, DeviceActor);
set_member!(Network, NetworkActor);
set_member!(Churn, ChurnActor);
set_member!(Regime, RegimeActor);
set_member!(Collector, CollectorActor);
// The Mega member is boxed, so the macro's direct wrapping doesn't apply.
impl From<MegaDcppShard> for PresenceActorSet {
    fn from(actor: MegaDcppShard) -> Self {
        PresenceActorSet::Mega(Box::new(actor))
    }
}

impl ProjectActor<MegaDcppShard> for PresenceActorSet {
    fn project(&self) -> Option<&MegaDcppShard> {
        match self {
            PresenceActorSet::Mega(a) => Some(a),
            _ => None,
        }
    }
    fn project_mut(&mut self) -> Option<&mut MegaDcppShard> {
        match self {
            PresenceActorSet::Mega(a) => Some(a),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Addr;
    use presence_core::{CpId, Probe, WireMessage};
    use presence_net::Fabric;

    #[test]
    fn projection_matches_variant_and_rejects_others() {
        let mut sim: PresenceSim = Simulation::with_actor_set(1);
        let c = sim.add_member(CollectorActor::new().into());
        let n = sim.add_member(NetworkActor::new(Fabric::paper_default()).into());
        assert!(sim.actor::<CollectorActor>(c).is_some());
        assert!(sim.actor::<NetworkActor>(c).is_none(), "wrong kind");
        assert!(sim.actor::<NetworkActor>(n).is_some());
        assert!(sim.actor_mut::<CollectorActor>(n).is_none());
    }

    #[test]
    fn collector_records_deliveries_through_the_network() {
        let mut sim: PresenceSim = Simulation::with_actor_set(1);
        let network = sim.add_member(NetworkActor::new(Fabric::paper_default()).into());
        let monitor = sim.add_member(CollectorActor::new().into());
        sim.actor_mut::<NetworkActor>(network)
            .expect("network actor")
            .register(Addr::Cp(CpId(0)), monitor);
        sim.schedule_at(
            SimTime::ZERO,
            network,
            SimEvent::Send {
                to: Addr::Cp(CpId(0)),
                msg: WireMessage::Probe(Probe {
                    cp: CpId(0),
                    seq: 1,
                }),
            },
        );
        sim.run_until_idle();
        let mon = sim.actor::<CollectorActor>(monitor).expect("collector");
        assert_eq!(mon.deliveries(), 1);
        assert_eq!(mon.events().len(), 1);
    }
}
