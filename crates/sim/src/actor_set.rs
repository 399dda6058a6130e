//! The closed actor set of a hub simulation: typed engine dispatch.
//!
//! A hub scenario is built from the paper's four kinds of process: the
//! control points, the device, the network, and the churn driver. Naming
//! them in one enum lets [`presence_des::Simulation`] store members inline
//! and dispatch each event through a direct `match` — no `Box<dyn Actor>`
//! per node, no vtable call per event. Every hub scenario runs on
//! [`PresenceActorSet`] via the [`PresenceSim`] alias; the mega shard runs
//! alone on a simulation of its own ([`crate::MegaScenario`]).
//!
//! Every actor kind gets a `From` impl (so assembly reads
//! `sim.add_member(actor.into())`) and a [`ProjectActor`] impl (so
//! `sim.actor::<CpActor>(id)` is a variant match).

use crate::churn::ChurnActor;
use crate::cp_actor::CpActor;
use crate::device_actor::DeviceActor;
use crate::event::SimEvent;
use crate::network_actor::NetworkActor;
use presence_des::{Actor, Context, ProjectActor, Simulation};

/// A hub simulation: the engine over [`PresenceActorSet`] members that
/// [`crate::Scenario`] runs on. Nothing requires the set to be `Send`:
/// the parallel study runners ([`crate::parallel`]) build each scenario
/// inside the worker that runs it and send back only its result.
pub type PresenceSim = Simulation<SimEvent, PresenceActorSet>;

/// The actor kinds a hub simulation is built from, as an inline engine
/// member type: one variant per role of the paper, stored inline and
/// dispatched through a direct `match`.
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
}

impl Actor<SimEvent> for PresenceActorSet {
    fn on_start(&mut self, ctx: &mut Context<'_, SimEvent>) {
        match self {
            PresenceActorSet::Cp(a) => a.on_start(ctx),
            PresenceActorSet::Device(a) => a.on_start(ctx),
            PresenceActorSet::Network(a) => a.on_start(ctx),
            PresenceActorSet::Churn(a) => a.on_start(ctx),
        }
    }

    fn on_event(&mut self, ctx: &mut Context<'_, SimEvent>, event: SimEvent) {
        match self {
            PresenceActorSet::Cp(a) => a.on_event(ctx, event),
            PresenceActorSet::Device(a) => a.on_event(ctx, event),
            PresenceActorSet::Network(a) => a.on_event(ctx, event),
            PresenceActorSet::Churn(a) => a.on_event(ctx, event),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use presence_net::Fabric;

    #[test]
    fn projection_matches_variant_and_rejects_others() {
        let mut sim: PresenceSim = Simulation::with_actor_set(1);
        let churn = ChurnActor::new(ChurnModel::Static, Vec::new(), 0, 1.0);
        let c = sim.add_member(churn.into());
        let n = sim.add_member(NetworkActor::new(Fabric::paper_default()).into());
        assert!(sim.actor::<ChurnActor>(c).is_some());
        assert!(sim.actor::<NetworkActor>(c).is_none(), "wrong kind");
        assert!(sim.actor::<NetworkActor>(n).is_some());
        assert!(sim.actor_mut::<ChurnActor>(n).is_none());
    }
}
