//! The network actor: one [`Fabric`] serving all nodes (the paper models
//! the network as a single process with one bounded buffer).
//!
//! # Single-hop delivery
//!
//! When a `Send` is admitted, the route is resolved on the spot and the
//! `Deliver` event is scheduled *directly on the destination actor* at the
//! sampled delivery time. A delivered message therefore costs exactly two
//! engine events — the `Send` dispatch and the `Deliver` firing — instead
//! of the previous three (`Send`, an `InTransit` self-event, and a
//! same-instant re-queued `Deliver`). The fabric's buffer accounting needs
//! no delivery callback: it settles its own deadline heap lazily (see
//! [`Fabric`]).
//!
//! # Dense routing
//!
//! Routes live in two flat tables indexed by the raw `CpId`/`DeviceId`
//! (ids are small and dense by construction — the scenario registers
//! `CpId(0..n)`). Unicast resolution is an array load, and `Broadcast`
//! walks the CP table by index without allocating. This also makes the
//! broadcast admission order deterministic by construction (ascending
//! `CpId`); the old `HashMap` route table iterated in hash order, which
//! std randomises per map instance.
//!
//! Messages addressed to an unregistered destination are counted as
//! `unroutable` in [`FabricStats`] — they never reach the fabric, so a
//! wiring bug cannot masquerade as network loss.
//!
//! # Decomposed topology: one plane per region
//!
//! The paper's single hub couples every participant at zero delay, which
//! provably collapses any region partition (see [`crate::region`]). A
//! *decomposed* network replaces the hub with several network **planes**
//! — each a full `NetworkActor` owning the routes of the participants
//! co-located with it — joined by inter-plane legs of exactly the
//! delay model's [`min_delay`](presence_net::DelayModel::min_delay). A `Send` whose
//! destination lives on another plane is forwarded as
//! [`SimEvent::Relay`] after one leg; the owning plane then admits it
//! with the leg *discounted* from its sampled delay
//! ([`Fabric::send_relayed`]), so delivery happens at
//! `t_send + max(sample, leg)` — bit-equal in distribution to the hub's
//! single draw whenever the delay model's minimum covers the leg (the
//! paper's three-mode model: `leg = fast = 100 µs`). The leg is real
//! wire time, which is exactly what gives a region cut between planes a
//! positive lookahead.

use crate::event::{Addr, SimEvent};
use crate::trace::NetTrace;
use presence_des::{Actor, ActorId, Context, SimDuration, SimTime};
use presence_net::{Fabric, FabricStats, SendOutcome};
use std::sync::Arc;

/// Where every participant lives in a decomposed (multi-plane) network:
/// the plane actor ids and the owning plane of each address, shared by
/// all planes of one scenario.
#[derive(Debug, Clone)]
pub struct PlaneTopology {
    /// Actor ids of every plane, indexed by plane number.
    pub planes: Vec<ActorId>,
    /// Owning plane of each CP, indexed by raw `CpId`.
    pub plane_of_cp: Vec<u32>,
    /// Owning plane of each device, indexed by raw `DeviceId`.
    pub plane_of_device: Vec<u32>,
    /// The inter-plane leg: one fabric `min_delay` of wire time, and the
    /// cross-region lookahead the decomposed topology offers.
    pub leg: SimDuration,
}

impl PlaneTopology {
    /// The plane owning `addr`, or `None` for an address outside the
    /// topology (reported unroutable by whichever plane first sees it).
    #[must_use]
    pub fn owner_of(&self, addr: Addr) -> Option<u32> {
        let (table, idx) = match addr {
            Addr::Cp(id) => (&self.plane_of_cp, id.0 as usize),
            Addr::Device(id) => (&self.plane_of_device, id.0 as usize),
        };
        table.get(idx).copied()
    }
}

/// Routes wire messages between node actors through a [`Fabric`].
pub struct NetworkActor {
    fabric: Fabric,
    /// CP routes, indexed by raw `CpId`.
    cp_routes: Vec<Option<ActorId>>,
    /// Device routes, indexed by raw `DeviceId`.
    device_routes: Vec<Option<ActorId>>,
    /// `Some((my_plane, topology))` in a decomposed topology; `None` for
    /// the classic hub.
    plane: Option<(u32, Arc<PlaneTopology>)>,
    /// Unicasts this plane forwarded to another plane's fabric.
    relays_forwarded: u64,
    /// Counter-sample buffer; `None` (one predictable branch per message
    /// event) unless [`NetworkActor::set_trace`] armed it.
    trace: Option<Box<NetTrace>>,
}

impl NetworkActor {
    /// Creates a network actor over the given fabric. Routes are registered
    /// afterwards with [`NetworkActor::register`].
    #[must_use]
    pub fn new(fabric: Fabric) -> Self {
        Self {
            fabric,
            cp_routes: Vec::new(),
            device_routes: Vec::new(),
            plane: None,
            relays_forwarded: 0,
            trace: None,
        }
    }

    /// Arms counter-sample tracing up to `until_ns` (virtual nanoseconds).
    pub fn set_trace(&mut self, until_ns: u64) {
        self.trace = Some(Box::new(NetTrace::new(until_ns)));
    }

    /// Takes the buffer accumulated since [`NetworkActor::set_trace`].
    pub fn take_trace(&mut self) -> Option<Box<NetTrace>> {
        self.trace.take()
    }

    /// Samples the in-flight and relay counters (at most once per
    /// simulated millisecond) when tracing is armed.
    fn trace_sample(&mut self, now: SimTime) {
        let Some(t) = self.trace.as_deref_mut() else {
            return;
        };
        if t.wants_sample(now.as_nanos()) {
            let in_flight = self.fabric.in_flight_at(now);
            let relays = self.relays_forwarded;
            if let Some(t) = self.trace.as_deref_mut() {
                t.sample(now.as_nanos(), in_flight, relays);
            }
        }
    }

    /// Turns this actor into plane `index` of a decomposed topology (see
    /// the [module docs](self)). Only locally owned routes should be
    /// [`register`](NetworkActor::register)ed on a plane.
    pub fn set_plane(&mut self, index: u32, topology: Arc<PlaneTopology>) {
        self.plane = Some((index, topology));
    }

    /// Unicasts this plane forwarded over an inter-plane leg (0 for a
    /// hub).
    #[must_use]
    pub fn relays_forwarded(&self) -> u64 {
        self.relays_forwarded
    }

    /// Registers (or re-registers) the actor behind a network address.
    pub fn register(&mut self, addr: Addr, actor: ActorId) {
        let (table, idx) = match addr {
            Addr::Cp(id) => (&mut self.cp_routes, id.0 as usize),
            Addr::Device(id) => (&mut self.device_routes, id.0 as usize),
        };
        if table.len() <= idx {
            table.resize(idx + 1, None);
        }
        table[idx] = Some(actor);
    }

    fn resolve(&self, addr: Addr) -> Option<ActorId> {
        let (table, idx) = match addr {
            Addr::Cp(id) => (&self.cp_routes, id.0 as usize),
            Addr::Device(id) => (&self.device_routes, id.0 as usize),
        };
        table.get(idx).copied().flatten()
    }

    /// Fabric counters (offered/admitted/dropped/delivered/unroutable) as
    /// of `now`.
    #[must_use]
    pub fn fabric_stats(&mut self, now: SimTime) -> FabricStats {
        self.fabric.stats_at(now)
    }

    /// The paper's "average buffer length": time-weighted mean in-flight
    /// count up to `now`.
    #[must_use]
    pub fn mean_occupancy(&mut self, now: SimTime) -> Option<f64> {
        self.fabric.mean_occupancy(now)
    }

    /// Offers `msg` to the fabric and, when admitted, schedules its
    /// `Deliver` on `target` at the sampled delivery time. `discount` is
    /// the wire time the message already spent on an inter-plane leg
    /// (zero on the hub and for plane-local traffic).
    fn admit(
        &mut self,
        ctx: &mut Context<'_, SimEvent>,
        target: ActorId,
        msg: presence_core::WireMessage,
        discount: SimDuration,
    ) {
        match self.fabric.send_relayed(ctx.now(), ctx.rng(), discount) {
            SendOutcome::Deliver(at) => {
                ctx.schedule_at(at, target, SimEvent::Deliver(msg));
            }
            SendOutcome::DroppedLoss | SendOutcome::DroppedOverflow => {
                // The message vanishes; the protocols' retransmission layer
                // is responsible for recovery.
            }
        }
    }

    /// Resolves a locally owned address and admits the message, counting
    /// a failed lookup as unroutable.
    fn admit_local(
        &mut self,
        ctx: &mut Context<'_, SimEvent>,
        to: Addr,
        msg: presence_core::WireMessage,
        discount: SimDuration,
    ) {
        match self.resolve(to) {
            Some(target) => self.admit(ctx, target, msg, discount),
            None => self.fabric.count_unroutable(),
        }
    }

    /// Admits one copy of a broadcast per locally registered CP, in
    /// ascending id order.
    fn broadcast_local(
        &mut self,
        ctx: &mut Context<'_, SimEvent>,
        msg: &presence_core::WireMessage,
        discount: SimDuration,
    ) {
        // Indexed walk: no allocation, deterministic CP order.
        for i in 0..self.cp_routes.len() {
            if let Some(target) = self.cp_routes[i] {
                self.admit(ctx, target, *msg, discount);
            }
        }
    }
}

impl Actor<SimEvent> for NetworkActor {
    fn on_event(&mut self, ctx: &mut Context<'_, SimEvent>, event: SimEvent) {
        match event {
            SimEvent::Send { to, msg } => {
                if let Some((my_plane, topology)) = self.plane.clone() {
                    match topology.owner_of(to) {
                        Some(owner) if owner != my_plane => {
                            // Another plane owns the destination: forward
                            // over the inter-plane leg; the owner admits
                            // with the leg discounted.
                            self.relays_forwarded += 1;
                            ctx.schedule_in(
                                topology.leg,
                                topology.planes[owner as usize],
                                SimEvent::Relay { to, msg },
                            );
                        }
                        Some(_) => self.admit_local(ctx, to, msg, SimDuration::ZERO),
                        None => self.fabric.count_unroutable(),
                    }
                } else {
                    self.admit_local(ctx, to, msg, SimDuration::ZERO);
                }
            }
            SimEvent::Relay { to, msg } => {
                let leg = self
                    .plane
                    .as_ref()
                    .map_or(SimDuration::ZERO, |(_, t)| t.leg);
                debug_assert!(
                    self.plane
                        .as_ref()
                        .is_some_and(|(me, t)| t.owner_of(to) == Some(*me)),
                    "relay arrived at a plane that does not own {to:?}"
                );
                self.admit_local(ctx, to, msg, leg);
            }
            SimEvent::Broadcast { msg } => {
                if let Some((my_plane, topology)) = self.plane.clone() {
                    self.broadcast_local(ctx, &msg, SimDuration::ZERO);
                    // Every other plane re-admits for its own CPs, in
                    // ascending plane order.
                    for (plane, &id) in topology.planes.iter().enumerate() {
                        if plane as u32 != my_plane {
                            ctx.schedule_in(topology.leg, id, SimEvent::RelayBroadcast { msg });
                        }
                    }
                } else {
                    self.broadcast_local(ctx, &msg, SimDuration::ZERO);
                }
            }
            SimEvent::RelayBroadcast { msg } => {
                let leg = self
                    .plane
                    .as_ref()
                    .map_or(SimDuration::ZERO, |(_, t)| t.leg);
                self.broadcast_local(ctx, &msg, leg);
            }
            other => {
                debug_assert!(false, "network actor got unexpected event {other:?}");
            }
        }
        self.trace_sample(ctx.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor_set::{CollectorActor, PresenceSim};
    use presence_core::{CpId, DeviceId, Probe, WireMessage};
    use presence_des::{SimTime, Simulation};
    use presence_net::Fabric;

    fn probe() -> WireMessage {
        WireMessage::Probe(Probe {
            cp: CpId(0),
            seq: 1,
        })
    }

    /// Satellite regression: messages to an unregistered address used to
    /// vanish with no trace at all — indistinguishable from network loss.
    /// (These tests run on the typed actor set, so the network's enum
    /// dispatch path is what they exercise.)
    #[test]
    fn unroutable_messages_are_counted_not_dropped_silently() {
        let mut sim: PresenceSim = Simulation::with_actor_set(1);
        let network = sim.add_member(NetworkActor::new(Fabric::paper_default()).into());
        sim.schedule_at(
            SimTime::ZERO,
            network,
            SimEvent::Send {
                to: Addr::Cp(CpId(99)),
                msg: probe(),
            },
        );
        sim.schedule_at(
            SimTime::ZERO,
            network,
            SimEvent::Send {
                to: Addr::Device(DeviceId(7)),
                msg: probe(),
            },
        );
        sim.run_until_idle();
        let now = sim.now();
        let net = sim
            .actor_mut::<NetworkActor>(network)
            .expect("network actor");
        let stats = net.fabric_stats(now);
        assert_eq!(stats.unroutable, 2);
        // Unroutable messages never reach the fabric: not offered, not
        // counted as loss, no buffer slot occupied.
        assert_eq!(stats.offered, 0);
        assert_eq!(stats.dropped_loss, 0);
        assert_eq!(stats.admitted, 0);
    }

    /// A registered route makes the same send a normal two-event delivery.
    #[test]
    fn registered_route_admits_and_delivers() {
        let mut sim: PresenceSim = Simulation::with_actor_set(1);
        let network = sim.add_member(NetworkActor::new(Fabric::paper_default()).into());
        let sink = sim.add_member(CollectorActor::new().into());
        sim.actor_mut::<NetworkActor>(network)
            .expect("network actor")
            .register(Addr::Cp(CpId(3)), sink);
        sim.schedule_at(
            SimTime::ZERO,
            network,
            SimEvent::Send {
                to: Addr::Cp(CpId(3)),
                msg: probe(),
            },
        );
        sim.run_until_idle();
        assert_eq!(
            sim.actor::<CollectorActor>(sink)
                .expect("sink")
                .deliveries(),
            1
        );
        // Exactly two events: the Send dispatch and the Deliver firing.
        assert_eq!(sim.events_processed(), 2);
        let now = sim.now();
        let stats = sim
            .actor_mut::<NetworkActor>(network)
            .expect("network actor")
            .fabric_stats(now);
        assert_eq!(stats.unroutable, 0);
        assert_eq!((stats.offered, stats.delivered), (1, 1));
    }

    /// Broadcast admits one copy per registered CP, in ascending id order,
    /// without touching device routes.
    #[test]
    fn broadcast_reaches_every_registered_cp() {
        let mut sim: PresenceSim = Simulation::with_actor_set(1);
        let network = sim.add_member(NetworkActor::new(Fabric::paper_default()).into());
        let mut sinks = Vec::new();
        for i in 0..4u32 {
            let sink = sim.add_member(CollectorActor::new().into());
            sinks.push(sink);
            sim.actor_mut::<NetworkActor>(network)
                .expect("network actor")
                .register(Addr::Cp(CpId(i)), sink);
        }
        // A device route must not receive CP broadcasts.
        let dev = sim.add_member(CollectorActor::new().into());
        sim.actor_mut::<NetworkActor>(network)
            .expect("network actor")
            .register(Addr::Device(DeviceId(0)), dev);
        sim.schedule_at(SimTime::ZERO, network, SimEvent::Broadcast { msg: probe() });
        sim.run_until_idle();
        for &sink in &sinks {
            assert_eq!(
                sim.actor::<CollectorActor>(sink)
                    .expect("sink")
                    .deliveries(),
                1
            );
        }
        assert_eq!(
            sim.actor::<CollectorActor>(dev)
                .expect("device sink")
                .deliveries(),
            0
        );
        // 1 Broadcast dispatch + 4 Deliver firings.
        assert_eq!(sim.events_processed(), 5);
    }

    /// Builds a two-plane decomposed network with a constant-delay fabric:
    /// plane 0 owns CP 0, plane 1 owns CP 1. Returns
    /// `(sim, [plane0, plane1], [sink0, sink1], leg)`.
    fn two_planes(delay: SimDuration) -> (PresenceSim, [ActorId; 2], [ActorId; 2], SimDuration) {
        use presence_net::{ConstantDelay, NoLoss};
        let fabric = || Fabric::new(20_000, Box::new(ConstantDelay(delay)), Box::new(NoLoss));
        let mut sim: PresenceSim = Simulation::with_actor_set(1);
        let planes = [
            sim.add_member(NetworkActor::new(fabric()).into()),
            sim.add_member(NetworkActor::new(fabric()).into()),
        ];
        let sinks = [
            sim.add_member(CollectorActor::new().into()),
            sim.add_member(CollectorActor::new().into()),
        ];
        let leg = delay;
        let topology = Arc::new(PlaneTopology {
            planes: planes.to_vec(),
            plane_of_cp: vec![0, 1],
            plane_of_device: Vec::new(),
            leg,
        });
        for (i, &plane) in planes.iter().enumerate() {
            let net = sim.actor_mut::<NetworkActor>(plane).expect("plane");
            net.set_plane(i as u32, Arc::clone(&topology));
            net.register(Addr::Cp(CpId(i as u32)), sinks[i]);
        }
        (sim, planes, sinks, leg)
    }

    /// A cross-plane unicast is forwarded as a `Relay` after one leg, and
    /// the owning plane's leg discount makes end-to-end delivery equal the
    /// hub's single constant draw.
    #[test]
    fn cross_plane_send_delivers_at_hub_time() {
        let delay = SimDuration::from_micros(100);
        let (mut sim, planes, sinks, _leg) = two_planes(delay);
        // CP 1 lives on plane 1; send from plane 0.
        sim.schedule_at(
            SimTime::ZERO,
            planes[0],
            SimEvent::Send {
                to: Addr::Cp(CpId(1)),
                msg: probe(),
            },
        );
        sim.run_until_idle();
        assert_eq!(
            sim.actor::<CollectorActor>(sinks[1])
                .expect("sink")
                .deliveries(),
            1
        );
        // One leg (100 µs) + a fully discounted constant sample: delivery
        // at exactly the hub's 100 µs, not 200 µs.
        assert_eq!(sim.now(), SimTime::ZERO + delay);
        assert_eq!(
            sim.actor::<NetworkActor>(planes[0])
                .expect("plane 0")
                .relays_forwarded(),
            1
        );
        // The forwarding plane never offered the message to its own fabric.
        let now = sim.now();
        let stats0 = sim
            .actor_mut::<NetworkActor>(planes[0])
            .expect("plane 0")
            .fabric_stats(now);
        assert_eq!(stats0.offered, 0);
        let stats1 = sim
            .actor_mut::<NetworkActor>(planes[1])
            .expect("plane 1")
            .fabric_stats(now);
        assert_eq!((stats1.offered, stats1.delivered), (1, 1));
    }

    /// A plane-local unicast never touches the other plane.
    #[test]
    fn plane_local_send_stays_local() {
        let delay = SimDuration::from_micros(100);
        let (mut sim, planes, sinks, _leg) = two_planes(delay);
        sim.schedule_at(
            SimTime::ZERO,
            planes[0],
            SimEvent::Send {
                to: Addr::Cp(CpId(0)),
                msg: probe(),
            },
        );
        sim.run_until_idle();
        assert_eq!(
            sim.actor::<CollectorActor>(sinks[0])
                .expect("sink")
                .deliveries(),
            1
        );
        assert_eq!(sim.events_processed(), 2);
        assert_eq!(
            sim.actor::<NetworkActor>(planes[0])
                .expect("plane 0")
                .relays_forwarded(),
            0
        );
    }

    /// A broadcast reaches every CP on every plane exactly once, remote
    /// copies arriving at the same instant as the hub would deliver them.
    #[test]
    fn broadcast_fans_out_across_planes() {
        let delay = SimDuration::from_micros(100);
        let (mut sim, planes, sinks, _leg) = two_planes(delay);
        sim.schedule_at(
            SimTime::ZERO,
            planes[0],
            SimEvent::Broadcast { msg: probe() },
        );
        sim.run_until_idle();
        for &sink in &sinks {
            assert_eq!(
                sim.actor::<CollectorActor>(sink)
                    .expect("sink")
                    .deliveries(),
                1
            );
        }
        assert_eq!(sim.now(), SimTime::ZERO + delay);
    }
}
