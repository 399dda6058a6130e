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

use crate::event::{Addr, Regime, SimEvent};
use crate::trace::NetTrace;
use presence_des::{Actor, ActorId, Context, SimTime};
use presence_net::{Fabric, FabricStats, SendOutcome};

/// Routes wire messages between node actors through a [`Fabric`].
pub struct NetworkActor {
    fabric: Fabric,
    /// CP routes, indexed by raw `CpId`.
    cp_routes: Vec<Option<ActorId>>,
    /// Device routes, indexed by raw `DeviceId`.
    device_routes: Vec<Option<ActorId>>,
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
            trace: None,
        }
    }

    /// Arms counter-sample tracing up to `until_ns` (virtual nanoseconds).
    pub(crate) fn set_trace(&mut self, until_ns: u64) {
        self.trace = Some(Box::new(NetTrace::new(until_ns)));
    }

    /// Takes the buffer accumulated since [`NetworkActor::set_trace`].
    pub(crate) fn take_trace(&mut self) -> Option<Box<NetTrace>> {
        self.trace.take()
    }

    /// Samples the in-flight counter (at most once per simulated
    /// millisecond) when tracing is armed.
    fn trace_sample(&mut self, now: SimTime) {
        let Some(t) = self.trace.as_deref_mut() else {
            return;
        };
        if t.wants_sample(now.as_nanos()) {
            let in_flight = self.fabric.in_flight_at(now);
            if let Some(t) = self.trace.as_deref_mut() {
                t.sample(now.as_nanos(), in_flight);
            }
        }
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
    pub(crate) fn mean_occupancy(&mut self, now: SimTime) -> Option<f64> {
        self.fabric.mean_occupancy(now)
    }

    /// Offers `msg` to the fabric and, when admitted, schedules its
    /// `Deliver` on `target` at the sampled delivery time.
    fn admit(
        &mut self,
        ctx: &mut Context<'_, SimEvent>,
        target: ActorId,
        msg: presence_core::WireMessage,
    ) {
        match self.fabric.send(ctx.now(), ctx.rng()) {
            SendOutcome::Deliver(at) => {
                ctx.schedule_at(at, target, SimEvent::Deliver(msg));
            }
            SendOutcome::DroppedLoss | SendOutcome::DroppedOverflow => {
                // The message vanishes; the protocols' retransmission layer
                // is responsible for recovery.
            }
        }
    }
}

impl Actor<SimEvent> for NetworkActor {
    fn on_event(&mut self, ctx: &mut Context<'_, SimEvent>, event: SimEvent) {
        match event {
            SimEvent::Send { to, msg } => match self.resolve(to) {
                Some(target) => self.admit(ctx, target, msg),
                None => self.fabric.count_unroutable(),
            },
            SimEvent::Broadcast { msg } => {
                // One copy per registered CP, in ascending id order (an
                // indexed walk: no allocation).
                for i in 0..self.cp_routes.len() {
                    if let Some(target) = self.cp_routes[i] {
                        self.admit(ctx, target, msg);
                    }
                }
            }
            // A switch sends nothing, so it takes no counter sample.
            SimEvent::Switch(Regime::Delay(delay)) => {
                self.fabric.set_delay(delay.build());
                return;
            }
            SimEvent::Switch(Regime::Loss(loss)) => {
                self.fabric.set_loss(loss.build());
                return;
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
    use presence_core::{CpId, DeviceId, Probe, WireMessage};
    use presence_des::{SimTime, Simulation};
    use presence_net::Fabric;

    /// The network plus sinks that log what reaches them.
    #[allow(clippy::large_enum_variant)]
    enum Node {
        Net(NetworkActor),
        Sink(Vec<SimEvent>),
    }

    impl Actor<SimEvent> for Node {
        fn on_event(&mut self, ctx: &mut Context<'_, SimEvent>, event: SimEvent) {
            match self {
                Node::Net(net) => net.on_event(ctx, event),
                Node::Sink(log) => log.push(event),
            }
        }
    }

    type NetSim = Simulation<SimEvent, Node>;

    fn net(sim: &mut NetSim, id: ActorId) -> &mut NetworkActor {
        match sim.actor_mut::<Node>(id) {
            Some(Node::Net(net)) => net,
            _ => panic!("not the network"),
        }
    }

    fn deliveries(sim: &NetSim, id: ActorId) -> usize {
        match sim.actor::<Node>(id) {
            Some(Node::Sink(log)) => log
                .iter()
                .filter(|e| matches!(e, SimEvent::Deliver(_)))
                .count(),
            _ => panic!("not a sink"),
        }
    }

    fn probe() -> WireMessage {
        WireMessage::Probe(Probe {
            cp: CpId(0),
            seq: 1,
        })
    }

    /// Satellite regression: messages to an unregistered address used to
    /// vanish with no trace at all — indistinguishable from network loss.
    #[test]
    fn unroutable_messages_are_counted_not_dropped_silently() {
        let mut sim: NetSim = Simulation::with_actor_set(1);
        let network = sim.add_member(Node::Net(NetworkActor::new(Fabric::paper_default())));
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
        sim.run(u64::MAX);
        let now = sim.now();
        let stats = net(&mut sim, network).fabric_stats(now);
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
        let mut sim: NetSim = Simulation::with_actor_set(1);
        let network = sim.add_member(Node::Net(NetworkActor::new(Fabric::paper_default())));
        let sink = sim.add_member(Node::Sink(Vec::new()));
        net(&mut sim, network).register(Addr::Cp(CpId(3)), sink);
        sim.schedule_at(
            SimTime::ZERO,
            network,
            SimEvent::Send {
                to: Addr::Cp(CpId(3)),
                msg: probe(),
            },
        );
        sim.run(u64::MAX);
        assert_eq!(deliveries(&sim, sink), 1);
        // Exactly two events: the Send dispatch and the Deliver firing.
        assert_eq!(sim.events_processed(), 2);
        let now = sim.now();
        let stats = net(&mut sim, network).fabric_stats(now);
        assert_eq!(stats.unroutable, 0);
        assert_eq!((stats.offered, stats.delivered), (1, 1));
    }

    /// Broadcast admits one copy per registered CP, in ascending id order,
    /// without touching device routes.
    #[test]
    fn broadcast_reaches_every_registered_cp() {
        let mut sim: NetSim = Simulation::with_actor_set(1);
        let network = sim.add_member(Node::Net(NetworkActor::new(Fabric::paper_default())));
        let mut sinks = Vec::new();
        for i in 0..4u32 {
            let sink = sim.add_member(Node::Sink(Vec::new()));
            sinks.push(sink);
            net(&mut sim, network).register(Addr::Cp(CpId(i)), sink);
        }
        // A device route must not receive CP broadcasts.
        let dev = sim.add_member(Node::Sink(Vec::new()));
        net(&mut sim, network).register(Addr::Device(DeviceId(0)), dev);
        sim.schedule_at(SimTime::ZERO, network, SimEvent::Broadcast { msg: probe() });
        sim.run(u64::MAX);
        for &sink in &sinks {
            assert_eq!(deliveries(&sim, sink), 1);
        }
        assert_eq!(deliveries(&sim, dev), 0);
        // 1 Broadcast dispatch + 4 Deliver firings.
        assert_eq!(sim.events_processed(), 5);
    }
}
