//! The per-layer kernels: each layer's hot operations timed in isolation,
//! from outside, through public items only. A kernel reports the median
//! ns/op over [`KernelBudget::batches`] samples. The reconciliation tables
//! in `layers.rs` multiply these by how often a workload performs each
//! operation, so every kernel here names the operation it stands for.

use crate::measure::{kernel_ns, median, KernelBudget, Report};
use presence_core::{
    CpAction, CpId, DcppConfig, DcppCp, DcppDevice, DeviceId, Probe, Prober, Reply, ReplyBody,
    Responder, SappConfig, SappCp, SappDevice, SappDeviceConfig, TimerToken, WireMessage,
};
use presence_des::{
    Actor, Context, EventQueue, QueueProfile, SimDuration, SimTime, Simulation, StreamRng,
    TimerSlots,
};
use presence_net::{BernoulliLoss, Fabric, GilbertElliott, LossModel, NoLoss, ThreeMode};
use presence_runtime::codec::{decode_datagram, encode, encode_addressed};
use presence_runtime::{Clock, SystemClock, TimerWheel};
use presence_stats::{P2Quantile, TimeSeries, Welford};
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::Instant;

/// Operations per kernel pass: enough that the harness's clock read per
/// pass is below 0.1 % of the pass.
const OPS: u64 = 1024;

/// Pending events the heap kernels hold: a 30–60 CP hub scenario keeps one
/// or two timers per CP in the queue.
const HEAP_DEPTH: u64 = 64;

/// Pending events the calendar kernels hold: `mega-ci` keeps one timer
/// (wake or timeout) per pair, 100 000 of them, plus a few thousand
/// messages in flight.
const CALENDAR_DEPTH: u64 = 100_000;

/// Live timers the wheel kernels hold: the `udp-fleet` CP shard's 2 048
/// probers each keep one armed.
const WHEEL_LIVE: u32 = 2048;

/// A deterministic input stream: the same on every run.
fn inputs(stream: u64) -> StreamRng {
    StreamRng::new(0x2545_f491_4f6c_dd1d, stream)
}

/// A queue holding `depth` events spread over one virtual second, with the
/// next free sequence number.
fn filled_queue(profile: QueueProfile, depth: u64) -> (EventQueue<()>, u64) {
    let mut q = EventQueue::with_profile(profile);
    let mut rng = inputs(0);
    for seq in 0..depth {
        q.push(SimTime::from_nanos(rng.next_u64() % 1_000_000_000), seq, ());
    }
    (q, depth)
}

/// Hold model: pop the earliest event, push its successor. Successors
/// follow a DCPP cycle's three delays in rotation (probe flight 0.2–1 ms,
/// processing + reply flight 1.2–21 ms, the 500 ms wake), so the mix of
/// near and far pushes is the mega shard's. One op = one pop + one push at
/// constant depth.
fn queue_push_pop(budget: KernelBudget, profile: QueueProfile, depth: u64) -> f64 {
    let (mut q, mut seq) = filled_queue(profile, depth);
    let mut rng = inputs(1);
    kernel_ns(budget, || {
        for _ in 0..OPS {
            let (key, ()) = q.pop().expect("hold model never drains");
            let r = rng.next_u64();
            let delay = match seq % 3 {
                0 => 200_000 + r % 800_000,
                1 => 1_200_000 + r % 19_800_000,
                _ => 500_000_000,
            };
            q.push(key.time + SimDuration::from_nanos(delay), seq, ());
            seq += 1;
        }
        OPS
    })
}

/// Arm a timeout one TOF ahead of the queue head, then cancel it: what a
/// reply does to its cycle's timeout. One op = one push + one cancel.
fn queue_cancel(budget: KernelBudget, profile: QueueProfile, depth: u64) -> f64 {
    let (mut q, mut seq) = filled_queue(profile, depth);
    let head = q.peek().expect("filled").time;
    kernel_ns(budget, || {
        for _ in 0..OPS {
            q.push(head + SimDuration::from_millis(22), seq, ());
            black_box(q.cancel(seq));
            seq += 1;
        }
        OPS
    })
}

/// Move one pending event to a new instant in place (the rearm fast path).
fn queue_reschedule(budget: KernelBudget, profile: QueueProfile, depth: u64) -> f64 {
    let (mut q, mut next_seq) = filled_queue(profile, depth);
    let mut live: Vec<u64> = (0..depth).collect();
    let mut rng = inputs(2);
    kernel_ns(budget, || {
        for _ in 0..OPS {
            let r = rng.next_u64();
            let slot = (r % depth) as usize;
            let at = SimTime::from_nanos((r >> 20) % 1_000_000_000);
            black_box(q.reschedule(live[slot], at, next_seq).is_some());
            live[slot] = next_seq;
            next_seq += 1;
        }
        OPS
    })
}

/// The protocols' dominant queue pattern: arm a probe timer and its
/// timeout, pop one, cancel the sibling. One op = 2 pushes, 1 pop, 1 cancel.
fn heap_timeout_pattern(budget: KernelBudget) -> f64 {
    let mut q: EventQueue<()> = EventQueue::new();
    let mut rng = inputs(0);
    let mut seq = 0u64;
    kernel_ns(budget, || {
        for _ in 0..OPS {
            let t = rng.next_u64() % 1_000_000_000;
            q.push(SimTime::from_nanos(t), seq, ());
            q.push(SimTime::from_nanos(t + 1_000_000), seq + 1, ());
            seq += 2;
            if let Some((key, ())) = q.pop() {
                black_box(q.cancel(key.seq ^ 1));
            }
        }
        // The pattern leaves at most one live event per op; drop them so
        // depth does not grow across passes.
        q.clear();
        OPS
    })
}

struct TimerChain;

impl Actor<u32> for TimerChain {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.set_timer(SimDuration::from_nanos(1), 0);
    }
    fn on_event(&mut self, ctx: &mut Context<'_, u32>, _: u32) {
        ctx.set_timer(SimDuration::from_nanos(1), 0);
    }
}

/// One typed actor re-arming its own timer, above `HEAP_DEPTH` parked
/// events: pop + typed dispatch + `set_timer` push per event, i.e. the
/// engine's whole per-event path with an empty handler.
fn engine_dispatch(budget: KernelBudget) -> f64 {
    let mut sim: Simulation<u32, TimerChain> = Simulation::with_actor_set(1);
    let id = sim.add_member(TimerChain);
    for i in 0..HEAP_DEPTH {
        sim.schedule_at(SimTime::from_nanos(u64::MAX / 2 + i), id, 1);
    }
    kernel_ns(budget, || {
        black_box(sim.run(OPS));
        OPS
    })
}

/// Insert then remove one timer handle in a CP's two-slot cache.
fn timer_slots(budget: KernelBudget) -> f64 {
    let mut sim: Simulation<u32, TimerChain> = Simulation::with_actor_set(1);
    let id = sim.add_member(TimerChain);
    let handles = [
        sim.schedule_at(SimTime::from_nanos(10), id, 1),
        sim.schedule_at(SimTime::from_nanos(20), id, 1),
    ];
    let mut slots: TimerSlots<u8> = TimerSlots::default();
    slots.insert(0, handles[0]);
    kernel_ns(budget, || {
        for _ in 0..OPS {
            black_box(slots.insert(1, black_box(handles[1])));
            black_box(slots.remove(1));
        }
        OPS
    })
}

fn rng_draw(budget: KernelBudget) -> f64 {
    let mut rng = StreamRng::new(7, 0);
    kernel_ns(budget, || {
        let mut acc = 0.0;
        for _ in 0..OPS {
            acc += rng.uniform01();
        }
        black_box(acc);
        OPS
    })
}

/// One `Fabric::send` (loss draw, delay draw, buffer accounting, lazy
/// settle of the previous deadline) under the paper's three-mode delay.
fn fabric_send(budget: KernelBudget, loss: Box<dyn LossModel>) -> f64 {
    let mut fabric = Fabric::new(20_000, Box::new(ThreeMode::paper_default()), loss);
    let mut rng = StreamRng::new(7, 0);
    let mut now = 0u64;
    kernel_ns(budget, || {
        for _ in 0..OPS {
            // 10 ms apart, the hub scenarios' message spacing at L_nom.
            now += 10_000_000;
            black_box(fabric.send(SimTime::from_nanos(now), &mut rng));
        }
        OPS
    })
}

/// One probe answered by a device machine, 1 ms after the last, from one
/// of twenty CPs in turn.
fn device_on_probe(budget: KernelBudget, mut device: impl Responder) -> f64 {
    let mut t = 0u64;
    kernel_ns(budget, || {
        for _ in 0..OPS {
            t += 1_000_000;
            let probe = Probe {
                cp: CpId((t % 20) as u32),
                seq: t,
            };
            black_box(device.on_probe(SimTime::from_nanos(t), black_box(probe)));
        }
        OPS
    })
}

fn sent_probe(out: &[CpAction]) -> Probe {
    out.iter()
        .find_map(|a| match a {
            CpAction::SendProbe(p) => Some(*p),
            _ => None,
        })
        .expect("probe in flight")
}

fn armed_timer(out: &[CpAction]) -> TimerToken {
    out.iter()
        .find_map(|a| match a {
            CpAction::StartTimer { token, .. } => Some(*token),
            _ => None,
        })
        .expect("timer armed")
}

/// One complete CP probe cycle without the device: `on_reply` (accept,
/// cancel the timeout, arm the wake) + `on_timer` (wake, next probe).
fn cp_cycle<P: Prober>(
    budget: KernelBudget,
    mut cp: P,
    mut body: impl FnMut(u64) -> ReplyBody,
) -> f64 {
    let mut out: Vec<CpAction> = Vec::with_capacity(4);
    let mut now = SimTime::ZERO;
    cp.start(now, &mut out);
    let mut cycle = 0u64;
    kernel_ns(budget, || {
        for _ in 0..OPS {
            let probe = sent_probe(&out);
            now += SimDuration::from_millis(1);
            cycle += 1;
            let reply = Reply {
                probe,
                device: DeviceId(0),
                body: body(cycle),
            };
            out.clear();
            cp.on_reply(now, &reply, &mut out);
            let wake = armed_timer(&out);
            now += cp.current_delay().expect("delay known after a reply");
            out.clear();
            cp.on_timer(now, wake, &mut out);
            black_box(&out);
        }
        OPS
    })
}

/// TOF expiry on a CP awaiting its first reply: retransmit and arm TOS.
/// Each op runs on a copy of the armed machine, so the cycle never
/// exhausts its retransmissions.
fn dcpp_cp_timeout(budget: KernelBudget) -> f64 {
    let cfg = DcppConfig::paper_default();
    let mut armed = DcppCp::new(CpId(1), cfg);
    let mut out: Vec<CpAction> = Vec::with_capacity(4);
    armed.start(SimTime::ZERO, &mut out);
    let timeout = armed_timer(&out);
    let at = SimTime::ZERO + cfg.cycle.tof;
    kernel_ns(budget, || {
        for _ in 0..OPS {
            let mut cp = black_box(&armed).clone();
            out.clear();
            cp.on_timer(at, timeout, &mut out);
            black_box(&out);
        }
        OPS
    })
}

/// Appends to a growing series, reallocation included: the Full
/// recorders' per-cycle cost.
fn timeseries_push(budget: KernelBudget) -> f64 {
    const N: u64 = 65_536;
    kernel_ns(budget, || {
        let mut ts = TimeSeries::new();
        for i in 0..N {
            ts.push(i as f64, 0.5);
        }
        black_box(ts.len());
        N
    })
}

fn welford_push(budget: KernelBudget) -> f64 {
    let mut acc = Welford::new();
    let mut rng = inputs(0);
    kernel_ns(budget, || {
        for _ in 0..OPS {
            acc.push((rng.next_u64() >> 11) as f64 * 1e-9);
        }
        black_box(acc.mean());
        OPS
    })
}

fn p2_push(budget: KernelBudget) -> f64 {
    let mut acc = P2Quantile::new(0.99);
    let mut rng = inputs(0);
    kernel_ns(budget, || {
        for _ in 0..OPS {
            acc.push((rng.next_u64() >> 11) as f64 * 1e-9);
        }
        black_box(acc.estimate());
        OPS
    })
}

/// The three datagrams the UDP workloads exchange.
fn wire_samples() -> [(&'static str, bool, WireMessage); 3] {
    let probe = Probe {
        cp: CpId(7),
        seq: 123_456,
    };
    [
        ("probe_addressed", true, WireMessage::Probe(probe)),
        (
            "reply_dcpp",
            false,
            WireMessage::Reply(Reply {
                probe,
                device: DeviceId(3),
                body: ReplyBody::Dcpp {
                    wait: SimDuration::from_millis(500),
                },
            }),
        ),
        (
            "reply_sapp",
            false,
            WireMessage::Reply(Reply {
                probe,
                device: DeviceId(3),
                body: ReplyBody::Sapp {
                    pc: 1_700_000,
                    last_probers: [Some(CpId(3)), Some(CpId(9))],
                },
            }),
        ),
    ]
}

fn codec(budget: KernelBudget, report: &mut Report) {
    for (name, addressed, msg) in wire_samples() {
        let enc = |m: &WireMessage| {
            if addressed {
                encode_addressed(DeviceId(3), m)
            } else {
                encode(m)
            }
        };
        let ns = kernel_ns(budget, || {
            for _ in 0..OPS {
                black_box(enc(black_box(&msg)));
            }
            OPS
        });
        report.put(format!("runtime.codec.encode_{name}_ns"), ns, "ns");
        let bytes = enc(&msg);
        let ns = kernel_ns(budget, || {
            for _ in 0..OPS {
                black_box(decode_datagram(black_box(&bytes)).expect("own encoding decodes"));
            }
            OPS
        });
        report.put(format!("runtime.codec.decode_{name}_ns"), ns, "ns");
    }
}

fn clock_now(budget: KernelBudget) -> f64 {
    let clock = SystemClock::new();
    kernel_ns(budget, || {
        for _ in 0..OPS {
            black_box(clock.now());
        }
        OPS
    })
}

/// Times two phases that can only run alternately (fill then drain) over
/// shared `state`: `budget.batches` samples, each repeating the pair until
/// `budget.batch` has been spent inside the phases. Returns the median
/// ns/op of each phase; `ops` is the operation count of one phase call.
fn two_phase_ns<S>(
    budget: KernelBudget,
    ops: u64,
    state: &mut S,
    first: impl Fn(&mut S),
    second: impl Fn(&mut S),
) -> (f64, f64) {
    first(state);
    second(state);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..budget.batches {
        let (mut t_first, mut t_second, mut n) = (0u128, 0u128, 0u64);
        while t_first + t_second < budget.batch.as_nanos() {
            let t0 = Instant::now();
            first(state);
            let t1 = Instant::now();
            second(state);
            t_first += (t1 - t0).as_nanos();
            t_second += t1.elapsed().as_nanos();
            n += ops;
        }
        a.push(t_first as f64 / n as f64);
        b.push(t_second as f64 / n as f64);
    }
    (median(&a), median(&b))
}

/// `send_to` and `recv_from` of the 18-byte addressed probe between two
/// benchmark-owned loopback sockets: the syscall floor under the shard
/// loop, with no host in between.
fn syscalls(budget: KernelBudget, report: &mut Report) {
    const BURST: u64 = 64;
    let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
    let rx = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
    rx.set_nonblocking(true).expect("nonblocking rx");
    let to = rx.local_addr().expect("rx addr");
    let datagram = encode_addressed(DeviceId(3), &wire_samples()[0].2);
    let (send, recv) = two_phase_ns(
        budget,
        BURST,
        &mut [0u8; 256],
        |_| {
            for _ in 0..BURST {
                tx.send_to(&datagram, to).expect("loopback send");
            }
        },
        |buf| {
            for _ in 0..BURST {
                rx.recv_from(buf)
                    .expect("loopback delivers before send returns");
            }
        },
    );
    report.put("runtime.syscall.send_to_ns", send, "ns");
    report.put("runtime.syscall.recv_from_ns", recv, "ns");
}

/// The shard's key shape: (machine, token).
type WheelKey = (u32, u64);

/// A wheel holding `WHEEL_LIVE` timers far in the future, and the next
/// near deadline to arm below them.
fn loaded_wheel() -> (TimerWheel<WheelKey>, u64) {
    let mut wheel = TimerWheel::new();
    for cp in 0..WHEEL_LIVE {
        wheel.insert((cp, 0), SimTime::from_nanos(u64::MAX / 2 + u64::from(cp)));
    }
    (wheel, 0)
}

/// Arms `BURST` near timers above the live set, one ns apart.
fn wheel_arm_burst((wheel, next): &mut (TimerWheel<WheelKey>, u64)) {
    for i in 0..WHEEL_BURST {
        wheel.insert((WHEEL_LIVE + i as u32, *next), SimTime::from_nanos(*next));
        *next += 1;
    }
}

const WHEEL_BURST: u64 = 256;

fn wheel(budget: KernelBudget, report: &mut Report) {
    let (insert, pop) = two_phase_ns(
        budget,
        WHEEL_BURST,
        &mut loaded_wheel(),
        wheel_arm_burst,
        |(wheel, next)| {
            let due = SimTime::from_nanos(*next);
            for _ in 0..WHEEL_BURST {
                black_box(wheel.pop_due(due).expect("armed timer is due"));
            }
        },
    );
    report.put("runtime.wheel.insert_ns", insert, "ns");
    report.put("runtime.wheel.pop_due_ns", pop, "ns");

    // Cancel is a map removal that leaves a stale heap entry behind. The
    // stale entries of a burst sit below every live one, so the
    // `next_deadline` timed with the cancels discards them all: the figure
    // is a cancel's whole cost in this lazily reconciled design.
    let (_, cancel) = two_phase_ns(
        budget,
        WHEEL_BURST,
        &mut loaded_wheel(),
        wheel_arm_burst,
        |(wheel, next)| {
            for i in 0..WHEEL_BURST {
                black_box(wheel.cancel((WHEEL_LIVE + i as u32, *next - WHEEL_BURST + i)));
            }
            black_box(wheel.next_deadline());
        },
    );
    report.put("runtime.wheel.cancel_ns", cancel, "ns");

    // Re-arm one key 100 000 times, then ask for the next deadline: the
    // lazily reconciled design's worst case (100 000 stale entries
    // discarded at once), per re-arm.
    const REARMS: u64 = 100_000;
    let rearm = kernel_ns(budget, || {
        let mut wheel: TimerWheel<WheelKey> = TimerWheel::new();
        for i in 0..REARMS {
            wheel.insert((0, 0), SimTime::from_nanos(i));
        }
        black_box(wheel.next_deadline());
        REARMS
    });
    report.put("runtime.wheel.rearm_100k_ns", rearm, "ns");
}

/// Runs every kernel and reports it under its per-layer name.
pub fn run_all(budget: KernelBudget, report: &mut Report) {
    let heap = QueueProfile::Heap;
    let cal = QueueProfile::calendar();
    let mut put = |name: &str, ns: f64| report.put(name, ns, "ns");
    put(
        "des.heap.push_pop_ns",
        queue_push_pop(budget, heap, HEAP_DEPTH),
    );
    put("des.heap.cancel_ns", queue_cancel(budget, heap, HEAP_DEPTH));
    put(
        "des.heap.reschedule_ns",
        queue_reschedule(budget, heap, HEAP_DEPTH),
    );
    put("des.heap.timeout_pattern_ns", heap_timeout_pattern(budget));
    put("des.engine.dispatch_ns", engine_dispatch(budget));
    put("des.timer_slots.insert_remove_ns", timer_slots(budget));
    put("des.rng.draw_ns", rng_draw(budget));
    put(
        "des.calendar.push_pop_ns",
        queue_push_pop(budget, cal, CALENDAR_DEPTH),
    );
    put(
        "des.calendar.cancel_ns",
        queue_cancel(budget, cal, CALENDAR_DEPTH),
    );
    put(
        "des.calendar.reschedule_ns",
        queue_reschedule(budget, cal, CALENDAR_DEPTH),
    );

    put(
        "net.fabric.send_three_mode_ns",
        fabric_send(budget, Box::new(NoLoss)),
    );
    put(
        "net.fabric.send_bernoulli_ns",
        fabric_send(budget, Box::new(BernoulliLoss::new(0.02))),
    );
    put(
        "net.fabric.send_gilbert_ns",
        fabric_send(budget, Box::new(GilbertElliott::bursty(0.05))),
    );

    put(
        "core.dcpp.device_on_probe_ns",
        device_on_probe(
            budget,
            DcppDevice::new(DeviceId(0), DcppConfig::paper_default()),
        ),
    );
    put(
        "core.sapp.device_on_probe_ns",
        device_on_probe(
            budget,
            SappDevice::new(DeviceId(0), SappDeviceConfig::paper_default()),
        ),
    );
    put(
        "core.dcpp.cp_cycle_ns",
        cp_cycle(
            budget,
            DcppCp::new(CpId(1), DcppConfig::paper_default()),
            |_| ReplyBody::Dcpp {
                wait: SimDuration::from_millis(500),
            },
        ),
    );
    let delta = SappDeviceConfig::paper_default().delta();
    put(
        "core.sapp.cp_cycle_ns",
        cp_cycle(
            budget,
            SappCp::new(CpId(1), SappConfig::paper_default()),
            |cycle| ReplyBody::Sapp {
                pc: cycle * delta,
                last_probers: [Some(CpId(2)), Some(CpId(3))],
            },
        ),
    );
    put("core.dcpp.cp_timeout_ns", dcpp_cp_timeout(budget));

    put("stats.timeseries.push_ns", timeseries_push(budget));
    put("stats.welford.push_ns", welford_push(budget));
    put("stats.p2.push_ns", p2_push(budget));

    codec(budget, report);
    report.put("runtime.clock.now_ns", clock_now(budget), "ns");
    syscalls(budget, report);
    wheel(budget, report);
}

/// The `trace` layer's price, on the `dcpp` golden config (300 virtual s):
/// how much `Scenario::enable_trace` slows the run it observes, and what
/// draining it into a Chrome trace costs per event. Tracing is off in
/// every measured run, so neither moves an end-to-end metric.
pub fn trace_layer(seed: u64, repeats: usize, report: &mut Report) {
    use presence_sim::{golden_trio, Scenario};
    let mut cfg = golden_trio()[1].1;
    cfg.seed = seed;
    let (mut plain, mut traced, mut export) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..repeats {
        for on in [false, true] {
            let mut scenario = Scenario::build(cfg);
            if on {
                scenario.enable_trace(None, true);
            }
            let t0 = Instant::now();
            scenario.run();
            let run_s = t0.elapsed().as_secs_f64();
            let result = scenario.collect();
            if on {
                traced.push(run_s);
                let t1 = Instant::now();
                let model = scenario.collect_trace(&result);
                let json = presence_trace::write_chrome_json(&model);
                black_box(json.len());
                export.push(t1.elapsed().as_nanos() as f64 / result.events_processed as f64);
            } else {
                plain.push(run_s);
            }
        }
    }
    report.put(
        "trace.enabled_slowdown_ratio",
        median(&traced) / median(&plain),
        "ratio",
    );
    report.put("trace.export_ns_per_event", median(&export), "ns");
}
