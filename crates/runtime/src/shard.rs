//! The sharded presence host: a multi-socket UDP event loop serving many
//! device and prober machines from a fixed pool of worker threads.
//!
//! One machine per thread is hopeless for the paper's deployment target
//! of thousands of devices, so [`ShardedHost`] spreads machines over
//! `RUNTIME_SHARDS` worker threads by id (`id % shards`); a single pair is
//! simply a one-shard host.
//!
//! A shard is two parts. Its [`ShardCore`] is the protocol half: its
//! machines in dense tables indexed by `id / shards`, its timers in one
//! [`EventQueue`] — the simulator's own queue, addressed by handle — one
//! byte arena its sends are encoded into, and the counts of what it did.
//! The core reads no clock and owns no socket: it is handed an instant to
//! fire due timers at, or an instant and a received run to route, and
//! leaves its sends queued. The socket loop around it owns the socket and
//! the clock. Per loop iteration it reads the clock once and fires what is
//! due, drains up to a batch of runs non-blockingly (one more clock read
//! per run), flushes the queued sends and publishes one snapshot — counts,
//! iteration count, next deadline — before it sleeps or blocks. Once the
//! tables, the queue and the arena have grown to the load, an iteration
//! neither hashes nor allocates.
//!
//! A prober holds at most one live timer (the [`Prober`] contract), and
//! its slot keeps that timer's token and queue handle, as the simulator's
//! CP actor does: a cancel removes the event from the queue, and a
//! popped event fires only if it is still the slot's live timer. Every
//! event gets the next sequence number when it is armed, so timers due at
//! one instant fire in the order they were armed.
//!
//! Datagrams travel in *runs*. The flush sends each maximal stretch of
//! queued datagrams with one destination and one length (up to 64) as a
//! single UDP segmentation-offload `sendmsg`. What a loopback datagram
//! costs is its trip through the network stack, and a run makes that
//! trip once. Every shard socket has UDP generic receive offload on, so
//! a run arriving from another shard stays one packet: the drain reads it
//! with one `recvmsg`, charged once to the receive buffer, and the core
//! cuts it back into datagrams in the order they were queued. A lone
//! datagram is a run of one. Runs never merge across destinations or
//! lengths, so every machine sees the order it would see from one
//! `send_to` per datagram — the order DCPP's slots and SAPP's last-prober
//! fields depend on.
//!
//! What an iteration that found no work does next is the loop's one idle
//! rule. An iteration that did work is followed at once by the next one:
//! it drains what arrived meanwhile and sleeps nowhere. A wake-up costs
//! tens of microseconds of CPU where a datagram costs a few, so the shard
//! must not wake per datagram either: the first iteration that finds
//! nothing sleeps one coalescing window (`COALESCING_WINDOW`, 1 ms, a
//! constant) — deaf to the socket, so the next batch gathers — and a
//! second one if the iteration after that window found nothing too. Only
//! after two consecutive empty windows is the shard idle rather than
//! between batches, and then it blocks (`sys::wait_readable`) until a
//! datagram arrives or the queue's next deadline is due on the wall
//! ([`Clock::wall_until`]), re-checking the stop flag every `MAX_BLOCK`.
//! A clock that cannot say how far away a deadline is (the lockstep
//! `ManualClock`) is polled every coalescing window as before, the wait
//! merely ending early on a datagram.
//!
//! Routing on a shared socket:
//!
//! * probes travel in the device-addressed `0x06` frame
//!   ([`crate::codec::encode_addressed`]) — the shard looks the target
//!   device up by id;
//! * replies travel bare and route by `reply.probe.cp`;
//! * a `Bye`, the only broadcast, routes to every hosted prober watching
//!   the named device, in ascending CP id;
//! * a datagram naming a machine this shard does not host is counted in
//!   `unroutable`;
//! * anything that does not decode (including the retired tag `0x05`) is
//!   counted in `decode_errors` and reaches no prober.
//!
//! Everything the host drops is counted ([`ShardStats`]), never silently
//! lost, mirroring `FabricStats` in the simulator's network fabric. The
//! published snapshot doubles as the conformance controller's quiescence
//! instrument: its iteration count proves a shard completed full
//! drain-and-fire passes, and its counts, published by the same pass,
//! prove those passes found nothing to do.

use crate::clock::Clock;
use crate::codec::{decode_datagram, encode_addressed_into, encode_into, Datagram, MAX_DATAGRAM};
use crate::stats::ShardStats;
use crate::sys::{enable_gro, recv_segments, send_segments, wait_readable, MAX_SEGMENTS};
use presence_core::{
    CpAction, CpId, CpStats, DeviceId, DeviceMachine, Prober, TimerToken, Verdict, WireMessage,
};
use presence_des::{EventQueue, SimTime};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Datagrams drained from the socket per loop iteration: no further run
/// is read once this many are handled, and a run is never split.
const RECV_BATCH: usize = 64;

/// The shard's one receive buffer: the longest run of valid datagrams
/// the kernel coalesces (`MAX_SEGMENTS` of at most `MAX_DATAGRAM` bytes,
/// 16 KiB). A longer run is not ours and is counted as one decode error.
const RECV_BUFFER: usize = MAX_SEGMENTS * MAX_DATAGRAM;

/// How long a shard sleeps, deaf to its socket, after an iteration that
/// found no work, so that the next batch gathers; also the polling period
/// under a [`Clock`] without [`wall_until`](Clock::wall_until).
const COALESCING_WINDOW: Duration = Duration::from_millis(1);

/// Consecutive coalescing windows that must gather nothing before a
/// shard blocks. One is not enough: a fleet whose bursts arrive a little
/// further apart than the window sees an empty window between bursts by
/// accident of phase, and blocking on it adds a wake-up per burst.
const EMPTY_WINDOWS_BEFORE_BLOCK: u32 = 2;

/// Longest single block of an idle shard: how stale its view of the stop
/// flag can get.
const MAX_BLOCK: Duration = Duration::from_millis(20);

/// Configuration of a [`ShardedHost`]. The idle rule's timings — the
/// 1 ms coalescing window a shard sleeps after an iteration that found no
/// work, and the 20 ms longest block of an idle shard — are constants of
/// the shard loop, not settings.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Worker threads (= sockets). Machines are spread across shards by
    /// id.
    pub shards: usize,
    /// Bind address for every shard socket (use port `0` to let the OS
    /// pick distinct ports).
    pub bind: String,
}

impl HostConfig {
    /// Loopback defaults with an explicit shard count (at least 1); the
    /// environment is never consulted.
    #[must_use]
    pub fn loopback(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            bind: "127.0.0.1:0".to_string(),
        }
    }
}

/// The shard count the environment asks for: `RUNTIME_SHARDS` if set,
/// else available parallelism capped at 4.
///
/// # Panics
///
/// Panics if `RUNTIME_SHARDS` is set to anything but a positive integer,
/// so a typo cannot silently run a shard-count gate on the wrong count.
#[must_use]
pub fn shards_from_env() -> usize {
    parse_shards(std::env::var("RUNTIME_SHARDS").ok().as_deref())
}

/// Pure core of [`shards_from_env`]: interprets an optional
/// `RUNTIME_SHARDS` value, panicking on a non-numeric or zero one.
fn parse_shards(var: Option<&str>) -> usize {
    match var {
        // `RUNTIME_SHARDS= cmd` is the shell idiom for clearing a variable
        // for one command; treat it as unset, not as a typo.
        Some(raw) if !raw.trim().is_empty() => match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => panic!("RUNTIME_SHARDS must be a positive integer, got {raw:?}"),
        },
        _ => thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(1),
    }
}

/// The shard serving `device` on a host of `shards` shards: where
/// [`ShardedHost::add_device`] puts it and where `addr_of` looks.
fn shard_of_device(device: DeviceId, shards: usize) -> usize {
    device.0 as usize % shards
}

/// The datagrams a core queued since the last flush, in order: their
/// bytes back to back in one arena, each datagram named by its
/// destination and length. Cleared by every flush, it keeps its capacity,
/// so queueing a datagram allocates nothing once the arena has grown to
/// the load.
#[derive(Debug, Default)]
struct Sends {
    bytes: Vec<u8>,
    datagrams: Vec<(SocketAddr, usize)>,
}

/// One run of [`Sends`]: consecutive datagrams with one destination and
/// one length, whose bytes lie back to back in the arena.
#[derive(Debug, Clone, Copy)]
struct Run<'a> {
    dest: SocketAddr,
    /// The length of every datagram in the run (never 0: every encoding
    /// has a tag byte).
    len: usize,
    bytes: &'a [u8],
}

impl<'a> Run<'a> {
    /// The run's datagrams, in queue order.
    fn datagrams(self) -> std::slice::Chunks<'a, u8> {
        self.bytes.chunks(self.len)
    }

    fn count(self) -> usize {
        self.bytes.len() / self.len
    }
}

impl Sends {
    /// Queues one datagram to `dest`, whose bytes `encode` appends.
    fn push(&mut self, dest: SocketAddr, encode: impl FnOnce(&mut Vec<u8>)) {
        let start = self.bytes.len();
        encode(&mut self.bytes);
        self.datagrams.push((dest, self.bytes.len() - start));
    }

    fn len(&self) -> usize {
        self.datagrams.len()
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.datagrams.clear();
    }

    /// The queued datagrams cut into runs, in order: each run is the
    /// longest stretch of consecutive datagrams with the first one's
    /// destination and length, at most `MAX_SEGMENTS` long — what one UDP
    /// GSO send can carry. Runs never merge across a change of
    /// destination or length, so sending them one after another keeps
    /// every socket's arrival order.
    fn runs(&self) -> impl Iterator<Item = Run<'_>> {
        let mut rest = &self.datagrams[..];
        let mut offset = 0;
        std::iter::from_fn(move || {
            let &(dest, len) = rest.first()?;
            let n = rest
                .iter()
                .take(MAX_SEGMENTS)
                .take_while(|&&d| d == (dest, len))
                .count();
            rest = &rest[n..];
            let bytes = &self.bytes[offset..offset + n * len];
            offset += n * len;
            Some(Run { dest, len, bytes })
        })
    }
}

/// A received run cut back into its datagrams, in order: every
/// `segment_size` bytes, the last one possibly shorter. An empty datagram
/// is one empty segment, so it is counted like any other.
fn segments(run: &[u8], segment_size: usize) -> impl Iterator<Item = &[u8]> {
    let empty = run.is_empty().then_some(run);
    run.chunks(segment_size.max(1)).chain(empty)
}

/// What a queued shard timer does when it fires. The index is the
/// machine's place in the shard's dense prober or device table.
#[derive(Debug, Clone, Copy)]
enum Timer {
    /// Start the prober at this index.
    StartProber(usize),
    /// The live protocol timer of the prober at this index.
    Prober(usize),
    /// Silence (depart) the device at this index.
    SilenceDevice(usize),
}

/// A prober's one live protocol timer: the token its machine armed it
/// with and the handle of its queued event.
#[derive(Debug, Clone, Copy)]
struct Armed {
    token: TimerToken,
    slot: u32,
    seq: u64,
}

/// One shard's timers: the simulator's event queue, with a sequence
/// number minted per armed event.
#[derive(Debug, Default)]
struct Timers {
    queue: EventQueue<Timer>,
    /// The next sequence number to mint; every event gets a fresh one, so
    /// a sequence number names one arming for the queue's lifetime.
    next_seq: u64,
}

impl Timers {
    /// Queues `timer` to fire at `at`, returning its handle `(slot, seq)`.
    fn arm(&mut self, at: SimTime, timer: Timer) -> (u32, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        (self.queue.push(at, seq, timer), seq)
    }

    /// Removes and returns the earliest event, with its sequence number,
    /// if it is due at `now`.
    fn pop_due(&mut self, now: SimTime) -> Option<(u64, Timer)> {
        if self.queue.peek()?.time > now {
            return None;
        }
        self.queue.pop().map(|(key, timer)| (key.seq, timer))
    }
}

struct DeviceSlot {
    host: DeviceMachine,
    /// A silenced device models departure: probes to it are dropped.
    silenced: bool,
}

struct ProberSlot {
    prober: Box<dyn Prober + Send>,
    /// Where this prober's target device is served.
    peer: SocketAddr,
    /// The device the prober watches (for the addressed probe frame).
    target: DeviceId,
    started: bool,
    /// The prober's one live protocol timer.
    timer: Option<Armed>,
}

impl ProberSlot {
    /// Executes the prober's pending actions; `index` is its place in the
    /// prober table. `emitted_at` is the instant the machine was called
    /// with — timers arm relative to it, not to a fresh clock read: the
    /// prober computed its deadlines against the `now` it was handed, and
    /// re-reading the clock after a slow send (or under load) would drift
    /// every deadline late by the handling latency.
    fn execute(
        &mut self,
        index: usize,
        emitted_at: SimTime,
        actions: &mut Vec<CpAction>,
        timers: &mut Timers,
        sends: &mut Sends,
    ) {
        for action in actions.drain(..) {
            match action {
                CpAction::SendProbe(p) => {
                    let target = self.target;
                    sends.push(self.peer, |buf| {
                        encode_addressed_into(buf, target, &WireMessage::Probe(p));
                    });
                }
                CpAction::StartTimer { token, after } => {
                    debug_assert!(self.timer.is_none(), "a prober holds one live timer");
                    let (slot, seq) = timers.arm(emitted_at + after, Timer::Prober(index));
                    self.timer = Some(Armed { token, slot, seq });
                }
                CpAction::CancelTimer { token } => {
                    if let Some(armed) = self.timer.take_if(|armed| armed.token == token) {
                        timers.queue.cancel_slot(armed.slot, armed.seq);
                    }
                }
                // Verdicts are read back from `Prober::verdict()` at
                // report time.
                CpAction::DeviceAbsent { .. } => {}
            }
        }
    }
}

/// The dense-table entry at `index`, grown to hold it, for a machine
/// being registered.
fn vacant<T>(table: &mut Vec<Option<T>>, index: usize) -> &mut Option<T> {
    if table.len() <= index {
        table.resize_with(index + 1, || None);
    }
    &mut table[index]
}

/// Final state of one hosted prober.
#[derive(Debug, Clone, PartialEq)]
pub struct ProberReport {
    /// The prober's identity.
    pub cp: CpId,
    /// Terminal absence verdict, if reached.
    pub verdict: Option<Verdict>,
    /// Probe-cycle statistics.
    pub stats: CpStats,
}

/// Final state of one hosted device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceReport {
    /// The device's identity.
    pub device: DeviceId,
    /// Probes it answered.
    pub probes_received: u64,
}

/// Everything a finished host hands back.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Hosted probers, sorted by CP id.
    pub probers: Vec<ProberReport>,
    /// Hosted devices, sorted by device id.
    pub devices: Vec<DeviceReport>,
    /// Summed counters across shards.
    pub stats: ShardStats,
    /// Per-shard counters.
    pub per_shard: Vec<ShardStats>,
}

/// The protocol half of a shard: its machines, their timers, the sends
/// they queue and the counts of what they did. It holds no socket and
/// reads no clock — whoever drives it passes the instant in — so the same
/// core runs behind a UDP socket and, stepped by hand, in a test.
pub(crate) struct ShardCore {
    /// This shard's place in the host, and the host's shard count: the
    /// shard serves exactly the ids `≡ index (mod stride)`, machine `id`
    /// at table index `id / stride`.
    index: usize,
    stride: usize,
    devices: Vec<Option<DeviceSlot>>,
    probers: Vec<Option<ProberSlot>>,
    timers: Timers,
    /// What the machines queued since the socket loop last flushed it.
    sends: Sends,
    /// Scratch buffer the machines emit their actions into: empty between
    /// calls.
    actions: Vec<CpAction>,
    /// The core's counts, to which the socket loop adds its outcomes.
    stats: ShardStats,
}

impl ShardCore {
    fn new(index: usize, stride: usize) -> Self {
        Self {
            index,
            stride,
            devices: Vec::new(),
            probers: Vec::new(),
            timers: Timers::default(),
            sends: Sends::default(),
            actions: Vec::new(),
            stats: ShardStats::default(),
        }
    }

    /// The table index of machine `id` if this shard serves it.
    fn local(&self, id: u32) -> Option<usize> {
        let id = id as usize;
        (id % self.stride == self.index).then_some(id / self.stride)
    }

    /// See [`ShardedHost::add_device`].
    fn add_device(&mut self, host: DeviceMachine, silence_at: Option<SimTime>) {
        let id = host.id();
        let index = id.0 as usize / self.stride;
        let entry = vacant(&mut self.devices, index);
        assert!(entry.is_none(), "device {} is already hosted", id.0);
        *entry = Some(DeviceSlot {
            host,
            silenced: false,
        });
        if let Some(at) = silence_at {
            self.timers.arm(at, Timer::SilenceDevice(index));
        }
    }

    /// See [`ShardedHost::add_prober`].
    fn add_prober(
        &mut self,
        prober: Box<dyn Prober + Send>,
        peer: SocketAddr,
        target: DeviceId,
        start_at: SimTime,
    ) {
        let cp = prober.cp();
        let index = cp.0 as usize / self.stride;
        let entry = vacant(&mut self.probers, index);
        assert!(entry.is_none(), "CP {} is already hosted", cp.0);
        *entry = Some(ProberSlot {
            prober,
            peer,
            target,
            started: false,
            timer: None,
        });
        self.timers.arm(start_at, Timer::StartProber(index));
    }

    /// The earliest armed timer deadline.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.timers.queue.peek().map(|key| key.time)
    }

    /// Fires every timer due at `now`, in `(deadline, arming)` order, and
    /// returns how many fired. A popped prober timer that is no longer
    /// its slot's live one is not a firing.
    pub(crate) fn fire_due(&mut self, now: SimTime) -> u64 {
        let mut fired = 0;
        while let Some((seq, timer)) = self.timers.pop_due(now) {
            match timer {
                Timer::StartProber(i) => {
                    fired += 1;
                    if let Some(slot) = self.probers[i].as_mut() {
                        slot.started = true;
                        slot.prober.start(now, &mut self.actions);
                        slot.execute(i, now, &mut self.actions, &mut self.timers, &mut self.sends);
                    }
                }
                Timer::Prober(i) => {
                    let Some(slot) = self.probers[i].as_mut() else {
                        continue;
                    };
                    let Some(armed) = slot.timer.take_if(|armed| armed.seq == seq) else {
                        continue;
                    };
                    fired += 1;
                    if !slot.prober.is_stopped() {
                        slot.prober.on_timer(now, armed.token, &mut self.actions);
                        slot.execute(i, now, &mut self.actions, &mut self.timers, &mut self.sends);
                    }
                }
                Timer::SilenceDevice(i) => {
                    fired += 1;
                    if let Some(slot) = self.devices[i].as_mut() {
                        slot.silenced = true;
                    }
                }
            }
        }
        self.stats.timers_fired += fired;
        fired
    }

    /// Routes every datagram of one run received from `from` at `now`,
    /// cut every `segment_size` bytes, and returns how many it held.
    pub(crate) fn on_run(
        &mut self,
        now: SimTime,
        from: SocketAddr,
        run: &[u8],
        segment_size: usize,
    ) -> usize {
        let mut handled = 0;
        for datagram in segments(run, segment_size) {
            handled += 1;
            self.on_datagram(now, from, datagram);
        }
        handled
    }

    fn on_datagram(&mut self, now: SimTime, from: SocketAddr, buf: &[u8]) {
        let Ok(datagram) = decode_datagram(buf) else {
            self.stats.decode_errors += 1;
            return;
        };
        self.stats.datagrams_received += 1;
        match datagram {
            Datagram::Addressed(device, WireMessage::Probe(probe)) => {
                let slot = self
                    .local(device.0)
                    .and_then(|i| self.devices.get_mut(i)?.as_mut());
                match slot {
                    Some(slot) if slot.silenced => self.stats.dropped_departed += 1,
                    Some(slot) => {
                        let reply = WireMessage::Reply(slot.host.on_probe(now, probe));
                        self.sends.push(from, |buf| encode_into(buf, &reply));
                    }
                    None => self.stats.unroutable += 1,
                }
            }
            Datagram::Direct(WireMessage::Reply(reply)) => {
                let Some((i, slot)) = self
                    .local(reply.probe.cp.0)
                    .and_then(|i| Some((i, self.probers.get_mut(i)?.as_mut()?)))
                else {
                    self.stats.unroutable += 1;
                    return;
                };
                if slot.started && !slot.prober.is_stopped() {
                    slot.prober.on_reply(now, &reply, &mut self.actions);
                    slot.execute(i, now, &mut self.actions, &mut self.timers, &mut self.sends);
                }
            }
            Datagram::Direct(msg) | Datagram::Addressed(_, msg) => {
                // A device's own Bye reaches every hosted prober watching
                // it, in table order: ascending CP id.
                let device = match msg {
                    WireMessage::Bye(bye) => bye.device,
                    // A bare probe has no target on a shared socket; an
                    // addressed reply makes no sense either.
                    WireMessage::Probe(_) | WireMessage::Reply(_) => {
                        self.stats.unroutable += 1;
                        return;
                    }
                };
                for (i, slot) in self.probers.iter_mut().enumerate() {
                    let Some(slot) = slot else { continue };
                    if slot.target == device && slot.started && !slot.prober.is_stopped() {
                        slot.prober.on_bye(now, &mut self.actions);
                        slot.execute(i, now, &mut self.actions, &mut self.timers, &mut self.sends);
                    }
                }
            }
        }
    }

    /// The final state of every hosted machine, each table in index
    /// order, which is ascending id order.
    fn reports(self) -> (Vec<ProberReport>, Vec<DeviceReport>) {
        let probers = self
            .probers
            .into_iter()
            .flatten()
            .map(|s| ProberReport {
                cp: s.prober.cp(),
                verdict: s.prober.verdict(),
                stats: *s.prober.stats(),
            })
            .collect();
        let devices = self
            .devices
            .into_iter()
            .flatten()
            .map(|s| DeviceReport {
                device: s.host.id(),
                probes_received: s.host.probes_received(),
            })
            .collect();
        (probers, devices)
    }
}

/// What a shard's socket loop publishes at the end of every loop iteration,
/// before it sleeps or blocks: one consistent view of the shard.
#[derive(Debug, Clone, Copy, Default)]
struct Published {
    stats: ShardStats,
    /// Completed loop iterations (fire + drain + flush).
    iterations: u64,
    next_deadline: Option<SimTime>,
}

/// A shard's published view, written by its thread, read by the handle.
type Cell = Arc<Mutex<Published>>;

/// The cell's snapshot. A publish is one store of a `Copy` value, so even
/// a poisoned cell holds a whole one.
fn read(cell: &Cell) -> Published {
    *cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker: the socket loop around a [`ShardCore`]. It owns the
/// clock, reading it once per iteration and once per received run.
struct Shard {
    socket: UdpSocket,
    core: ShardCore,
}

impl Shard {
    /// Hands the queued datagrams to the kernel one [run](Sends::runs)
    /// per call: a run of one is a plain `send_to`, a longer one a single
    /// `sendmsg` whose segments leave as separate datagrams in queue
    /// order. A run succeeds or fails whole, and each of its datagrams is
    /// counted under the outcome.
    fn flush(&mut self) {
        let ShardCore { sends, stats, .. } = &mut self.core;
        for run in sends.runs() {
            let sent = if run.count() == 1 {
                self.socket.send_to(run.bytes, run.dest).map(|_| ())
            } else {
                send_segments(&self.socket, run.dest, run.datagrams())
            };
            let outcome = match sent {
                Ok(()) => &mut stats.datagrams_sent,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => &mut stats.dropped_sendpressure,
                Err(_) => &mut stats.send_errors,
            };
            *outcome += run.count() as u64;
            stats.send_calls += 1;
        }
        sends.clear();
    }

    fn run(
        mut self,
        clock: Arc<dyn Clock>,
        stop: Arc<AtomicBool>,
        published: Cell,
    ) -> (Vec<ProberReport>, Vec<DeviceReport>) {
        let mut buf = vec![0u8; RECV_BUFFER];
        let mut iterations = 0;
        // Zero from the start: a shard that has served nothing yet has no
        // next batch to gather, so its first empty iteration blocks.
        let mut windows_left = 0;
        while !stop.load(Ordering::SeqCst) {
            let mut work = self.core.fire_due(clock.now());

            let mut handled = 0;
            while handled < RECV_BATCH {
                match recv_segments(&self.socket, &mut buf) {
                    Ok(run) => {
                        self.core.stats.recv_calls += 1;
                        if run.truncated {
                            // Longer than any run of valid datagrams.
                            handled += 1;
                            self.core.stats.decode_errors += 1;
                        } else {
                            // A run's segments arrived together: one instant.
                            let now = clock.now();
                            let bytes = &buf[..run.len];
                            handled += self.core.on_run(now, run.from, bytes, run.segment_size);
                        }
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        break;
                    }
                    Err(_) => {
                        self.core.stats.recv_errors += 1;
                        break;
                    }
                }
            }

            work += handled as u64 + self.core.sends.len() as u64;
            self.flush();
            iterations += 1;
            let next_deadline = self.core.next_deadline();
            *published.lock().unwrap_or_else(PoisonError::into_inner) = Published {
                stats: self.core.stats,
                iterations,
                next_deadline,
            };

            if work > 0 {
                windows_left = EMPTY_WINDOWS_BEFORE_BLOCK;
            } else if windows_left > 0 {
                windows_left -= 1;
                thread::sleep(COALESCING_WINDOW);
            } else {
                let timeout = clock
                    .wall_until(next_deadline.unwrap_or(SimTime::MAX))
                    .map_or(COALESCING_WINDOW, |wall| wall.min(MAX_BLOCK));
                wait_readable(&self.socket, timeout);
            }
        }
        self.core.reports()
    }
}

/// A multi-socket sharded UDP host, configured between [`bind`] and
/// [`start`].
///
/// [`bind`]: ShardedHost::bind
/// [`start`]: ShardedHost::start
pub struct ShardedHost {
    shards: Vec<Shard>,
    addrs: Vec<SocketAddr>,
}

impl ShardedHost {
    /// Binds one non-blocking UDP socket per shard, with UDP generic
    /// receive offload on.
    ///
    /// # Errors
    ///
    /// Any failure to bind or configure a socket, including a kernel
    /// older than Linux 5.0, which has no `UDP_GRO`.
    pub fn bind(config: &HostConfig) -> io::Result<Self> {
        let n = config.shards.max(1);
        let mut shards = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for index in 0..n {
            let socket = UdpSocket::bind(&config.bind)?;
            socket.set_nonblocking(true)?;
            enable_gro(&socket)?;
            addrs.push(socket.local_addr()?);
            shards.push(Shard {
                socket,
                core: ShardCore::new(index, n),
            });
        }
        Ok(Self { shards, addrs })
    }

    /// Adds a device machine, optionally scheduling the instant it goes
    /// silent (models departure without deregistration). Machines are
    /// kept in tables indexed by id, so ids should be dense from 0.
    ///
    /// # Panics
    ///
    /// Panics if the host already serves a device with this id.
    pub fn add_device(&mut self, host: DeviceMachine, silence_at: Option<SimTime>) {
        let shard = shard_of_device(host.id(), self.shards.len());
        self.shards[shard].core.add_device(host, silence_at);
    }

    /// Adds a prober watching the device `target` served at `peer`,
    /// starting at `start_at` on the host clock. Machines are kept in
    /// tables indexed by id, so ids should be dense from 0.
    ///
    /// # Panics
    ///
    /// Panics if the host already runs a prober with this CP id.
    pub fn add_prober(
        &mut self,
        prober: Box<dyn Prober + Send>,
        peer: SocketAddr,
        target: DeviceId,
        start_at: SimTime,
    ) {
        let shard = prober.cp().0 as usize % self.shards.len();
        self.shards[shard]
            .core
            .add_prober(prober, peer, target, start_at);
    }

    /// The socket address serving `device` (valid once the device is
    /// added; stable across [`start`](ShardedHost::start)).
    #[must_use]
    pub fn addr_of(&self, device: DeviceId) -> SocketAddr {
        self.addrs[shard_of_device(device, self.addrs.len())]
    }

    /// All shard socket addresses, in shard order.
    #[must_use]
    pub fn local_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Spawns the shard threads. The host serves until
    /// [`HostHandle::join`].
    #[must_use]
    pub fn start(self, clock: Arc<dyn Clock>) -> HostHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let mut published = Vec::with_capacity(self.shards.len());
        let threads = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                // Each shard's seeded deadline is published before its
                // thread exists, so a controller sampling right after
                // `start` never sees an empty timer queue about to fill.
                let cell = Arc::new(Mutex::new(Published {
                    next_deadline: shard.core.next_deadline(),
                    ..Published::default()
                }));
                published.push(Arc::clone(&cell));
                let clock = Arc::clone(&clock);
                let stop = Arc::clone(&stop);
                thread::Builder::new()
                    .name(format!("presence-shard-{i}"))
                    .spawn(move || shard.run(clock, stop, cell))
                    .expect("spawn shard thread")
            })
            .collect();
        HostHandle {
            threads,
            published,
            stop,
        }
    }
}

/// A running [`ShardedHost`]: live counters, shutdown, and the final
/// report. Everything it reads, each shard published at the end of its
/// latest loop iteration.
pub struct HostHandle {
    threads: Vec<JoinHandle<(Vec<ProberReport>, Vec<DeviceReport>)>>,
    published: Vec<Cell>,
    /// Cooperative shutdown flag every shard loop polls.
    stop: Arc<AtomicBool>,
}

impl HostHandle {
    /// Summed live counters across shards.
    #[must_use]
    pub fn stats(&self) -> ShardStats {
        self.published
            .iter()
            .fold(ShardStats::default(), |acc, c| acc.merged(read(c).stats))
    }

    /// Summed activity across shards: every traffic and work counter
    /// added up, so it changes if and only if a shard did anything
    /// (received, sent, dropped, fired). Quiescence detectors compare
    /// successive samples of it.
    #[must_use]
    pub fn activity(&self) -> u64 {
        self.published
            .iter()
            .map(|c| read(c).stats.activity())
            .sum()
    }

    /// Completed loop iterations, per shard.
    #[must_use]
    pub fn iterations(&self) -> Vec<u64> {
        self.published.iter().map(|c| read(c).iterations).collect()
    }

    /// Earliest armed timer deadline across shards.
    #[must_use]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.published
            .iter()
            .filter_map(|c| read(c).next_deadline)
            .min()
    }

    /// Stops the host and collects the final report.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first shard thread (in shard order) that
    /// panicked, after every shard has been joined.
    #[must_use]
    pub fn join(self) -> HostReport {
        self.stop.store(true, Ordering::SeqCst);
        let mut probers = Vec::new();
        let mut devices = Vec::new();
        // Every shard is joined even after one panicked; the first panic
        // in shard order is re-raised with its own payload, so the
        // machine's message reaches whoever called `join`.
        let mut first_panic = None;
        for t in self.threads {
            match t.join() {
                Ok((p, d)) => {
                    probers.extend(p);
                    devices.extend(d);
                }
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        probers.sort_by_key(|r| r.cp.0);
        devices.sort_by_key(|r| r.device.0);
        // A stopped shard's last publish is its final state.
        let per_shard: Vec<ShardStats> = self.published.iter().map(|c| read(c).stats).collect();
        let stats = per_shard
            .iter()
            .fold(ShardStats::default(), |acc, s| acc.merged(*s));
        HostReport {
            probers,
            devices,
            stats,
            per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SystemClock;
    use crate::codec::{encode, encode_addressed};
    use presence_core::{DcppConfig, DcppCp, DcppDevice, SappConfig, SappCp};
    use std::net::{Ipv4Addr, SocketAddrV4};

    /// Waits (2 s at most) until the host's activity counter stops moving:
    /// whatever was in flight has been drained.
    fn settle(host: &HostHandle) {
        let limit = std::time::Instant::now() + Duration::from_secs(2);
        let mut last = host.activity();
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let now = host.activity();
            if now == last || std::time::Instant::now() > limit {
                break;
            }
            last = now;
        }
    }

    /// Probe `seq` from CP 1, addressed to device 0.
    fn addressed_probe(seq: u64) -> Vec<u8> {
        let probe = presence_core::Probe { cp: CpId(1), seq };
        encode_addressed(DeviceId(0), &WireMessage::Probe(probe))
    }

    /// Reads one reply from `sock` and returns the seq of the probe it
    /// answers.
    fn reply_seq(sock: &UdpSocket) -> u64 {
        let mut buf = [0u8; MAX_DATAGRAM];
        let (n, _) = sock.recv_from(&mut buf).expect("reply missing");
        match decode_datagram(&buf[..n]).unwrap() {
            Datagram::Direct(WireMessage::Reply(r)) => r.probe.seq,
            other => panic!("unexpected datagram {other:?}"),
        }
    }

    /// A one-shard host serving device 0, a client socket aimed at it,
    /// and the running host.
    fn one_device_host() -> (UdpSocket, SocketAddr, HostHandle) {
        let mut host = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        host.add_device(DeviceMachine::dcpp_paper(DeviceId(0)), None);
        let addr = host.addr_of(DeviceId(0));
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (sock, addr, host.start(Arc::new(SystemClock::new())))
    }

    #[test]
    fn parse_shards_resolves_env_values() {
        assert_eq!(parse_shards(Some("1")), 1);
        assert_eq!(parse_shards(Some(" 4 ")), 4);
        let default = parse_shards(None);
        assert!((1..=4).contains(&default), "default {default}");
        // `RUNTIME_SHARDS= cmd` clears the variable: same as unset.
        assert_eq!(parse_shards(Some("")), default);
        assert_eq!(parse_shards(Some(" ")), default);
    }

    #[test]
    #[should_panic(expected = "RUNTIME_SHARDS must be a positive integer, got \"0\"")]
    fn parse_shards_rejects_zero() {
        let _ = parse_shards(Some("0"));
    }

    #[test]
    #[should_panic(expected = "RUNTIME_SHARDS must be a positive integer, got \"four\"")]
    fn parse_shards_rejects_garbage() {
        let _ = parse_shards(Some("four"));
    }

    #[test]
    #[should_panic(expected = "RUNTIME_SHARDS must be a positive integer, got \"-1\"")]
    fn parse_shards_rejects_negative() {
        let _ = parse_shards(Some("-1"));
    }

    #[test]
    fn explicit_shard_count_never_consults_the_environment() {
        // `loopback(n)` is a literal: were it to read
        // `shards_from_env()`, this test would panic like
        // `parse_shards_rejects_garbage` when the suite runs under
        // `RUNTIME_SHARDS=four`.
        assert_eq!(HostConfig::loopback(3).shards, 3);
        assert_eq!(HostConfig::loopback(0).shards, 1);
    }

    #[test]
    fn sharded_host_serves_dcpp_pairs_over_loopback() {
        // 8 devices on a 2-shard device host, 8 probers on a 2-shard CP
        // host, real clock, tightened waits so cycles complete quickly.
        let mut cfg = DcppConfig::paper_default();
        cfg.delta_min = presence_des::SimDuration::from_millis(5);
        cfg.d_min = presence_des::SimDuration::from_millis(10);

        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let mut devices = ShardedHost::bind(&HostConfig::loopback(2)).unwrap();
        for d in 0..8u32 {
            devices.add_device(DeviceMachine::Dcpp(DcppDevice::new(DeviceId(d), cfg)), None);
        }
        let mut cps = ShardedHost::bind(&HostConfig::loopback(2)).unwrap();
        for d in 0..8u32 {
            cps.add_prober(
                Box::new(DcppCp::new(CpId(d), cfg)),
                devices.addr_of(DeviceId(d)),
                DeviceId(d),
                SimTime::from_nanos(u64::from(d) * 1_000_000),
            );
        }
        let dev_handle = devices.start(Arc::clone(&clock));
        let cp_handle = cps.start(Arc::clone(&clock));

        std::thread::sleep(Duration::from_millis(300));
        // Stop the probers first, then let the device side drain whatever
        // is still in flight before counting.
        let cp_report = cp_handle.join();
        settle(&dev_handle);
        let dev_report = dev_handle.join();

        let total_probes: u64 = cp_report.probers.iter().map(|p| p.stats.probes_sent).sum();
        let total_received: u64 = dev_report.devices.iter().map(|d| d.probes_received).sum();
        assert!(total_probes >= 8, "probers barely ran: {total_probes}");
        assert_eq!(total_received, total_probes, "probes lost on loopback");
        for p in &cp_report.probers {
            assert!(p.verdict.is_none(), "false absence verdict for {:?}", p.cp);
            assert!(p.stats.cycles_succeeded >= 2, "{:?} too slow", p.cp);
        }
        assert_eq!(cp_report.stats.dropped(), 0);
        assert_eq!(dev_report.stats.dropped(), 0);
        assert_eq!(dev_report.stats.unroutable, 0);
    }

    #[test]
    fn silenced_device_drops_probes_and_cp_concludes_absence() {
        let cfg = DcppConfig::paper_default();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let mut devices = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        // Silent from the very start.
        devices.add_device(
            DeviceMachine::Dcpp(DcppDevice::new(DeviceId(0), cfg)),
            Some(SimTime::ZERO),
        );
        let mut cps = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        cps.add_prober(
            Box::new(DcppCp::new(CpId(0), cfg)),
            devices.addr_of(DeviceId(0)),
            DeviceId(0),
            SimTime::ZERO,
        );
        let dev_handle = devices.start(Arc::clone(&clock));
        let cp_handle = cps.start(Arc::clone(&clock));

        // TOF + 3·TOS = 85 ms with paper defaults; give it slack.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            std::thread::sleep(Duration::from_millis(10));
            let r = cp_handle.stats();
            if r.datagrams_sent >= 4 || std::time::Instant::now() > deadline {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
        let cp_report = cp_handle.join();
        let dev_report = dev_handle.join();

        let p = &cp_report.probers[0];
        let v = p.verdict.expect("CP never concluded absence");
        assert_eq!(
            v.reason,
            presence_core::AbsenceReason::ProbeTimeout,
            "wrong reason"
        );
        assert_eq!(p.stats.probes_sent, 4, "initial probe + 3 retransmissions");
        // TOF + 3·TOS after a start at clock zero, on the host clock.
        let at = v.at.as_secs_f64();
        assert!(
            (0.085..0.5).contains(&at),
            "verdict at {at}s, expected shortly after 85 ms"
        );
        assert_eq!(dev_report.stats.dropped_departed, 4);
        assert_eq!(dev_report.devices[0].probes_received, 0);
    }

    #[test]
    fn device_answers_each_addressed_probe() {
        // A device must answer exactly what it is sent, to whoever sent
        // it, with no wall-clock cycle-count assumptions.
        let (sock, addr, handle) = one_device_host();
        for seq in 0..5u64 {
            sock.send_to(&addressed_probe(seq), addr).unwrap();
            assert_eq!(reply_seq(&sock), seq);
        }
        let report = handle.join();
        assert_eq!(report.devices[0].probes_received, 5);
    }

    #[test]
    fn a_blocked_shards_snapshot_already_shows_its_last_pass() {
        // A probe queued before the host starts: the first pass serves it,
        // two coalescing windows find nothing, and the fourth pass blocks.
        // Every pass publishes before it sleeps or blocks, so once the
        // iteration count stops moving it counts all four, and the stats
        // already hold the probe and its reply.
        let mut host = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        host.add_device(DeviceMachine::dcpp_paper(DeviceId(0)), None);
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.send_to(&addressed_probe(0), host.addr_of(DeviceId(0)))
            .unwrap();
        let handle = host.start(Arc::new(SystemClock::new()));
        // Blocked: the count holds still over two 5 ms windows (a blocked
        // shard re-checks its stop flag every 20 ms).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut samples = vec![handle.iterations()];
        while samples.len() < 3 || samples[samples.len() - 3] != samples[samples.len() - 1] {
            assert!(std::time::Instant::now() < deadline, "never blocked");
            std::thread::sleep(Duration::from_millis(5));
            samples.push(handle.iterations());
        }
        let last = samples.last().unwrap();
        let blocked = handle.stats();
        assert!(last[0] >= 4, "blocked after {last:?} published passes");
        assert_eq!((blocked.datagrams_received, blocked.datagrams_sent), (1, 1));
        assert_eq!(reply_seq(&sock), 0);
        let report = handle.join();
        assert_eq!(report.per_shard, [blocked]);
        assert_eq!(report.stats, blocked);
    }

    /// Queues a 150-probe burst on a one-shard host serving two DCPP
    /// devices (25-byte replies) and one SAPP device (33-byte replies)
    /// *before* it starts, so the first iterations drain 64 / 64 / 22
    /// probes and every flush holds runs of both lengths. Checks that the
    /// replies come back in probe order and returns the host's counters.
    fn serve_burst(bind: &str) -> ShardStats {
        const PROBES: u64 = 150;
        // Runs of five 25-byte replies, then three 33-byte ones.
        const PATTERN: [u32; 8] = [0, 0, 0, 1, 1, 2, 2, 2];
        let device_of = |seq: u64| DeviceId(PATTERN[seq as usize % PATTERN.len()]);
        let config = HostConfig {
            bind: bind.to_string(),
            ..HostConfig::loopback(1)
        };
        let mut host = ShardedHost::bind(&config).unwrap();
        host.add_device(DeviceMachine::dcpp_paper(DeviceId(0)), None);
        host.add_device(DeviceMachine::dcpp_paper(DeviceId(1)), None);
        host.add_device(DeviceMachine::sapp_paper(DeviceId(2)), None);
        let addr = host.local_addrs()[0];

        let sock = UdpSocket::bind(bind).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for seq in 0..PROBES {
            let probe = WireMessage::Probe(presence_core::Probe { cp: CpId(1), seq });
            sock.send_to(&encode_addressed(device_of(seq), &probe), addr)
                .unwrap();
        }
        let handle = host.start(Arc::new(SystemClock::new()));
        let mut buf = [0u8; MAX_DATAGRAM];
        for seq in 0..PROBES {
            let (n, _) = sock.recv_from(&mut buf).expect("reply missing");
            let reply = match decode_datagram(&buf[..n]).unwrap() {
                Datagram::Direct(WireMessage::Reply(r)) => r,
                other => panic!("unexpected datagram {other:?}"),
            };
            assert_eq!(reply.probe.seq, seq, "reply out of probe order");
            assert_eq!(reply.device, device_of(seq));
            assert_eq!(n, if reply.device == DeviceId(2) { 33 } else { 25 });
        }
        handle.join().stats
    }

    fn assert_burst_counted_per_datagram(stats: ShardStats) {
        assert_eq!(stats.datagrams_sent, 150);
        assert_eq!(stats.send_errors, 0);
        assert_eq!(stats.dropped_sendpressure, 0);
        // Runs formed: fewer calls than datagrams.
        assert!(
            stats.send_calls < stats.datagrams_sent,
            "{} send calls for {} datagrams",
            stats.send_calls,
            stats.datagrams_sent
        );
    }

    #[test]
    fn a_burst_keeps_its_order_and_is_counted_per_datagram_over_ipv4() {
        assert_burst_counted_per_datagram(serve_burst("127.0.0.1:0"));
    }

    #[test]
    fn a_burst_keeps_its_order_and_is_counted_per_datagram_over_ipv6() {
        assert_burst_counted_per_datagram(serve_burst("[::1]:0"));
    }

    #[test]
    fn a_queued_burst_of_runs_is_received_whole() {
        // 16 runs of 64 probes queued before the host starts: 1 024
        // datagrams, several times what the socket's receive buffer holds
        // when each is queued on its own.
        const RUNS: u64 = 16;
        let mut host = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        host.add_device(DeviceMachine::dcpp_paper(DeviceId(0)), None);
        let addr = host.addr_of(DeviceId(0));
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let burst = RUNS * MAX_SEGMENTS as u64;
        let probes: Vec<Vec<u8>> = (0..burst).map(addressed_probe).collect();
        for run in probes.chunks(MAX_SEGMENTS) {
            send_segments(&sock, addr, run.iter().map(|p| &p[..])).unwrap();
        }
        let handle = host.start(Arc::new(SystemClock::new()));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.stats().datagrams_received < burst && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        settle(&handle);
        let report = handle.join();
        assert_eq!(report.stats.datagrams_received, burst);
        assert_eq!(report.devices[0].probes_received, burst);
        assert!(
            report.stats.recv_calls < report.stats.datagrams_received,
            "{} receive calls for {} datagrams",
            report.stats.recv_calls,
            report.stats.datagrams_received
        );
    }

    #[test]
    fn a_bad_segment_in_a_run_is_one_decode_error_and_its_neighbours_are_answered() {
        let (sock, addr, handle) = one_device_host();
        let mut bad = addressed_probe(1);
        bad[0] = 0xee;
        let run = [addressed_probe(0), bad, addressed_probe(2)];
        send_segments(&sock, addr, run.iter().map(|s| &s[..])).unwrap();
        assert_eq!(reply_seq(&sock), 0);
        assert_eq!(reply_seq(&sock), 2);
        let report = handle.join();
        assert_eq!(report.stats.decode_errors, 1);
        assert_eq!(report.stats.datagrams_received, 2);
        assert_eq!(report.devices[0].probes_received, 2);
    }

    #[test]
    fn a_refused_run_is_counted_once_per_datagram() {
        // Port 0 is no destination: the kernel refuses every send to it.
        let refused: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let mut host = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        for cp in 0..3u32 {
            let prober = DcppCp::new(CpId(cp), DcppConfig::paper_default());
            host.add_prober(Box::new(prober), refused, DeviceId(0), SimTime::ZERO);
        }
        let handle = host.start(Arc::new(SystemClock::new()));
        // Each prober transmits four times in TOF + 3·TOS = 85 ms, then
        // gives up.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.stats().send_errors < 12 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = handle.join();
        let probes: u64 = report.probers.iter().map(|p| p.stats.probes_sent).sum();
        assert_eq!(probes, 12);
        assert_eq!(report.stats.send_errors, probes);
        assert_eq!(report.stats.datagrams_sent, 0);
        // Started together, the three probers time out together: every
        // round of their probes is one run, refused by one call.
        assert_eq!(report.stats.send_calls, 4);
    }

    #[test]
    fn runs_split_on_destination_length_and_the_segment_cap_and_keep_order() {
        let a: SocketAddr = "127.0.0.1:7".parse().unwrap();
        let b: SocketAddr = "[::1]:7".parse().unwrap();
        let mut shape = vec![(a, 25); 3];
        shape.extend([(a, 33), (a, 33), (b, 33), (a, 25)]);
        shape.extend(vec![(b, 25); MAX_SEGMENTS + 2]);
        // Every payload starts with its queue index.
        let queued: Vec<(SocketAddr, Vec<u8>)> = shape
            .iter()
            .enumerate()
            .map(|(i, &(dest, len))| {
                let mut bytes = vec![0; len];
                bytes[..2].copy_from_slice(&u16::try_from(i).unwrap().to_le_bytes());
                (dest, bytes)
            })
            .collect();
        let mut sends = Sends::default();
        for (dest, bytes) in &queued {
            sends.push(*dest, |buf| buf.extend_from_slice(bytes));
        }
        let cut: Vec<_> = sends.runs().map(|r| (r.dest, r.len, r.count())).collect();
        assert_eq!(
            cut,
            [
                (a, 25, 3),
                (a, 33, 2),
                (b, 33, 1),
                (a, 25, 1),
                (b, 25, MAX_SEGMENTS),
                (b, 25, 2)
            ]
        );
        let flattened: Vec<(SocketAddr, &[u8])> = sends
            .runs()
            .flat_map(|r| r.datagrams().map(move |d| (r.dest, d)))
            .collect();
        let expected: Vec<(SocketAddr, &[u8])> = queued.iter().map(|(d, b)| (*d, &b[..])).collect();
        assert_eq!(flattened, expected);
        sends.clear();
        assert_eq!(sends.runs().count(), 0);
    }

    /// `per_500ms` iterations scaled to however long the test thread
    /// actually slept, so a stretched sleep on a loaded box does not read
    /// as a busy loop.
    fn iteration_budget(per_500ms: u64, slept: Duration) -> u64 {
        let ms = u64::try_from(slept.as_millis()).unwrap();
        per_500ms * ms.max(500) / 500
    }

    /// `join` on blocked shards: one stop re-check (`MAX_BLOCK`) plus slack.
    const JOIN_LIMIT: Duration = Duration::from_millis(250);

    /// Joins `handle`, requiring it to return within [`JOIN_LIMIT`] though
    /// its shards may be blocked.
    fn timed_join(handle: HostHandle) -> (HostReport, Duration) {
        let t0 = std::time::Instant::now();
        let report = handle.join();
        let took = t0.elapsed();
        assert!(took < JOIN_LIMIT, "join took {took:?}");
        (report, took)
    }

    /// On-CPU nanoseconds so far of the process's live shard threads: the
    /// first field of `/proc/self/task/<tid>/schedstat` of every thread
    /// named `presence-shard-*` (0 where `/proc` has no such file). Tests
    /// running beside this one add their shards; run with
    /// `--test-threads=1` for a reading of one test's hosts.
    fn shard_cpu_ns() -> u64 {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return 0;
        };
        tasks
            .flatten()
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|comm| comm.starts_with("presence-shard"))
            })
            .filter_map(|task| {
                let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
                stat.split_whitespace().next()?.parse::<u64>().ok()
            })
            .sum()
    }

    /// The shard loop's idle-path gate, with the next test: a shard must
    /// block rather than poll, still fire every timer and answer every
    /// probe, and `join` must not wait for a blocked shard. Both print
    /// loop iterations/s, `join` latency and shard CPU ms/s (`cargo test
    /// --release -p presence-runtime --lib shard:: -- --nocapture`).
    #[test]
    fn idle_host_blocks_instead_of_polling_and_still_joins_promptly() {
        // No prober, no timer: nothing can wake the shards but the stop
        // re-check every MAX_BLOCK (25 iterations in 500 ms, 120/s of
        // budget; the polling loop made ~400).
        let mut host = ShardedHost::bind(&HostConfig::loopback(2)).unwrap();
        host.add_device(DeviceMachine::dcpp_paper(DeviceId(0)), None);
        let handle = host.start(Arc::new(SystemClock::new()));
        let t0 = std::time::Instant::now();
        std::thread::sleep(Duration::from_millis(500));
        let slept = t0.elapsed();
        let iterations = handle.iterations();
        let cpu_ms_per_s = shard_cpu_ns() as f64 / 1e6 / slept.as_secs_f64();
        let budget = iteration_budget(60, slept);
        // Both shards are blocked right now; the stop flag must still
        // reach them.
        let (report, join) = timed_join(handle);
        let per_s: Vec<f64> = iterations
            .iter()
            .map(|&n| n as f64 / slept.as_secs_f64())
            .collect();
        println!(
            "idle host: loop iterations/s {per_s:.0?}, join {:.1} ms, shard CPU {cpu_ms_per_s:.1} ms/s",
            join.as_secs_f64() * 1e3
        );
        assert!(
            iterations.iter().all(|&n| n <= budget),
            "idle shards iterated {iterations:?} times, budget {budget} each"
        );
        assert_eq!(report.stats, ShardStats::default());
    }

    #[test]
    fn paper_rate_pair_wakes_per_event_not_per_millisecond() {
        // The paper's own load: five paper-default DCPP CPs hold one
        // device at L_nom = 10 probes/s. Twenty probe cycles in 2 s cost
        // a few hundred iterations across both hosts (400/s of budget; the
        // polling loop made ~3 400), and blocking loses nothing.
        let cfg = DcppConfig::paper_default();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let mut devices = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        devices.add_device(DeviceMachine::dcpp_paper(DeviceId(0)), None);
        let mut cps = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        let n_cps = 5u32;
        for cp in 0..n_cps {
            cps.add_prober(
                Box::new(DcppCp::new(CpId(cp), cfg)),
                devices.addr_of(DeviceId(0)),
                DeviceId(0),
                SimTime::from_nanos(u64::from(cp) * 100_000_000),
            );
        }
        let dev_handle = devices.start(Arc::clone(&clock));
        let cp_handle = cps.start(Arc::clone(&clock));
        let t0 = std::time::Instant::now();
        std::thread::sleep(Duration::from_secs(2));
        let slept = t0.elapsed();
        let iterations = dev_handle.iterations()[0] + cp_handle.iterations()[0];
        let cpu_ms_per_s = shard_cpu_ns() as f64 / 1e6 / slept.as_secs_f64();
        let budget = iteration_budget(200, slept);

        let (cp_report, cp_join) = timed_join(cp_handle);
        settle(&dev_handle);
        let (dev_report, dev_join) = timed_join(dev_handle);

        let sent: u64 = cp_report.probers.iter().map(|p| p.stats.probes_sent).sum();
        println!(
            "paper-rate pair: loop iterations/s {:.0}, {sent} probes, join {:.1} ms, \
             shard CPU {cpu_ms_per_s:.1} ms/s",
            iterations as f64 / slept.as_secs_f64(),
            cp_join.max(dev_join).as_secs_f64() * 1e3
        );
        // Each CP owes ~2 probes a second: a loop that blocks through its
        // timers falls short.
        let owed = 1.6 * f64::from(n_cps) * slept.as_secs_f64();
        assert!(
            sent as f64 >= owed,
            "only {sent} probes in {slept:?}, owed {owed:.0}"
        );
        assert_eq!(dev_report.devices[0].probes_received, sent);
        assert!(cp_report.probers.iter().all(|p| p.verdict.is_none()));
        assert_eq!(cp_report.stats.dropped() + dev_report.stats.dropped(), 0);
        assert!(
            iterations <= budget,
            "{iterations} loop iterations for {sent} probe cycles, budget {budget}"
        );
    }

    /// A clock that advances by a fixed step on every read — models a
    /// heavily loaded host where real time passes between the prober
    /// emitting an action and the loop draining it.
    struct TickingClock {
        now: std::sync::Mutex<SimTime>,
        step: presence_des::SimDuration,
    }

    impl Clock for TickingClock {
        fn now(&self) -> SimTime {
            let mut now = self.now.lock().unwrap();
            *now += self.step;
            *now
        }
    }

    /// A call a [`TestProber`] logs: which timer fired, or a Bye.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Timer(u64),
        Bye,
    }

    /// Calls made on every [`TestProber`] sharing it, as `(cp, call)`.
    type CallLog = Arc<Mutex<Vec<(u32, Call)>>>;

    /// A prober that arms timer 1 (100 ms) at start and declares absence
    /// the instant a timer fires — exposing exactly when the shard fired
    /// it. A reply cancels timer 1 and, with `wake`, arms timer 2 (10 ms).
    /// With `panic_on_start` it takes its shard thread down instead.
    #[derive(Default)]
    struct TestProber {
        cp: u32,
        panic_on_start: bool,
        wake: bool,
        log: CallLog,
        verdict: Option<Verdict>,
        stats: CpStats,
    }

    impl TestProber {
        fn new(cp: u32, log: &CallLog) -> Self {
            Self {
                cp,
                log: Arc::clone(log),
                ..Self::default()
            }
        }
    }

    impl Prober for TestProber {
        fn cp(&self) -> CpId {
            CpId(self.cp)
        }
        fn start(&mut self, _: SimTime, out: &mut Vec<CpAction>) {
            assert!(!self.panic_on_start, "boom");
            out.push(CpAction::StartTimer {
                token: TimerToken(1),
                after: presence_des::SimDuration::from_millis(100),
            });
        }
        fn on_reply(&mut self, _: SimTime, _: &presence_core::Reply, out: &mut Vec<CpAction>) {
            out.push(CpAction::CancelTimer {
                token: TimerToken(1),
            });
            if self.wake {
                out.push(CpAction::StartTimer {
                    token: TimerToken(2),
                    after: presence_des::SimDuration::from_millis(10),
                });
            }
        }
        fn on_timer(&mut self, now: SimTime, token: TimerToken, out: &mut Vec<CpAction>) {
            self.log
                .lock()
                .unwrap()
                .push((self.cp, Call::Timer(token.0)));
            let reason = presence_core::AbsenceReason::ProbeTimeout;
            self.verdict = Some(Verdict { at: now, reason });
            out.push(CpAction::DeviceAbsent { at: now, reason });
        }
        fn on_bye(&mut self, _: SimTime, _: &mut Vec<CpAction>) {
            self.log.lock().unwrap().push((self.cp, Call::Bye));
        }
        fn stats(&self) -> &CpStats {
            &self.stats
        }
        fn verdict(&self) -> Option<Verdict> {
            self.verdict
        }
        fn current_delay(&self) -> Option<presence_des::SimDuration> {
            None
        }
    }

    fn one_shot_host(prober: TestProber) -> ShardedHost {
        let mut host = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        let nowhere = host.local_addrs()[0];
        host.add_prober(Box::new(prober), nowhere, DeviceId(0), SimTime::ZERO);
        host
    }

    /// An address no datagram of a hand-driven core reaches.
    const NOWHERE: SocketAddr = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 9));

    /// A one-shard core running `probers`, each watching device 0 from
    /// time zero: no socket, no thread, no clock.
    fn core_with(probers: impl IntoIterator<Item = TestProber>) -> ShardCore {
        let mut core = ShardCore::new(0, 1);
        for prober in probers {
            core.add_prober(Box::new(prober), NOWHERE, DeviceId(0), SimTime::ZERO);
        }
        core
    }

    /// Hands `core` one datagram, a run of one, at `now`.
    fn deliver(core: &mut ShardCore, now: SimTime, datagram: &[u8]) {
        core.on_run(now, NOWHERE, datagram, datagram.len());
    }

    fn ms(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// A bare DCPP reply to CP `cp`'s probe 0.
    fn reply_to(cp: u32) -> Vec<u8> {
        encode(&WireMessage::Reply(presence_core::Reply {
            probe: presence_core::Probe {
                cp: CpId(cp),
                seq: 0,
            },
            device: DeviceId(0),
            body: presence_core::ReplyBody::Dcpp {
                wait: presence_des::SimDuration::from_millis(10),
            },
        }))
    }

    #[test]
    fn timers_arm_at_emission_instant_not_drain_instant() {
        // Regression: with a 5 ms-per-read clock, arming at `clock.now() +
        // after` during the drain (one read later than the prober's `now`)
        // would fire the timer at start + 105 ms. The deadline must be
        // pinned to the emission instant: start + 100 ms exactly (the
        // shard reads the clock once per idle iteration, in 5 ms steps,
        // and 100 is a multiple).
        let clock = TickingClock {
            now: std::sync::Mutex::new(SimTime::ZERO),
            step: presence_des::SimDuration::from_millis(5),
        };
        let handle = one_shot_host(TestProber::default()).start(Arc::new(clock));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        // Two timers fire: the prober's start, then its timer.
        while handle.stats().timers_fired < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = handle.join();
        let fired_at = report.probers[0].verdict.expect("timer never fired").at;
        // start() saw the first clock read (5 ms); the deadline is 105 ms
        // on the absolute axis and the due-poll lands on it exactly.
        assert_eq!(
            fired_at,
            SimTime::from_nanos(105 * 1_000_000),
            "deadline drifted: fired at {} s",
            fired_at.as_secs_f64()
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn join_reraises_a_shard_panic_with_its_message() {
        let prober = TestProber {
            panic_on_start: true,
            ..TestProber::default()
        };
        let handle = one_shot_host(prober).start(Arc::new(SystemClock::new()));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !handle.threads[0].is_finished() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = handle.join();
    }

    #[test]
    fn unroutable_and_garbage_datagrams_are_counted() {
        let (sock, addr, handle) = one_device_host();
        // Garbage.
        sock.send_to(&[0xff, 0x00], addr).unwrap();
        // A valid probe followed by junk, longer than `MAX_DATAGRAM`: cut
        // to that size on receive, it would be answered.
        let mut long = addressed_probe(0);
        long.resize(300, 0xab);
        sock.send_to(&long, addr).unwrap();
        // Probe addressed to a device this host does not serve.
        let stray = encode_addressed(
            DeviceId(99),
            &WireMessage::Probe(presence_core::Probe {
                cp: CpId(1),
                seq: 1,
            }),
        );
        sock.send_to(&stray, addr).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            let s = handle.stats();
            if s.decode_errors >= 2 && s.unroutable >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = handle.join();
        assert_eq!(report.stats.decode_errors, 2);
        assert_eq!(report.stats.unroutable, 1);
        assert_eq!(report.stats.dropped(), 0);
        assert_eq!(report.devices[0].probes_received, 0, "junk was answered");
    }

    #[test]
    fn a_bye_stops_exactly_its_devices_watchers_and_the_retired_tag_stops_none() {
        // CPs 0 and 1 watch device 0, CPs 2 and 3 device 1. Time stands
        // still, so no cycle ever times out: only a datagram can stop a
        // prober.
        let mut core = ShardCore::new(0, 1);
        for cp in 0..4u32 {
            let prober = DcppCp::new(CpId(cp), DcppConfig::paper_default());
            core.add_prober(Box::new(prober), NOWHERE, DeviceId(cp / 2), SimTime::ZERO);
        }
        core.fire_due(SimTime::ZERO);

        // The 9 bytes tag 0x05 once decoded as a leave notice for device 0.
        deliver(&mut core, SimTime::ZERO, &[0x05, 0, 0, 0, 0, 7, 0, 0, 0]);
        assert_eq!(core.stats.decode_errors, 1);

        let bye = WireMessage::Bye(presence_core::Bye {
            device: DeviceId(0),
        });
        deliver(&mut core, SimTime::ZERO, &encode(&bye));

        assert_eq!(core.stats.decode_errors, 1);
        assert_eq!(core.stats.unroutable, 0);
        let (probers, _) = core.reports();
        let reasons: Vec<_> = probers
            .iter()
            .map(|p| p.verdict.map(|v| v.reason))
            .collect();
        // Had the first datagram stopped device 0's watchers, the Bye would
        // have found them stopped and their verdicts would not be its.
        let bye = Some(presence_core::AbsenceReason::ByeReceived);
        assert_eq!(reasons, [bye, bye, None, None]);
    }

    #[test]
    fn prober_timers_due_at_one_deadline_fire_in_arming_order() {
        // CP 1 is registered, so started and armed, before CP 0: both
        // timers are due at 100 ms, and CP 1's must fire first, not the
        // lower id or table index.
        let log = CallLog::default();
        let mut core = core_with([1, 0].map(|cp| TestProber::new(cp, &log)));
        assert_eq!(core.fire_due(SimTime::ZERO), 2);
        assert_eq!(core.fire_due(ms(99)), 0);
        assert_eq!(core.fire_due(ms(100)), 2);
        let fired = log.lock().unwrap().clone();
        assert_eq!(fired, [(1, Call::Timer(1)), (0, Call::Timer(1))]);
    }

    #[test]
    fn a_cancelled_timer_never_fires() {
        let log = CallLog::default();
        let mut core = core_with([TestProber::new(0, &log)]);
        assert_eq!(core.fire_due(SimTime::ZERO), 1);
        deliver(&mut core, ms(5), &reply_to(0));
        assert_eq!(core.next_deadline(), None, "the cancel left an event");
        assert_eq!(core.fire_due(SimTime::MAX), 0);
        assert!(log.lock().unwrap().is_empty());
        assert_eq!(core.stats.timers_fired, 1, "only the start");
    }

    #[test]
    fn a_replys_cancel_and_wake_count_only_the_wake() {
        let log = CallLog::default();
        let prober = TestProber {
            wake: true,
            ..TestProber::new(0, &log)
        };
        let mut core = core_with([prober]);
        assert_eq!(core.fire_due(SimTime::ZERO), 1);
        deliver(&mut core, ms(5), &reply_to(0));
        assert_eq!(core.next_deadline(), Some(ms(15)));
        assert_eq!(core.fire_due(SimTime::MAX), 1);
        assert_eq!(*log.lock().unwrap(), [(0, Call::Timer(2))]);
        assert_eq!(core.stats.timers_fired, 2, "start + wake");
    }

    #[test]
    #[should_panic(expected = "device 3 is already hosted")]
    fn a_second_device_with_a_hosted_id_is_refused() {
        // Shard 1 of 2 serves the odd ids.
        let mut core = ShardCore::new(1, 2);
        core.add_device(DeviceMachine::dcpp_paper(DeviceId(3)), None);
        core.add_device(DeviceMachine::sapp_paper(DeviceId(3)), Some(SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "CP 3 is already hosted")]
    fn a_second_prober_with_a_hosted_id_is_refused() {
        let mut core = ShardCore::new(1, 2);
        for _ in 0..2 {
            let prober = DcppCp::new(CpId(3), DcppConfig::paper_default());
            core.add_prober(Box::new(prober), NOWHERE, DeviceId(0), SimTime::ZERO);
        }
    }

    #[test]
    fn a_bye_reaches_its_devices_started_watchers_in_ascending_cp_order() {
        // Registered out of order: even CPs watch device 0, odd ones
        // device 1, and CP 8 watches device 0 but starts only at 10 s.
        let order = [5u32, 2, 7, 0, 3, 6, 1, 4, 8];
        let mut core = ShardCore::new(0, 1);
        for cp in order {
            let prober = DcppCp::new(CpId(cp), DcppConfig::paper_default());
            let start = if cp == 8 { ms(10_000) } else { SimTime::ZERO };
            core.add_prober(Box::new(prober), NOWHERE, DeviceId(cp % 2), start);
        }
        core.fire_due(SimTime::ZERO);
        let bye_0 = encode(&WireMessage::Bye(presence_core::Bye {
            device: DeviceId(0),
        }));
        deliver(&mut core, ms(1), &bye_0);
        let reasons: Vec<_> = core
            .probers
            .iter()
            .map(|slot| slot.as_ref().unwrap().prober.verdict().map(|v| v.reason))
            .collect();
        let bye = Some(presence_core::AbsenceReason::ByeReceived);
        assert_eq!(reasons, [bye, None, bye, None, bye, None, bye, None, None]);

        // Device 1's watchers keep probing: at TOF each retransmits.
        core.sends.clear();
        core.fire_due(ms(30));
        let mut probing: Vec<u32> = core
            .sends
            .runs()
            .flat_map(Run::datagrams)
            .map(|d| match decode_datagram(d).unwrap() {
                Datagram::Addressed(DeviceId(1), WireMessage::Probe(p)) => p.cp.0,
                other => panic!("unexpected datagram {other:?}"),
            })
            .collect();
        probing.sort_unstable();
        assert_eq!(probing, [1, 3, 5, 7]);

        // The fan-out walks the table: ascending CP id, whatever the
        // registration order.
        let log = CallLog::default();
        let mut core = core_with(order.map(|cp| TestProber::new(cp, &log)));
        core.fire_due(SimTime::ZERO);
        deliver(&mut core, ms(1), &bye_0);
        let called: Vec<u32> = log.lock().unwrap().iter().map(|&(cp, _)| cp).collect();
        assert_eq!(called, [0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    /// CPs, devices, verdicts, probes sent and timers fired: what the
    /// conformance suite pins per scenario.
    type Counts = (usize, usize, usize, u64, u64);

    /// Runs a device core and a prober core back to back, without a
    /// socket or a thread, in the lockstep controller's semantics: at each
    /// instant both fire what is due and every queued send is delivered,
    /// at that same instant, until none is left; then time jumps to the
    /// earliest deadline, until the next one is past `horizon`.
    fn lockstep(
        devices: Vec<(DeviceMachine, Option<SimTime>)>,
        probers: Vec<(Box<dyn Prober + Send>, SimTime)>,
        horizon: SimTime,
    ) -> Counts {
        let device_addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let cp_addr: SocketAddr = "127.0.0.1:2".parse().unwrap();
        let mut device_core = ShardCore::new(0, 1);
        for (machine, silence_at) in devices {
            device_core.add_device(machine, silence_at);
        }
        let mut cp_core = ShardCore::new(0, 1);
        for (prober, start_at) in probers {
            // Every CP watches the device with its own id.
            let target = DeviceId(prober.cp().0);
            cp_core.add_prober(prober, device_addr, target, start_at);
        }
        let mut now = SimTime::ZERO;
        loop {
            device_core.fire_due(now);
            cp_core.fire_due(now);
            while cp_core.sends.len() + device_core.sends.len() > 0 {
                hand_over(&mut cp_core, cp_addr, &mut device_core, device_addr, now);
                hand_over(&mut device_core, device_addr, &mut cp_core, cp_addr, now);
            }
            match device_core
                .next_deadline()
                .into_iter()
                .chain(cp_core.next_deadline())
                .min()
            {
                Some(next) if next <= horizon => now = next,
                _ => break,
            }
        }
        let timers = device_core.stats.timers_fired + cp_core.stats.timers_fired;
        let (cps, _) = cp_core.reports();
        let (_, devices) = device_core.reports();
        (
            cps.len(),
            devices.len(),
            cps.iter().filter(|c| c.verdict.is_some()).count(),
            cps.iter().map(|c| c.stats.probes_sent).sum(),
            timers,
        )
    }

    /// Delivers everything `from` queued to `to` at `now`, run by run.
    fn hand_over(
        from: &mut ShardCore,
        from_addr: SocketAddr,
        to: &mut ShardCore,
        to_addr: SocketAddr,
        now: SimTime,
    ) {
        for run in from.sends.runs() {
            assert_eq!(run.dest, to_addr);
            to.on_run(now, from_addr, run.bytes, run.len);
        }
        from.sends.clear();
    }

    /// The conformance catalogue's DCPP: paper defaults with the waits
    /// tightened (`bench/src/conformance.rs`, `fast_dcpp`).
    fn fast_dcpp() -> DcppConfig {
        let mut cfg = DcppConfig::paper_default();
        cfg.delta_min = presence_des::SimDuration::from_millis(20);
        cfg.d_min = presence_des::SimDuration::from_millis(100);
        cfg
    }

    #[test]
    fn two_cores_in_lockstep_reproduce_the_conformance_oracles_counts() {
        // dcpp-pair: one DCPP CP probing one present device for 5 s.
        let dcpp = fast_dcpp();
        let pair = lockstep(
            vec![(
                DeviceMachine::Dcpp(DcppDevice::new(DeviceId(0), dcpp)),
                None,
            )],
            vec![(Box::new(DcppCp::new(CpId(0), dcpp)), SimTime::ZERO)],
            ms(5_000),
        );
        assert_eq!(pair, (1, 1, 0, 51, 51), "dcpp-pair");

        // mixed-fleet: a DCPP pair and two SAPP pairs, SAPP device 2
        // departing at 900 ms, for 2 s.
        let sapp = SappConfig::paper_default();
        let mixed = lockstep(
            vec![
                (
                    DeviceMachine::Dcpp(DcppDevice::new(DeviceId(0), dcpp)),
                    None,
                ),
                (DeviceMachine::sapp_paper(DeviceId(1)), None),
                (DeviceMachine::sapp_paper(DeviceId(2)), Some(ms(900))),
            ],
            vec![
                (Box::new(DcppCp::new(CpId(0), dcpp)), SimTime::ZERO),
                (Box::new(SappCp::new(CpId(1), sapp)), ms(3)),
                (Box::new(SappCp::new(CpId(2), sapp)), ms(6)),
            ],
            ms(2_000),
        );
        assert_eq!(mixed, (3, 3, 1, 65, 67), "mixed-fleet");
    }
}
