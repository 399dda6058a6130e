//! The reconciliation tables: "where do the ns go", produced from outside.
//! Each row is one kernel's ns/op times how often the workload performs
//! that operation per event (or per probe); the rows sum to the model, and
//! what the measured figure has beyond the model is the residual row. The
//! residual is everything no kernel stands for: actor glue, cache misses
//! the isolated kernels do not suffer, recorder bookkeeping, the shard
//! loop's own control flow.

use crate::measure::{median, Report};
use crate::{sim_hub, sim_mega, udp_fleet, udp_serve};

pub struct Table {
    pub title: &'static str,
    /// What one unit of the measured figure is: `event` or `probe`.
    pub unit: &'static str,
    pub measured_ns: f64,
    /// (kernel name, ns per op, ops per unit).
    pub rows: Vec<(&'static str, f64, f64)>,
}

impl Table {
    pub fn model_ns(&self) -> f64 {
        self.rows.iter().map(|(_, ns, ops)| ns * ops).sum()
    }

    pub fn residual_ns(&self) -> f64 {
        self.measured_ns - self.model_ns()
    }

    pub fn print(&self) {
        println!();
        println!(
            "{} — measured {:.1} ns per {}",
            self.title, self.measured_ns, self.unit
        );
        println!(
            "  {:<40} {:>10} {:>12} {:>10} {:>7}",
            "layer",
            "ns/op",
            format!("ops/{}", self.unit),
            "product",
            "share"
        );
        let share = |ns: f64| 100.0 * ns / self.measured_ns;
        for (name, ns, ops) in &self.rows {
            println!(
                "  {:<40} {:>10.1} {:>12.4} {:>10.1} {:>6.1}%",
                name,
                ns,
                ops,
                ns * ops,
                share(ns * ops)
            );
        }
        println!(
            "  {:<40} {:>10} {:>12} {:>10.1} {:>6.1}%",
            "model (sum of the rows)",
            "",
            "",
            self.model_ns(),
            share(self.model_ns())
        );
        println!(
            "  {:<40} {:>10} {:>12} {:>10.1} {:>6.1}%",
            "residual (measured - model)",
            "",
            "",
            self.residual_ns(),
            share(self.residual_ns())
        );
    }
}

/// `sim-hub`, per processed event. The dispatch kernel already holds one
/// queue pop and one push at depth 64, so `des.heap.push_pop_ns` is not a
/// row of its own; an accepted reply moves its timeout to the wake instant
/// in place, one reschedule on top.
pub fn hub(kernels: &Report, survey: &sim_hub::Survey) -> Table {
    let row = |name: &'static str, ops: f64| (name, kernels.get(name), ops);
    let ops = sim_hub::op_rates(&survey.reference);
    Table {
        title: "sim-hub",
        unit: "event",
        measured_ns: survey.reference.ns_per_event(),
        rows: vec![
            row("des.engine.dispatch_ns", 1.0),
            row("des.heap.reschedule_ns", survey.timers.cancels),
            row("des.timer_slots.insert_remove_ns", survey.timers.arms),
            row("net.fabric.send_three_mode_ns", ops.offered_three_mode),
            row("net.fabric.send_bernoulli_ns", ops.offered_bernoulli),
            row("core.dcpp.device_on_probe_ns", ops.dcpp_probes),
            row("core.sapp.device_on_probe_ns", ops.sapp_probes),
            row("core.dcpp.cp_cycle_ns", ops.dcpp_cycles),
            row("core.sapp.cp_cycle_ns", ops.sapp_cycles),
            row("core.dcpp.cp_timeout_ns", ops.retransmissions),
            // One processing-time draw per probe served (the fabric's own
            // draws are inside its kernel).
            row("des.rng.draw_ns", ops.dcpp_probes + ops.sapp_probes),
            // One frequency sample per completed cycle.
            row(
                "stats.timeseries.push_ns",
                ops.dcpp_cycles + ops.sapp_cycles,
            ),
        ],
    }
}

/// `sim-mega`, per processed event: a cycle is three events (wake, probe
/// arrival, reply arrival), draws three delays, cancels one timeout and
/// feeds one Welford and two P² accumulators.
pub fn mega(kernels: &Report, run: &sim_mega::MegaRun) -> Table {
    let row = |name: &'static str, ops: f64| (name, kernels.get(name), ops);
    let events = run.result.events_processed as f64;
    let cycles = run.result.cycles_succeeded as f64 / events;
    Table {
        title: "sim-mega",
        unit: "event",
        measured_ns: run.ns_per_event(),
        rows: vec![
            row("des.calendar.push_pop_ns", 1.0),
            row("des.calendar.cancel_ns", cycles),
            row("des.rng.draw_ns", 3.0 * cycles),
            row("stats.welford.push_ns", cycles),
            row("stats.p2.push_ns", 2.0 * cycles),
        ],
    }
}

/// The device side of one probe: receive, decode, read the clock, run the
/// machine, encode the reply, send.
fn device_side(kernels: &Report) -> Vec<(&'static str, f64, f64)> {
    let row = |name: &'static str, ops: f64| (name, kernels.get(name), ops);
    vec![
        row("runtime.syscall.recv_from_ns", 1.0),
        row("runtime.codec.decode_probe_addressed_ns", 1.0),
        row("runtime.clock.now_ns", 1.0),
        row("core.dcpp.device_on_probe_ns", 1.0),
        row("runtime.codec.encode_reply_dcpp_ns", 1.0),
        row("runtime.syscall.send_to_ns", 1.0),
    ]
}

/// `udp-serve`, shard CPU per probe answered.
pub fn serve(kernels: &Report, pass: &udp_serve::Pass) -> Table {
    Table {
        title: "udp-serve (device shard CPU)",
        unit: "probe",
        measured_ns: median(&pass.cpu_us_per_probe) * 1e3,
        rows: device_side(kernels),
    }
}

/// `udp-fleet`, both shards' CPU per cycle: the device side plus, on the CP
/// side, the reply's receive and decode, the machine's `on_reply` and
/// `on_timer`, the probe's encode and send, two timers armed (timeout,
/// wake), one cancelled and one fired.
pub fn fleet(kernels: &Report, pass: &udp_fleet::Pass) -> Table {
    let row = |name: &'static str, ops: f64| (name, kernels.get(name), ops);
    let mut rows = device_side(kernels);
    for row in &mut rows {
        if row.0.starts_with("runtime.syscall") || row.0 == "runtime.clock.now_ns" {
            row.2 = 2.0;
        }
    }
    rows.extend([
        row("runtime.codec.decode_reply_dcpp_ns", 1.0),
        row("core.dcpp.cp_cycle_ns", 1.0),
        row("runtime.codec.encode_probe_addressed_ns", 1.0),
        row("runtime.wheel.insert_ns", 2.0),
        row("runtime.wheel.cancel_ns", 1.0),
        row("runtime.wheel.pop_due_ns", 1.0),
    ]);
    Table {
        title: "udp-fleet (both shards' CPU)",
        unit: "probe",
        measured_ns: median(&pass.cpu_us_per_cycle) * 1e3,
        rows,
    }
}
