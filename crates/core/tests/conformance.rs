//! Conformance tests: the protocol constants and formulas of the paper,
//! checked symbol by symbol against the state machines.
//!
//! These are deliberately pedantic — each test pins one sentence or
//! equation from §2/§4 so that any future refactor that drifts from the
//! paper's specification fails with a pointer to the text.

use presence_core::{
    CpAction, CpId, DcppConfig, DcppDevice, DeviceId, Probe, ProbeCycleConfig, Prober, Reply,
    ReplyBody, SappConfig, SappCp, SappDevice, SappDeviceConfig,
};
use presence_des::{SimDuration, SimTime};

fn t(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

fn probe_of(out: &[CpAction]) -> Probe {
    out.iter()
        .find_map(|a| match a {
            CpAction::SendProbe(p) => Some(*p),
            _ => None,
        })
        .expect("probe emitted")
}

fn timer_delay(out: &[CpAction]) -> SimDuration {
    out.iter()
        .find_map(|a| match a {
            CpAction::StartTimer { after, .. } => Some(*after),
            _ => None,
        })
        .expect("timer armed")
}

/// §2: "Defining now Δ = L_ideal/L_nom" with the §3 values
/// "L_ideal = 10⁶ and L_nom = 10 (yielding Δ = 10⁵)".
#[test]
fn delta_formula_and_paper_value() {
    let cfg = SappDeviceConfig {
        l_ideal: 1e6,
        l_nom: 10.0,
    };
    assert_eq!(cfg.delta(), 100_000);
    // General formula on another point.
    let cfg = SappDeviceConfig {
        l_ideal: 5e5,
        l_nom: 25.0,
    };
    assert_eq!(cfg.delta(), 20_000);
}

/// §2: "On receipt of a probe, this counter is incremented by the natural
/// ∆, and a reply is sent to the probing CP with as parameter the (just
/// updated) value of pc."
#[test]
fn pc_reply_carries_post_increment_value() {
    let mut dev = SappDevice::new(DeviceId(0), SappDeviceConfig::paper_default());
    let r = dev.on_probe(
        t(0.0),
        Probe {
            cp: CpId(1),
            seq: 0,
        },
    );
    let ReplyBody::Sapp { pc, .. } = r.body else {
        panic!()
    };
    assert_eq!(
        pc, 100_000,
        "pc must be the just-updated value, not the old one"
    );
}

/// §3: "In all simulation studies in this paper TOF equals 0.022 […] and
/// TOS equals 0.021"; "Probes are retransmitted maximally three times."
#[test]
fn timeout_constants_and_retry_budget() {
    let c = ProbeCycleConfig::paper_default();
    assert_eq!(c.tof.as_secs_f64(), 0.022);
    assert_eq!(c.tos.as_secs_f64(), 0.021);
    assert_eq!(c.max_retransmissions, 3);
}

/// §3: "The values for the parameters […] are given by [1]: α_inc = 2 and
/// α_dec = 3/2. Other important parameter values […]: β = 3/2,
/// L_ideal = 10⁶ and L_nom = 10 […], δ_min = 0.02 and δ_max = 10."
#[test]
fn sapp_paper_constants() {
    let c = SappConfig::paper_default();
    assert_eq!(c.alpha_inc, 2.0);
    assert_eq!(c.alpha_dec, 1.5);
    assert_eq!(c.beta, 1.5);
    assert_eq!(c.l_ideal, 1e6);
    assert_eq!(c.delta_min.as_secs_f64(), 0.02);
    assert_eq!(c.delta_max.as_secs_f64(), 10.0);
}

/// Eq. (1), first clause: `δ' = min(α_inc · δ, δ_max) if L_exp > β·L_ideal`
/// — checked at the exact boundary: `L_exp = β·L_ideal` must NOT increase
/// (strict inequality in the paper).
#[test]
fn eq1_boundary_is_strict() {
    let mut cfg = SappConfig::paper_default();
    cfg.initial_delay = SimDuration::from_secs(1);
    let mut cp = SappCp::new(CpId(0), cfg);
    let mut out = Vec::new();
    cp.start(t(0.0), &mut out);
    let p1 = probe_of(&out);
    out.clear();
    cp.on_reply(
        t(1.0),
        &Reply {
            probe: p1,
            device: DeviceId(0),
            body: ReplyBody::Sapp {
                pc: 0,
                last_probers: [None, None],
            },
        },
        &mut out,
    );
    let wake = out
        .iter()
        .find_map(|a| match a {
            CpAction::StartTimer { token, .. } => Some(*token),
            _ => None,
        })
        .unwrap();
    out.clear();
    cp.on_timer(t(2.0), wake, &mut out);
    let p2 = probe_of(&out);
    out.clear();
    // Exactly L_exp = 1.5e6 = β·L_ideal over 1 second.
    cp.on_reply(
        t(2.0),
        &Reply {
            probe: p2,
            device: DeviceId(0),
            body: ReplyBody::Sapp {
                pc: 1_500_000,
                last_probers: [None, None],
            },
        },
        &mut out,
    );
    assert_eq!(
        cp.current_delay(),
        Some(SimDuration::from_secs(1)),
        "L_exp == β·L_ideal sits in the dead band (strict >)"
    );
}

/// §2, Fig. 1: the first cycle timeout is TOF; after a retransmission the
/// timeout is TOS.
#[test]
fn fig1_timeout_sequencing() {
    let mut cp = SappCp::new(CpId(0), SappConfig::paper_default());
    let mut out = Vec::new();
    cp.start(t(0.0), &mut out);
    assert_eq!(timer_delay(&out), SimDuration::from_millis(22));
    let tok = out
        .iter()
        .find_map(|a| match a {
            CpAction::StartTimer { token, .. } => Some(*token),
            _ => None,
        })
        .unwrap();
    out.clear();
    cp.on_timer(t(0.022), tok, &mut out);
    assert_eq!(timer_delay(&out), SimDuration::from_millis(21));
}

/// §5: "The value of δ_min has been set to 0.1, and d_min equals 0.5."
/// Derived: L_nom = 10, f_max = 2.
#[test]
fn dcpp_paper_constants() {
    let c = DcppConfig::paper_default();
    assert_eq!(c.delta_min.as_secs_f64(), 0.1);
    assert_eq!(c.d_min.as_secs_f64(), 0.5);
    assert_eq!(c.l_nom(), 10.0);
    assert_eq!(c.f_max(), 2.0);
}

/// §4: "nt′ is computed as nt′ = max{nt, t} + ∆(nt, t)" and the reply
/// parameter is "the delay nt′ − t" — checked on a concrete trace.
#[test]
fn dcpp_nt_recurrence_trace() {
    let mut dev = DcppDevice::new(DeviceId(0), DcppConfig::paper_default());
    // Probe 1 at t = 0: nt' = max(floor) = 0.5; wait = 0.5.
    let r1 = dev.on_probe(
        t(0.0),
        Probe {
            cp: CpId(1),
            seq: 0,
        },
    );
    let ReplyBody::Dcpp { wait } = r1.body else {
        panic!()
    };
    assert_eq!(wait.as_secs_f64(), 0.5);
    assert_eq!(dev.next_slot(), t(0.5));
    // Probe 2 at t = 0.2: serialised slot = 0.5 + 0.1 = 0.6; floor 0.7
    // wins: nt' = 0.7, wait = 0.5.
    let r2 = dev.on_probe(
        t(0.2),
        Probe {
            cp: CpId(2),
            seq: 0,
        },
    );
    let ReplyBody::Dcpp { wait } = r2.body else {
        panic!()
    };
    assert_eq!(wait.as_secs_f64(), 0.5);
    assert_eq!(dev.next_slot(), t(0.7));
    // Probe 3 at t = 0.21: serialised 0.8 > floor 0.71: wait = 0.59.
    let r3 = dev.on_probe(
        t(0.21),
        Probe {
            cp: CpId(3),
            seq: 0,
        },
    );
    let ReplyBody::Dcpp { wait } = r3.body else {
        panic!()
    };
    assert!((wait.as_secs_f64() - 0.59).abs() < 1e-9);
    assert_eq!(dev.next_slot(), t(0.8));
}

/// §4: "the delay between two probe cycles is now directly determined by
/// the device" — the CP arms its wake timer with exactly the replied wait.
#[test]
fn dcpp_cp_obeys_wait_verbatim() {
    use presence_core::DcppCp;
    let mut cp = DcppCp::new(CpId(4), DcppConfig::paper_default());
    let mut out = Vec::new();
    cp.start(t(0.0), &mut out);
    let probe = probe_of(&out);
    out.clear();
    let odd_wait = SimDuration::from_nanos(123_456_789);
    cp.on_reply(
        t(0.001),
        &Reply {
            probe,
            device: DeviceId(0),
            body: ReplyBody::Dcpp { wait: odd_wait },
        },
        &mut out,
    );
    assert_eq!(timer_delay(&out), odd_wait);
}

/// §2: the overlay field — "letting the device, on each probe, return the
/// ids of the last two (distinct) processes that probed it".
#[test]
fn overlay_field_is_last_two_distinct() {
    let mut dev = SappDevice::new(DeviceId(0), SappDeviceConfig::paper_default());
    dev.on_probe(
        t(0.0),
        Probe {
            cp: CpId(5),
            seq: 0,
        },
    );
    dev.on_probe(
        t(0.1),
        Probe {
            cp: CpId(5),
            seq: 1,
        },
    ); // repeat: not distinct
    dev.on_probe(
        t(0.2),
        Probe {
            cp: CpId(6),
            seq: 0,
        },
    );
    let r = dev.on_probe(
        t(0.3),
        Probe {
            cp: CpId(7),
            seq: 0,
        },
    );
    let ReplyBody::Sapp { last_probers, .. } = r.body else {
        panic!()
    };
    assert_eq!(last_probers, [Some(CpId(6)), Some(CpId(5))]);
}

/// §2: "the maximal frequency at which a CP may probe a device — given
/// that the protocol is in a stabilized situation — is given by
/// min(1/δ_min, β·L_nom)". With the paper's numbers: min(50, 15) = 15/s.
/// We check the weaker, machine-checkable half: the CP's frequency can
/// never exceed 1/δ_min.
#[test]
fn sapp_frequency_cap() {
    let cfg = SappConfig::paper_default();
    let mut cp = SappCp::new(CpId(0), cfg);
    let mut out = Vec::new();
    cp.start(t(0.0), &mut out);
    // Whatever happens, δ ≥ δ_min, so frequency ≤ 50/s.
    let frequency = 1.0 / cp.current_delay().unwrap().as_secs_f64();
    assert!(frequency <= 1.0 / cfg.delta_min.as_secs_f64() + 1e-9);
}
