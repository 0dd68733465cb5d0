//! Exact pins for the protocol-driven simulation on the canonical
//! CS_Dept trace (`canonical_traces()[1]`, the trace the `reproduce
//! ext` protocol section runs), Nexus One, useful fraction 0.10, under
//! the HIDE, legacy-PSM and default scheduled-wake policies.
//!
//! Each run pins every `ProtocolStats` field, every `EnergyReport`
//! field (the `f64`s by their bits) and the FNV-1a-64 hashes of the
//! `Recorder`'s `hide-metrics/1` JSON and of the flight recorder's
//! JSONL export. `reproduce_pins.rs` sees this run only through the
//! one-decimal text of the extensions section; these pins catch any
//! change to a wake decision, a beacon byte count or a joule.

use hide::policy::{ScheduleConfig, WakePolicy};
use hide_bench as harness;
use hide_energy::profile::NEXUS_ONE;
use hide_obs::spill::fnv1a64;
use hide_obs::{export, FlightRecorder, Recorder};
use hide_sim::protocol_sim::ProtocolSimulation;

/// What one run is pinned by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    /// `beacons, wake_intervals, frames_delivered, frames_consumed,
    /// port_messages, btim_bytes`.
    stats: [u64; 6],
    /// `f64::to_bits` of `breakdown.{beacon, frames, wakelock,
    /// state_transfer, overhead}`, `duration`, `suspend_time` and
    /// `suspend_floor_energy`.
    energy_bits: [u64; 8],
    /// `resume_count, aborted_suspends`.
    energy_counts: [u64; 2],
    /// FNV-1a-64 of the `Recorder` JSON.
    metrics_hash: u64,
    /// FNV-1a-64 of the flight recorder's JSONL.
    trace_hash: u64,
}

/// The pins, in the order `run` is called: every value was read from
/// the simulation before its beacon path was made copy-free.
const PINS: [(&str, Pin); 3] = [
    (
        "hide",
        Pin {
            stats: [26368, 2112, 5222, 2289, 270, 105472],
            energy_bits: [
                0x40407ae147ae147b,
                0x401d137fa4258dea,
                0x406379f8183f9206,
                0x4037a784d09bc0c1,
                0x3ff8fe260b2c83ec,
                0x40a5180000000000,
                0x40955801301648dc,
                0x402e0d518b62f5f2,
            ],
            energy_counts: [645, 59],
            metrics_hash: 0x8b25d5df344e77d7,
            trace_hash: 0x073f81ef9f217b65,
        },
    ),
    (
        "legacy-psm",
        Pin {
            stats: [26368, 11832, 21975, 2289, 0, 0],
            energy_bits: [
                0x40407ae147ae147b,
                0x404ce390de34794e,
                0x40745e87064ece9a,
                0x4020b0467a2bd7dc,
                0x0000000000000000,
                0x40a5180000000000,
                0x404ed0b0af5fdbc8,
                0x3fe5b1a34c5c0f76,
            ],
            energy_counts: [220, 87],
            metrics_hash: 0x006366878f2d0904,
            trace_hash: 0x165b05e165c0777d,
        },
    ),
    (
        "scheduled",
        Pin {
            stats: [26368, 3125, 21970, 2289, 0, 0],
            energy_bits: [
                0x40107ae147ae147b,
                0x405b889b2b6a1a60,
                0x40742cc59d99029f,
                0x4016fd21ff2e48e1,
                0x0000000000000000,
                0x40a5180000000000,
                0x4058251f3e89aaac,
                0x3ff0ff828a3c0da8,
            ],
            energy_counts: [160, 0],
            metrics_hash: 0x1a31b7d40581aee6,
            trace_hash: 0x2ba20a4a67150f33,
        },
    ),
];

fn run(trace: &hide_traces::Trace, policy: WakePolicy) -> Pin {
    let mut rec = Recorder::new();
    let mut flight = FlightRecorder::with_capacity(1 << 18);
    let out = ProtocolSimulation::new(trace, NEXUS_ONE, 0.10)
        .policy(policy)
        .run(&mut rec, &mut flight)
        .expect("the canonical trace runs");
    assert_eq!(flight.dropped(), 0, "the ring must hold the whole trace");
    let (s, e) = (out.stats, out.energy);
    let b = e.breakdown;
    Pin {
        stats: [
            s.beacons,
            s.wake_intervals,
            s.frames_delivered,
            s.frames_consumed,
            s.port_messages,
            s.btim_bytes,
        ],
        energy_bits: [
            b.beacon,
            b.frames,
            b.wakelock,
            b.state_transfer,
            b.overhead,
            e.duration,
            e.suspend_time,
            e.suspend_floor_energy,
        ]
        .map(f64::to_bits),
        energy_counts: [e.resume_count, e.aborted_suspends],
        metrics_hash: fnv1a64(rec.to_json().as_bytes()),
        trace_hash: fnv1a64(export::to_jsonl(&flight).as_bytes()),
    }
}

fn source(name: &str, p: &Pin) -> String {
    let hex = |v: &[u64]| {
        v.iter()
            .map(|x| format!("0x{x:016x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "    (\"{name}\", Pin {{ stats: {:?}, energy_bits: [{}], energy_counts: {:?}, \
         metrics_hash: 0x{:016x}, trace_hash: 0x{:016x} }}),\n",
        p.stats,
        hex(&p.energy_bits),
        p.energy_counts,
        p.metrics_hash,
        p.trace_hash
    )
}

#[test]
fn canonical_protocol_runs_are_pinned() {
    let traces = harness::canonical_traces();
    let policies = [
        WakePolicy::Hide,
        WakePolicy::LegacyPsm,
        WakePolicy::ScheduledWake(ScheduleConfig::default()),
    ];
    let got: Vec<(&str, Pin)> = PINS
        .iter()
        .zip(policies)
        .map(|(&(name, _), policy)| (name, run(&traces[1], policy)))
        .collect();
    let table: String = got.iter().map(|(name, p)| source(name, p)).collect();
    assert_eq!(got, PINS, "protocol runs moved; now:\n{table}");
}
