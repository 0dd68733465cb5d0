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
use hide_core::ap::{AccessPoint, ApCtx, BeaconMode};
use hide_core::client::{HideClient, OpenPortRegistry};
use hide_energy::profile::NEXUS_ONE;
use hide_obs::spill::{fnv1a64, fnv1a64_extend};
use hide_obs::{export, FlightRecorder, Recorder};
use hide_sim::protocol_sim::ProtocolSimulation;
use hide_traces::useful::Usefulness;
use hide_wifi::frame::{BroadcastDataFrame, UdpPortMessage};
use hide_wifi::mac::MacAddr;
use hide_wifi::udp::UdpDatagram;

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

/// What a run's beacons are pinned by: the count, the total and the
/// shortest and longest length in bytes, and FNV-1a-64 over the
/// concatenated frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BeaconPin {
    beacons: u64,
    bytes: u64,
    shortest: usize,
    longest: usize,
    hash: u64,
}

impl BeaconPin {
    fn new() -> Self {
        BeaconPin {
            beacons: 0,
            bytes: 0,
            shortest: usize::MAX,
            longest: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn add(&mut self, beacon: &[u8]) {
        self.beacons += 1;
        self.bytes += beacon.len() as u64;
        self.shortest = self.shortest.min(beacon.len());
        self.longest = self.longest.max(beacon.len());
        self.hash = fnv1a64_extend(self.hash, beacon);
    }
}

/// Every beacon the AP sends over canonical CS_Dept with the protocol
/// run's one client (AID 1): each DTIM beacon, plus a non-DTIM beacon
/// every fifth interval.
fn canonical_beacons(mode: BeaconMode) -> BeaconPin {
    let trace = &harness::canonical_traces()[1];
    let mut ap = AccessPoint::new(MacAddr::station(0));
    ap.set_beacon_mode(mode);
    let mut registry = OpenPortRegistry::new();
    for &port in Usefulness::port_based(trace, 0.10).useful_ports() {
        registry.bind(port, [0, 0, 0, 0]).expect("fresh port");
    }
    let mut client = HideClient::new(MacAddr::station(1), registry);
    client.set_aid(ap.associate(client.mac()).expect("a free AID"));
    client.set_bssid(ap.bssid());
    if mode == BeaconMode::Btim {
        let msg = client.prepare_suspend().expect("associated");
        ap.process_port_message(&msg, &mut ApCtx::untimed())
            .expect("associated");
    }
    let interval = hide_wifi::timing::TIME_UNIT_SECS * 100.0;
    let intervals = (trace.duration / interval).ceil() as u64;
    let mut frames = trace.frames.iter().peekable();
    let mut pin = BeaconPin::new();
    let mut beacon = Vec::new();
    for i in 0..intervals {
        let end = i as f64 * interval + interval;
        while let Some(f) = frames.next_if(|f| f.time < end) {
            let body = UdpDatagram::new(
                [10, 0, 0, 2],
                [255; 4],
                4000,
                f.dst_port,
                vec![0; (f.len_bytes as usize).saturating_sub(60)],
            );
            ap.enqueue_broadcast(BroadcastDataFrame::from_raw_body(
                ap.bssid(),
                body.to_bytes(),
                false,
            ));
        }
        ap.dtim_beacon(i, &mut beacon);
        pin.add(&beacon);
        if i % 5 == 0 {
            ap.beacon(i, 1, &mut beacon);
            pin.add(&beacon);
        }
        ap.deliver_broadcasts();
    }
    pin
}

/// Beacons that exercise the Fig. 5 trimming: 2 007 clients (AIDs
/// 1..=2007) with ports spread so that a frame flags from a few dozen
/// to every client, and unicast traffic buffered for AIDs on the word
/// edges and in the tail of the virtual bitmap. DTIM period 3: each
/// round sends its DTIM beacon and both non-DTIM beacons.
fn dense_beacons(mode: BeaconMode) -> BeaconPin {
    const EDGES: [u32; 8] = [1, 63, 64, 65, 1983, 1984, 1985, 2007];
    let bssid = MacAddr::station(0);
    let mut ap = AccessPoint::new(bssid);
    ap.set_ssid("corp-wifi").expect("9 octets fit");
    ap.set_dtim_period(3);
    ap.set_beacon_mode(mode);
    for n in 1..=2007u32 {
        let mac = MacAddr::station(n);
        assert_eq!(ap.associate(mac).expect("a free AID").value(), n as u16);
        let ports = [10_000 + (n / 64) as u16, 20_000 + (n % 7) as u16];
        let msg = UdpPortMessage::new(mac, bssid, ports).expect("two ports fit");
        ap.process_port_message(&msg, &mut ApCtx::untimed())
            .expect("associated");
    }
    let mut pin = BeaconPin::new();
    let mut beacon = Vec::new();
    for r in 0..97u64 {
        let ports: Vec<u64> = match r % 11 {
            0 => vec![],
            5 => vec![20_000 + r % 7],
            7 => vec![9],
            _ if r % 3 == 0 => vec![10_000 + r * 13 % 32, 10_000 + r * 5 % 32],
            _ => vec![10_000 + r * 13 % 32],
        };
        for port in ports {
            let dgram = UdpDatagram::new([10, 0, 0, 2], [255; 4], 4000, port as u16, vec![0; 40]);
            ap.enqueue_broadcast(BroadcastDataFrame::new(bssid, dgram, false));
        }
        let unicast: Vec<u32> = if r % 4 == 0 {
            let k = (r / 4) as usize;
            vec![EDGES[k % 8], EDGES[(k + 3) % 8]]
        } else {
            vec![(r * 331 % 2007 + 1) as u32]
        };
        for &n in &unicast {
            ap.buffer_unicast(MacAddr::station(n)).expect("associated");
        }
        ap.dtim_beacon(r, &mut beacon);
        pin.add(&beacon);
        for dtim_count in [1, 2] {
            ap.beacon(r, dtim_count, &mut beacon);
            pin.add(&beacon);
        }
        ap.deliver_broadcasts();
        for &n in &unicast {
            ap.ps_poll(MacAddr::station(n)).expect("associated");
        }
    }
    pin
}

/// The beacon pins, read from the AP before it wrote its beacons
/// straight into a caller's buffer.
const BEACON_PINS: [(&str, BeaconPin); 4] = [
    (
        "canonical btim",
        BeaconPin {
            beacons: 31_642,
            bytes: 1_961_804,
            shortest: 62,
            longest: 62,
            hash: 0x39650f73ed35fa15,
        },
    ),
    (
        "canonical tim-only",
        BeaconPin {
            beacons: 31_642,
            bytes: 1_835_236,
            shortest: 58,
            longest: 58,
            hash: 0x215856f8031480e5,
        },
    ),
    (
        "dense btim",
        BeaconPin {
            beacons: 291,
            bytes: 36_300,
            shortest: 63,
            longest: 555,
            hash: 0xde034e0be2e5eba5,
        },
    ),
    (
        "dense tim-only",
        BeaconPin {
            beacons: 291,
            bytes: 30_486,
            shortest: 59,
            longest: 307,
            hash: 0xba1d4016c0ccd7e9,
        },
    ),
];

fn beacon_pin(name: &str) -> BeaconPin {
    BEACON_PINS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, pin)| pin)
        .expect("a pinned run")
}

#[test]
fn canonical_beacon_bytes_are_pinned() {
    let btim = canonical_beacons(BeaconMode::Btim);
    let tim_only = canonical_beacons(BeaconMode::TimOnly);
    assert_eq!(btim, beacon_pin("canonical btim"), "BTIM mode: {btim:x?}");
    assert_eq!(
        tim_only,
        beacon_pin("canonical tim-only"),
        "TIM-only: {tim_only:x?}"
    );
}

#[test]
fn dense_beacon_bytes_are_pinned() {
    let btim = dense_beacons(BeaconMode::Btim);
    let tim_only = dense_beacons(BeaconMode::TimOnly);
    assert_eq!(btim, beacon_pin("dense btim"), "BTIM mode: {btim:x?}");
    assert_eq!(
        tim_only,
        beacon_pin("dense tim-only"),
        "TIM-only: {tim_only:x?}"
    );
}
