//! Cross-crate integration tests: the full HIDE protocol driven by
//! generated traces, validated against the simulator's filtering.

use hide::prelude::*;
use hide::protocol::client::OpenPortRegistry;
use hide::traces::useful::Usefulness;
use hide::wifi::frame::BroadcastDataFrame;
use hide::wifi::udp::UdpDatagram;

fn frame_for(ap: &AccessPoint, port: u16) -> BroadcastDataFrame {
    BroadcastDataFrame::new(
        ap.bssid(),
        UdpDatagram::new([10, 0, 0, 2], [255; 4], 4000, port, vec![0; 64]),
        false,
    )
}

/// The protocol-driven wake decisions must match the simulator's
/// port-set filtering exactly: for every DTIM interval of a real trace,
/// the AP's BTIM bit for the client is set iff the interval contains a
/// frame whose port the client listens on.
#[test]
fn protocol_agrees_with_simulator_filtering() {
    let trace = Scenario::CsDept.generate(300.0, 77);
    let marking = Usefulness::port_based(&trace, 0.10);
    let useful_ports = marking.useful_ports().to_vec();
    assert!(!useful_ports.is_empty());

    let mut ap = AccessPoint::new(MacAddr::station(0));
    let mut reg = OpenPortRegistry::new();
    for &p in &useful_ports {
        reg.bind(p, [0, 0, 0, 0]).unwrap();
    }
    let mut client = HideClient::new(MacAddr::station(1), reg);
    client.set_aid(ap.associate(client.mac()).unwrap());
    client.set_bssid(ap.bssid());
    let msg = client.prepare_suspend().unwrap();
    let ack = ap
        .process_port_message(&msg, &mut ApCtx::untimed())
        .unwrap();
    client.handle_ack(&ack).unwrap();

    let beacon_interval = 0.1024;
    let intervals = (trace.duration / beacon_interval).ceil() as u64;
    let mut frame_iter = trace.frames.iter().enumerate().peekable();
    let mut protocol_wakes = 0u64;
    let mut expected_wakes = 0u64;

    for i in 0..intervals {
        let end = (i + 1) as f64 * beacon_interval;
        let mut any_useful = false;
        while let Some((idx, f)) = frame_iter.peek() {
            if f.time >= end {
                break;
            }
            ap.enqueue_broadcast(frame_for(&ap, f.dst_port));
            any_useful |= marking.is_useful(*idx);
            frame_iter.next();
        }
        // Over-the-air round trip for every beacon.
        let mut bytes = Vec::new();
        ap.dtim_beacon(i, &mut bytes);
        let decision = client
            .handle_beacon(&BeaconView::parse(&bytes).unwrap())
            .unwrap();
        let delivered = ap.deliver_broadcasts();

        if any_useful {
            expected_wakes += 1;
            assert_eq!(
                decision,
                hide::protocol::client::WakeDecision::WakeForBroadcast,
                "interval {i}: useful frame buffered but client not flagged"
            );
            // Once awake, the client consumes exactly the useful frames.
            let consumed = delivered.iter().filter(|f| client.consumes(f)).count();
            assert!(consumed > 0, "interval {i}: woke but consumed nothing");
        } else {
            assert_eq!(
                decision,
                hide::protocol::client::WakeDecision::StaySuspended,
                "interval {i}: woke for nothing"
            );
        }
        if decision == hide::protocol::client::WakeDecision::WakeForBroadcast {
            protocol_wakes += 1;
        }
    }
    assert_eq!(protocol_wakes, expected_wakes);
    assert!(expected_wakes > 0, "trace produced no useful intervals");
}

/// Many clients with overlapping port sets: every client's BTIM bit is
/// correct on every DTIM, and legacy clients always wake when anything
/// is buffered.
#[test]
fn multi_client_btim_correctness() {
    use hide::protocol::client::{LegacyClient, WakeDecision};

    let mut ap = AccessPoint::new(MacAddr::station(0));
    let port_sets: [&[u16]; 4] = [&[1900], &[5353, 1900], &[137], &[]];
    let mut clients = Vec::new();
    for (i, ports) in port_sets.iter().enumerate() {
        let mut reg = OpenPortRegistry::new();
        for &p in *ports {
            reg.bind(p, [0, 0, 0, 0]).unwrap();
        }
        let mut c = HideClient::new(MacAddr::station(i as u32 + 1), reg);
        c.set_aid(ap.associate(c.mac()).unwrap());
        c.set_bssid(ap.bssid());
        let msg = c.prepare_suspend().unwrap();
        let ack = ap
            .process_port_message(&msg, &mut ApCtx::untimed())
            .unwrap();
        c.handle_ack(&ack).unwrap();
        clients.push(c);
    }
    let mut legacy = LegacyClient::new(MacAddr::station(100));
    legacy.set_aid(ap.associate(legacy.mac()).unwrap());

    let cases: [(&[u16], [bool; 4]); 4] = [
        (&[1900], [true, true, false, false]),
        (&[137, 137], [false, false, true, false]),
        (&[5353], [false, true, false, false]),
        (&[8080], [false, false, false, false]),
    ];
    for (round, (ports, expected)) in cases.into_iter().enumerate() {
        for &p in ports {
            ap.enqueue_broadcast(frame_for(&ap, p));
        }
        let mut bytes = Vec::new();
        ap.dtim_beacon(round as u64, &mut bytes);
        let beacon = BeaconView::parse(&bytes).unwrap();
        for (c, want) in clients.iter().zip(expected) {
            let got = c.handle_beacon(&beacon).unwrap() == WakeDecision::WakeForBroadcast;
            assert_eq!(got, want, "round {round}, client {}", c.mac());
        }
        // Legacy: wakes iff anything at all is buffered.
        let legacy_wakes = legacy.handle_beacon(&beacon).unwrap() == WakeDecision::WakeForBroadcast;
        assert_eq!(legacy_wakes, !ports.is_empty(), "round {round} legacy");
        ap.deliver_broadcasts();
    }
}

/// Port changes between suspends propagate: after closing a port, the
/// AP stops flagging the client for it.
#[test]
fn port_close_propagates_on_next_sync() {
    let mut ap = AccessPoint::new(MacAddr::station(0));
    let mut reg = OpenPortRegistry::new();
    reg.bind(1900, [0, 0, 0, 0]).unwrap();
    let mut client = HideClient::new(MacAddr::station(1), reg);
    client.set_aid(ap.associate(client.mac()).unwrap());
    client.set_bssid(ap.bssid());

    let msg = client.prepare_suspend().unwrap();
    let ack = ap
        .process_port_message(&msg, &mut ApCtx::untimed())
        .unwrap();
    client.handle_ack(&ack).unwrap();

    ap.enqueue_broadcast(frame_for(&ap, 1900));
    let mut bytes = Vec::new();
    ap.dtim_beacon(0, &mut bytes);
    assert_eq!(
        client
            .handle_beacon(&BeaconView::parse(&bytes).unwrap())
            .unwrap(),
        hide::protocol::client::WakeDecision::WakeForBroadcast
    );
    ap.deliver_broadcasts();

    // The app closes the port (system resumes to process that event),
    // then the client re-syncs before suspending again.
    client.ports_mut().close(1900);
    assert!(client.needs_sync());
    let msg = client.prepare_suspend().unwrap();
    let ack = ap
        .process_port_message(&msg, &mut ApCtx::untimed())
        .unwrap();
    client.handle_ack(&ack).unwrap();

    ap.enqueue_broadcast(frame_for(&ap, 1900));
    let mut bytes = Vec::new();
    ap.dtim_beacon(1, &mut bytes);
    assert_eq!(
        client
            .handle_beacon(&BeaconView::parse(&bytes).unwrap())
            .unwrap(),
        hide::protocol::client::WakeDecision::StaySuspended
    );
}

/// The facade's prelude exposes a working end-to-end energy pipeline.
#[test]
fn prelude_pipeline_smoke() {
    let trace = Scenario::Wrl.generate(120.0, 5);
    let result = SimulationBuilder::new(&trace, GALAXY_S4)
        .solution(Solution::hide(0.05))
        .run(NoopSink)
        .unwrap();
    assert!(result.energy.breakdown.total() > 0.0);
    assert!(result.energy.suspend_fraction() > 0.0);
    let _: SimulationResult = result;
}
