//! Property-based tests of HIDE protocol invariants.

use hide_core::ap::{
    calculate_broadcast_flags, AccessPoint, ApCtx, BroadcastBuffer, ClientPortTable,
};
use hide_core::client::{HideClient, OpenPortRegistry, WakeDecision};
use hide_wifi::frame::{BeaconView, BroadcastDataFrame};
use hide_wifi::mac::{Aid, MacAddr};
use hide_wifi::udp::UdpDatagram;
use proptest::collection::vec;
use proptest::prelude::*;

fn frame(port: u16) -> BroadcastDataFrame {
    let d = UdpDatagram::new([10, 0, 0, 1], [255; 4], 4000, port, vec![]);
    BroadcastDataFrame::new(MacAddr::station(0), d, false)
}

proptest! {
    /// The fundamental correctness invariant of HIDE (Algorithm 1): a
    /// client's flag is set iff some buffered frame targets one of its
    /// open ports.
    #[test]
    fn flag_iff_listening(
        client_ports in vec(vec(1u16..200, 0..8), 1..10),
        frame_ports in vec(1u16..200, 0..20),
    ) {
        let mut table = ClientPortTable::new();
        for (i, ports) in client_ports.iter().enumerate() {
            let aid = Aid::new(i as u16 + 1).unwrap();
            table.update_client(aid, ports);
        }
        let mut buffer = BroadcastBuffer::new();
        for &p in &frame_ports {
            buffer.push(frame(p));
        }
        let flags = calculate_broadcast_flags(&buffer, &table);
        for (i, ports) in client_ports.iter().enumerate() {
            let aid = Aid::new(i as u16 + 1).unwrap();
            let expected = frame_ports.iter().any(|p| ports.contains(p));
            prop_assert_eq!(
                flags.is_set(aid),
                expected,
                "client {} ports {:?} frames {:?}",
                i + 1,
                ports,
                &frame_ports
            );
        }
    }

    /// Refresh semantics: after any sequence of updates, the table
    /// reflects exactly the most recent port set per client.
    #[test]
    fn table_reflects_latest_update(
        updates in vec((1u16..20, vec(1u16..100, 0..10)), 1..40),
    ) {
        let mut table = ClientPortTable::new();
        let mut latest: std::collections::BTreeMap<u16, Vec<u16>> = Default::default();
        for (client, ports) in &updates {
            let aid = Aid::new(*client).unwrap();
            table.update_client(aid, ports);
            let mut sorted = ports.clone();
            sorted.sort_unstable();
            sorted.dedup();
            latest.insert(*client, sorted);
        }
        for (client, ports) in &latest {
            let aid = Aid::new(*client).unwrap();
            prop_assert_eq!(table.ports_of(aid), &ports[..]);
            for &p in ports {
                prop_assert!(table.clients_for_port(p).contains(&aid));
            }
        }
        let expected_entries: usize = latest.values().map(Vec::len).sum();
        prop_assert_eq!(table.entry_count(), expected_entries);
    }

    /// End-to-end through real beacon bytes: the wake decision a client
    /// derives from the parsed beacon matches ground truth.
    #[test]
    fn wake_decision_matches_ground_truth_over_the_air(
        my_ports in vec(1u16..50, 0..6),
        frame_ports in vec(1u16..50, 0..12),
    ) {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mut reg = OpenPortRegistry::new();
        let mut bound = Vec::new();
        for p in &my_ports {
            if reg.bind(*p, [0, 0, 0, 0]).is_ok() {
                bound.push(*p);
            }
        }
        let mut client = HideClient::new(MacAddr::station(1), reg);
        client.set_aid(ap.associate(client.mac()).unwrap());
        client.set_bssid(ap.bssid());
        let msg = client.prepare_suspend().unwrap();
        let ack = ap.process_port_message(&msg, &mut ApCtx::untimed()).unwrap();
        client.handle_ack(&ack).unwrap();

        for &p in &frame_ports {
            ap.enqueue_broadcast(frame(p));
        }
        // Serialize and re-parse the beacon: the decision must survive
        // the wire format.
        let mut beacon_bytes = Vec::new();
        ap.dtim_beacon(0, &mut beacon_bytes);
        let beacon = BeaconView::parse(&beacon_bytes).unwrap();
        let decision = client.handle_beacon(&beacon).unwrap();

        let any_useful = frame_ports.iter().any(|p| bound.contains(p));
        let expected = if any_useful {
            WakeDecision::WakeForBroadcast
        } else {
            WakeDecision::StaySuspended
        };
        prop_assert_eq!(decision, expected);
    }

    /// The AP's `is_useful_for` agrees with the client's own `consumes`
    /// judgement after a successful sync — the two ends of the protocol
    /// share one definition of "useful".
    #[test]
    fn ap_and_client_agree_on_usefulness(
        my_ports in vec(1u16..50, 0..6),
        probe in 1u16..50,
    ) {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mut reg = OpenPortRegistry::new();
        for p in &my_ports {
            let _ = reg.bind(*p, [0, 0, 0, 0]);
        }
        let mut client = HideClient::new(MacAddr::station(1), reg);
        let aid = ap.associate(client.mac()).unwrap();
        client.set_aid(aid);
        client.set_bssid(ap.bssid());
        let msg = client.prepare_suspend().unwrap();
        let ack = ap.process_port_message(&msg, &mut ApCtx::untimed()).unwrap();
        client.handle_ack(&ack).unwrap();

        let f = frame(probe);
        prop_assert_eq!(ap.is_useful_for(aid, &f), client.consumes(&f));
    }

    /// Association never hands out duplicate AIDs.
    #[test]
    fn aids_unique(count in 1usize..100) {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..count {
            let aid = ap.associate(MacAddr::station(i as u32 + 1)).unwrap();
            prop_assert!(seen.insert(aid), "duplicate AID {aid}");
        }
    }

    /// Model-based fuzz of the AP: random interleavings of associate,
    /// disassociate, port sync, broadcast enqueue and DTIM beacons stay
    /// consistent with a simple reference model.
    #[test]
    fn ap_matches_reference_model(ops in vec((0u8..5, 1u32..8, 1u16..40), 1..200)) {
        use std::collections::BTreeMap;

        let mut ap = AccessPoint::new(MacAddr::station(0));
        // Reference model: mac index -> (aid, port set).
        let mut model: BTreeMap<u32, (Aid, Vec<u16>)> = BTreeMap::new();
        let mut pending_ports: Vec<u16> = Vec::new();
        let mut beacon_index = 0u64;

        for (op, who, port) in ops {
            let mac = MacAddr::station(who);
            match op {
                0 => {
                    // associate
                    let aid = ap.associate(mac).unwrap();
                    let entry = model.entry(who).or_insert((aid, Vec::new()));
                    prop_assert_eq!(entry.0, aid, "re-association changed AID");
                }
                1 => {
                    // disassociate
                    let res = ap.disassociate(mac);
                    prop_assert_eq!(res.is_ok(), model.remove(&who).is_some());
                }
                2 => {
                    // port sync (only sensible when associated)
                    if model.contains_key(&who) {
                        let msg = hide_wifi::frame::UdpPortMessage::new(
                            mac,
                            ap.bssid(),
                            [port, port + 1],
                        )
                        .unwrap();
                        ap.process_port_message(&msg, &mut ApCtx::untimed()).unwrap();
                        model.get_mut(&who).unwrap().1 = vec![port, port + 1];
                    }
                }
                3 => {
                    // broadcast arrives
                    ap.enqueue_broadcast(frame(port));
                    pending_ports.push(port);
                }
                _ => {
                    // DTIM: verify flags against the model, then drain.
                    let mut bytes = Vec::new();
                    ap.dtim_beacon(beacon_index, &mut bytes);
                    beacon_index += 1;
                    let beacon = BeaconView::parse(&bytes).unwrap();
                    let btim = beacon.btim().unwrap();
                    for (aid, ports) in model.values() {
                        let expected = pending_ports
                            .iter()
                            .any(|p| ports.contains(p));
                        prop_assert_eq!(
                            btim.is_set(*aid),
                            expected,
                            "aid {} ports {:?} pending {:?}",
                            aid,
                            ports,
                            &pending_ports
                        );
                    }
                    prop_assert_eq!(
                        beacon.tim().unwrap().broadcast_buffered(),
                        !pending_ports.is_empty()
                    );
                    ap.deliver_broadcasts();
                    pending_ports.clear();
                }
            }
            prop_assert_eq!(ap.client_count(), model.len());
        }
    }
}

/// Exhausting every AID yields a denial, and releasing one recovers.
#[test]
fn aid_exhaustion_and_recovery() {
    use hide_wifi::assoc::AssociationRequest;
    use hide_wifi::mac::MAX_AID;

    let mut ap = AccessPoint::new(MacAddr::station(0));
    for i in 1..=MAX_AID as u32 {
        ap.associate(MacAddr::station(i)).unwrap();
    }
    let overflow = MacAddr::station(MAX_AID as u32 + 1);
    assert!(ap.associate(overflow).is_err());
    let resp = ap.handle_association_request(&AssociationRequest::new(overflow, ap.bssid(), "x"));
    assert!(!resp.is_success());

    // Freeing one AID makes the next association succeed with it.
    ap.disassociate(MacAddr::station(77)).unwrap();
    let aid = ap.associate(overflow).unwrap();
    assert_eq!(aid.value(), 77);
}
