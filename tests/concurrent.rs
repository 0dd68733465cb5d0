//! Concurrency integration test: one shared AP, many client threads.
//!
//! A real AP serves stations concurrently; this test drives the
//! `AccessPoint` behind a `std::sync::Mutex` from many threads while
//! beacons fan out over `mpsc` channels, checking that the protocol
//! state (AIDs, port table, BTIM decisions) stays consistent under
//! interleaving.

use hide::protocol::ap::{AccessPoint, ApCtx};
use hide::protocol::client::{HideClient, OpenPortRegistry, WakeDecision};
use hide::wifi::frame::{BeaconView, BroadcastDataFrame};
use hide::wifi::mac::MacAddr;
use hide::wifi::udp::UdpDatagram;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

const CLIENTS: usize = 16;
/// Why `lock()` can fail: another thread panicked while holding it.
const POISONED: &str = "a thread panicked holding the AP lock";
const ROUNDS: u64 = 20;

fn frame(bssid: MacAddr, port: u16) -> BroadcastDataFrame {
    BroadcastDataFrame::new(
        bssid,
        UdpDatagram::new([10, 0, 0, 3], [255; 4], 4000, port, vec![0; 32]),
        false,
    )
}

#[test]
fn concurrent_clients_sync_and_decide_consistently() {
    let ap = Arc::new(Mutex::new(AccessPoint::new(MacAddr::station(0))));

    // Each client listens on its own exclusive port 1000 + i.
    let mut beacon_txs = Vec::new();
    let (result_tx, result_rx) = mpsc::channel::<(usize, u64, WakeDecision)>();
    let mut handles = Vec::new();

    for i in 0..CLIENTS {
        let (btx, brx) = mpsc::channel::<Vec<u8>>();
        beacon_txs.push(btx);
        let ap = Arc::clone(&ap);
        let result_tx = result_tx.clone();
        handles.push(thread::spawn(move || {
            let mut registry = OpenPortRegistry::new();
            registry.bind(1000 + i as u16, [0, 0, 0, 0]).unwrap();
            let mut client = HideClient::new(MacAddr::station(i as u32 + 1), registry);

            // Associate and run the Fig. 2 handshake under the lock.
            {
                let mut ap = ap.lock().expect(POISONED);
                let aid = ap.associate(client.mac()).unwrap();
                client.set_aid(aid);
                client.set_bssid(ap.bssid());
                let msg = client.prepare_suspend().unwrap();
                let ack = ap
                    .process_port_message(&msg, &mut ApCtx::untimed())
                    .unwrap();
                client.handle_ack(&ack).unwrap();
            }

            // Receive beacons off the air and report decisions.
            for (round, bytes) in brx.iter().enumerate() {
                let beacon = BeaconView::parse(&bytes).unwrap();
                let decision = client.handle_beacon(&beacon).unwrap();
                result_tx.send((i, round as u64, decision)).unwrap();
            }
        }));
    }
    drop(result_tx);

    // Wait until every client is associated and synced.
    loop {
        let ap = ap.lock().expect(POISONED);
        if ap.client_count() == CLIENTS && ap.port_table().client_count() == CLIENTS {
            break;
        }
        drop(ap);
        thread::yield_now();
    }

    // Each round targets exactly one client's port.
    for round in 0..ROUNDS {
        let target = (round as usize * 7 + 3) % CLIENTS;
        let bytes = {
            let mut ap = ap.lock().expect(POISONED);
            let bssid = ap.bssid();
            ap.enqueue_broadcast(frame(bssid, 1000 + target as u16));
            let mut beacon = Vec::new();
            ap.dtim_beacon(round, &mut beacon);
            ap.deliver_broadcasts();
            beacon
        };
        for btx in &beacon_txs {
            btx.send(bytes.clone()).unwrap();
        }
    }
    drop(beacon_txs);

    // Collect CLIENTS * ROUNDS decisions and verify each.
    let mut seen = 0;
    for (client_idx, round, decision) in result_rx.iter() {
        let target = (round as usize * 7 + 3) % CLIENTS;
        let expected = if client_idx == target {
            WakeDecision::WakeForBroadcast
        } else {
            WakeDecision::StaySuspended
        };
        assert_eq!(
            decision, expected,
            "round {round}: client {client_idx} (target {target})"
        );
        seen += 1;
    }
    assert_eq!(seen, CLIENTS * ROUNDS as usize);

    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn access_point_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AccessPoint>();
    assert_send_sync::<HideClient>();
}

#[test]
fn concurrent_port_updates_leave_table_consistent() {
    let ap = Arc::new(Mutex::new(AccessPoint::new(MacAddr::station(0))));
    let mut handles = Vec::new();
    for i in 0..8u32 {
        let ap = Arc::clone(&ap);
        handles.push(thread::spawn(move || {
            let mac = MacAddr::station(i + 1);
            let bssid = ap.lock().expect(POISONED).bssid();
            let mut registry = OpenPortRegistry::new();
            registry.bind(2000 + i as u16, [0, 0, 0, 0]).unwrap();
            let mut client = HideClient::new(mac, registry);
            {
                let mut guard = ap.lock().expect(POISONED);
                client.set_aid(guard.associate(mac).unwrap());
            }
            client.set_bssid(bssid);
            // Churn the port set repeatedly from this thread.
            for round in 0..50u16 {
                client.ports_mut().close(3000 + i as u16 * 100 + round);
                client
                    .ports_mut()
                    .bind(3000 + i as u16 * 100 + round, [0, 0, 0, 0])
                    .unwrap();
                let msg = client.prepare_suspend().unwrap();
                let mut guard = ap.lock().expect(POISONED);
                let ack = guard
                    .process_port_message(&msg, &mut ApCtx::untimed())
                    .unwrap();
                drop(guard);
                client.handle_ack(&ack).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let guard = ap.lock().expect(POISONED);
    // Every client's final sync is reflected: 8 clients, each with its
    // initial port plus 50 churned ports.
    assert_eq!(guard.port_table().client_count(), 8);
    assert_eq!(guard.port_table().entry_count(), 8 * 51);
    assert_eq!(guard.port_messages_received(), 8 * 50);
}
