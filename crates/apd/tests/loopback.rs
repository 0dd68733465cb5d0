//! Loopback integration: the daemon, fed the real wire formats over
//! UDP, must land in exactly the state an offline [`AccessPoint`]
//! replay of the same operations lands in — proven byte-for-byte on
//! the canonical `hide-apsnap/1` serialization.

use hide_apd::ctrl::{CtrlRequest, CtrlResponse};
use hide_apd::{ApdConfig, ApdError, ApdSnapshot, DaemonHandle};
use hide_core::ap::{AccessPoint, ApCtx};
use hide_wifi::assoc::{AssociationRequest, Disassociation};
use hide_wifi::frame::{Ack, AnyFrame, BeaconView, BroadcastDataFrame, UdpPortMessage};
use hide_wifi::mac::MacAddr;
use hide_wifi::udp::UdpDatagram;
use std::net::UdpSocket;
use std::time::Duration;

fn client_socket(target: std::net::SocketAddr) -> UdpSocket {
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    socket.connect(target).unwrap();
    socket
}

fn recv_frame(socket: &UdpSocket) -> AnyFrame {
    let mut buf = [0u8; 65536];
    let len = socket.recv(&mut buf).unwrap();
    AnyFrame::parse(&buf[..len]).unwrap()
}

/// Replays a lockstep (ACK-waited) client workload against the daemon
/// and the identical operation sequence against an offline AP; their
/// canonical snapshots must be byte-identical.
#[test]
fn daemon_state_equals_offline_replay() {
    let handle = DaemonHandle::spawn(ApdConfig::new()).unwrap();
    let socket = client_socket(handle.data_addr());
    let bssid = MacAddr::station(0);

    let mut offline = AccessPoint::with_aid_range(bssid, 1, 2007).unwrap();
    offline.set_ssid("hide").unwrap();
    offline.set_dtim_period(1);

    // A workload touching every state transition the snapshot captures:
    // association (HIDE and legacy), port refreshes, re-refreshes with
    // different port sets, and a disassociation that frees an AID.
    for i in 0..12u32 {
        let mac = MacAddr::station(1 + i);
        let req = AssociationRequest::new(mac, bssid, "hide");
        let req = if i % 3 != 2 {
            req.with_hide_support()
        } else {
            req
        };
        socket.send(&req.to_bytes()).unwrap();
        let AnyFrame::AssociationResponse(resp) = recv_frame(&socket) else {
            panic!("expected an association response");
        };
        assert!(resp.is_success());
        let offline_resp = offline.handle_association_request(&req);
        assert_eq!(offline_resp.to_bytes(), resp.to_bytes());
    }
    for round in 0..3u16 {
        for i in 0..12u32 {
            if i % 3 == 2 {
                continue; // legacy clients don't send port messages
            }
            let mac = MacAddr::station(1 + i);
            let ports = (0..=(i as u16 % 5)).map(|p| 5000 + 100 * round + 7 * p);
            let msg = UdpPortMessage::new(mac, bssid, ports)
                .unwrap()
                .with_seq(round);
            socket.send(&msg.to_bytes()).unwrap();
            let AnyFrame::Ack(ack) = recv_frame(&socket) else {
                panic!("expected an ack");
            };
            let offline_ack = offline
                .process_port_message(&msg, &mut ApCtx::untimed())
                .unwrap();
            assert_eq!(offline_ack.to_bytes(), ack.to_bytes());
        }
    }
    // Disassociate one client; the freed AID must round-trip too.
    let notice = Disassociation::new(MacAddr::station(4), bssid, 8);
    socket.send(&notice.to_bytes()).unwrap();
    offline.handle_disassociation(&notice).unwrap();
    // Lockstep barrier: the daemon answers a later port message only
    // after the (unacked) disassociation is processed, because both
    // route to the same shard... but with multiple clients per shard
    // ordering still holds per-socket. Ping the state until it settles.
    wait_until(|| handle.stats().unwrap().shards.disassociations == 1);

    let daemon_snap = handle.snapshot().unwrap();
    assert_eq!(daemon_snap.shards.len(), 1);
    assert_eq!(
        daemon_snap.shards[0].to_bytes(),
        offline.snapshot().to_bytes(),
        "daemon state diverged from the offline replay"
    );

    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.shards.associations, 12);
    assert_eq!(stats.shards.port_messages, 24);
    assert_eq!(stats.parse_errors, 0);
}

/// Snapshot written at shutdown restores into an identical daemon.
#[test]
fn shutdown_snapshot_restores_byte_identically() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("apd_loopback_restore_{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let cfg = ApdConfig::new().shards(2).snapshot_path(path.clone());
    let handle = DaemonHandle::spawn(cfg.clone()).unwrap();
    let socket = client_socket(handle.data_addr());
    for i in 0..6u32 {
        let req = AssociationRequest::new(MacAddr::station(1 + i), MacAddr::station(0), "hide")
            .with_hide_support();
        socket.send(&req.to_bytes()).unwrap();
        recv_frame(&socket);
        let msg =
            UdpPortMessage::new(MacAddr::station(1 + i), MacAddr::station(0), [5353]).unwrap();
        socket.send(&msg.to_bytes()).unwrap();
        recv_frame(&socket);
    }
    let live = handle.snapshot().unwrap();
    handle.shutdown().unwrap();

    let written = ApdSnapshot::parse(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(written, live);

    // Respawn restoring from the file: state must carry over exactly.
    let restored = DaemonHandle::spawn(cfg.restore(true)).unwrap();
    let after = restored.snapshot().unwrap();
    assert_eq!(after.to_bytes(), live.to_bytes());
    let stats = restored.stats().unwrap();
    assert_eq!(stats.shards.clients, 6);
    restored.shutdown().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// A snapshot file whose SSID is longer than 802.11's 32 octets is
/// refused at start, by the library and by `hide-apd --restore`, before
/// any shard could write it into a beacon; 32 octets restore and tick.
#[test]
fn restore_bounds_the_ssid_at_32_octets() {
    let path = std::env::temp_dir().join(format!(
        "apd_loopback_long_ssid_{}.snap",
        std::process::id()
    ));
    let handle = DaemonHandle::spawn(ApdConfig::new()).unwrap();
    let text = String::from_utf8(handle.snapshot().unwrap().to_bytes()).unwrap();
    handle.shutdown().unwrap();
    let with_ssid = |octets: usize| {
        let line = format!("ssid {}\n", "78".repeat(octets));
        let edited = text.replace("ssid 68696465\n", &line);
        assert_ne!(edited, text, "the default SSID line is replaced");
        edited
    };
    let cfg = ApdConfig::new().snapshot_path(path.clone()).restore(true);

    std::fs::write(&path, with_ssid(300)).unwrap();
    match DaemonHandle::spawn(cfg.clone()) {
        Err(ApdError::Snapshot(msg)) => assert!(msg.contains("300 octets"), "{msg}"),
        Err(e) => panic!("expected a snapshot error, got {e}"),
        Ok(_) => panic!("a 300-octet SSID restored"),
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hide-apd"))
        .arg("--snapshot")
        .arg(&path)
        .arg("--restore")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));

    std::fs::write(&path, with_ssid(32)).unwrap();
    let restored = DaemonHandle::spawn(cfg).unwrap();
    restored.tick(1).unwrap();
    assert_eq!(restored.stats().unwrap().shards.beacons, 1);
    restored.shutdown().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// The control socket speaks the whole protocol over the wire.
#[test]
fn ctrl_socket_serves_the_protocol() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("apd_loopback_ctrl_{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let handle = DaemonHandle::spawn(ApdConfig::new().snapshot_path(path.clone())).unwrap();
    let ctrl = client_socket(handle.ctrl_addr());
    let mut buf = [0u8; 65536];
    let mut ask = |req: CtrlRequest| -> CtrlResponse {
        ctrl.send(req.encode().as_bytes()).unwrap();
        let len = ctrl.recv(&mut buf).unwrap();
        CtrlResponse::parse(std::str::from_utf8(&buf[..len]).unwrap()).unwrap()
    };

    assert_eq!(ask(CtrlRequest::Ping), CtrlResponse::pong());
    match ask(CtrlRequest::Ping) {
        CtrlResponse::Pong { version } => {
            assert_eq!(version, hide_apd::CTRL_PROTOCOL_VERSION);
        }
        other => panic!("ping failed: {other:?}"),
    }
    assert!(matches!(ask(CtrlRequest::Tick(3)), CtrlResponse::Ok(_)));
    match ask(CtrlRequest::Health) {
        CtrlResponse::Ok(json) => {
            assert!(json.contains("\"schema\": \"hide-apd-health/1\""));
            assert_eq!(hide_apd::parse_health_shards(&json).len(), 1);
        }
        other => panic!("health failed: {other:?}"),
    }
    match ask(CtrlRequest::Expo) {
        CtrlResponse::Ok(text) => {
            assert!(text.contains("hide_apd_frames_received_total"));
        }
        other => panic!("expo failed: {other:?}"),
    }
    // Unknown verbs come back with the stable error code.
    {
        let mut raw = [0u8; 512];
        ctrl.send(b"launch-missiles").unwrap();
        let len = ctrl.recv(&mut raw).unwrap();
        let text = std::str::from_utf8(&raw[..len]).unwrap();
        assert!(
            text.starts_with("err:unknown-command"),
            "unexpected reply {text:?}"
        );
    }
    match ask(CtrlRequest::Stats) {
        CtrlResponse::Ok(line) => assert!(line.contains("beacons=3"), "{line}"),
        other => panic!("stats failed: {other:?}"),
    }
    match ask(CtrlRequest::Metrics) {
        CtrlResponse::Ok(json) => {
            assert!(json.contains("\"schema\": \"hide-metrics/1\""));
            assert!(json.contains("\"daemon\": {"));
        }
        other => panic!("metrics failed: {other:?}"),
    }
    match ask(CtrlRequest::Snapshot) {
        CtrlResponse::Ok(reply_path) => {
            let bytes = std::fs::read(&reply_path).unwrap();
            ApdSnapshot::parse(&bytes).unwrap();
        }
        other => panic!("snapshot failed: {other:?}"),
    }
    assert!(matches!(ask(CtrlRequest::Shutdown), CtrlResponse::Ok(_)));
    handle.wait_for_shutdown_request();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// Backpressure: flooding broadcast data past the watermark drops
/// frames instead of growing the queue without bound, and never drops
/// management traffic.
#[test]
fn backpressure_drops_data_not_management() {
    let handle = DaemonHandle::spawn(ApdConfig::new().backpressure_watermark(1)).unwrap();
    let socket = client_socket(handle.data_addr());

    // Associate first — management must survive the later flood.
    let mac = MacAddr::station(1);
    let req = AssociationRequest::new(mac, MacAddr::station(0), "hide").with_hide_support();
    socket.send(&req.to_bytes()).unwrap();
    recv_frame(&socket);

    let data = hide_wifi::frame::BroadcastDataFrame::new(
        MacAddr::station(0),
        hide_wifi::udp::UdpDatagram::new([10, 0, 0, 2], [255; 4], 4000, 1900, vec![0; 64]),
        false,
    );
    let bytes = data.to_bytes();
    for _ in 0..2000 {
        socket.send(&bytes).unwrap();
    }
    // Wait for the flood to drain out of the kernel and the router
    // (the loopback socket buffer may itself drop datagrams, so wait
    // for the received count to go quiet rather than hit a total).
    let mut last = 0u64;
    wait_until(|| {
        let now = handle.stats().unwrap().frames_received;
        let quiet = now == last;
        last = now;
        quiet && now > 1
    });

    // A port message must still get through and be acked — resend if
    // the kernel dropped it while its buffer was full.
    let msg = UdpPortMessage::new(mac, MacAddr::station(0), [5353]).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_millis(250)))
        .unwrap();
    let mut acked = false;
    for _ in 0..20 {
        socket.send(&msg.to_bytes()).unwrap();
        let mut buf = [0u8; 65536];
        if let Ok(len) = socket.recv(&mut buf) {
            if matches!(AnyFrame::parse(&buf[..len]).unwrap(), AnyFrame::Ack(_)) {
                acked = true;
                break;
            }
        }
    }
    assert!(acked, "management traffic must survive a broadcast flood");

    let stats = handle.stats().unwrap();
    assert!(
        stats.dropped_backpressure > 0,
        "watermark 1 should have dropped some of 2000 flood frames \
         (received {}, enqueued {}, dropped {})",
        stats.frames_received,
        stats.shards.broadcasts_enqueued,
        stats.dropped_backpressure
    );
    assert!(stats.shards.port_messages >= 1);
    handle.shutdown().unwrap();
}

/// Frame kinds no AP consumes are counted once, by the router, and
/// queued on no shard: one Beacon and one ACK read `ignored_frames=2`
/// in a 2-shard daemon's `stats` line, not one count per shard that
/// saw them.
#[test]
fn unconsumed_frames_are_ignored_once() {
    let handle = DaemonHandle::spawn(ApdConfig::new().shards(2)).unwrap();
    let socket = client_socket(handle.data_addr());
    let bssid = MacAddr::station(0);
    let mut beacon = Vec::new();
    AccessPoint::new(bssid).dtim_beacon(0, &mut beacon);
    socket.send(&beacon).unwrap();
    socket
        .send(&Ack::new(MacAddr::station(1)).to_bytes())
        .unwrap();
    // The router handles datagrams in order, and each shard serves
    // `stats` after the frames queued before it, so once this
    // exchange completes both frames are fully counted.
    let req = AssociationRequest::new(MacAddr::station(1), bssid, "hide");
    socket.send(&req.to_bytes()).unwrap();
    assert!(matches!(
        recv_frame(&socket),
        AnyFrame::AssociationResponse(_)
    ));
    let stats = handle.stats().unwrap();
    let line = stats.to_line();
    assert!(line.split(' ').any(|kv| kv == "ignored_frames=2"), "{line}");
    assert_eq!(stats.frames_received, 3);
    assert_eq!(stats.dropped_backpressure, 0);
    handle.shutdown().unwrap();
}

/// A beacon the router cannot read is counted as a parse error, not as
/// an ignored frame, and reaches no shard.
#[test]
fn a_malformed_beacon_is_a_parse_error() {
    let handle = DaemonHandle::spawn(ApdConfig::new().shards(2)).unwrap();
    let socket = client_socket(handle.data_addr());
    let bssid = MacAddr::station(0);
    let mut beacon = Vec::new();
    AccessPoint::new(bssid).dtim_beacon(0, &mut beacon);
    // A TIM element that declares more octets than the datagram holds.
    beacon.extend_from_slice(&[5, 40, 0]);
    assert!(BeaconView::parse(&beacon).is_err());
    socket.send(&beacon).unwrap();
    let req = AssociationRequest::new(MacAddr::station(1), bssid, "hide");
    socket.send(&req.to_bytes()).unwrap();
    assert!(matches!(
        recv_frame(&socket),
        AnyFrame::AssociationResponse(_)
    ));
    let stats = handle.stats().unwrap();
    let line = stats.to_line();
    assert!(line.split(' ').any(|kv| kv == "ignored_frames=0"), "{line}");
    assert_eq!(stats.parse_errors, 1);
    assert_eq!(stats.frames_received, 2);
    handle.shutdown().unwrap();
}

/// Every stage of the wall-clock plane counts exactly its unit of
/// work: each datagram is received and routed once, each frame and
/// each tick is handled once, and each association response and ACK is
/// sent once. With telemetry off nothing is timed.
#[test]
fn stage_counts_are_exact_over_loopback() {
    const A: u64 = 4; // association requests
    const P: u64 = 6; // port messages from associated clients
    const D: u64 = 5; // broadcast data frames
    const T: u64 = 3; // DTIM ticks
    let bssid = MacAddr::station(0);
    let data = BroadcastDataFrame::new(
        bssid,
        UdpDatagram::new([10, 0, 0, 2], [255; 4], 4000, 5353, vec![0; 64]),
        false,
    );
    for telemetry in [true, false] {
        let cfg = ApdConfig::new().shards(1).runtime_telemetry(telemetry);
        let handle = DaemonHandle::spawn(cfg).unwrap();
        let socket = client_socket(handle.data_addr());
        for i in 0..A as u32 {
            let req =
                AssociationRequest::new(MacAddr::station(1 + i), bssid, "hide").with_hide_support();
            socket.send(&req.to_bytes()).unwrap();
            assert!(matches!(
                recv_frame(&socket),
                AnyFrame::AssociationResponse(_)
            ));
        }
        for k in 0..P as u32 {
            let client = MacAddr::station(1 + k % A as u32);
            let msg = UdpPortMessage::new(client, bssid, [5353]).unwrap();
            socket.send(&msg.to_bytes()).unwrap();
            assert!(matches!(recv_frame(&socket), AnyFrame::Ack(_)));
        }
        for _ in 0..D {
            socket.send(&data.to_bytes()).unwrap();
        }
        wait_until(|| handle.stats().unwrap().shards.broadcasts_enqueued == D);
        handle.tick(T).unwrap();

        let want = if telemetry {
            [A + P + D, A + P + D, A + P + D + T, A + P]
        } else {
            [0; 4]
        };
        let counts = || -> Vec<(&'static str, u64)> {
            hide_apd::parse_health_stage_counts(&handle.health_json())
        };
        // Stats is served after the queued frames and ticks, so the
        // shard's spans have all landed once it returns; the router
        // closes a route span just after handing its frame on.
        handle.stats().unwrap();
        wait_until(|| counts()[1].1 >= want[1]);
        let labels = ["recv", "route", "handle", "send"];
        let want: Vec<(&str, u64)> = labels.into_iter().zip(want).collect();
        assert_eq!(counts(), want, "telemetry on: {telemetry}");
        handle.shutdown().unwrap();
    }
}

fn wait_until(mut cond: impl FnMut() -> bool) {
    for _ in 0..200 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("condition not reached within 2 s");
}
