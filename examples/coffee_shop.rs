//! A protocol-level walkthrough: one HIDE phone and one legacy laptop
//! in a coffee shop, beacon by beacon.
//!
//! Shows the Fig. 2 message sequence in action — port sync, ACK, DTIM
//! beacons with BTIM elements — and how the phone sleeps through the
//! printer-discovery chatter that forces the legacy laptop awake.
//!
//! ```text
//! cargo run --release --example coffee_shop
//! ```

use hide::protocol::ap::{AccessPoint, ApCtx};
use hide::protocol::client::{HideClient, LegacyClient, OpenPortRegistry, WakeDecision};
use hide::wifi::frame::{BeaconView, BroadcastDataFrame};
use hide::wifi::mac::MacAddr;
use hide::wifi::udp::UdpDatagram;

fn broadcast(ap: &AccessPoint, dst_port: u16, label: &str) -> BroadcastDataFrame {
    println!("  [lan] broadcast arrives: {label} (udp port {dst_port})");
    BroadcastDataFrame::new(
        ap.bssid(),
        UdpDatagram::new([192, 168, 1, 50], [255; 4], 4000, dst_port, vec![0; 120]),
        false,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut ap = AccessPoint::new(MacAddr::new([2, 0, 0, 0, 0, 0xAA]));
    ap.set_ssid("corner-cafe")?;
    println!(
        "access point {} ('{}') up, DTIM period 1\n",
        ap.bssid(),
        ap.ssid()
    );

    // The phone runs Spotify (57621) and an mDNS responder (5353).
    let mut ports = OpenPortRegistry::new();
    ports.bind(5353, [0, 0, 0, 0])?;
    ports.bind(57621, [0, 0, 0, 0])?;
    let mut phone = HideClient::new(MacAddr::station(1), ports);

    // Association happens over the air, HIDE capability included.
    let request = phone.association_request(ap.bssid(), ap.ssid().to_string());
    let response = ap.handle_association_request(&hide::wifi::assoc::AssociationRequest::parse(
        &request.to_bytes(),
    )?);
    let aid = phone.handle_association_response(&hide::wifi::assoc::AssociationResponse::parse(
        &response.to_bytes(),
    )?)?;
    println!("phone associated as {aid} (HIDE capability declared in the request)");

    // A legacy laptop that follows the stock 802.11 DTIM rules.
    let mut laptop = LegacyClient::new(MacAddr::station(2));
    laptop.set_aid(ap.associate(laptop.mac())?);
    println!(
        "laptop associated as {} (legacy)\n",
        ap.aid_of(laptop.mac()).unwrap()
    );

    // Fig. 2 steps 1-3: sync ports, get the ACK, suspend.
    let msg = phone.prepare_suspend()?;
    println!(
        "phone -> ap: UDP Port Message, {} ports {:?} ({} bytes on air)",
        msg.ports().len(),
        msg.ports(),
        msg.len_bytes()
    );
    let ack = ap.process_port_message(&msg, &mut ApCtx::untimed())?;
    phone.handle_ack(&ack)?;
    println!("ap -> phone: ACK; phone enters suspend mode\n");

    // Three DTIM cycles with different traffic.
    let cycles: [(&str, Vec<(u16, &str)>); 3] = [
        (
            "printer discovery storm",
            vec![
                (1900, "SSDP M-SEARCH"),
                (1900, "SSDP NOTIFY"),
                (137, "NetBIOS name query"),
            ],
        ),
        ("quiet interval", vec![]),
        (
            "music sync",
            vec![(57621, "Spotify Connect announce"), (1900, "SSDP NOTIFY")],
        ),
    ];

    for (i, (title, frames)) in cycles.into_iter().enumerate() {
        println!("--- DTIM cycle {i}: {title} ---");
        for (port, label) in frames {
            let frame = broadcast(&ap, port, label);
            ap.enqueue_broadcast(frame);
        }
        // The beacon crosses the air as real bytes.
        let mut beacon_bytes = Vec::new();
        ap.dtim_beacon(i as u64, &mut beacon_bytes);
        let beacon = BeaconView::parse(&beacon_bytes)?;
        println!(
            "  [air] beacon: {} bytes, broadcast buffered = {}",
            beacon_bytes.len(),
            beacon.tim().unwrap().broadcast_buffered()
        );

        let phone_decision = phone.handle_beacon(&beacon)?;
        let laptop_decision = laptop.handle_beacon(&beacon)?;
        println!("  phone  (HIDE):   {phone_decision:?}");
        println!("  laptop (legacy): {laptop_decision:?}");

        let delivered = ap.deliver_broadcasts();
        if phone_decision == WakeDecision::WakeForBroadcast {
            let consumed = delivered.iter().filter(|f| phone.consumes(f)).count();
            println!(
                "  phone wakes, receives {} frame(s), {} consumed by apps",
                delivered.len(),
                consumed
            );
            phone.resume();
            let msg = phone.prepare_suspend()?;
            let ack = ap.process_port_message(&msg, &mut ApCtx::untimed())?;
            phone.handle_ack(&ack)?;
            println!("  phone re-syncs ports and suspends again");
        } else {
            println!("  phone stays suspended (0 J spent)");
        }
        println!();
    }

    println!(
        "total UDP Port Messages sent by phone: {}",
        phone.port_messages_sent()
    );
    Ok(())
}
