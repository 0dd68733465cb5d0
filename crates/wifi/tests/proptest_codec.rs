//! Property-based tests for the 802.11 wire codecs.

use hide_wifi::assoc::{AssociationRequest, AssociationResponse, Disassociation};
use hide_wifi::bitmap::PartialVirtualBitmap;
use hide_wifi::frame::{
    Ack, AnyFrame, Beacon, BeaconView, BroadcastDataFrame, PsPoll, UdpPortMessage,
};
use hide_wifi::ie::{Btim, InformationElement, OpenUdpPorts, Tim};
use hide_wifi::mac::{Aid, MacAddr, MAX_AID};
use hide_wifi::udp::UdpDatagram;
use proptest::collection::vec;
use proptest::prelude::*;

fn aid_strategy() -> impl Strategy<Value = Aid> {
    (1u16..=MAX_AID).prop_map(|v| Aid::new(v).expect("in range"))
}

fn bitmap_strategy() -> impl Strategy<Value = PartialVirtualBitmap> {
    vec(aid_strategy(), 0..64).prop_map(|aids| aids.into_iter().collect())
}

/// AIDs biased to where a word-at-a-time scan can slip: the 3-byte
/// tail after the 31 whole words (AIDs 1984–2007), the first word edge
/// (octets 7 and 8) and the last (octets 247 and 248).
fn edge_aid_strategy() -> impl Strategy<Value = Aid> {
    (0u8..4, 1u16..=MAX_AID).prop_map(|(band, v)| {
        let v = match band {
            0 => 1984 + v % 24,
            1 => 56 + v % 16,
            2 => 1976 + v % 16,
            _ => v,
        };
        Aid::new(v).expect("in range")
    })
}

fn edge_bitmap_strategy() -> impl Strategy<Value = PartialVirtualBitmap> {
    vec(edge_aid_strategy(), 0..6).prop_map(|aids| aids.into_iter().collect())
}

/// The bitmap's 251 octets, read one AID at a time.
fn octets(bitmap: &PartialVirtualBitmap) -> [u8; 251] {
    let mut bytes = [0u8; 251];
    for aid in (1..=MAX_AID).map(|v| Aid::new(v).expect("in range")) {
        if bitmap.is_set(aid) {
            bytes[aid.octet()] |= 1 << aid.bit();
        }
    }
    bytes
}

/// `trimmed_span` by its byte-at-a-time definition (Fig. 5).
fn bytewise_span(bytes: &[u8; 251]) -> (usize, usize) {
    let Some(first) = bytes.iter().position(|&b| b != 0) else {
        return (0, 1);
    };
    let last = bytes.iter().rposition(|&b| b != 0).expect("nonzero exists");
    let n1 = first & !1;
    (n1, last - n1 + 1)
}

/// A beacon the way the AP builds one: SSID, rates, TIM, then BTIM.
fn beacon_bytes(btim: PartialVirtualBitmap, unicast: PartialVirtualBitmap, bcast: bool) -> Vec<u8> {
    Beacon::builder(MacAddr::station(0))
        .ssid("hide")
        .supported_rates_11b()
        .tim(Tim::new(0, 1, bcast, unicast))
        .element(InformationElement::Btim(Btim::new(btim)))
        .build()
        .to_bytes()
}

/// The BTIM body length on air: the length octet of the first element
/// 201 after the 36-byte header and fixed fields. Only called on
/// buffers both parsers accepted.
fn btim_len_on_air(buf: &[u8]) -> Option<usize> {
    let mut rest = &buf[36..];
    while let [id, len, tail @ ..] = rest {
        if *id == 201 {
            return Some(usize::from(*len));
        }
        rest = &tail[usize::from(*len)..];
    }
    None
}

/// Both beacon parsers on `buf`: the same verdict and error, and on
/// success the same TIM fields and the same TIM and BTIM bit for every
/// AID, with the view's BTIM length the one on air.
fn parsers_agree(buf: &[u8]) -> Result<(), TestCaseError> {
    let (owned, view) = match (Beacon::parse(buf), BeaconView::parse(buf)) {
        (Ok(owned), Ok(view)) => (owned, view),
        (Err(a), Err(b)) => {
            prop_assert_eq!(a, b);
            return Ok(());
        }
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "verdicts differ: owned {:?}, view {:?}",
                a.map(|_| ()),
                b.map(|_| ())
            )))
        }
    };
    prop_assert_eq!(
        view.tim()
            .map(|t| (t.dtim_count(), t.dtim_period(), t.broadcast_buffered())),
        owned
            .tim()
            .map(|t| (t.dtim_count(), t.dtim_period(), t.broadcast_buffered()))
    );
    for aid in (1..=MAX_AID).map(|v| Aid::new(v).expect("in range")) {
        prop_assert_eq!(
            view.btim().map(|b| b.is_set(aid)),
            owned.btim().map(|b| b.is_set(aid)),
            "BTIM bit of AID {}",
            aid.value()
        );
        prop_assert_eq!(
            view.tim().map(|t| t.traffic_for(aid)),
            owned.tim().map(|t| t.traffic_for(aid)),
            "TIM bit of AID {}",
            aid.value()
        );
    }
    prop_assert_eq!(view.btim().map(|b| b.body_len()), btim_len_on_air(buf));
    Ok(())
}

fn mac_strategy() -> impl Strategy<Value = MacAddr> {
    any::<u32>().prop_map(MacAddr::station)
}

/// SSIDs are carried in a length-prefixed element (≤ 255 bytes) and the
/// parser decodes them as UTF-8, so the strategy draws printable ASCII
/// that fits one element.
fn ssid_strategy() -> impl Strategy<Value = String> {
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ._-";
    vec(0usize..CHARSET.len(), 0..32)
        .prop_map(|idxs| idxs.into_iter().map(|i| CHARSET[i] as char).collect())
}

proptest! {
    #[test]
    fn bitmap_trim_expand_round_trip(bitmap in bitmap_strategy()) {
        let trimmed = bitmap.trim();
        let back = PartialVirtualBitmap::from_trimmed(&trimmed).unwrap();
        prop_assert_eq!(back, bitmap);
    }

    #[test]
    fn bitmap_trim_offset_always_even(bitmap in bitmap_strategy()) {
        prop_assert_eq!(bitmap.trim().offset() % 2, 0);
    }

    #[test]
    fn trimmed_is_set_agrees_with_full(bitmap in bitmap_strategy(), probe in aid_strategy()) {
        let trimmed = bitmap.trim();
        prop_assert_eq!(trimmed.is_set(probe), bitmap.is_set(probe));
    }

    #[test]
    fn bitmap_iter_yields_exactly_set_bits(aids in vec(aid_strategy(), 0..32)) {
        let bitmap: PartialVirtualBitmap = aids.iter().copied().collect();
        let mut expected: Vec<Aid> = aids.clone();
        expected.sort();
        expected.dedup();
        let collected: Vec<Aid> = bitmap.iter().collect();
        prop_assert_eq!(collected, expected);
    }

    #[test]
    fn btim_body_round_trip(bitmap in bitmap_strategy()) {
        let btim = Btim::new(bitmap);
        let body = btim.encode_body();
        prop_assert_eq!(body.len(), btim.body_len());
        let back = Btim::decode_body(&body).unwrap();
        prop_assert_eq!(back, btim);
    }

    #[test]
    fn tim_body_round_trip(
        bitmap in bitmap_strategy(),
        count in 0u8..=10,
        period in 1u8..=10,
        bcast in any::<bool>(),
    ) {
        let tim = Tim::new(count, period, bcast, bitmap);
        let back = Tim::decode_body(&tim.encode_body()).unwrap();
        prop_assert_eq!(back, tim);
    }

    #[test]
    fn open_udp_ports_round_trip(ports in vec(any::<u16>(), 0..=OpenUdpPorts::MAX_PORTS)) {
        let element = OpenUdpPorts::new(ports.clone()).unwrap();
        let back = OpenUdpPorts::decode_body(&element.encode_body()).unwrap();
        prop_assert_eq!(back.ports(), &ports[..]);
    }

    #[test]
    fn udp_datagram_round_trip(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in vec(any::<u8>(), 0..512),
    ) {
        let dgram = UdpDatagram::new(src, dst, sport, dport, payload);
        let bytes = dgram.to_bytes();
        prop_assert_eq!(UdpDatagram::peek_dst_port(&bytes).unwrap(), dport);
        let parsed = UdpDatagram::parse(&bytes).unwrap();
        prop_assert_eq!(parsed, dgram);
    }

    #[test]
    fn udp_parse_never_panics_on_garbage(bytes in vec(any::<u8>(), 0..128)) {
        let _ = UdpDatagram::parse(&bytes);
        let _ = UdpDatagram::peek_dst_port(&bytes);
    }

    #[test]
    fn beacon_round_trip(
        bitmap in bitmap_strategy(),
        unicast in bitmap_strategy(),
        ts in any::<u64>(),
        interval in 1u16..1000,
        count in 0u8..4,
        bcast in any::<bool>(),
    ) {
        let beacon = Beacon::builder(MacAddr::station(0))
            .timestamp_us(ts)
            .beacon_interval_tu(interval)
            .tim(Tim::new(count, 3, bcast, unicast))
            .element(InformationElement::Btim(Btim::new(bitmap)))
            .build();
        let bytes = beacon.to_bytes();
        prop_assert_eq!(bytes.len(), beacon.len_bytes());
        let parsed = Beacon::parse(&bytes).unwrap();
        prop_assert_eq!(parsed, beacon);
    }

    #[test]
    fn beacon_parse_never_panics_on_garbage(bytes in vec(any::<u8>(), 0..96)) {
        let _ = Beacon::parse(&bytes);
    }

    #[test]
    fn beacon_view_agrees_with_parse_on_garbage(bytes in vec(any::<u8>(), 0..=160)) {
        parsers_agree(&bytes)?;
    }

    #[test]
    fn beacon_view_agrees_with_parse_past_a_valid_header(
        elements in vec(any::<u8>(), 0..=124),
    ) {
        // Garbage rarely gets past frame control; this reaches the
        // element walker every time.
        let mut buf = Beacon::builder(MacAddr::station(0)).build().to_bytes();
        buf.extend_from_slice(&elements);
        parsers_agree(&buf)?;
    }

    #[test]
    fn beacon_view_agrees_with_parse_on_built_beacons(
        btim in edge_bitmap_strategy(),
        unicast in bitmap_strategy(),
        bcast in any::<bool>(),
    ) {
        let bytes = beacon_bytes(btim, unicast, bcast);
        parsers_agree(&bytes)?;
        let view = BeaconView::parse(&bytes).unwrap();
        prop_assert_eq!(view.btim().map(|b| b.body_len()), Some(Btim::new(btim).body_len()));
    }

    #[test]
    fn beacon_view_agrees_with_parse_on_damaged_beacons(
        btim in edge_bitmap_strategy(),
        unicast in bitmap_strategy(),
        at in any::<u16>(),
        mask in 1u8..=255,
        truncate in any::<bool>(),
    ) {
        let mut bytes = beacon_bytes(btim, unicast, false);
        let at = usize::from(at) % bytes.len();
        if truncate {
            bytes.truncate(at);
        } else {
            bytes[at] ^= mask;
        }
        parsers_agree(&bytes)?;
    }

    #[test]
    fn wordwise_scans_match_bytewise_definitions(bitmap in edge_bitmap_strategy()) {
        let bytes = octets(&bitmap);
        let count: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        prop_assert_eq!(bitmap.count(), count as usize);
        prop_assert_eq!(bitmap.is_empty(), bytes.iter().all(|&b| b == 0));
        prop_assert_eq!(bitmap.trimmed_span(), bytewise_span(&bytes));
    }

    #[test]
    fn udp_port_message_round_trip(
        ports in vec(any::<u16>(), 0..120),
        seq in 0u16..4096,
        client_idx in 1u32..1000,
    ) {
        let msg = UdpPortMessage::new(
            MacAddr::station(client_idx),
            MacAddr::station(0),
            ports.clone(),
        )
        .unwrap()
        .with_seq(seq);
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.len_bytes());
        let parsed = UdpPortMessage::parse(&bytes).unwrap();
        prop_assert_eq!(parsed.ports(), &ports[..]);
        prop_assert_eq!(parsed.seq(), seq);
    }

    #[test]
    fn broadcast_frame_round_trip(
        dport in any::<u16>(),
        payload in vec(any::<u8>(), 0..256),
        more in any::<bool>(),
    ) {
        let dgram = UdpDatagram::new([10, 0, 0, 1], [255; 4], 5000, dport, payload);
        let frame = BroadcastDataFrame::new(MacAddr::station(0), dgram, more);
        let parsed = BroadcastDataFrame::parse(&frame.to_bytes()).unwrap();
        prop_assert_eq!(parsed.udp_dst_port().unwrap(), dport);
        prop_assert_eq!(parsed.more_data(), more);
    }

    #[test]
    fn element_stream_round_trip(
        bitmap in bitmap_strategy(),
        ports in vec(any::<u16>(), 0..50),
        raw in vec(any::<u8>(), 0..40),
    ) {
        let elements = vec![
            InformationElement::Btim(Btim::new(bitmap)),
            InformationElement::OpenUdpPorts(OpenUdpPorts::new(ports).unwrap()),
            InformationElement::Raw(hide_wifi::ie::RawElement { id: 99, body: raw }),
        ];
        let mut buf = Vec::new();
        for e in &elements {
            e.encode(&mut buf);
        }
        let decoded = InformationElement::decode_all(&buf).unwrap();
        prop_assert_eq!(decoded, elements);
    }

    #[test]
    fn association_request_round_trip(
        client in mac_strategy(),
        ap in mac_strategy(),
        ssid in ssid_strategy(),
        listen_interval in any::<u16>(),
        hide in any::<bool>(),
    ) {
        let mut req = AssociationRequest::new(client, ap, ssid)
            .with_listen_interval(listen_interval);
        if hide {
            req = req.with_hide_support();
        }
        let parsed = AssociationRequest::parse(&req.to_bytes()).unwrap();
        prop_assert_eq!(parsed, req);
    }

    #[test]
    fn association_response_success_round_trip(
        client in mac_strategy(),
        ap in mac_strategy(),
        aid in aid_strategy(),
    ) {
        let resp = AssociationResponse::success(ap, client, aid);
        let parsed = AssociationResponse::parse(&resp.to_bytes()).unwrap();
        prop_assert_eq!(parsed, resp);
        prop_assert!(parsed.is_success());
        prop_assert_eq!(parsed.aid(), Some(aid));
    }

    #[test]
    fn association_response_denial_round_trip(
        client in mac_strategy(),
        ap in mac_strategy(),
        status in 1u16..=1024,
    ) {
        let resp = AssociationResponse::denied(ap, client, status);
        let parsed = AssociationResponse::parse(&resp.to_bytes()).unwrap();
        prop_assert_eq!(parsed, resp);
        prop_assert!(!parsed.is_success());
        prop_assert_eq!(parsed.aid(), None);
    }

    #[test]
    fn disassociation_round_trip(
        from in mac_strategy(),
        to in mac_strategy(),
        reason in any::<u16>(),
    ) {
        let notice = Disassociation::new(from, to, reason);
        let parsed = Disassociation::parse(&notice.to_bytes()).unwrap();
        prop_assert_eq!(parsed, notice);
    }

    #[test]
    fn any_frame_reencodes_identically(
        client in mac_strategy(),
        ap in mac_strategy(),
        bitmap in bitmap_strategy(),
        ports in vec(any::<u16>(), 0..100),
        payload in vec(any::<u8>(), 0..128),
        aid in aid_strategy(),
        ssid in ssid_strategy(),
        which in 0usize..8,
    ) {
        // One wire image per subtype; parse-then-re-encode must be the
        // identity on all of them (the daemon relies on this to relay
        // frames it has routed without mutating them).
        let wire: Vec<u8> = match which {
            0 => Beacon::builder(ap)
                .tim(Tim::new(0, 1, false, bitmap))
                .element(InformationElement::Btim(Btim::new(bitmap)))
                .build()
                .to_bytes(),
            1 => UdpPortMessage::new(client, ap, ports).unwrap().to_bytes(),
            2 => Ack::new(client).to_bytes(),
            3 => PsPoll::new(aid, ap, client).to_bytes(),
            4 => BroadcastDataFrame::new(
                ap,
                UdpDatagram::new([10, 0, 0, 1], [255; 4], 5000, 1900, payload),
                false,
            )
            .to_bytes(),
            5 => AssociationRequest::new(client, ap, ssid).with_hide_support().to_bytes(),
            6 => AssociationResponse::success(ap, client, aid).to_bytes(),
            _ => Disassociation::new(client, ap, 8).to_bytes(),
        };
        let frame = AnyFrame::parse(&wire).unwrap();
        prop_assert_eq!(frame.to_bytes(), wire);
    }

    #[test]
    fn any_frame_parse_never_panics_on_garbage(bytes in vec(any::<u8>(), 0..160)) {
        if let Ok(frame) = AnyFrame::parse(&bytes) {
            // Garbage may parse non-canonically (e.g. ignored trailing
            // bytes), so byte identity only holds after one re-encode:
            // to_bytes must normalize to a fixed point.
            let canon = frame.to_bytes();
            let reparsed = AnyFrame::parse(&canon).unwrap();
            prop_assert_eq!(reparsed.to_bytes(), canon);
        }
    }

    #[test]
    fn truncated_assoc_frames_never_panic(
        client in mac_strategy(),
        ap in mac_strategy(),
        ssid in ssid_strategy(),
        cut in 0usize..24,
    ) {
        let req = AssociationRequest::new(client, ap, ssid).with_hide_support();
        let bytes = req.to_bytes();
        let cut = cut.min(bytes.len());
        // Parsing any prefix returns an error or a frame — never panics.
        let _ = AssociationRequest::parse(&bytes[..cut]);
        let resp = AssociationResponse::success(ap, client, Aid::new(1).unwrap());
        let bytes = resp.to_bytes();
        let cut = cut.min(bytes.len());
        let _ = AssociationResponse::parse(&bytes[..cut]);
    }
}
