//! Property-based tests for the 802.11 wire codecs.

use hide_wifi::assoc::{AssociationRequest, AssociationResponse, Disassociation, MAX_SSID_LEN};
use hide_wifi::bitmap::PartialVirtualBitmap;
use hide_wifi::frame::{
    Ack, AnyFrame, BeaconFields, BeaconView, BroadcastDataFrame, PsPoll, UdpPortMessage,
};
use hide_wifi::ie::{InformationElement, OpenUdpPorts, RawElement};
use hide_wifi::mac::{Aid, MacAddr, MAX_AID};
use hide_wifi::udp::UdpDatagram;
use hide_wifi::WifiError;
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

/// A beacon the way the AP writes one: SSID, rates, TIM, then BTIM.
fn beacon_bytes(
    btim: &PartialVirtualBitmap,
    unicast: &PartialVirtualBitmap,
    bcast: bool,
    dtim_count: u8,
    timestamp_us: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    BeaconFields {
        bssid: MacAddr::station(0),
        timestamp_us,
        ssid: "hide",
        dtim_count,
        dtim_period: 3,
        broadcast_buffered: bcast,
        unicast,
        btim: Some(btim),
    }
    .write(&mut out);
    out
}

/// The body of the first element `id` after the 36-byte header and
/// fixed fields, found byte by byte. Only called on buffers the view
/// accepted, so every length octet fits.
fn first_body(buf: &[u8], id: u8) -> Option<&[u8]> {
    let mut rest = &buf[36..];
    while let [eid, len, tail @ ..] = rest {
        let (body, next) = tail.split_at(usize::from(*len));
        if *eid == id {
            return Some(body);
        }
        rest = next;
    }
    None
}

/// Whether `aid`'s bit is set in `octets` placed at octet `n1`.
fn bit_on_air(n1: usize, octets: &[u8], aid: Aid) -> bool {
    let k = usize::from(aid.value() / 8);
    k >= n1
        && octets
            .get(k - n1)
            .is_some_and(|b| b >> (aid.value() % 8) & 1 == 1)
}

/// The view on `buf` against a byte-at-a-time reading of the same
/// bytes: a rejection is one of the codec's structured errors, and an
/// accepted beacon has the view's TIM fields, its TIM and BTIM bit for
/// every AID and its BTIM length read straight off the first TIM and
/// BTIM on air, and survives `AnyFrame` byte for byte.
fn view_reads_what_is_on_air(buf: &[u8]) -> Result<(), TestCaseError> {
    let view = match BeaconView::parse(buf) {
        Ok(view) => view,
        Err(e) => {
            prop_assert!(
                matches!(
                    e,
                    WifiError::Truncated { .. }
                        | WifiError::UnknownFrameType { .. }
                        | WifiError::BadElementLength { .. }
                        | WifiError::OddBitmapOffset(_)
                        | WifiError::BitmapTooLong(_)
                ),
                "unexpected error {:?}",
                e
            );
            return Ok(());
        }
    };
    prop_assert_eq!(AnyFrame::parse(buf).map(|f| f.to_bytes()), Ok(buf.to_vec()));
    let tim = first_body(buf, 5);
    let btim = first_body(buf, 201);
    prop_assert_eq!(
        view.tim()
            .map(|t| (t.dtim_count(), t.dtim_period(), t.broadcast_buffered())),
        tim.map(|b| (b[0], b[1], b[2] & 1 == 1))
    );
    prop_assert_eq!(view.btim().map(|b| b.body_len()), btim.map(<[u8]>::len));
    for aid in (1..=MAX_AID).map(|v| Aid::new(v).expect("in range")) {
        prop_assert_eq!(
            view.btim().map(|b| b.is_set(aid)),
            btim.map(|b| bit_on_air(usize::from(b[0]), &b[1..], aid)),
            "BTIM bit of AID {}",
            aid.value()
        );
        prop_assert_eq!(
            view.tim().map(|t| t.traffic_for(aid)),
            tim.map(|b| bit_on_air(usize::from(b[2] & !1), &b[3..], aid)),
            "TIM bit of AID {}",
            aid.value()
        );
    }
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

/// The wire image of an association request whose SSID element carries
/// exactly `octets`.
fn request_with_ssid_octets(octets: &[u8]) -> Vec<u8> {
    let mut wire = AssociationRequest::new(MacAddr::station(1), MacAddr::station(0), "").to_bytes();
    // A legacy request ends with its SSID element, here empty.
    assert_eq!(wire[wire.len() - 2..], [0, 0]);
    wire.truncate(wire.len() - 2);
    wire.extend_from_slice(&[0, octets.len() as u8]);
    wire.extend_from_slice(octets);
    wire
}

proptest! {
    #[test]
    fn trimmed_bytes_follow_fig5(bitmap in edge_bitmap_strategy()) {
        let bytes = octets(&bitmap);
        let (n1, len) = bytewise_span(&bytes);
        let mut out = vec![0xaa];
        prop_assert_eq!(bitmap.append_trimmed_to(&mut out), n1);
        prop_assert_eq!(n1 % 2, 0);
        prop_assert_eq!(&out[1..], &bytes[n1..n1 + len]);
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
    fn written_beacons_read_back(
        btim in edge_bitmap_strategy(),
        unicast in bitmap_strategy(),
        bcast in any::<bool>(),
        count in 0u8..3,
        ts in any::<u64>(),
    ) {
        let bytes = beacon_bytes(&btim, &unicast, bcast, count, ts);
        let view = BeaconView::parse(&bytes).unwrap();
        let (tim, flags) = (view.tim().unwrap(), view.btim().unwrap());
        prop_assert_eq!(
            (tim.dtim_count(), tim.dtim_period(), tim.broadcast_buffered()),
            (count, 3, bcast)
        );
        for aid in (1..=MAX_AID).map(|v| Aid::new(v).expect("in range")) {
            prop_assert_eq!(flags.is_set(aid), btim.is_set(aid), "BTIM bit of AID {}", aid.value());
            prop_assert_eq!(
                tim.traffic_for(aid),
                unicast.is_set(aid),
                "TIM bit of AID {}",
                aid.value()
            );
        }
        prop_assert_eq!(flags.body_len(), 1 + btim.trimmed_span().1);
        prop_assert_eq!(&bytes[24..32], &ts.to_le_bytes()[..]);
        view_reads_what_is_on_air(&bytes)?;
    }

    #[test]
    fn written_legacy_beacons_carry_no_btim(
        unicast in bitmap_strategy(),
        bcast in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        BeaconFields {
            bssid: MacAddr::station(0),
            timestamp_us: 0,
            ssid: "hide",
            dtim_count: 0,
            dtim_period: 1,
            broadcast_buffered: bcast,
            unicast: &unicast,
            btim: None,
        }
        .write(&mut bytes);
        let view = BeaconView::parse(&bytes).unwrap();
        prop_assert!(view.btim().is_none());
        prop_assert_eq!(first_body(&bytes, 201), None);
        let tim = view.tim().unwrap();
        prop_assert_eq!(tim.broadcast_buffered(), bcast);
        for aid in (1..=MAX_AID).map(|v| Aid::new(v).expect("in range")) {
            prop_assert_eq!(tim.traffic_for(aid), unicast.is_set(aid), "TIM bit of AID {}", aid.value());
        }
        view_reads_what_is_on_air(&bytes)?;
    }

    #[test]
    fn writing_over_a_used_buffer_equals_a_fresh_write(
        old in vec(any::<u8>(), 0..600),
        btim in edge_bitmap_strategy(),
        unicast in edge_bitmap_strategy(),
    ) {
        let fresh = beacon_bytes(&btim, &unicast, true, 0, 7);
        let mut reused = old;
        BeaconFields {
            bssid: MacAddr::station(0),
            timestamp_us: 7,
            ssid: "hide",
            dtim_count: 0,
            dtim_period: 3,
            broadcast_buffered: true,
            unicast: &unicast,
            btim: Some(&btim),
        }
        .write(&mut reused);
        prop_assert_eq!(reused, fresh);
    }

    #[test]
    fn beacon_view_reads_garbage_as_on_air(bytes in vec(any::<u8>(), 0..=160)) {
        view_reads_what_is_on_air(&bytes)?;
    }

    #[test]
    fn beacon_view_reads_elements_past_a_valid_header(
        elements in vec(any::<u8>(), 0..=124),
    ) {
        // Garbage rarely gets past frame control; this reaches the
        // element walker every time.
        let empty = PartialVirtualBitmap::new();
        let mut buf = beacon_bytes(&empty, &empty, false, 0, 0);
        buf.truncate(36);
        buf.extend_from_slice(&elements);
        view_reads_what_is_on_air(&buf)?;
    }

    #[test]
    fn beacon_view_reads_damaged_beacons_as_on_air(
        btim in edge_bitmap_strategy(),
        unicast in bitmap_strategy(),
        at in any::<u16>(),
        mask in 1u8..=255,
        truncate in any::<bool>(),
    ) {
        let mut bytes = beacon_bytes(&btim, &unicast, false, 0, 0);
        let at = usize::from(at) % bytes.len();
        if truncate {
            bytes.truncate(at);
        } else {
            bytes[at] ^= mask;
        }
        view_reads_what_is_on_air(&bytes)?;
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
    fn udp_port_message_element_is_laid_out_on_air(ports in vec(any::<u16>(), 0..=127)) {
        let bytes = UdpPortMessage::new(MacAddr::station(1), MacAddr::station(0), ports.clone())
            .unwrap()
            .to_bytes();
        // After the 24-byte MAC header: ID 200, the length, then each
        // port big-endian.
        let body: Vec<u8> = ports.iter().flat_map(|p| p.to_be_bytes()).collect();
        prop_assert_eq!(&bytes[24..26], &[200, body.len() as u8][..]);
        prop_assert_eq!(&bytes[26..], &body[..]);
    }

    #[test]
    fn association_request_elements_are_laid_out_on_air(
        ssid in ssid_strategy(),
        hide in any::<bool>(),
    ) {
        let mut req = AssociationRequest::new(MacAddr::station(1), MacAddr::station(0), ssid.clone());
        if hide {
            req = req.with_hide_support();
        }
        let bytes = req.to_bytes();
        // After the MAC header, capability and listen interval: the
        // SSID element, then an empty Open UDP Ports element for HIDE.
        let mut expected = vec![0, ssid.len() as u8];
        expected.extend_from_slice(ssid.as_bytes());
        if hide {
            expected.extend_from_slice(&[200, 0]);
        }
        prop_assert_eq!(&bytes[28..], &expected[..]);
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
        // A BTIM outside a beacon is checked and kept raw.
        let mut btim = vec![0];
        btim[0] = bitmap.append_trimmed_to(&mut btim) as u8;
        let ports = OpenUdpPorts::new(ports).unwrap();
        let mut buf = Vec::new();
        for (id, body) in [(201, btim.clone()), (200, ports.encode_body()), (99, raw.clone())] {
            buf.push(id);
            buf.push(body.len() as u8);
            buf.extend_from_slice(&body);
        }
        let decoded = InformationElement::decode_all(&buf).unwrap();
        prop_assert_eq!(
            decoded,
            vec![
                InformationElement::Raw(RawElement { id: 201, body: btim }),
                InformationElement::OpenUdpPorts(ports),
                InformationElement::Raw(RawElement { id: 99, body: raw }),
            ]
        );
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
            0 => beacon_bytes(&bitmap, &bitmap, false, 0, 0),
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

    /// An SSID from the wire parses exactly when it is at most 32
    /// octets, UTF-8 or not, and its request then re-encodes to the same
    /// bytes. A longer one is a structured error.
    #[test]
    fn association_request_ssid_octets_round_trip_or_are_rejected(
        octets in vec(any::<u8>(), 0..=48),
    ) {
        let wire = request_with_ssid_octets(&octets);
        match AnyFrame::parse(&wire) {
            Ok(AnyFrame::AssociationRequest(req)) if octets.len() <= MAX_SSID_LEN => {
                prop_assert_eq!(req.ssid(), &octets[..]);
                prop_assert_eq!(AnyFrame::AssociationRequest(req).to_bytes(), wire);
            }
            Err(e) if octets.len() > MAX_SSID_LEN => {
                let value = octets.len() as u64;
                prop_assert_eq!(e, WifiError::FieldOverflow { field: "ssid", value });
            }
            got => prop_assert!(false, "{got:?} for {} octets", octets.len()),
        }
    }
}

#[test]
fn association_request_ssid_is_bounded_at_32_octets() {
    let (client, ap) = (MacAddr::station(1), MacAddr::station(0));
    let wire = AssociationRequest::new(client, ap, "s".repeat(32)).to_bytes();
    assert_eq!(AnyFrame::parse(&wire).unwrap().to_bytes(), wire);
    assert_eq!(
        AssociationRequest::parse(&request_with_ssid_octets(&[b's'; 40])),
        Err(WifiError::FieldOverflow {
            field: "ssid",
            value: 40
        })
    );
}

#[test]
fn association_request_keeps_a_non_utf8_ssid_exactly() {
    // Decoded lossily, 0xff would come back as U+FFFD, three octets that
    // re-encode to a different frame.
    let wire = request_with_ssid_octets(&[b'a', 0xff]);
    let frame = AnyFrame::parse(&wire).unwrap();
    assert!(matches!(&frame, AnyFrame::AssociationRequest(req) if req.ssid() == [b'a', 0xff]));
    assert_eq!(frame.to_bytes(), wire);
}

#[test]
#[should_panic(expected = "exceeds the 32-octet limit")]
fn association_request_new_refuses_a_300_octet_ssid() {
    let _ = AssociationRequest::new(MacAddr::station(1), MacAddr::station(0), "s".repeat(300));
}
