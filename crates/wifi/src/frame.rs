//! 802.11 frame encoding and decoding.
//!
//! The frames HIDE touches:
//!
//! * the beacon — the management frame carrying the TIM and (for HIDE
//!   APs) the BTIM. It exists as bytes: [`BeaconFields::write`] writes
//!   it into a caller's buffer, [`BeaconView`] reads it in place, and
//!   [`Beacon`] holds a received one's checked bytes,
//! * [`UdpPortMessage`] — the paper's new management frame
//!   (type 00 / subtype 1111) reporting a client's open UDP ports,
//! * [`Ack`] — the control frame acknowledging a UDP Port Message,
//! * [`PsPoll`] — a power-saving client's request for buffered unicast,
//! * [`BroadcastDataFrame`] — a UDP-padded broadcast data frame,
//! * the association frames of [`crate::assoc`].

use crate::assoc::ELEMENT_ID_SSID;
use crate::bitmap::PartialVirtualBitmap;
use crate::error::WifiError;
use crate::ie::{
    write_bitmap_element, write_element, BtimView, ElementView, InformationElement, OpenUdpPorts,
    TimView, ELEMENT_ID_BTIM, ELEMENT_ID_OPEN_UDP_PORTS, ELEMENT_ID_TIM,
};
use crate::mac::{Aid, FrameControl, FrameSubtype, MacAddr};
use crate::udp::UdpDatagram;

/// Length of the 3-address MAC header used by management and data frames.
pub const MAC_HEADER_LEN: usize = 24;
/// Length of an ACK frame (frame control, duration, receiver address, FCS
/// excluded as everywhere in this crate).
pub const ACK_LEN: usize = 10;
/// Fixed beacon-body fields before the information elements
/// (timestamp, beacon interval, capability).
pub const BEACON_FIXED_LEN: usize = 12;
/// Element ID of the standard Supported Rates element.
const ELEMENT_ID_SUPPORTED_RATES: u8 = 1;

fn encode_mac_header(
    out: &mut Vec<u8>,
    fc: FrameControl,
    duration: u16,
    addr1: MacAddr,
    addr2: MacAddr,
    addr3: MacAddr,
    seq: u16,
) {
    out.extend_from_slice(&fc.to_u16().to_le_bytes());
    out.extend_from_slice(&duration.to_le_bytes());
    out.extend_from_slice(addr1.as_ref());
    out.extend_from_slice(addr2.as_ref());
    out.extend_from_slice(addr3.as_ref());
    out.extend_from_slice(&(seq << 4).to_le_bytes());
}

struct MacHeader {
    fc: FrameControl,
    addr1: MacAddr,
    addr2: MacAddr,
    #[allow(dead_code)]
    addr3: MacAddr,
    seq: u16,
}

fn decode_mac_header(buf: &[u8]) -> Result<(MacHeader, &[u8]), WifiError> {
    if buf.len() < MAC_HEADER_LEN {
        return Err(WifiError::Truncated {
            what: "MAC header",
            needed: MAC_HEADER_LEN,
            available: buf.len(),
        });
    }
    let fc = FrameControl::from_u16(u16::from_le_bytes([buf[0], buf[1]]))?;
    let take = |start: usize| -> MacAddr {
        let mut a = [0u8; 6];
        a.copy_from_slice(&buf[start..start + 6]);
        MacAddr::new(a)
    };
    let seq = u16::from_le_bytes([buf[22], buf[23]]) >> 4;
    Ok((
        MacHeader {
            fc,
            addr1: take(4),
            addr2: take(10),
            addr3: take(16),
            seq,
        },
        &buf[MAC_HEADER_LEN..],
    ))
}

/// One beacon's contents, borrowed from the AP that sends it, and
/// [`BeaconFields::write`], the one beacon writer. The crate-level
/// example writes a beacon and reads it back.
#[derive(Debug, Clone, Copy)]
pub struct BeaconFields<'a> {
    /// The BSSID: the frame's transmitter and address 3.
    pub bssid: MacAddr,
    /// The 64-bit TSF timestamp in microseconds.
    pub timestamp_us: u64,
    /// The network name, carried in element 0. At most
    /// [`crate::assoc::MAX_SSID_LEN`] octets.
    pub ssid: &'a str,
    /// Beacons remaining until the next DTIM (0 at a DTIM beacon).
    pub dtim_count: u8,
    /// DTIM period in beacon intervals.
    pub dtim_period: u8,
    /// The TIM's one-bit broadcast indication for legacy clients.
    pub broadcast_buffered: bool,
    /// The TIM's unicast traffic bits.
    pub unicast: &'a PartialVirtualBitmap,
    /// The BTIM's broadcast flags; `None` sends no BTIM.
    pub btim: Option<&'a PartialVirtualBitmap>,
}

impl BeaconFields<'_> {
    /// Writes the beacon into `out`, cleared first: the MAC header, the
    /// fixed fields (a 100 TU interval, the ESS capability), then the
    /// SSID (0), the 802.11b basic rates (1), the TIM (5) and, with
    /// [`BeaconFields::btim`] set, the BTIM (201), both bitmaps trimmed
    /// per Fig. 5. A sender that keeps `out` across beacons writes each
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the SSID is longer than 255 bytes, which no element
    /// can carry; the AP refuses SSIDs over 32 octets before they get
    /// here.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.clear();
        let fc = FrameControl::new(FrameSubtype::Beacon);
        encode_mac_header(out, fc, 0, MacAddr::BROADCAST, self.bssid, self.bssid, 0);
        out.extend_from_slice(&self.timestamp_us.to_le_bytes());
        out.extend_from_slice(&100u16.to_le_bytes());
        out.extend_from_slice(&0x0001u16.to_le_bytes());
        write_element(out, ELEMENT_ID_SSID, |out| {
            out.extend_from_slice(self.ssid.as_bytes())
        });
        // 1, 2, 5.5 and 11 Mbit/s in 500 kbit/s units, each marked
        // basic (0x80).
        write_element(out, ELEMENT_ID_SUPPORTED_RATES, |out| {
            out.extend_from_slice(&[0x82, 0x84, 0x8b, 0x96])
        });
        write_bitmap_element(
            out,
            ELEMENT_ID_TIM,
            &[self.dtim_count, self.dtim_period],
            self.broadcast_buffered,
            self.unicast,
        );
        if let Some(flags) = self.btim {
            write_bitmap_element(out, ELEMENT_ID_BTIM, &[], false, flags);
        }
    }
}

/// A beacon read in place: every element checked, and the TIM and BTIM
/// bodies borrowed from the frame. It is all a suspended client needs
/// to decide whether to wake, and the only reader of a beacon.
#[derive(Debug, Clone, Copy)]
pub struct BeaconView<'a> {
    tim: Option<TimView<'a>>,
    btim: Option<BtimView<'a>>,
}

impl<'a> BeaconView<'a> {
    /// Reads a beacon frame in place.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::UnknownFrameType`] when the frame is not a
    /// beacon, [`WifiError::Truncated`] for short buffers, and element
    /// errors for malformed bodies.
    pub fn parse(buf: &'a [u8]) -> Result<Self, WifiError> {
        let (header, body) = decode_mac_header(buf)?;
        if header.fc.subtype() != FrameSubtype::Beacon {
            return Err(WifiError::UnknownFrameType {
                frame_type: header.fc.frame_type().to_bits(),
                subtype: header.fc.subtype().to_bits(),
            });
        }
        let Some((_, mut rest)) = body.split_first_chunk::<BEACON_FIXED_LEN>() else {
            return Err(WifiError::Truncated {
                what: "beacon fixed fields",
                needed: BEACON_FIXED_LEN,
                available: body.len(),
            });
        };
        let mut view = BeaconView {
            tim: None,
            btim: None,
        };
        while !rest.is_empty() {
            let (element, tail) = ElementView::split(rest)?;
            match element {
                ElementView::Tim(tim) => {
                    view.tim.get_or_insert(tim);
                }
                ElementView::Btim(btim) => {
                    view.btim.get_or_insert(btim);
                }
                _ => {}
            }
            rest = tail;
        }
        Ok(view)
    }

    /// The first TIM element, if present.
    pub fn tim(&self) -> Option<TimView<'a>> {
        self.tim
    }

    /// The first BTIM element, if present. Legacy beacons return `None`.
    pub fn btim(&self) -> Option<BtimView<'a>> {
        self.btim
    }
}

/// A received beacon's bytes, checked by [`BeaconView::parse`]: the one
/// owned beacon form. [`AnyFrame`] holds one because it owns every
/// frame it parses; everything else reads a beacon through a
/// [`BeaconView`].
///
/// # Example
///
/// ```
/// use hide_wifi::bitmap::PartialVirtualBitmap;
/// use hide_wifi::frame::{AnyFrame, BeaconFields};
/// use hide_wifi::mac::{Aid, MacAddr};
///
/// let flags: PartialVirtualBitmap = [Aid::new(3)?].into_iter().collect();
/// let mut bytes = Vec::new();
/// BeaconFields {
///     bssid: MacAddr::station(0),
///     timestamp_us: 0,
///     ssid: "hide-net",
///     dtim_count: 0,
///     dtim_period: 1,
///     broadcast_buffered: true,
///     unicast: &PartialVirtualBitmap::new(),
///     btim: Some(&flags),
/// }
/// .write(&mut bytes);
/// let frame = AnyFrame::parse(&bytes)?;
/// let AnyFrame::Beacon(beacon) = &frame else { panic!("a beacon") };
/// assert!(beacon.view().btim().unwrap().is_set(Aid::new(3)?));
/// assert_eq!(frame.to_bytes(), bytes);
/// # Ok::<(), hide_wifi::WifiError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Beacon {
    bytes: Vec<u8>,
}

impl Beacon {
    /// The beacon read in place again.
    pub fn view(&self) -> BeaconView<'_> {
        BeaconView::parse(&self.bytes).expect("checked when parsed")
    }

    /// The frame's bytes, as received.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// The HIDE UDP Port Message: a management frame (type 00, subtype 1111)
/// from a client to its AP carrying an [`OpenUdpPorts`] element (Fig. 3).
///
/// # Example
///
/// ```
/// use hide_wifi::frame::UdpPortMessage;
/// use hide_wifi::mac::MacAddr;
///
/// let msg = UdpPortMessage::new(MacAddr::station(1), MacAddr::station(0), [5353u16, 1900])?;
/// let parsed = UdpPortMessage::parse(&msg.to_bytes())?;
/// assert_eq!(parsed.ports(), &[5353, 1900]);
/// # Ok::<(), hide_wifi::WifiError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpPortMessage {
    client: MacAddr,
    ap: MacAddr,
    open_ports: OpenUdpPorts,
    seq: u16,
    more_fragments: bool,
}

impl UdpPortMessage {
    /// Creates a UDP Port Message.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::FieldOverflow`] when more ports are given
    /// than one element can carry.
    pub fn new<I: IntoIterator<Item = u16>>(
        client: MacAddr,
        ap: MacAddr,
        ports: I,
    ) -> Result<Self, WifiError> {
        Ok(UdpPortMessage {
            client,
            ap,
            open_ports: OpenUdpPorts::new(ports)?,
            seq: 0,
            more_fragments: false,
        })
    }

    /// Splits an arbitrarily large port list into a fragment train:
    /// every message but the last carries the MAC *More Fragments* bit,
    /// and the AP reassembles them into one table refresh.
    ///
    /// An empty port list yields a single empty message.
    pub fn paginate<I: IntoIterator<Item = u16>>(
        client: MacAddr,
        ap: MacAddr,
        ports: I,
    ) -> Vec<UdpPortMessage> {
        let ports: Vec<u16> = ports.into_iter().collect();
        let chunks: Vec<&[u16]> = if ports.is_empty() {
            vec![&[][..]]
        } else {
            ports.chunks(OpenUdpPorts::MAX_PORTS).collect()
        };
        let n = chunks.len();
        chunks
            .into_iter()
            .enumerate()
            .map(|(i, chunk)| UdpPortMessage {
                client,
                ap,
                open_ports: OpenUdpPorts::new(chunk.iter().copied())
                    .expect("chunk fits one element"),
                seq: 0,
                more_fragments: i + 1 < n,
            })
            .collect()
    }

    /// Sets the MAC sequence number (used by retransmissions).
    #[must_use]
    pub fn with_seq(mut self, seq: u16) -> Self {
        self.seq = seq & 0x0fff;
        self
    }

    /// The client (transmitter) address.
    pub fn client(&self) -> MacAddr {
        self.client
    }

    /// The AP (receiver) address.
    pub fn ap(&self) -> MacAddr {
        self.ap
    }

    /// The reported open UDP ports.
    pub fn ports(&self) -> &[u16] {
        self.open_ports.ports()
    }

    /// The MAC sequence number.
    pub fn seq(&self) -> u16 {
        self.seq
    }

    /// Whether further fragments of this port report follow.
    pub fn more_fragments(&self) -> bool {
        self.more_fragments
    }

    /// Sets the *More Fragments* bit.
    #[must_use]
    pub fn with_more_fragments(mut self, more_fragments: bool) -> Self {
        self.more_fragments = more_fragments;
        self
    }

    /// Encodes the full frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len_bytes());
        let fc = FrameControl::new(FrameSubtype::UdpPortMessage)
            .with_more_fragments(self.more_fragments);
        encode_mac_header(&mut out, fc, 0, self.ap, self.client, self.ap, self.seq);
        write_element(&mut out, ELEMENT_ID_OPEN_UDP_PORTS, |out| {
            self.open_ports.append_body_to(out)
        });
        out
    }

    /// Total encoded length in bytes. Matches Eq. (19)'s MAC-layer part:
    /// `L_mac + 2 + 2·N_i` (the PHY preamble is airtime, not bytes).
    pub fn len_bytes(&self) -> usize {
        MAC_HEADER_LEN + 2 + 2 * self.open_ports.len()
    }

    /// Decodes a UDP Port Message.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::UnknownFrameType`] when the frame is not a
    /// UDP Port Message and [`WifiError::UnexpectedElementId`] when the
    /// body's first element is not Open UDP Ports.
    pub fn parse(buf: &[u8]) -> Result<Self, WifiError> {
        let (header, body) = decode_mac_header(buf)?;
        if header.fc.subtype() != FrameSubtype::UdpPortMessage {
            return Err(WifiError::UnknownFrameType {
                frame_type: header.fc.frame_type().to_bits(),
                subtype: header.fc.subtype().to_bits(),
            });
        }
        let (element, _) = InformationElement::decode(body)?;
        let InformationElement::OpenUdpPorts(open_ports) = element else {
            return Err(WifiError::UnexpectedElementId {
                expected: ELEMENT_ID_OPEN_UDP_PORTS,
                found: element.element_id(),
            });
        };
        Ok(UdpPortMessage {
            client: header.addr2,
            ap: header.addr1,
            open_ports,
            seq: header.seq,
            more_fragments: header.fc.more_fragments(),
        })
    }
}

/// An ACK control frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    receiver: MacAddr,
}

impl Ack {
    /// Creates an ACK addressed to `receiver`.
    pub fn new(receiver: MacAddr) -> Self {
        Ack { receiver }
    }

    /// The receiver address.
    pub fn receiver(&self) -> MacAddr {
        self.receiver
    }

    /// Encodes the frame (10 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ACK_LEN);
        out.extend_from_slice(&FrameControl::new(FrameSubtype::Ack).to_u16().to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(self.receiver.as_ref());
        out
    }

    /// Decodes an ACK frame.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::Truncated`] or [`WifiError::UnknownFrameType`]
    /// for buffers that are not a well-formed ACK.
    pub fn parse(buf: &[u8]) -> Result<Self, WifiError> {
        if buf.len() < ACK_LEN {
            return Err(WifiError::Truncated {
                what: "ack frame",
                needed: ACK_LEN,
                available: buf.len(),
            });
        }
        let fc = FrameControl::from_u16(u16::from_le_bytes([buf[0], buf[1]]))?;
        if fc.subtype() != FrameSubtype::Ack {
            return Err(WifiError::UnknownFrameType {
                frame_type: fc.frame_type().to_bits(),
                subtype: fc.subtype().to_bits(),
            });
        }
        let mut a = [0u8; 6];
        a.copy_from_slice(&buf[4..10]);
        Ok(Ack {
            receiver: MacAddr::new(a),
        })
    }
}

/// A PS-Poll control frame: a power-saving client's request to retrieve
/// one buffered unicast frame after seeing its TIM bit set.
///
/// Per 802.11, the duration field carries the client's AID with the two
/// top bits set.
///
/// # Example
///
/// ```
/// use hide_wifi::frame::PsPoll;
/// use hide_wifi::mac::{Aid, MacAddr};
///
/// let poll = PsPoll::new(Aid::new(7)?, MacAddr::station(0), MacAddr::station(7));
/// let parsed = PsPoll::parse(&poll.to_bytes())?;
/// assert_eq!(parsed.aid().value(), 7);
/// # Ok::<(), hide_wifi::WifiError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsPoll {
    aid: Aid,
    bssid: MacAddr,
    transmitter: MacAddr,
}

/// Length of a PS-Poll frame (fc, aid, BSSID, TA).
pub const PS_POLL_LEN: usize = 16;

impl PsPoll {
    /// Creates a PS-Poll from the client `transmitter` to `bssid`.
    pub fn new(aid: Aid, bssid: MacAddr, transmitter: MacAddr) -> Self {
        PsPoll {
            aid,
            bssid,
            transmitter,
        }
    }

    /// The polling client's association ID.
    pub fn aid(&self) -> Aid {
        self.aid
    }

    /// The AP being polled.
    pub fn bssid(&self) -> MacAddr {
        self.bssid
    }

    /// The polling client's address.
    pub fn transmitter(&self) -> MacAddr {
        self.transmitter
    }

    /// Encodes the frame (16 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PS_POLL_LEN);
        out.extend_from_slice(
            &FrameControl::new(FrameSubtype::PsPoll)
                .to_u16()
                .to_le_bytes(),
        );
        // AID with the two most significant bits set, per the standard.
        out.extend_from_slice(&(self.aid.value() | 0xc000).to_le_bytes());
        out.extend_from_slice(self.bssid.as_ref());
        out.extend_from_slice(self.transmitter.as_ref());
        out
    }

    /// Decodes a PS-Poll frame.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::Truncated`] for short buffers,
    /// [`WifiError::UnknownFrameType`] for other frames and
    /// [`WifiError::InvalidAid`] for an out-of-range AID field.
    pub fn parse(buf: &[u8]) -> Result<Self, WifiError> {
        if buf.len() < PS_POLL_LEN {
            return Err(WifiError::Truncated {
                what: "ps-poll frame",
                needed: PS_POLL_LEN,
                available: buf.len(),
            });
        }
        let fc = FrameControl::from_u16(u16::from_le_bytes([buf[0], buf[1]]))?;
        if fc.subtype() != FrameSubtype::PsPoll {
            return Err(WifiError::UnknownFrameType {
                frame_type: fc.frame_type().to_bits(),
                subtype: fc.subtype().to_bits(),
            });
        }
        let aid = Aid::new(u16::from_le_bytes([buf[2], buf[3]]) & 0x3fff)?;
        let take = |start: usize| -> MacAddr {
            let mut a = [0u8; 6];
            a.copy_from_slice(&buf[start..start + 6]);
            MacAddr::new(a)
        };
        Ok(PsPoll {
            aid,
            bssid: take(4),
            transmitter: take(10),
        })
    }
}

/// A UDP-padded broadcast data frame: a MAC data frame addressed to the
/// broadcast address whose body is an LLC/SNAP + IPv4 + UDP stack.
///
/// # Example
///
/// ```
/// use hide_wifi::frame::BroadcastDataFrame;
/// use hide_wifi::mac::MacAddr;
/// use hide_wifi::udp::UdpDatagram;
///
/// let dgram = UdpDatagram::new([10, 0, 0, 9], [255; 4], 5000, 1900, vec![0; 64]);
/// let frame = BroadcastDataFrame::new(MacAddr::station(0), dgram, false);
/// let parsed = BroadcastDataFrame::parse(&frame.to_bytes())?;
/// assert_eq!(parsed.udp_dst_port()?, 1900);
/// # Ok::<(), hide_wifi::WifiError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastDataFrame {
    transmitter: MacAddr,
    body: Vec<u8>,
    more_data: bool,
}

impl BroadcastDataFrame {
    /// Creates a broadcast data frame carrying `datagram`.
    ///
    /// `more_data` is the MAC *More Data* bit: the AP sets it on every
    /// buffered broadcast frame except the last of a DTIM delivery, so
    /// power-saving radios know whether to keep listening (it drives
    /// `d_more(i)` in Eq. (10)).
    pub fn new(transmitter: MacAddr, datagram: UdpDatagram, more_data: bool) -> Self {
        BroadcastDataFrame {
            transmitter,
            body: datagram.to_bytes(),
            more_data,
        }
    }

    /// Creates a frame from a pre-encoded body (used when replaying
    /// captured traces where only lengths and ports are known).
    pub fn from_raw_body(transmitter: MacAddr, body: Vec<u8>, more_data: bool) -> Self {
        BroadcastDataFrame {
            transmitter,
            body,
            more_data,
        }
    }

    /// The transmitter address (the AP when forwarded downstream).
    pub fn transmitter(&self) -> MacAddr {
        self.transmitter
    }

    /// The *More Data* bit.
    pub fn more_data(&self) -> bool {
        self.more_data
    }

    /// Sets the *More Data* bit (the AP adjusts it while queueing).
    pub fn set_more_data(&mut self, more_data: bool) {
        self.more_data = more_data;
    }

    /// The frame body (LLC/SNAP + IPv4 + UDP stack).
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Extracts the UDP destination port from the body.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::NotUdpPayload`] when the body is not a
    /// UDP-padded payload — such frames fall outside HIDE's scope.
    pub fn udp_dst_port(&self) -> Result<u16, WifiError> {
        UdpDatagram::peek_dst_port(&self.body)
    }

    /// Fully parses the carried datagram.
    ///
    /// # Errors
    ///
    /// Same conditions as [`UdpDatagram::parse`].
    pub fn datagram(&self) -> Result<UdpDatagram, WifiError> {
        UdpDatagram::parse(&self.body)
    }

    /// Encodes the full frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len_bytes());
        let fc = FrameControl::new(FrameSubtype::Data).with_more_data(self.more_data);
        encode_mac_header(
            &mut out,
            fc,
            0,
            MacAddr::BROADCAST,
            self.transmitter,
            self.transmitter,
            0,
        );
        out.extend_from_slice(&self.body);
        out
    }

    /// Total encoded length in bytes.
    pub fn len_bytes(&self) -> usize {
        MAC_HEADER_LEN + self.body.len()
    }

    /// Decodes a broadcast data frame.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::UnknownFrameType`] when the frame is not a
    /// data frame.
    pub fn parse(buf: &[u8]) -> Result<Self, WifiError> {
        let (header, body) = decode_mac_header(buf)?;
        if header.fc.subtype() != FrameSubtype::Data {
            return Err(WifiError::UnknownFrameType {
                frame_type: header.fc.frame_type().to_bits(),
                subtype: header.fc.subtype().to_bits(),
            });
        }
        Ok(BroadcastDataFrame {
            transmitter: header.addr2,
            body: body.to_vec(),
            more_data: header.fc.more_data(),
        })
    }
}

/// Any frame this crate can decode, with a single dispatching parser.
///
/// # Example
///
/// ```
/// use hide_wifi::frame::{Ack, AnyFrame};
/// use hide_wifi::mac::MacAddr;
///
/// let ack = Ack::new(MacAddr::station(1));
/// match AnyFrame::parse(&ack.to_bytes())? {
///     AnyFrame::Ack(a) => assert_eq!(a.receiver(), MacAddr::station(1)),
///     other => panic!("expected an ACK, got {other:?}"),
/// }
/// # Ok::<(), hide_wifi::WifiError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnyFrame {
    /// A beacon, as its checked bytes.
    Beacon(Beacon),
    /// A HIDE UDP Port Message.
    UdpPortMessage(UdpPortMessage),
    /// An ACK.
    Ack(Ack),
    /// A PS-Poll.
    PsPoll(PsPoll),
    /// A broadcast (or other) data frame.
    Data(BroadcastDataFrame),
    /// An association request.
    AssociationRequest(crate::assoc::AssociationRequest),
    /// An association response.
    AssociationResponse(crate::assoc::AssociationResponse),
    /// A disassociation notice.
    Disassociation(crate::assoc::Disassociation),
}

impl AnyFrame {
    /// Decodes any supported frame by inspecting the frame-control
    /// field first.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::Truncated`] for buffers shorter than a
    /// frame-control field, [`WifiError::UnknownFrameType`] for
    /// unmodelled types, and the per-frame errors for malformed bodies.
    pub fn parse(buf: &[u8]) -> Result<Self, WifiError> {
        if buf.len() < 2 {
            return Err(WifiError::Truncated {
                what: "frame control",
                needed: 2,
                available: buf.len(),
            });
        }
        let fc = FrameControl::from_u16(u16::from_le_bytes([buf[0], buf[1]]))?;
        Ok(match fc.subtype() {
            FrameSubtype::Beacon => {
                BeaconView::parse(buf)?;
                AnyFrame::Beacon(Beacon {
                    bytes: buf.to_vec(),
                })
            }
            FrameSubtype::UdpPortMessage => AnyFrame::UdpPortMessage(UdpPortMessage::parse(buf)?),
            FrameSubtype::Ack => AnyFrame::Ack(Ack::parse(buf)?),
            FrameSubtype::PsPoll => AnyFrame::PsPoll(PsPoll::parse(buf)?),
            FrameSubtype::Data => AnyFrame::Data(BroadcastDataFrame::parse(buf)?),
            FrameSubtype::AssociationRequest => {
                AnyFrame::AssociationRequest(crate::assoc::AssociationRequest::parse(buf)?)
            }
            FrameSubtype::AssociationResponse => {
                AnyFrame::AssociationResponse(crate::assoc::AssociationResponse::parse(buf)?)
            }
            FrameSubtype::Disassociation => {
                AnyFrame::Disassociation(crate::assoc::Disassociation::parse(buf)?)
            }
        })
    }

    /// The subtype of the decoded frame.
    pub fn subtype(&self) -> FrameSubtype {
        match self {
            AnyFrame::Beacon(_) => FrameSubtype::Beacon,
            AnyFrame::UdpPortMessage(_) => FrameSubtype::UdpPortMessage,
            AnyFrame::Ack(_) => FrameSubtype::Ack,
            AnyFrame::PsPoll(_) => FrameSubtype::PsPoll,
            AnyFrame::Data(_) => FrameSubtype::Data,
            AnyFrame::AssociationRequest(_) => FrameSubtype::AssociationRequest,
            AnyFrame::AssociationResponse(_) => FrameSubtype::AssociationResponse,
            AnyFrame::Disassociation(_) => FrameSubtype::Disassociation,
        }
    }

    /// Re-encodes the frame to its wire bytes.
    ///
    /// Inverse of [`AnyFrame::parse`]: for every buffer that parses,
    /// `AnyFrame::parse(buf)?.to_bytes() == buf`.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            AnyFrame::Beacon(f) => f.as_bytes().to_vec(),
            AnyFrame::UdpPortMessage(f) => f.to_bytes(),
            AnyFrame::Ack(f) => f.to_bytes(),
            AnyFrame::PsPoll(f) => f.to_bytes(),
            AnyFrame::Data(f) => f.to_bytes(),
            AnyFrame::AssociationRequest(f) => f.to_bytes(),
            AnyFrame::AssociationResponse(f) => f.to_bytes(),
            AnyFrame::Disassociation(f) => f.to_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{Aid, MAX_AID};

    fn aid(v: u16) -> Aid {
        Aid::new(v).unwrap()
    }

    /// A DTIM beacon of BSSID `station(0)`, written fresh.
    fn beacon_bytes(
        unicast: &PartialVirtualBitmap,
        btim: Option<&PartialVirtualBitmap>,
        broadcast_buffered: bool,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        BeaconFields {
            bssid: MacAddr::station(0),
            timestamp_us: 123_456,
            ssid: "HideNet",
            dtim_count: 0,
            dtim_period: 3,
            broadcast_buffered,
            unicast,
            btim,
        }
        .write(&mut out);
        out
    }

    /// The body of the first element `id` after the fixed fields.
    fn body_of(bytes: &[u8], id: u8) -> Vec<u8> {
        let elements = InformationElement::decode_all(&bytes[36..]).unwrap();
        elements
            .into_iter()
            .find_map(|e| match e {
                InformationElement::Raw(raw) if raw.id == id => Some(raw.body),
                _ => None,
            })
            .unwrap()
    }

    #[test]
    fn any_frame_dispatches_every_type() {
        use crate::assoc::{AssociationRequest, AssociationResponse, Disassociation};
        let aid = Aid::new(3).unwrap();
        let frames: Vec<(Vec<u8>, FrameSubtype)> = vec![
            (
                beacon_bytes(&PartialVirtualBitmap::new(), None, false),
                FrameSubtype::Beacon,
            ),
            (
                UdpPortMessage::new(MacAddr::station(1), MacAddr::station(0), [80u16])
                    .unwrap()
                    .to_bytes(),
                FrameSubtype::UdpPortMessage,
            ),
            (Ack::new(MacAddr::station(1)).to_bytes(), FrameSubtype::Ack),
            (
                PsPoll::new(aid, MacAddr::station(0), MacAddr::station(1)).to_bytes(),
                FrameSubtype::PsPoll,
            ),
            (
                BroadcastDataFrame::new(
                    MacAddr::station(0),
                    UdpDatagram::new([1, 1, 1, 1], [255; 4], 1, 2, vec![]),
                    false,
                )
                .to_bytes(),
                FrameSubtype::Data,
            ),
            (
                AssociationRequest::new(MacAddr::station(1), MacAddr::station(0), "x").to_bytes(),
                FrameSubtype::AssociationRequest,
            ),
            (
                AssociationResponse::success(MacAddr::station(0), MacAddr::station(1), aid)
                    .to_bytes(),
                FrameSubtype::AssociationResponse,
            ),
            (
                Disassociation::new(MacAddr::station(1), MacAddr::station(0), 8).to_bytes(),
                FrameSubtype::Disassociation,
            ),
        ];
        for (bytes, expected) in frames {
            let parsed = AnyFrame::parse(&bytes).unwrap();
            assert_eq!(parsed.subtype(), expected);
        }
    }

    #[test]
    fn any_frame_rejects_garbage() {
        assert!(AnyFrame::parse(&[]).is_err());
        assert!(AnyFrame::parse(&[0xff, 0xff, 0, 0]).is_err());
    }

    #[test]
    fn written_beacon_reads_back_every_aid() {
        let flags: PartialVirtualBitmap = [4u16, 700, 2007].into_iter().map(aid).collect();
        let unicast: PartialVirtualBitmap = [1u16, 64, 1984].into_iter().map(aid).collect();
        for bcast in [false, true] {
            let bytes = beacon_bytes(&unicast, Some(&flags), bcast);
            let view = BeaconView::parse(&bytes).unwrap();
            let (tim, btim) = (view.tim().unwrap(), view.btim().unwrap());
            assert_eq!((tim.dtim_count(), tim.dtim_period()), (0, 3));
            assert_eq!(tim.broadcast_buffered(), bcast);
            let control = body_of(&bytes, ELEMENT_ID_TIM)[2];
            assert_eq!(control & 1, u8::from(bcast), "Bitmap Control bit 0");
            for v in 1..=MAX_AID {
                assert_eq!(btim.is_set(aid(v)), flags.is_set(aid(v)), "BTIM aid {v}");
                assert_eq!(
                    tim.traffic_for(aid(v)),
                    unicast.is_set(aid(v)),
                    "TIM aid {v}"
                );
            }
            assert_eq!(bytes[24..32], 123_456u64.to_le_bytes());
            assert_eq!(bytes[32..34], 100u16.to_le_bytes());
        }
    }

    #[test]
    fn tim_and_btim_are_trimmed_per_fig5() {
        // (AIDs, N1, bitmap octets on air): an even N1, leading and
        // trailing zero octets dropped, one zero octet for an empty map.
        let cases: [(&[u16], u8, &[u8]); 5] = [
            (&[], 0, &[0]),
            (&[1], 0, &[0b10]),
            (&[21], 2, &[0b10_0000]),
            (&[24], 2, &[0, 1]),
            (&[33, 53], 4, &[0b10, 0, 0b10_0000]),
        ];
        for (aids, n1, octets) in cases {
            let map: PartialVirtualBitmap = aids.iter().map(|&v| aid(v)).collect();
            let bytes = beacon_bytes(&map, Some(&map), false);
            let btim = body_of(&bytes, ELEMENT_ID_BTIM);
            assert_eq!((btim[0], &btim[1..]), (n1, octets), "BTIM {aids:?}");
            let tim = body_of(&bytes, ELEMENT_ID_TIM);
            assert_eq!(tim[..3], [0, 3, n1], "TIM {aids:?}");
            assert_eq!(&tim[3..], octets, "TIM {aids:?}");
            let view = BeaconView::parse(&bytes).unwrap();
            assert_eq!(view.btim().unwrap().body_len(), 1 + octets.len());
        }
    }

    #[test]
    fn legacy_beacon_has_no_btim() {
        let bytes = beacon_bytes(&PartialVirtualBitmap::new(), None, false);
        let view = BeaconView::parse(&bytes).unwrap();
        assert!(view.btim().is_none());
        assert_eq!(view.tim().unwrap().dtim_period(), 3);
    }

    #[test]
    fn beacon_elements_come_in_standard_order() {
        let empty = PartialVirtualBitmap::new();
        for (btim, ids) in [(None, &[0, 1, 5][..]), (Some(&empty), &[0, 1, 5, 201][..])] {
            let bytes = beacon_bytes(&empty, btim, false);
            let elements = InformationElement::decode_all(&bytes[36..]).unwrap();
            let got: Vec<u8> = elements
                .iter()
                .map(InformationElement::element_id)
                .collect();
            assert_eq!(got, ids);
            assert_eq!(body_of(&bytes, 0), b"HideNet");
            assert_eq!(body_of(&bytes, 1), [0x82, 0x84, 0x8b, 0x96]);
        }
    }

    #[test]
    fn write_overwrites_the_buffer() {
        let flags: PartialVirtualBitmap = [aid(2007)].into_iter().collect();
        let empty = PartialVirtualBitmap::new();
        let long = beacon_bytes(&empty, Some(&flags), true);
        let short = beacon_bytes(&empty, None, false);
        let fields = |btim, broadcast_buffered| BeaconFields {
            bssid: MacAddr::station(0),
            timestamp_us: 123_456,
            ssid: "HideNet",
            dtim_count: 0,
            dtim_period: 3,
            broadcast_buffered,
            unicast: &empty,
            btim,
        };
        let mut buf = vec![0xaa; 7];
        fields(Some(&flags), true).write(&mut buf);
        assert_eq!(buf, long);
        let capacity = buf.capacity();
        fields(None, false).write(&mut buf);
        assert_eq!(buf, short);
        assert_eq!(buf.capacity(), capacity);
    }

    #[test]
    fn beacon_view_reads_the_first_tim_and_btim() {
        let first: PartialVirtualBitmap = [aid(5)].into_iter().collect();
        let mut bytes = beacon_bytes(&first, Some(&first), true);
        // A second TIM (AID 6, broadcast bit clear) and BTIM (AID 6).
        bytes.extend_from_slice(&[5, 4, 0, 1, 0, 0b100_0000, 201, 2, 0, 0b100_0000]);
        let view = BeaconView::parse(&bytes).unwrap();
        let (tim, btim) = (view.tim().unwrap(), view.btim().unwrap());
        assert!(tim.broadcast_buffered());
        for v in [5, 6] {
            assert_eq!(btim.is_set(aid(v)), v == 5);
            assert_eq!(tim.traffic_for(aid(v)), v == 5);
        }
        assert_eq!(btim.body_len(), 2);
    }

    #[test]
    fn beacon_without_elements_has_no_tim_or_btim() {
        let mut bytes = beacon_bytes(&PartialVirtualBitmap::new(), None, false);
        bytes.truncate(MAC_HEADER_LEN + BEACON_FIXED_LEN);
        let view = BeaconView::parse(&bytes).unwrap();
        assert!(view.tim().is_none());
        assert!(view.btim().is_none());
        assert!(matches!(
            BeaconView::parse(&bytes[..MAC_HEADER_LEN + BEACON_FIXED_LEN - 1]),
            Err(WifiError::Truncated {
                what: "beacon fixed fields",
                ..
            })
        ));
    }

    #[test]
    fn any_frame_keeps_a_beacons_checked_bytes() {
        let flags: PartialVirtualBitmap = [aid(9)].into_iter().collect();
        let bytes = beacon_bytes(&flags, Some(&flags), false);
        let AnyFrame::Beacon(beacon) = AnyFrame::parse(&bytes).unwrap() else {
            panic!("expected a beacon");
        };
        assert_eq!(beacon.as_bytes(), &bytes[..]);
        assert!(beacon.view().btim().unwrap().is_set(aid(9)));
        assert!(matches!(
            AnyFrame::parse(&bytes[..bytes.len() - 1]),
            Err(WifiError::Truncated { .. })
        ));
    }

    #[test]
    fn beacon_rejects_non_beacon() {
        let msg = UdpPortMessage::new(MacAddr::station(1), MacAddr::station(0), [80u16]).unwrap();
        assert!(matches!(
            BeaconView::parse(&msg.to_bytes()),
            Err(WifiError::UnknownFrameType { .. })
        ));
    }

    #[test]
    fn udp_port_message_round_trip() {
        let ports: Vec<u16> = (1000..1100).collect();
        let msg = UdpPortMessage::new(MacAddr::station(7), MacAddr::station(0), ports.clone())
            .unwrap()
            .with_seq(99);
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.len_bytes());
        let parsed = UdpPortMessage::parse(&bytes).unwrap();
        assert_eq!(parsed.ports(), &ports[..]);
        assert_eq!(parsed.seq(), 99);
        assert_eq!(parsed.client(), MacAddr::station(7));
        assert_eq!(parsed.ap(), MacAddr::station(0));
    }

    #[test]
    fn udp_port_message_length_matches_eq19() {
        // Eq. (19): L = Lmac + 2 + 2*Ni bytes (MAC part; PHY is airtime).
        let msg = UdpPortMessage::new(
            MacAddr::station(1),
            MacAddr::station(0),
            (0..100).map(|i| 1000 + i),
        )
        .unwrap();
        assert_eq!(msg.len_bytes(), MAC_HEADER_LEN + 2 + 2 * 100);
    }

    #[test]
    fn paginate_splits_large_port_lists() {
        let ports: Vec<u16> = (0..300).collect();
        let msgs =
            UdpPortMessage::paginate(MacAddr::station(1), MacAddr::station(0), ports.clone());
        assert_eq!(msgs.len(), 3); // 127 + 127 + 46
        assert!(msgs[0].more_fragments());
        assert!(msgs[1].more_fragments());
        assert!(!msgs[2].more_fragments());
        let reassembled: Vec<u16> = msgs.iter().flat_map(|m| m.ports().to_vec()).collect();
        assert_eq!(reassembled, ports);
        // The bit survives the wire.
        let parsed = UdpPortMessage::parse(&msgs[0].to_bytes()).unwrap();
        assert!(parsed.more_fragments());
        let parsed = UdpPortMessage::parse(&msgs[2].to_bytes()).unwrap();
        assert!(!parsed.more_fragments());
    }

    #[test]
    fn paginate_small_list_is_single_message() {
        let msgs = UdpPortMessage::paginate(MacAddr::station(1), MacAddr::station(0), [80u16]);
        assert_eq!(msgs.len(), 1);
        assert!(!msgs[0].more_fragments());
        let msgs = UdpPortMessage::paginate(MacAddr::station(1), MacAddr::station(0), []);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].ports().is_empty());
    }

    #[test]
    fn ack_round_trip() {
        let ack = Ack::new(MacAddr::station(3));
        let bytes = ack.to_bytes();
        assert_eq!(bytes.len(), ACK_LEN);
        assert_eq!(Ack::parse(&bytes).unwrap(), ack);
    }

    #[test]
    fn ack_rejects_data_frame() {
        let dgram = UdpDatagram::new([1, 1, 1, 1], [255; 4], 1, 2, vec![]);
        let frame = BroadcastDataFrame::new(MacAddr::station(0), dgram, false);
        assert!(Ack::parse(&frame.to_bytes()).is_err());
    }

    #[test]
    fn broadcast_frame_round_trip() {
        let dgram = UdpDatagram::new([10, 0, 0, 1], [255; 4], 3000, 17500, vec![9; 40]);
        let frame = BroadcastDataFrame::new(MacAddr::station(0), dgram.clone(), true);
        let parsed = BroadcastDataFrame::parse(&frame.to_bytes()).unwrap();
        assert_eq!(parsed, frame);
        assert!(parsed.more_data());
        assert_eq!(parsed.udp_dst_port().unwrap(), 17500);
        assert_eq!(parsed.datagram().unwrap(), dgram);
    }

    #[test]
    fn more_data_bit_survives_round_trip() {
        let dgram = UdpDatagram::new([10, 0, 0, 1], [255; 4], 1, 2, vec![]);
        for md in [false, true] {
            let frame = BroadcastDataFrame::new(MacAddr::station(0), dgram.clone(), md);
            let parsed = BroadcastDataFrame::parse(&frame.to_bytes()).unwrap();
            assert_eq!(parsed.more_data(), md);
        }
    }

    #[test]
    fn ps_poll_round_trip() {
        let poll = PsPoll::new(
            Aid::new(1234).unwrap(),
            MacAddr::station(0),
            MacAddr::station(9),
        );
        let bytes = poll.to_bytes();
        assert_eq!(bytes.len(), PS_POLL_LEN);
        let parsed = PsPoll::parse(&bytes).unwrap();
        assert_eq!(parsed, poll);
    }

    #[test]
    fn ps_poll_sets_top_aid_bits() {
        let poll = PsPoll::new(
            Aid::new(5).unwrap(),
            MacAddr::station(0),
            MacAddr::station(1),
        );
        let bytes = poll.to_bytes();
        let field = u16::from_le_bytes([bytes[2], bytes[3]]);
        assert_eq!(field & 0xc000, 0xc000);
    }

    #[test]
    fn ps_poll_rejects_other_frames() {
        let ack = Ack::new(MacAddr::station(1));
        assert!(PsPoll::parse(&ack.to_bytes()).is_err());
        assert!(PsPoll::parse(&[0u8; 4]).is_err());
    }

    #[test]
    fn non_udp_body_reports_not_udp() {
        let frame = BroadcastDataFrame::from_raw_body(MacAddr::station(0), vec![0u8; 60], false);
        assert!(frame.udp_dst_port().is_err());
    }
}
