//! 802.11 frame encoding and decoding.
//!
//! Four frame types are modelled, the ones HIDE touches:
//!
//! * [`Beacon`] — management frame carrying TIM and (for HIDE APs) BTIM
//!   elements,
//! * [`UdpPortMessage`] — the paper's new management frame
//!   (type 00 / subtype 1111) reporting a client's open UDP ports,
//! * [`Ack`] — the control frame acknowledging a UDP Port Message,
//! * [`BroadcastDataFrame`] — a UDP-padded broadcast data frame.

use crate::error::WifiError;
use crate::ie::{
    Btim, BtimView, ElementView, InformationElement, OpenUdpPorts, RawElement, Tim, TimView,
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

/// A beacon management frame.
///
/// # Example
///
/// ```
/// use hide_wifi::frame::Beacon;
/// use hide_wifi::mac::MacAddr;
///
/// let beacon = Beacon::builder(MacAddr::station(0))
///     .beacon_interval_tu(100)
///     .dtim(0, 1)
///     .build();
/// let parsed = Beacon::parse(&beacon.to_bytes())?;
/// assert_eq!(parsed.beacon_interval_tu(), 100);
/// assert!(parsed.tim().unwrap().is_dtim());
/// # Ok::<(), hide_wifi::WifiError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Beacon {
    bssid: MacAddr,
    timestamp_us: u64,
    beacon_interval_tu: u16,
    capability: u16,
    elements: Vec<InformationElement>,
}

impl Beacon {
    /// Starts building a beacon for the given BSSID.
    pub fn builder(bssid: MacAddr) -> BeaconBuilder {
        BeaconBuilder {
            beacon: Beacon {
                bssid,
                timestamp_us: 0,
                beacon_interval_tu: 100,
                capability: 0x0001, // ESS
                elements: Vec::new(),
            },
            tim: None,
            ssid: None,
            rates: None,
        }
    }

    /// The BSSID (source and address-3 of the frame).
    pub fn bssid(&self) -> MacAddr {
        self.bssid
    }

    /// The 64-bit TSF timestamp in microseconds.
    pub fn timestamp_us(&self) -> u64 {
        self.timestamp_us
    }

    /// Beacon interval in time units.
    pub fn beacon_interval_tu(&self) -> u16 {
        self.beacon_interval_tu
    }

    /// All information elements in order.
    pub fn elements(&self) -> &[InformationElement] {
        &self.elements
    }

    /// The TIM element, if present.
    pub fn tim(&self) -> Option<&Tim> {
        self.elements.iter().find_map(|e| match e {
            InformationElement::Tim(tim) => Some(tim),
            _ => None,
        })
    }

    /// The SSID, when the beacon carries element 0.
    pub fn ssid(&self) -> Option<String> {
        self.elements.iter().find_map(|e| match e {
            InformationElement::Raw(raw) if raw.id == 0 => {
                Some(String::from_utf8_lossy(&raw.body).into_owned())
            }
            _ => None,
        })
    }

    /// The BTIM element, if present. Legacy beacons return `None`.
    pub fn btim(&self) -> Option<&Btim> {
        self.elements.iter().find_map(|e| match e {
            InformationElement::Btim(btim) => Some(btim),
            _ => None,
        })
    }

    /// Encodes the full frame (MAC header + body, FCS excluded).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len_bytes());
        self.encode_into(&mut out);
        out
    }

    /// Like [`Beacon::to_bytes`], but writes the frame into `out`
    /// (cleared first): a sender that keeps one buffer across beacons
    /// encodes each without allocating.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        let fc = FrameControl::new(FrameSubtype::Beacon);
        encode_mac_header(out, fc, 0, MacAddr::BROADCAST, self.bssid, self.bssid, 0);
        out.extend_from_slice(&self.timestamp_us.to_le_bytes());
        out.extend_from_slice(&self.beacon_interval_tu.to_le_bytes());
        out.extend_from_slice(&self.capability.to_le_bytes());
        for e in &self.elements {
            e.encode(out);
        }
    }

    /// Total encoded length in bytes (the `L_i` of Eq. (6)).
    pub fn len_bytes(&self) -> usize {
        MAC_HEADER_LEN
            + BEACON_FIXED_LEN
            + self
                .elements
                .iter()
                .map(InformationElement::encoded_len)
                .sum::<usize>()
    }

    /// Decodes a beacon frame: [`BeaconView::parse`], then an owned copy
    /// of every element.
    ///
    /// # Errors
    ///
    /// The errors of [`BeaconView::parse`].
    pub fn parse(buf: &[u8]) -> Result<Self, WifiError> {
        let view = BeaconView::parse(buf)?;
        Ok(Beacon {
            bssid: view.bssid,
            timestamp_us: view.timestamp_us,
            beacon_interval_tu: view.beacon_interval_tu,
            capability: view.capability,
            elements: InformationElement::decode_all(view.elements)?,
        })
    }
}

/// A beacon read in place: the fixed fields decoded, every element
/// checked, and the TIM and BTIM bodies borrowed from the frame. It is
/// all a suspended client needs to decide whether to wake, and it
/// accepts and rejects exactly the bytes [`Beacon::parse`] does.
///
/// # Example
///
/// ```
/// use hide_wifi::bitmap::PartialVirtualBitmap;
/// use hide_wifi::frame::{Beacon, BeaconView};
/// use hide_wifi::ie::{Btim, InformationElement};
/// use hide_wifi::mac::{Aid, MacAddr};
///
/// let flags: PartialVirtualBitmap = [Aid::new(9)?].into_iter().collect();
/// let mut buf = Vec::new();
/// Beacon::builder(MacAddr::station(0))
///     .dtim(0, 1)
///     .element(InformationElement::Btim(Btim::new(flags)))
///     .build()
///     .encode_into(&mut buf);
/// let view = BeaconView::parse(&buf)?;
/// assert!(view.btim().unwrap().is_set(Aid::new(9)?));
/// assert!(!view.tim().unwrap().broadcast_buffered());
/// # Ok::<(), hide_wifi::WifiError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BeaconView<'a> {
    bssid: MacAddr,
    timestamp_us: u64,
    beacon_interval_tu: u16,
    capability: u16,
    elements: &'a [u8],
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
        let Some((fixed, elements)) = body.split_first_chunk::<BEACON_FIXED_LEN>() else {
            return Err(WifiError::Truncated {
                what: "beacon fixed fields",
                needed: BEACON_FIXED_LEN,
                available: body.len(),
            });
        };
        let mut view = BeaconView {
            bssid: header.addr2,
            timestamp_us: u64::from_le_bytes(fixed[0..8].try_into().expect("8 bytes")),
            beacon_interval_tu: u16::from_le_bytes([fixed[8], fixed[9]]),
            capability: u16::from_le_bytes([fixed[10], fixed[11]]),
            elements,
            tim: None,
            btim: None,
        };
        let mut rest = elements;
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

/// Builder for [`Beacon`] frames.
#[derive(Debug)]
pub struct BeaconBuilder {
    beacon: Beacon,
    tim: Option<Tim>,
    ssid: Option<String>,
    rates: Option<Vec<u8>>,
}

impl BeaconBuilder {
    /// Sets the TSF timestamp in microseconds.
    pub fn timestamp_us(mut self, ts: u64) -> Self {
        self.beacon.timestamp_us = ts;
        self
    }

    /// Sets the beacon interval in time units.
    pub fn beacon_interval_tu(mut self, tu: u16) -> Self {
        self.beacon.beacon_interval_tu = tu;
        self
    }

    /// Sets the network's SSID (prepended as the standard element 0).
    pub fn ssid(mut self, ssid: impl Into<String>) -> Self {
        self.ssid = Some(ssid.into());
        self
    }

    /// Advertises the 802.11b basic rates (1, 2, 5.5, 11 Mbit/s) in a
    /// Supported Rates element (ID 1), all marked basic.
    pub fn supported_rates_11b(mut self) -> Self {
        // Rates in 500 kbit/s units with the basic-rate bit (0x80).
        self.rates = Some(vec![0x82, 0x84, 0x8b, 0x96]);
        self
    }

    /// Adds a standard TIM element with the given DTIM count and period
    /// (no buffered traffic indicated).
    pub fn dtim(mut self, count: u8, period: u8) -> Self {
        self.tim = Some(Tim::new(
            count,
            period,
            false,
            crate::bitmap::PartialVirtualBitmap::new(),
        ));
        self
    }

    /// Replaces the TIM element entirely.
    pub fn tim(mut self, tim: Tim) -> Self {
        self.tim = Some(tim);
        self
    }

    /// Appends an information element after the TIM.
    pub fn element(mut self, element: InformationElement) -> Self {
        self.beacon.elements.push(element);
        self
    }

    /// Finishes the beacon. Standard element order is preserved:
    /// SSID (0), Supported Rates (1), TIM (5), then everything else.
    pub fn build(self) -> Beacon {
        let BeaconBuilder {
            mut beacon,
            tim,
            ssid,
            rates,
        } = self;
        let ssid = ssid.map(|ssid| RawElement {
            id: 0,
            body: ssid.into_bytes(),
        });
        let rates = rates.map(|body| RawElement { id: 1, body });
        let rest = std::mem::take(&mut beacon.elements);
        beacon.elements = Vec::with_capacity(3 + rest.len());
        beacon.elements.extend(ssid.map(InformationElement::Raw));
        beacon.elements.extend(rates.map(InformationElement::Raw));
        beacon.elements.extend(tim.map(InformationElement::Tim));
        beacon.elements.extend(rest);
        beacon
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
        InformationElement::OpenUdpPorts(self.open_ports.clone()).encode(&mut out);
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
                expected: crate::ie::ELEMENT_ID_OPEN_UDP_PORTS,
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
/// use hide_wifi::frame::{AnyFrame, Beacon};
/// use hide_wifi::mac::MacAddr;
///
/// let beacon = Beacon::builder(MacAddr::station(0)).dtim(0, 1).build();
/// match AnyFrame::parse(&beacon.to_bytes())? {
///     AnyFrame::Beacon(b) => assert!(b.tim().is_some()),
///     other => panic!("expected a beacon, got {other:?}"),
/// }
/// # Ok::<(), hide_wifi::WifiError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnyFrame {
    /// A beacon.
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
            FrameSubtype::Beacon => AnyFrame::Beacon(Beacon::parse(buf)?),
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
            AnyFrame::Beacon(f) => f.to_bytes(),
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
    use crate::bitmap::PartialVirtualBitmap;
    use crate::mac::Aid;

    #[test]
    fn any_frame_dispatches_every_type() {
        use crate::assoc::{AssociationRequest, AssociationResponse, Disassociation};
        let aid = Aid::new(3).unwrap();
        let frames: Vec<(Vec<u8>, FrameSubtype)> = vec![
            (
                Beacon::builder(MacAddr::station(0))
                    .dtim(0, 1)
                    .build()
                    .to_bytes(),
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
    fn beacon_round_trip_with_tim_and_btim() {
        let mut flags = PartialVirtualBitmap::new();
        flags.set(Aid::new(4).unwrap());
        let beacon = Beacon::builder(MacAddr::station(0))
            .timestamp_us(123_456)
            .beacon_interval_tu(100)
            .dtim(0, 1)
            .element(InformationElement::Btim(Btim::new(flags)))
            .build();
        let bytes = beacon.to_bytes();
        assert_eq!(bytes.len(), beacon.len_bytes());
        let parsed = Beacon::parse(&bytes).unwrap();
        assert_eq!(parsed, beacon);
        assert!(parsed.tim().is_some());
        assert!(parsed.btim().unwrap().is_set(Aid::new(4).unwrap()));
    }

    #[test]
    fn legacy_beacon_has_no_btim() {
        let beacon = Beacon::builder(MacAddr::station(0)).dtim(0, 3).build();
        let parsed = Beacon::parse(&beacon.to_bytes()).unwrap();
        assert!(parsed.btim().is_none());
        assert_eq!(parsed.tim().unwrap().dtim_period(), 3);
    }

    #[test]
    fn beacon_with_ssid_and_rates_round_trips() {
        let beacon = Beacon::builder(MacAddr::station(0))
            .ssid("HideNet")
            .supported_rates_11b()
            .dtim(0, 1)
            .build();
        let parsed = Beacon::parse(&beacon.to_bytes()).unwrap();
        assert_eq!(parsed.ssid().as_deref(), Some("HideNet"));
        // Element order: SSID, rates, TIM.
        assert_eq!(parsed.elements()[0].element_id(), 0);
        assert_eq!(parsed.elements()[1].element_id(), 1);
        assert_eq!(parsed.elements()[2].element_id(), 5);
        assert!(parsed.tim().is_some());
    }

    #[test]
    fn tim_is_first_element() {
        let beacon = Beacon::builder(MacAddr::station(0))
            .element(InformationElement::Btim(Btim::new(
                PartialVirtualBitmap::new(),
            )))
            .dtim(0, 1)
            .build();
        assert!(matches!(beacon.elements()[0], InformationElement::Tim(_)));
    }

    #[test]
    fn encode_into_overwrites_the_buffer_with_to_bytes() {
        let mut flags = PartialVirtualBitmap::new();
        flags.set(Aid::new(2007).unwrap());
        let long = Beacon::builder(MacAddr::station(0))
            .ssid("HideNet")
            .dtim(0, 1)
            .element(InformationElement::Btim(Btim::new(flags)))
            .build();
        let short = Beacon::builder(MacAddr::station(0)).dtim(0, 1).build();
        let mut buf = vec![0xaa; 7];
        long.encode_into(&mut buf);
        assert_eq!(buf, long.to_bytes());
        let capacity = buf.capacity();
        short.encode_into(&mut buf);
        assert_eq!(buf, short.to_bytes());
        assert_eq!(buf.len(), short.len_bytes());
        assert_eq!(buf.capacity(), capacity);
    }

    #[test]
    fn beacon_view_reads_the_first_tim_and_btim() {
        let first: PartialVirtualBitmap = [Aid::new(5).unwrap()].into_iter().collect();
        let second: PartialVirtualBitmap = [Aid::new(6).unwrap()].into_iter().collect();
        let bytes = Beacon::builder(MacAddr::station(0))
            .tim(Tim::new(0, 1, true, first))
            .element(InformationElement::Btim(Btim::new(first)))
            .element(InformationElement::Tim(Tim::new(0, 1, false, second)))
            .element(InformationElement::Btim(Btim::new(second)))
            .build()
            .to_bytes();
        let view = BeaconView::parse(&bytes).unwrap();
        let owned = Beacon::parse(&bytes).unwrap();
        let (tim, btim) = (view.tim().unwrap(), view.btim().unwrap());
        assert!(tim.broadcast_buffered());
        assert_eq!(
            tim.broadcast_buffered(),
            owned.tim().unwrap().broadcast_buffered()
        );
        for v in [5, 6] {
            let aid = Aid::new(v).unwrap();
            assert_eq!(btim.is_set(aid), v == 5);
            assert_eq!(btim.is_set(aid), owned.btim().unwrap().is_set(aid));
            assert_eq!(tim.traffic_for(aid), v == 5);
        }
        assert_eq!(btim.body_len(), owned.btim().unwrap().body_len());
    }

    #[test]
    fn beacon_rejects_non_beacon() {
        let msg = UdpPortMessage::new(MacAddr::station(1), MacAddr::station(0), [80u16]).unwrap();
        assert!(Beacon::parse(&msg.to_bytes()).is_err());
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
