//! 802.11 information elements.
//!
//! Three elements matter to HIDE:
//!
//! * the standard **TIM** (element ID 5) with its DTIM count/period and the
//!   broadcast-buffered bit in Bitmap Control (Fig. 1 of the paper),
//! * the new **Open UDP Ports** element (ID 200, Fig. 3) carried in UDP
//!   Port Messages, and
//! * the new **Broadcast Traffic Indication Map (BTIM)** element (ID 201,
//!   Fig. 4) carried in beacons, whose bitmap is compressed per Fig. 5.
//!
//! Unknown elements are preserved as [`RawElement`]s so legacy elements
//! pass through untouched — the coexistence property Section III.D relies
//! on.

use crate::bitmap::{check_span, span_is_set, PartialVirtualBitmap};
use crate::error::WifiError;
use crate::mac::Aid;
use hide_obs::{Counter, Distribution, MetricsSink, TraceEventKind, TraceSink};

/// Element ID of the standard Traffic Indication Map.
pub const ELEMENT_ID_TIM: u8 = 5;
/// Element ID the paper assigns to Open UDP Ports (reserved in 802.11).
pub const ELEMENT_ID_OPEN_UDP_PORTS: u8 = 200;
/// Element ID the paper assigns to the BTIM (reserved in 802.11).
pub const ELEMENT_ID_BTIM: u8 = 201;

/// Maximum information-element body length.
pub const MAX_ELEMENT_BODY: usize = 255;

/// The standard Traffic Indication Map element.
///
/// # Example
///
/// ```
/// use hide_wifi::ie::Tim;
/// use hide_wifi::bitmap::PartialVirtualBitmap;
/// use hide_wifi::mac::Aid;
///
/// let mut unicast = PartialVirtualBitmap::new();
/// unicast.set(Aid::new(3)?);
/// let tim = Tim::new(0, 1, true, unicast);
/// assert!(tim.broadcast_buffered());
/// assert!(tim.traffic_for(Aid::new(3)?));
/// # Ok::<(), hide_wifi::WifiError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tim {
    dtim_count: u8,
    dtim_period: u8,
    broadcast_buffered: bool,
    bitmap: PartialVirtualBitmap,
}

impl Tim {
    /// Creates a TIM element.
    pub fn new(
        dtim_count: u8,
        dtim_period: u8,
        broadcast_buffered: bool,
        unicast_bitmap: PartialVirtualBitmap,
    ) -> Self {
        Tim {
            dtim_count,
            dtim_period,
            broadcast_buffered,
            bitmap: unicast_bitmap,
        }
    }

    /// Beacons remaining until the next DTIM (0 at a DTIM beacon).
    pub fn dtim_count(&self) -> u8 {
        self.dtim_count
    }

    /// DTIM period in beacon intervals.
    pub fn dtim_period(&self) -> u8 {
        self.dtim_period
    }

    /// Whether this beacon is a DTIM beacon.
    pub fn is_dtim(&self) -> bool {
        self.dtim_count == 0
    }

    /// The standard one-bit broadcast/multicast indication: bit 0 of the
    /// Bitmap Control field. When set, *every* legacy client must stay
    /// awake for the broadcast delivery that follows the DTIM.
    pub fn broadcast_buffered(&self) -> bool {
        self.broadcast_buffered
    }

    /// Whether unicast traffic is buffered for `aid`.
    pub fn traffic_for(&self, aid: Aid) -> bool {
        self.bitmap.is_set(aid)
    }

    /// The unicast traffic bitmap.
    pub fn bitmap(&self) -> &PartialVirtualBitmap {
        &self.bitmap
    }

    /// Encodes the element body (everything after ID and length).
    pub fn encode_body(&self) -> Vec<u8> {
        let (_, len) = self.bitmap.trimmed_span();
        let mut body = Vec::with_capacity(3 + len);
        self.append_body_to(&mut body);
        body
    }

    /// Appends the element body to `out` — the allocation-free path for
    /// per-beacon encoders reusing one buffer across DTIM cycles.
    pub fn append_body_to(&self, out: &mut Vec<u8>) {
        out.push(self.dtim_count);
        out.push(self.dtim_period);
        let control_at = out.len();
        out.push(0);
        let offset = self.bitmap.append_trimmed_to(out);
        // Bitmap Control: bit 0 = broadcast indicator, bits 1-7 = N1/2.
        out[control_at] = (self.broadcast_buffered as u8) | (((offset / 2) as u8) << 1);
    }

    /// Decodes an element body.
    ///
    /// # Errors
    ///
    /// The errors of [`TimView::parse`].
    pub fn decode_body(body: &[u8]) -> Result<Self, WifiError> {
        TimView::parse(body).map(|view| view.to_tim())
    }
}

/// A checked TIM element body, borrowed from the frame that carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimView<'a> {
    body: &'a [u8],
}

impl<'a> TimView<'a> {
    /// Checks a TIM element body.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::BadElementLength`] for bodies shorter than 4
    /// bytes and [`WifiError::BitmapTooLong`] when the bitmap runs past
    /// the virtual bitmap.
    pub fn parse(body: &'a [u8]) -> Result<Self, WifiError> {
        if body.len() < 4 {
            return Err(WifiError::BadElementLength {
                element_id: ELEMENT_ID_TIM,
                declared: body.len(),
            });
        }
        let view = TimView { body };
        check_span(view.offset(), body.len() - 3)?;
        Ok(view)
    }

    /// Bitmap Control bits 1–7 give `N1 / 2`.
    fn offset(&self) -> usize {
        usize::from(self.body[2] >> 1) * 2
    }

    /// Beacons remaining until the next DTIM (0 at a DTIM beacon).
    pub fn dtim_count(&self) -> u8 {
        self.body[0]
    }

    /// DTIM period in beacon intervals.
    pub fn dtim_period(&self) -> u8 {
        self.body[1]
    }

    /// The one-bit broadcast indication (bit 0 of Bitmap Control).
    pub fn broadcast_buffered(&self) -> bool {
        self.body[2] & 1 != 0
    }

    /// Whether unicast traffic is buffered for `aid`.
    pub fn traffic_for(&self, aid: Aid) -> bool {
        span_is_set(self.offset(), &self.body[3..], aid)
    }

    /// The owned element, its bitmap copied straight from the body.
    pub(crate) fn to_tim(self) -> Tim {
        Tim {
            dtim_count: self.dtim_count(),
            dtim_period: self.dtim_period(),
            broadcast_buffered: self.broadcast_buffered(),
            bitmap: PartialVirtualBitmap::from_span(self.offset(), &self.body[3..]),
        }
    }
}

/// The HIDE Broadcast Traffic Indication Map element (ID 201, Fig. 4).
///
/// Carries one *broadcast flag* bit per associated client: set when the AP
/// has buffered broadcast frames whose UDP destination port the client
/// listens on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btim {
    bitmap: PartialVirtualBitmap,
}

impl Btim {
    /// Creates a BTIM from per-client broadcast flags.
    pub fn new(flags: PartialVirtualBitmap) -> Self {
        Btim { bitmap: flags }
    }

    /// Whether client `aid` has useful broadcast frames buffered.
    pub fn is_set(&self, aid: Aid) -> bool {
        self.bitmap.is_set(aid)
    }

    /// `true` when no client has useful broadcast traffic.
    pub fn is_empty(&self) -> bool {
        self.bitmap.is_empty()
    }

    /// The underlying flag bitmap.
    pub fn bitmap(&self) -> &PartialVirtualBitmap {
        &self.bitmap
    }

    /// Encodes the element body: a 1-byte Offset (`N1`) followed by the
    /// trimmed partial virtual bitmap (Figs. 4 and 5).
    pub fn encode_body(&self) -> Vec<u8> {
        let (_, len) = self.bitmap.trimmed_span();
        let mut body = Vec::with_capacity(1 + len);
        self.append_body_to(&mut body);
        body
    }

    /// Appends the element body to `out` — the allocation-free path for
    /// per-beacon encoders reusing one buffer across DTIM cycles.
    pub fn append_body_to(&self, out: &mut Vec<u8>) {
        let offset_at = out.len();
        out.push(0);
        let offset = self.bitmap.append_trimmed_to(out);
        out[offset_at] = offset as u8;
    }

    /// Decodes an element body.
    ///
    /// # Errors
    ///
    /// The errors of [`BtimView::parse`].
    pub fn decode_body(body: &[u8]) -> Result<Self, WifiError> {
        BtimView::parse(body).map(|view| view.to_btim())
    }

    /// Encoded body length in bytes — the per-beacon overhead HIDE adds,
    /// the `L^b_i` of Eq. (16) (plus the 2-byte ID/length header counted
    /// by [`InformationElement::encoded_len`]). Computed from the
    /// trimmed span without materializing the encoding.
    pub fn body_len(&self) -> usize {
        1 + self.bitmap.trimmed_span().1
    }

    /// Records this element's on-air footprint into a metrics sink: one
    /// `BtimBeacons` tick, the full encoded length (body plus 2-byte
    /// ID/length header) as `BtimBytes`, the number of broadcast flags
    /// set as `BtimBitsSet`, and the per-beacon byte count into the
    /// `BtimBytesPerBeacon` distribution.
    pub fn observe<S: MetricsSink>(&self, sink: &mut S) {
        let bytes = (2 + self.body_len()) as u64;
        sink.incr(Counter::BtimBeacons);
        sink.add(Counter::BtimBytes, bytes);
        sink.add(Counter::BtimBitsSet, self.bitmap.count() as u64);
        sink.observe(Distribution::BtimBytesPerBeacon, bytes);
    }

    /// Emits a `BtimEmitted` trace event at simulation time `now` —
    /// the event-granular sibling of [`Btim::observe`]. A disabled sink
    /// skips even the payload computation.
    pub fn observe_traced<T: TraceSink>(&self, now: f64, trace: &mut T) {
        if trace.is_enabled() {
            trace.emit(
                now,
                TraceEventKind::BtimEmitted {
                    bytes: (2 + self.body_len()) as u32,
                    bits_set: self.bitmap.count() as u32,
                },
            );
        }
    }
}

/// A checked BTIM element body, borrowed from the frame that carries
/// it: what a suspended client reads its own broadcast flag from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtimView<'a> {
    body: &'a [u8],
}

impl<'a> BtimView<'a> {
    /// Checks a BTIM element body.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::BadElementLength`] for bodies shorter than 2
    /// bytes, [`WifiError::OddBitmapOffset`] for an odd Offset and
    /// [`WifiError::BitmapTooLong`] when the bitmap runs past the
    /// virtual bitmap.
    pub fn parse(body: &'a [u8]) -> Result<Self, WifiError> {
        if body.len() < 2 {
            return Err(WifiError::BadElementLength {
                element_id: ELEMENT_ID_BTIM,
                declared: body.len(),
            });
        }
        check_span(usize::from(body[0]), body.len() - 1)?;
        Ok(BtimView { body })
    }

    /// Whether client `aid` has useful broadcast frames buffered.
    pub fn is_set(&self, aid: Aid) -> bool {
        span_is_set(usize::from(self.body[0]), &self.body[1..], aid)
    }

    /// The body's length on air in bytes. It equals the decoded
    /// element's [`Btim::body_len`] whenever the sender trimmed the
    /// bitmap as Fig. 5 prescribes, as every encoder here does.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// The owned element, its bitmap copied straight from the body.
    pub(crate) fn to_btim(self) -> Btim {
        Btim {
            bitmap: PartialVirtualBitmap::from_span(usize::from(self.body[0]), &self.body[1..]),
        }
    }
}

/// The HIDE Open UDP Ports element (ID 200, Fig. 3): the list of UDP
/// ports open on `INADDR_ANY` that a client reports before suspending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenUdpPorts {
    ports: Vec<u16>,
}

impl OpenUdpPorts {
    /// Maximum number of ports one element can carry (255-byte body,
    /// 2 bytes per port).
    pub const MAX_PORTS: usize = MAX_ELEMENT_BODY / 2;

    /// Creates an element from a port list.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::FieldOverflow`] when more than
    /// [`OpenUdpPorts::MAX_PORTS`] ports are supplied.
    pub fn new<I: IntoIterator<Item = u16>>(ports: I) -> Result<Self, WifiError> {
        let ports: Vec<u16> = ports.into_iter().collect();
        if ports.len() > Self::MAX_PORTS {
            return Err(WifiError::FieldOverflow {
                field: "open udp ports",
                value: ports.len() as u64,
            });
        }
        Ok(OpenUdpPorts { ports })
    }

    /// The reported ports.
    pub fn ports(&self) -> &[u16] {
        &self.ports
    }

    /// Number of reported ports (`N_i` in Eq. 19).
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// `true` when the client has no open UDP ports.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Encodes the element body: each port as 2 big-endian bytes.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(self.ports.len() * 2);
        for port in &self.ports {
            body.extend_from_slice(&port.to_be_bytes());
        }
        body
    }

    /// Decodes an element body.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::BadElementLength`] when the body length is
    /// odd.
    pub fn decode_body(body: &[u8]) -> Result<Self, WifiError> {
        check_ports_body(body).map(OpenUdpPorts::from_checked_body)
    }

    fn from_checked_body(body: &[u8]) -> Self {
        let ports = body
            .chunks_exact(2)
            .map(|c| u16::from_be_bytes([c[0], c[1]]))
            .collect();
        OpenUdpPorts { ports }
    }
}

/// An Open UDP Ports body holds whole 2-byte ports.
fn check_ports_body(body: &[u8]) -> Result<&[u8], WifiError> {
    if !body.len().is_multiple_of(2) {
        return Err(WifiError::BadElementLength {
            element_id: ELEMENT_ID_OPEN_UDP_PORTS,
            declared: body.len(),
        });
    }
    Ok(body)
}

/// An element this crate does not interpret, preserved verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RawElement {
    /// Element ID.
    pub id: u8,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

/// Any information element that can appear in the frames this crate
/// models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InformationElement {
    /// Standard TIM (ID 5).
    Tim(Tim),
    /// HIDE Open UDP Ports (ID 200).
    OpenUdpPorts(OpenUdpPorts),
    /// HIDE BTIM (ID 201).
    Btim(Btim),
    /// Anything else, passed through unmodified.
    Raw(RawElement),
}

impl InformationElement {
    /// The element ID.
    pub fn element_id(&self) -> u8 {
        match self {
            InformationElement::Tim(_) => ELEMENT_ID_TIM,
            InformationElement::OpenUdpPorts(_) => ELEMENT_ID_OPEN_UDP_PORTS,
            InformationElement::Btim(_) => ELEMENT_ID_BTIM,
            InformationElement::Raw(raw) => raw.id,
        }
    }

    /// Encodes the element including its 2-byte ID/length header.
    ///
    /// # Panics
    ///
    /// Panics if the body exceeds 255 bytes; all constructors enforce
    /// this invariant, so a panic indicates a bug in this crate.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.element_id());
        let len_at = out.len();
        out.push(0);
        match self {
            InformationElement::Tim(tim) => tim.append_body_to(out),
            InformationElement::OpenUdpPorts(p) => {
                for port in &p.ports {
                    out.extend_from_slice(&port.to_be_bytes());
                }
            }
            InformationElement::Btim(btim) => btim.append_body_to(out),
            InformationElement::Raw(raw) => out.extend_from_slice(&raw.body),
        }
        let body_len = out.len() - len_at - 1;
        assert!(body_len <= MAX_ELEMENT_BODY, "element body too long");
        out[len_at] = body_len as u8;
    }

    /// Encoded length including the 2-byte header, computed without
    /// materializing the encoding.
    pub fn encoded_len(&self) -> usize {
        let body_len = match self {
            InformationElement::Tim(tim) => 3 + tim.bitmap.trimmed_span().1,
            InformationElement::OpenUdpPorts(p) => p.ports.len() * 2,
            InformationElement::Btim(btim) => btim.body_len(),
            InformationElement::Raw(raw) => raw.body.len(),
        };
        2 + body_len
    }

    /// Decodes one element from the front of `buf`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::Truncated`] when the buffer ends inside the
    /// element and element-specific errors for malformed bodies.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), WifiError> {
        let (element, rest) = ElementView::split(buf)?;
        Ok((element.to_element(), buf.len() - rest.len()))
    }

    /// Decodes a sequence of elements until the buffer is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates any per-element decode error.
    pub fn decode_all(mut buf: &[u8]) -> Result<Vec<Self>, WifiError> {
        let mut elements = Vec::new();
        while !buf.is_empty() {
            let (element, rest) = ElementView::split(buf)?;
            elements.push(element.to_element());
            buf = rest;
        }
        Ok(elements)
    }
}

/// One checked element, borrowed from the frame body it sits in. Every
/// element decoder in this crate walks a body through
/// [`ElementView::split`], so the owned and the borrowed readers accept
/// and reject the same bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ElementView<'a> {
    Tim(TimView<'a>),
    OpenUdpPorts(&'a [u8]),
    Btim(BtimView<'a>),
    Raw { id: u8, body: &'a [u8] },
}

impl<'a> ElementView<'a> {
    /// Splits the element at the front of `buf` from the rest, checking
    /// its framing and, for the elements this crate interprets, its
    /// body.
    pub(crate) fn split(buf: &'a [u8]) -> Result<(Self, &'a [u8]), WifiError> {
        let [id, len, rest @ ..] = buf else {
            return Err(WifiError::Truncated {
                what: "information element header",
                needed: 2,
                available: buf.len(),
            });
        };
        let len = usize::from(*len);
        if rest.len() < len {
            return Err(WifiError::Truncated {
                what: "information element body",
                needed: 2 + len,
                available: buf.len(),
            });
        }
        let (body, rest) = rest.split_at(len);
        let element = match *id {
            ELEMENT_ID_TIM => ElementView::Tim(TimView::parse(body)?),
            ELEMENT_ID_OPEN_UDP_PORTS => ElementView::OpenUdpPorts(check_ports_body(body)?),
            ELEMENT_ID_BTIM => ElementView::Btim(BtimView::parse(body)?),
            id => ElementView::Raw { id, body },
        };
        Ok((element, rest))
    }

    /// The owned element.
    pub(crate) fn to_element(self) -> InformationElement {
        match self {
            ElementView::Tim(tim) => InformationElement::Tim(tim.to_tim()),
            ElementView::OpenUdpPorts(body) => {
                InformationElement::OpenUdpPorts(OpenUdpPorts::from_checked_body(body))
            }
            ElementView::Btim(btim) => InformationElement::Btim(btim.to_btim()),
            ElementView::Raw { id, body } => InformationElement::Raw(RawElement {
                id,
                body: body.to_vec(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(v: u16) -> Aid {
        Aid::new(v).unwrap()
    }

    #[test]
    fn tim_round_trip() {
        let mut bitmap = PartialVirtualBitmap::new();
        bitmap.set(aid(12));
        bitmap.set(aid(600));
        let tim = Tim::new(2, 3, true, bitmap);
        let body = tim.encode_body();
        let back = Tim::decode_body(&body).unwrap();
        assert_eq!(back, tim);
        assert!(!back.is_dtim());
    }

    #[test]
    fn tim_broadcast_bit_is_bit0_of_control() {
        let tim = Tim::new(0, 1, true, PartialVirtualBitmap::new());
        let body = tim.encode_body();
        assert_eq!(body[2] & 1, 1);
        let tim = Tim::new(0, 1, false, PartialVirtualBitmap::new());
        assert_eq!(tim.encode_body()[2] & 1, 0);
    }

    #[test]
    fn tim_rejects_short_body() {
        assert!(Tim::decode_body(&[0, 1, 0]).is_err());
    }

    #[test]
    fn btim_round_trip() {
        let mut flags = PartialVirtualBitmap::new();
        for v in [1u16, 77, 1200] {
            flags.set(aid(v));
        }
        let btim = Btim::new(flags);
        let back = Btim::decode_body(&btim.encode_body()).unwrap();
        assert_eq!(back, btim);
        for v in [1u16, 77, 1200] {
            assert!(back.is_set(aid(v)));
        }
        assert!(!back.is_set(aid(2)));
    }

    #[test]
    fn btim_empty_is_two_bytes() {
        let btim = Btim::new(PartialVirtualBitmap::new());
        let body = btim.encode_body();
        assert_eq!(body, vec![0, 0]);
        assert_eq!(btim.body_len(), 2);
        assert!(Btim::decode_body(&body).unwrap().is_empty());
    }

    #[test]
    fn btim_compression_saves_bytes() {
        // A single flag at a high AID must not ship 251 bytes.
        let mut flags = PartialVirtualBitmap::new();
        flags.set(aid(2000));
        let btim = Btim::new(flags);
        assert!(btim.body_len() <= 3);
    }

    #[test]
    fn btim_observe_counts_on_air_footprint() {
        let mut flags = PartialVirtualBitmap::new();
        flags.set(aid(1));
        flags.set(aid(5));
        let btim = Btim::new(flags);
        let mut rec = hide_obs::Recorder::new();
        btim.observe(&mut rec);
        btim.observe(&mut rec);
        let bytes = (2 + btim.body_len()) as u64;
        assert_eq!(rec.counter(Counter::BtimBeacons), 2);
        assert_eq!(rec.counter(Counter::BtimBytes), 2 * bytes);
        assert_eq!(rec.counter(Counter::BtimBitsSet), 4);
        let h = rec.distribution(Distribution::BtimBytesPerBeacon);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), bytes);
        assert_eq!(h.max(), bytes);
    }

    #[test]
    fn btim_rejects_odd_offset() {
        assert!(Btim::decode_body(&[3, 0xff]).is_err());
    }

    #[test]
    fn open_udp_ports_round_trip() {
        let ports = OpenUdpPorts::new([53u16, 5353, 1900, 65535]).unwrap();
        let back = OpenUdpPorts::decode_body(&ports.encode_body()).unwrap();
        assert_eq!(back, ports);
        assert_eq!(back.len(), 4);
    }

    #[test]
    fn open_udp_ports_limit() {
        assert!(OpenUdpPorts::new(0..=(OpenUdpPorts::MAX_PORTS as u16)).is_err());
        assert!(OpenUdpPorts::new(0..(OpenUdpPorts::MAX_PORTS as u16)).is_ok());
    }

    #[test]
    fn open_udp_ports_rejects_odd_body() {
        assert!(OpenUdpPorts::decode_body(&[1, 2, 3]).is_err());
    }

    #[test]
    fn element_ids_match_paper() {
        assert_eq!(ELEMENT_ID_OPEN_UDP_PORTS, 200);
        assert_eq!(ELEMENT_ID_BTIM, 201);
    }

    #[test]
    fn element_encode_decode_round_trip() {
        let mut flags = PartialVirtualBitmap::new();
        flags.set(aid(9));
        let elements = vec![
            InformationElement::Tim(Tim::new(0, 1, false, PartialVirtualBitmap::new())),
            InformationElement::Btim(Btim::new(flags)),
            InformationElement::OpenUdpPorts(OpenUdpPorts::new([80u16, 443]).unwrap()),
            InformationElement::Raw(RawElement {
                id: 0,
                body: b"ssid".to_vec(),
            }),
        ];
        let mut buf = Vec::new();
        for e in &elements {
            e.encode(&mut buf);
        }
        let decoded = InformationElement::decode_all(&buf).unwrap();
        assert_eq!(decoded, elements);
    }

    #[test]
    fn encoded_len_matches_encode() {
        let mut flags = PartialVirtualBitmap::new();
        flags.set(aid(100));
        let elements = vec![
            InformationElement::Tim(Tim::new(1, 3, true, flags)),
            InformationElement::Btim(Btim::new(flags)),
            InformationElement::OpenUdpPorts(OpenUdpPorts::new([1u16, 2, 3]).unwrap()),
        ];
        for e in elements {
            let mut buf = Vec::new();
            e.encode(&mut buf);
            assert_eq!(buf.len(), e.encoded_len());
        }
    }

    #[test]
    fn decode_truncated_fails() {
        assert!(InformationElement::decode(&[5]).is_err());
        assert!(InformationElement::decode(&[5, 10, 1, 2]).is_err());
    }

    #[test]
    fn unknown_element_passes_through() {
        let buf = [42u8, 3, 1, 2, 3];
        let (e, used) = InformationElement::decode(&buf).unwrap();
        assert_eq!(used, 5);
        match e {
            InformationElement::Raw(raw) => {
                assert_eq!(raw.id, 42);
                assert_eq!(raw.body, vec![1, 2, 3]);
            }
            other => panic!("expected raw element, got {other:?}"),
        }
    }
}
