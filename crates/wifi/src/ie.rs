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
//! The TIM and the BTIM exist only as bytes: the beacon writer
//! ([`crate::frame::BeaconFields::write`]) puts them on air through
//! one function, and [`TimView`] and [`BtimView`] read them in place.
//! Unknown elements are preserved as [`RawElement`]s so legacy elements
//! pass through untouched — the coexistence property Section III.D relies
//! on.

use crate::bitmap::{check_span, span_is_set, PartialVirtualBitmap};
use crate::error::WifiError;
use crate::mac::Aid;

/// Element ID of the standard Traffic Indication Map.
pub const ELEMENT_ID_TIM: u8 = 5;
/// Element ID the paper assigns to Open UDP Ports (reserved in 802.11).
pub const ELEMENT_ID_OPEN_UDP_PORTS: u8 = 200;
/// Element ID the paper assigns to the BTIM (reserved in 802.11).
pub const ELEMENT_ID_BTIM: u8 = 201;

/// Maximum information-element body length.
pub const MAX_ELEMENT_BODY: usize = 255;

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

    /// The body's length on air in bytes: the Offset octet plus the
    /// bitmap as the sender trimmed it (Fig. 5 for this crate's
    /// writer).
    pub fn body_len(&self) -> usize {
        self.body.len()
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
        self.append_body_to(&mut body);
        body
    }

    /// Appends the element body to `out`.
    pub(crate) fn append_body_to(&self, out: &mut Vec<u8>) {
        for port in &self.ports {
            out.extend_from_slice(&port.to_be_bytes());
        }
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
/// models. A TIM or BTIM decoded here, outside a beacon, is checked as
/// [`TimView::parse`] and [`BtimView::parse`] check it and kept
/// [`InformationElement::Raw`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InformationElement {
    /// HIDE Open UDP Ports (ID 200).
    OpenUdpPorts(OpenUdpPorts),
    /// Anything else, passed through unmodified.
    Raw(RawElement),
}

impl InformationElement {
    /// The element ID.
    pub fn element_id(&self) -> u8 {
        match self {
            InformationElement::OpenUdpPorts(_) => ELEMENT_ID_OPEN_UDP_PORTS,
            InformationElement::Raw(raw) => raw.id,
        }
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
        let raw = |id, body: &[u8]| {
            InformationElement::Raw(RawElement {
                id,
                body: body.to_vec(),
            })
        };
        match self {
            ElementView::Tim(tim) => raw(ELEMENT_ID_TIM, tim.body),
            ElementView::OpenUdpPorts(body) => {
                InformationElement::OpenUdpPorts(OpenUdpPorts::from_checked_body(body))
            }
            ElementView::Btim(btim) => raw(ELEMENT_ID_BTIM, btim.body),
            ElementView::Raw { id, body } => raw(id, body),
        }
    }
}

/// Appends one element to `out`: its ID, a length octet, and the body
/// `body` writes, the length filled in after.
///
/// # Panics
///
/// Panics if the body exceeds 255 bytes, which no element can carry.
pub(crate) fn write_element(out: &mut Vec<u8>, id: u8, body: impl FnOnce(&mut Vec<u8>)) {
    out.push(id);
    let len_at = out.len();
    out.push(0);
    body(out);
    let len = out.len() - len_at - 1;
    assert!(len <= MAX_ELEMENT_BODY, "element body too long");
    out[len_at] = len as u8;
}

/// Appends a TIM (5) or BTIM (201) element, the one writer of both
/// bodies: `fixed` (the TIM's DTIM count and period; nothing for the
/// BTIM), one octet holding `N1` with `flag` in bit 0, then `bitmap`
/// trimmed per Fig. 5. The TIM's Bitmap Control is the broadcast bit
/// plus `N1 / 2` in bits 1–7 and the BTIM's Offset is `N1`: as `N1` is
/// even, both octets are `N1 | flag`.
pub(crate) fn write_bitmap_element(
    out: &mut Vec<u8>,
    id: u8,
    fixed: &[u8],
    flag: bool,
    bitmap: &PartialVirtualBitmap,
) {
    write_element(out, id, |out| {
        out.extend_from_slice(fixed);
        let n1_at = out.len();
        out.push(0);
        let n1 = bitmap.append_trimmed_to(out);
        out[n1_at] = n1 as u8 | u8::from(flag);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(v: u16) -> Aid {
        Aid::new(v).unwrap()
    }

    #[test]
    fn tim_view_rejects_short_body() {
        assert_eq!(
            TimView::parse(&[0, 1, 0]),
            Err(WifiError::BadElementLength {
                element_id: ELEMENT_ID_TIM,
                declared: 3,
            })
        );
    }

    #[test]
    fn tim_view_rejects_a_bitmap_past_octet_250() {
        // Bitmap Control 250 (N1 = 250, broadcast bit clear), two octets.
        assert_eq!(
            TimView::parse(&[0, 1, 250, 0, 0]),
            Err(WifiError::BitmapTooLong(252))
        );
        assert!(TimView::parse(&[0, 1, 250, 0xff]).is_ok());
    }

    #[test]
    fn btim_view_rejects_short_body() {
        assert_eq!(
            BtimView::parse(&[0]),
            Err(WifiError::BadElementLength {
                element_id: ELEMENT_ID_BTIM,
                declared: 1,
            })
        );
    }

    #[test]
    fn btim_view_rejects_odd_offset() {
        assert_eq!(
            BtimView::parse(&[3, 0xff]),
            Err(WifiError::OddBitmapOffset(3))
        );
    }

    #[test]
    fn btim_view_rejects_a_bitmap_past_octet_250() {
        assert_eq!(
            BtimView::parse(&[250, 0, 0]),
            Err(WifiError::BitmapTooLong(252))
        );
    }

    #[test]
    fn bitmap_elements_put_n1_and_the_flag_in_one_octet() {
        let flags: PartialVirtualBitmap = [aid(24), aid(600)].into_iter().collect();
        let (mut tim, mut btim) = (Vec::new(), Vec::new());
        write_bitmap_element(&mut tim, ELEMENT_ID_TIM, &[2, 3], true, &flags);
        write_bitmap_element(&mut btim, ELEMENT_ID_BTIM, &[], false, &flags);
        // AID 24 is octet 3, so N1 = 2; AID 600 is octet 75, the last:
        // 74 bitmap octets.
        assert_eq!(&tim[..5], &[ELEMENT_ID_TIM, 77, 2, 3, 2 | 1]);
        assert_eq!(&btim[..3], &[ELEMENT_ID_BTIM, 75, 2]);
        let tim = TimView::parse(&tim[2..]).unwrap();
        let btim = BtimView::parse(&btim[2..]).unwrap();
        assert_eq!((tim.dtim_count(), tim.dtim_period()), (2, 3));
        assert!(tim.broadcast_buffered());
        for v in 1..=crate::mac::MAX_AID {
            assert_eq!(btim.is_set(aid(v)), flags.is_set(aid(v)), "aid {v}");
            assert_eq!(tim.traffic_for(aid(v)), flags.is_set(aid(v)), "aid {v}");
        }
    }

    #[test]
    #[should_panic(expected = "element body too long")]
    fn write_element_refuses_a_body_over_255_bytes() {
        write_element(&mut Vec::new(), 0, |out| out.extend_from_slice(&[0; 256]));
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
    fn decode_all_checks_tim_and_btim_and_keeps_them_raw() {
        let flags: PartialVirtualBitmap = [aid(9)].into_iter().collect();
        let ports = OpenUdpPorts::new([80u16, 443]).unwrap();
        let mut buf = Vec::new();
        write_bitmap_element(&mut buf, ELEMENT_ID_TIM, &[0, 1], false, &flags);
        write_bitmap_element(&mut buf, ELEMENT_ID_BTIM, &[], false, &flags);
        write_element(&mut buf, ELEMENT_ID_OPEN_UDP_PORTS, |out| {
            ports.append_body_to(out)
        });
        write_element(&mut buf, 0, |out| out.extend_from_slice(b"ssid"));
        let raw = |id, body: &[u8]| {
            InformationElement::Raw(RawElement {
                id,
                body: body.to_vec(),
            })
        };
        assert_eq!(
            InformationElement::decode_all(&buf).unwrap(),
            vec![
                raw(ELEMENT_ID_TIM, &[0, 1, 0, 0, 0b10]),
                raw(ELEMENT_ID_BTIM, &[0, 0, 0b10]),
                InformationElement::OpenUdpPorts(ports),
                raw(0, b"ssid"),
            ]
        );
        // The checks stay: an odd BTIM Offset is refused, not kept raw.
        assert_eq!(
            InformationElement::decode_all(&[ELEMENT_ID_BTIM, 2, 3, 0xff]),
            Err(WifiError::OddBitmapOffset(3))
        );
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
