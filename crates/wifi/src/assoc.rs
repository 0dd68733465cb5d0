//! Association management frames.
//!
//! HIDE piggy-backs on the standard association exchange: a client that
//! supports HIDE includes an (initially empty) *Open UDP Ports* element
//! in its association request, which tells the AP to expect UDP Port
//! Messages from it. The association response returns the AID whose bit
//! the client will watch in TIM and BTIM bitmaps.

use crate::error::WifiError;
use crate::frame::MAC_HEADER_LEN;
use crate::ie::{write_element, InformationElement, ELEMENT_ID_OPEN_UDP_PORTS};
use crate::mac::{Aid, FrameControl, FrameSubtype, MacAddr};

/// Element ID of the standard SSID element.
pub const ELEMENT_ID_SSID: u8 = 0;
/// The longest SSID 802.11 allows, in octets.
pub const MAX_SSID_LEN: usize = 32;

/// Status code for a successful association.
pub const STATUS_SUCCESS: u16 = 0;
/// Status code for "association denied, AP out of resources" (AIDs).
pub const STATUS_DENIED_NO_RESOURCES: u16 = 17;

fn encode_header(out: &mut Vec<u8>, subtype: FrameSubtype, to: MacAddr, from: MacAddr) {
    out.extend_from_slice(&FrameControl::new(subtype).to_u16().to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(to.as_ref());
    out.extend_from_slice(from.as_ref());
    out.extend_from_slice(to.as_ref()); // BSSID = AP
    out.extend_from_slice(&0u16.to_le_bytes());
}

fn decode_header(
    buf: &[u8],
    expected: FrameSubtype,
) -> Result<(MacAddr, MacAddr, &[u8]), WifiError> {
    if buf.len() < MAC_HEADER_LEN {
        return Err(WifiError::Truncated {
            what: "association frame header",
            needed: MAC_HEADER_LEN,
            available: buf.len(),
        });
    }
    let fc = FrameControl::from_u16(u16::from_le_bytes([buf[0], buf[1]]))?;
    if fc.subtype() != expected {
        return Err(WifiError::UnknownFrameType {
            frame_type: fc.frame_type().to_bits(),
            subtype: fc.subtype().to_bits(),
        });
    }
    let take = |start: usize| -> MacAddr {
        let mut a = [0u8; 6];
        a.copy_from_slice(&buf[start..start + 6]);
        MacAddr::new(a)
    };
    Ok((take(4), take(10), &buf[MAC_HEADER_LEN..]))
}

/// An association request from a station to an AP.
///
/// # Example
///
/// ```
/// use hide_wifi::assoc::AssociationRequest;
/// use hide_wifi::mac::MacAddr;
///
/// let req = AssociationRequest::new(MacAddr::station(1), MacAddr::station(0), "cafe")
///     .with_hide_support();
/// let parsed = AssociationRequest::parse(&req.to_bytes())?;
/// assert_eq!(parsed.ssid(), b"cafe");
/// assert!(parsed.supports_hide());
/// # Ok::<(), hide_wifi::WifiError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssociationRequest {
    client: MacAddr,
    ap: MacAddr,
    ssid: Vec<u8>,
    listen_interval: u16,
    hide_support: bool,
}

impl AssociationRequest {
    /// Creates a request to join `ssid` at `ap`.
    ///
    /// # Panics
    ///
    /// Panics if `ssid` is longer than [`MAX_SSID_LEN`] octets: no
    /// 802.11 SSID element can carry it.
    pub fn new(client: MacAddr, ap: MacAddr, ssid: impl Into<String>) -> Self {
        let ssid = ssid.into();
        assert!(
            ssid.len() <= MAX_SSID_LEN,
            "SSID of {} octets exceeds the {MAX_SSID_LEN}-octet limit",
            ssid.len()
        );
        AssociationRequest {
            client,
            ap,
            ssid: ssid.into_bytes(),
            listen_interval: 1,
            hide_support: false,
        }
    }

    /// Declares HIDE support (adds an empty Open UDP Ports element).
    #[must_use]
    pub fn with_hide_support(mut self) -> Self {
        self.hide_support = true;
        self
    }

    /// Sets the listen interval in beacon intervals.
    #[must_use]
    pub fn with_listen_interval(mut self, interval: u16) -> Self {
        self.listen_interval = interval;
        self
    }

    /// The requesting station.
    pub fn client(&self) -> MacAddr {
        self.client
    }

    /// The target AP.
    pub fn ap(&self) -> MacAddr {
        self.ap
    }

    /// The requested SSID's octets as they came: 802.11 does not
    /// require an SSID to be UTF-8.
    pub fn ssid(&self) -> &[u8] {
        &self.ssid
    }

    /// The listen interval in beacon intervals.
    pub fn listen_interval(&self) -> u16 {
        self.listen_interval
    }

    /// Whether the station declared HIDE support.
    pub fn supports_hide(&self) -> bool {
        self.hide_support
    }

    /// Encodes the frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_header(
            &mut out,
            FrameSubtype::AssociationRequest,
            self.ap,
            self.client,
        );
        out.extend_from_slice(&0x0001u16.to_le_bytes()); // capability: ESS
        out.extend_from_slice(&self.listen_interval.to_le_bytes());
        write_element(&mut out, ELEMENT_ID_SSID, |out| {
            out.extend_from_slice(&self.ssid)
        });
        if self.hide_support {
            write_element(&mut out, ELEMENT_ID_OPEN_UDP_PORTS, |_| {});
        }
        out
    }

    /// Decodes an association request.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::Truncated`] / [`WifiError::UnknownFrameType`]
    /// for buffers that are not a well-formed request, element errors
    /// for malformed bodies and [`WifiError::FieldOverflow`] for an SSID
    /// longer than [`MAX_SSID_LEN`] octets.
    pub fn parse(buf: &[u8]) -> Result<Self, WifiError> {
        let (ap, client, body) = decode_header(buf, FrameSubtype::AssociationRequest)?;
        if body.len() < 4 {
            return Err(WifiError::Truncated {
                what: "association request fixed fields",
                needed: 4,
                available: body.len(),
            });
        }
        let listen_interval = u16::from_le_bytes([body[2], body[3]]);
        let elements = InformationElement::decode_all(&body[4..])?;
        let mut ssid = Vec::new();
        let mut hide_support = false;
        for e in elements {
            match e {
                InformationElement::Raw(raw) if raw.id == ELEMENT_ID_SSID => {
                    if raw.body.len() > MAX_SSID_LEN {
                        return Err(WifiError::FieldOverflow {
                            field: "ssid",
                            value: raw.body.len() as u64,
                        });
                    }
                    ssid = raw.body;
                }
                InformationElement::OpenUdpPorts(_) => hide_support = true,
                _ => {}
            }
        }
        Ok(AssociationRequest {
            client,
            ap,
            ssid,
            listen_interval,
            hide_support,
        })
    }
}

/// An association response from an AP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssociationResponse {
    ap: MacAddr,
    client: MacAddr,
    status: u16,
    aid: Option<Aid>,
}

impl AssociationResponse {
    /// A successful response assigning `aid`.
    pub fn success(ap: MacAddr, client: MacAddr, aid: Aid) -> Self {
        AssociationResponse {
            ap,
            client,
            status: STATUS_SUCCESS,
            aid: Some(aid),
        }
    }

    /// A denial with the given status code.
    pub fn denied(ap: MacAddr, client: MacAddr, status: u16) -> Self {
        AssociationResponse {
            ap,
            client,
            status,
            aid: None,
        }
    }

    /// The responding AP.
    pub fn ap(&self) -> MacAddr {
        self.ap
    }

    /// The station being answered.
    pub fn client(&self) -> MacAddr {
        self.client
    }

    /// The 802.11 status code (0 = success).
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The assigned AID on success.
    pub fn aid(&self) -> Option<Aid> {
        self.aid
    }

    /// Whether the association succeeded.
    pub fn is_success(&self) -> bool {
        self.status == STATUS_SUCCESS
    }

    /// Encodes the frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_header(
            &mut out,
            FrameSubtype::AssociationResponse,
            self.client,
            self.ap,
        );
        out.extend_from_slice(&0x0001u16.to_le_bytes()); // capability
        out.extend_from_slice(&self.status.to_le_bytes());
        // AID field with the two top bits set, 0 when denied.
        let aid_field = self.aid.map(|a| a.value() | 0xc000).unwrap_or(0);
        out.extend_from_slice(&aid_field.to_le_bytes());
        out
    }

    /// Decodes an association response.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::Truncated`] / [`WifiError::UnknownFrameType`]
    /// for malformed buffers, and [`WifiError::InvalidAid`] when a
    /// success response carries an out-of-range AID.
    pub fn parse(buf: &[u8]) -> Result<Self, WifiError> {
        let (client, ap, body) = decode_header(buf, FrameSubtype::AssociationResponse)?;
        if body.len() < 6 {
            return Err(WifiError::Truncated {
                what: "association response fixed fields",
                needed: 6,
                available: body.len(),
            });
        }
        let status = u16::from_le_bytes([body[2], body[3]]);
        let aid_field = u16::from_le_bytes([body[4], body[5]]) & 0x3fff;
        let aid = if status == STATUS_SUCCESS {
            Some(Aid::new(aid_field)?)
        } else {
            None
        };
        Ok(AssociationResponse {
            ap,
            client,
            status,
            aid,
        })
    }
}

/// A disassociation notice (either direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disassociation {
    from: MacAddr,
    to: MacAddr,
    reason: u16,
}

impl Disassociation {
    /// Reason code: station is leaving the BSS.
    pub const REASON_LEAVING: u16 = 8;

    /// Creates a disassociation notice.
    pub fn new(from: MacAddr, to: MacAddr, reason: u16) -> Self {
        Disassociation { from, to, reason }
    }

    /// Sender address.
    pub fn from(&self) -> MacAddr {
        self.from
    }

    /// Recipient address.
    pub fn to(&self) -> MacAddr {
        self.to
    }

    /// The 802.11 reason code.
    pub fn reason(&self) -> u16 {
        self.reason
    }

    /// Encodes the frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_header(&mut out, FrameSubtype::Disassociation, self.to, self.from);
        out.extend_from_slice(&self.reason.to_le_bytes());
        out
    }

    /// Decodes a disassociation frame.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::Truncated`] / [`WifiError::UnknownFrameType`]
    /// for malformed buffers.
    pub fn parse(buf: &[u8]) -> Result<Self, WifiError> {
        let (to, from, body) = decode_header(buf, FrameSubtype::Disassociation)?;
        if body.len() < 2 {
            return Err(WifiError::Truncated {
                what: "disassociation reason",
                needed: 2,
                available: body.len(),
            });
        }
        Ok(Disassociation {
            from,
            to,
            reason: u16::from_le_bytes([body[0], body[1]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip_with_hide() {
        let req = AssociationRequest::new(MacAddr::station(1), MacAddr::station(0), "lab")
            .with_hide_support()
            .with_listen_interval(3);
        let parsed = AssociationRequest::parse(&req.to_bytes()).unwrap();
        assert_eq!(parsed, req);
        assert!(parsed.supports_hide());
        assert_eq!(parsed.listen_interval(), 3);
    }

    #[test]
    fn legacy_request_has_no_hide_element() {
        let req = AssociationRequest::new(MacAddr::station(1), MacAddr::station(0), "lab");
        let parsed = AssociationRequest::parse(&req.to_bytes()).unwrap();
        assert!(!parsed.supports_hide());
    }

    #[test]
    fn utf8_ssid_survives() {
        let req = AssociationRequest::new(MacAddr::station(1), MacAddr::station(0), "café ☕");
        let parsed = AssociationRequest::parse(&req.to_bytes()).unwrap();
        assert_eq!(parsed.ssid(), "café ☕".as_bytes());
    }

    #[test]
    fn success_response_round_trip() {
        let aid = Aid::new(42).unwrap();
        let resp = AssociationResponse::success(MacAddr::station(0), MacAddr::station(1), aid);
        let parsed = AssociationResponse::parse(&resp.to_bytes()).unwrap();
        assert_eq!(parsed, resp);
        assert!(parsed.is_success());
        assert_eq!(parsed.aid(), Some(aid));
    }

    #[test]
    fn denied_response_round_trip() {
        let resp = AssociationResponse::denied(
            MacAddr::station(0),
            MacAddr::station(1),
            STATUS_DENIED_NO_RESOURCES,
        );
        let parsed = AssociationResponse::parse(&resp.to_bytes()).unwrap();
        assert!(!parsed.is_success());
        assert_eq!(parsed.aid(), None);
        assert_eq!(parsed.status(), STATUS_DENIED_NO_RESOURCES);
    }

    #[test]
    fn disassociation_round_trip() {
        let d = Disassociation::new(
            MacAddr::station(1),
            MacAddr::station(0),
            Disassociation::REASON_LEAVING,
        );
        let parsed = Disassociation::parse(&d.to_bytes()).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn frames_reject_each_other() {
        let req = AssociationRequest::new(MacAddr::station(1), MacAddr::station(0), "x");
        assert!(AssociationResponse::parse(&req.to_bytes()).is_err());
        assert!(Disassociation::parse(&req.to_bytes()).is_err());
        let resp = AssociationResponse::success(
            MacAddr::station(0),
            MacAddr::station(1),
            Aid::new(1).unwrap(),
        );
        assert!(AssociationRequest::parse(&resp.to_bytes()).is_err());
    }

    #[test]
    fn truncated_bodies_rejected() {
        let req = AssociationRequest::new(MacAddr::station(1), MacAddr::station(0), "x");
        let bytes = req.to_bytes();
        assert!(AssociationRequest::parse(&bytes[..MAC_HEADER_LEN + 2]).is_err());
        let resp = AssociationResponse::success(
            MacAddr::station(0),
            MacAddr::station(1),
            Aid::new(1).unwrap(),
        );
        let bytes = resp.to_bytes();
        assert!(AssociationResponse::parse(&bytes[..bytes.len() - 1]).is_err());
    }
}
