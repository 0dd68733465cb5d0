//! A legacy (non-HIDE) power-saving client.
//!
//! Follows the standard 802.11 rules: on a DTIM beacon it checks the
//! first bit of the TIM's Bitmap Control field and, when set, stays
//! awake for the entire broadcast delivery. It discards the BTIM
//! element (an unknown element ID to it) — the coexistence property of
//! Section III.D.

use crate::client::agent::WakeDecision;
use crate::error::CoreError;
use hide_wifi::frame::BeaconView;
use hide_wifi::mac::{Aid, MacAddr};

/// A standard 802.11 power-saving client without HIDE support.
///
/// # Example
///
/// ```
/// use hide_core::client::{LegacyClient, WakeDecision};
/// use hide_core::ap::AccessPoint;
/// use hide_wifi::frame::{BeaconView, BroadcastDataFrame};
/// use hide_wifi::mac::MacAddr;
/// use hide_wifi::udp::UdpDatagram;
///
/// # fn main() -> Result<(), hide_core::CoreError> {
/// let mut ap = AccessPoint::new(MacAddr::station(0));
/// let mut legacy = LegacyClient::new(MacAddr::station(1));
/// legacy.set_aid(ap.associate(legacy.mac())?);
///
/// // Any buffered broadcast wakes a legacy client, useful or not.
/// let d = UdpDatagram::new([10, 0, 0, 1], [255; 4], 1, 1900, vec![]);
/// ap.enqueue_broadcast(BroadcastDataFrame::new(ap.bssid(), d, false));
/// let mut bytes = Vec::new();
/// ap.dtim_beacon(0, &mut bytes);
/// let beacon = BeaconView::parse(&bytes)?;
/// assert_eq!(legacy.handle_beacon(&beacon)?, WakeDecision::WakeForBroadcast);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LegacyClient {
    mac: MacAddr,
    aid: Option<Aid>,
}

impl LegacyClient {
    /// Creates a legacy client.
    pub fn new(mac: MacAddr) -> Self {
        LegacyClient { mac, aid: None }
    }

    /// The client's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Records the AID assigned at association.
    pub fn set_aid(&mut self, aid: Aid) {
        self.aid = Some(aid);
    }

    /// Standard beacon handling: wake when the one-bit broadcast
    /// indication is set or when unicast traffic is buffered for us.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotAssociated`] when the client has no AID.
    pub fn handle_beacon(&self, beacon: &BeaconView<'_>) -> Result<WakeDecision, CoreError> {
        let aid = self.aid.ok_or(CoreError::NotAssociated)?;
        if beacon.tim().is_some_and(|tim| tim.broadcast_buffered()) {
            return Ok(WakeDecision::WakeForBroadcast);
        }
        if beacon.tim().is_some_and(|tim| tim.traffic_for(aid)) {
            return Ok(WakeDecision::WakeForUnicast);
        }
        Ok(WakeDecision::StaySuspended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ap::{AccessPoint, ApCtx};
    use hide_wifi::frame::BroadcastDataFrame;
    use hide_wifi::udp::UdpDatagram;

    fn frame(port: u16) -> BroadcastDataFrame {
        let d = UdpDatagram::new([10, 0, 0, 1], [255; 4], 4000, port, vec![]);
        BroadcastDataFrame::new(MacAddr::station(0), d, false)
    }

    /// The AP's next DTIM beacon, over the air.
    fn dtim_bytes(ap: &mut AccessPoint) -> Vec<u8> {
        let mut bytes = Vec::new();
        ap.dtim_beacon(0, &mut bytes);
        bytes
    }

    fn view(bytes: &[u8]) -> BeaconView<'_> {
        BeaconView::parse(bytes).unwrap()
    }

    #[test]
    fn requires_association() {
        let legacy = LegacyClient::new(MacAddr::station(1));
        let bytes = dtim_bytes(&mut AccessPoint::new(MacAddr::station(0)));
        assert!(matches!(
            legacy.handle_beacon(&view(&bytes)),
            Err(CoreError::NotAssociated)
        ));
    }

    #[test]
    fn wakes_for_any_buffered_broadcast() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mut legacy = LegacyClient::new(MacAddr::station(1));
        legacy.set_aid(ap.associate(legacy.mac()).unwrap());
        ap.enqueue_broadcast(frame(1900));
        let bytes = dtim_bytes(&mut ap);
        assert_eq!(
            legacy.handle_beacon(&view(&bytes)).unwrap(),
            WakeDecision::WakeForBroadcast
        );
    }

    #[test]
    fn stays_suspended_when_nothing_buffered() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mut legacy = LegacyClient::new(MacAddr::station(1));
        legacy.set_aid(ap.associate(legacy.mac()).unwrap());
        let bytes = dtim_bytes(&mut ap);
        assert_eq!(
            legacy.handle_beacon(&view(&bytes)).unwrap(),
            WakeDecision::StaySuspended
        );
    }

    #[test]
    fn coexistence_hide_sleeps_while_legacy_wakes() {
        use crate::client::{HideClient, OpenPortRegistry};

        let mut ap = AccessPoint::new(MacAddr::station(0));

        let mut legacy = LegacyClient::new(MacAddr::station(1));
        legacy.set_aid(ap.associate(legacy.mac()).unwrap());

        let mut reg = OpenPortRegistry::new();
        reg.bind(5353, [0, 0, 0, 0]).unwrap();
        let mut hide = HideClient::new(MacAddr::station(2), reg);
        hide.set_aid(ap.associate(hide.mac()).unwrap());
        hide.set_bssid(ap.bssid());
        let msg = hide.prepare_suspend().unwrap();
        let ack = ap
            .process_port_message(&msg, &mut ApCtx::untimed())
            .unwrap();
        hide.handle_ack(&ack).unwrap();

        // A frame useless to the HIDE client (it listens on 5353 only).
        ap.enqueue_broadcast(frame(1900));
        let bytes = dtim_bytes(&mut ap);
        let beacon = view(&bytes);

        assert_eq!(
            legacy.handle_beacon(&beacon).unwrap(),
            WakeDecision::WakeForBroadcast,
            "legacy client must receive every broadcast"
        );
        assert_eq!(
            hide.handle_beacon(&beacon).unwrap(),
            WakeDecision::StaySuspended,
            "HIDE client sleeps through the useless frame"
        );
    }
}
