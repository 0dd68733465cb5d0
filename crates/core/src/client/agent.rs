//! The HIDE client agent (Fig. 2's client-side state machine).

use crate::client::OpenPortRegistry;
use crate::error::CoreError;
use hide_wifi::assoc::{AssociationRequest, AssociationResponse};
use hide_wifi::frame::{Ack, BeaconView, BroadcastDataFrame, UdpPortMessage};
use hide_wifi::mac::{Aid, MacAddr};

/// What a suspended client should do after inspecting a beacon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakeDecision {
    /// No useful broadcast and no unicast buffered: remain suspended.
    StaySuspended,
    /// The client's BTIM bit is set: prepare the radio, receive the
    /// broadcast delivery, then wake the system to process it.
    WakeForBroadcast,
    /// Only unicast traffic is buffered: PS-Poll it.
    WakeForUnicast,
}

/// Power state the agent believes the system is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AgentState {
    Active,
    AwaitingAck { seq: u16 },
    Suspended,
}

/// The client half of the HIDE protocol.
///
/// Drives the Fig. 2 sequence: collect open UDP ports, send the UDP
/// Port Message, wait for the ACK, suspend, then evaluate each beacon's
/// BTIM bit while suspended.
#[derive(Debug, Clone)]
pub struct HideClient {
    mac: MacAddr,
    aid: Option<Aid>,
    bssid: MacAddr,
    ports: OpenPortRegistry,
    state: AgentState,
    seq: u16,
    synced_generation: Option<u64>,
    port_messages_sent: u64,
    retransmissions: u64,
}

impl HideClient {
    /// Creates a client with the given MAC address and port registry.
    pub fn new(mac: MacAddr, ports: OpenPortRegistry) -> Self {
        HideClient {
            mac,
            aid: None,
            bssid: MacAddr::BROADCAST,
            ports,
            state: AgentState::Active,
            seq: 0,
            synced_generation: None,
            port_messages_sent: 0,
            retransmissions: 0,
        }
    }

    /// Records the BSSID of the associated AP; UDP Port Messages are
    /// addressed to it.
    pub fn set_bssid(&mut self, bssid: MacAddr) {
        self.bssid = bssid;
    }

    /// Builds an over-the-air association request for `ssid`, declaring
    /// HIDE support.
    ///
    /// # Panics
    ///
    /// Panics if `ssid` is longer than
    /// [`MAX_SSID_LEN`](hide_wifi::assoc::MAX_SSID_LEN) octets.
    pub fn association_request(&self, ap: MacAddr, ssid: impl Into<String>) -> AssociationRequest {
        AssociationRequest::new(self.mac, ap, ssid).with_hide_support()
    }

    /// Processes the AP's association response, recording the assigned
    /// AID and BSSID on success.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotAssociated`] when the AP denied the
    /// request and [`CoreError::UnexpectedAck`] when the response is
    /// addressed to another station.
    pub fn handle_association_response(
        &mut self,
        response: &AssociationResponse,
    ) -> Result<Aid, CoreError> {
        if response.client() != self.mac {
            return Err(CoreError::UnexpectedAck {
                receiver: response.client(),
                expected: self.mac,
            });
        }
        let Some(aid) = response.aid().filter(|_| response.is_success()) else {
            return Err(CoreError::NotAssociated);
        };
        self.aid = Some(aid);
        self.bssid = response.ap();
        Ok(aid)
    }

    /// The client's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The association ID, once associated.
    pub fn aid(&self) -> Option<Aid> {
        self.aid
    }

    /// Records the AID assigned at association time.
    pub fn set_aid(&mut self, aid: Aid) {
        self.aid = Some(aid);
    }

    /// Mutable access to the port registry (apps bind/close ports while
    /// the system is active).
    pub fn ports_mut(&mut self) -> &mut OpenPortRegistry {
        // Any port change happens in active mode by definition — the
        // paper notes the system must have resumed to process such an
        // event.
        self.state = AgentState::Active;
        &mut self.ports
    }

    /// The port registry.
    pub fn ports(&self) -> &OpenPortRegistry {
        &self.ports
    }

    /// Whether the agent believes the system is suspended.
    pub fn is_suspended(&self) -> bool {
        self.state == AgentState::Suspended
    }

    /// Whether the port set changed since the last acknowledged sync
    /// (i.e. whether `prepare_suspend` will actually transmit).
    pub fn needs_sync(&self) -> bool {
        self.synced_generation != Some(self.ports.generation())
    }

    /// Builds the UDP Port Message to send before entering suspend
    /// (Fig. 2, step 1). Always returns a message — the paper's client
    /// sends one before every suspend; callers that want to skip
    /// redundant syncs can check [`HideClient::needs_sync`] first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotAssociated`] when called before
    /// [`HideClient::set_aid`], and propagates element-size errors for
    /// pathological port counts.
    pub fn prepare_suspend(&mut self) -> Result<UdpPortMessage, CoreError> {
        if self.aid.is_none() {
            return Err(CoreError::NotAssociated);
        }
        self.seq = (self.seq + 1) & 0x0fff;
        let msg = UdpPortMessage::new(self.mac, self.bssid, self.ports.reportable_ports())?
            .with_seq(self.seq);
        self.state = AgentState::AwaitingAck { seq: self.seq };
        self.port_messages_sent += 1;
        Ok(msg)
    }

    /// Like [`HideClient::prepare_suspend`] but paginates arbitrarily
    /// large port sets into a fragment train (More Fragments bit set on
    /// all but the last message). The AP reassembles the train into one
    /// table refresh; the final message's ACK completes the handshake.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotAssociated`] when called before
    /// association.
    pub fn prepare_suspend_paginated(&mut self) -> Result<Vec<UdpPortMessage>, CoreError> {
        if self.aid.is_none() {
            return Err(CoreError::NotAssociated);
        }
        self.seq = (self.seq + 1) & 0x0fff;
        let msgs = UdpPortMessage::paginate(self.mac, self.bssid, self.ports.reportable_ports())
            .into_iter()
            .map(|m| m.with_seq(self.seq))
            .collect::<Vec<_>>();
        self.state = AgentState::AwaitingAck { seq: self.seq };
        self.port_messages_sent += msgs.len() as u64;
        Ok(msgs)
    }

    /// Re-builds the last UDP Port Message after an ACK timeout (the
    /// normal 802.11 retransmission path).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotAssociated`] if the client was never
    /// associated.
    pub fn retransmit(&mut self) -> Result<UdpPortMessage, CoreError> {
        if self.aid.is_none() {
            return Err(CoreError::NotAssociated);
        }
        self.retransmissions += 1;
        let msg = UdpPortMessage::new(self.mac, self.bssid, self.ports.reportable_ports())?
            .with_seq(self.seq);
        Ok(msg)
    }

    /// Handles the AP's ACK: the sync succeeded, enter suspend mode
    /// (Fig. 2, step 3).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnexpectedAck`] when the ACK is addressed to
    /// another station.
    pub fn handle_ack(&mut self, ack: &Ack) -> Result<(), CoreError> {
        if ack.receiver() != self.mac {
            return Err(CoreError::UnexpectedAck {
                receiver: ack.receiver(),
                expected: self.mac,
            });
        }
        if matches!(self.state, AgentState::AwaitingAck { .. }) {
            self.synced_generation = Some(self.ports.generation());
            self.state = AgentState::Suspended;
        }
        Ok(())
    }

    /// Inspects a beacon while suspended and decides whether to wake
    /// (Fig. 2, steps 4-5).
    ///
    /// HIDE semantics: the client checks *its own* BTIM bit rather than
    /// the legacy all-clients broadcast bit. If the BTIM bit is set it
    /// must receive the broadcast delivery (regardless of unicast
    /// state); otherwise it stays suspended unless unicast frames are
    /// buffered for it. Under a legacy AP (no BTIM element in the
    /// beacon) the client falls back to the standard one-bit DTIM
    /// indication — it cannot risk missing broadcasts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotAssociated`] when the client has no AID.
    pub fn handle_beacon(&self, beacon: &BeaconView<'_>) -> Result<WakeDecision, CoreError> {
        let aid = self.aid.ok_or(CoreError::NotAssociated)?;
        let broadcast = match beacon.btim() {
            Some(btim) => btim.is_set(aid),
            None => beacon.tim().is_some_and(|tim| tim.broadcast_buffered()),
        };
        if broadcast {
            return Ok(WakeDecision::WakeForBroadcast);
        }
        let unicast = beacon.tim().is_some_and(|tim| tim.traffic_for(aid));
        if unicast {
            return Ok(WakeDecision::WakeForUnicast);
        }
        Ok(WakeDecision::StaySuspended)
    }

    /// Processes a received broadcast frame once awake: returns whether
    /// an application actually consumes it (its destination port is
    /// bound to `INADDR_ANY`).
    pub fn consumes(&self, frame: &BroadcastDataFrame) -> bool {
        frame
            .udp_dst_port()
            .map(|port| self.ports.accepts_broadcast(port))
            .unwrap_or(false)
    }

    /// Marks the system resumed to active mode (frame processing, app
    /// activity).
    pub fn resume(&mut self) {
        self.state = AgentState::Active;
    }

    /// Total UDP Port Messages sent (the `M` of Eq. 18).
    pub fn port_messages_sent(&self) -> u64 {
        self.port_messages_sent
    }

    /// Total retransmissions performed.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hide_wifi::bitmap::PartialVirtualBitmap;
    use hide_wifi::frame::BeaconFields;

    fn client_with_ports(ports: &[u16]) -> HideClient {
        let mut reg = OpenPortRegistry::new();
        for &p in ports {
            reg.bind(p, [0, 0, 0, 0]).unwrap();
        }
        let mut c = HideClient::new(MacAddr::station(1), reg);
        c.set_aid(Aid::new(1).unwrap());
        c
    }

    /// The wire bytes of a DTIM beacon with the given TIM broadcast
    /// bit and unicast bits, and the BTIM when `btim` is set.
    fn beacon_bytes(
        btim: Option<&PartialVirtualBitmap>,
        unicast: &PartialVirtualBitmap,
        broadcast_buffered: bool,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        BeaconFields {
            bssid: MacAddr::station(0),
            timestamp_us: 0,
            ssid: "hide-net",
            dtim_count: 0,
            dtim_period: 1,
            broadcast_buffered,
            unicast,
            btim,
        }
        .write(&mut out);
        out
    }

    /// The wire bytes of a beacon whose BTIM flags `btim_aids` and
    /// whose TIM flags `tim_aids`.
    fn beacon(btim_aids: &[u16], tim_aids: &[u16]) -> Vec<u8> {
        let bitmap = |aids: &[u16]| -> PartialVirtualBitmap {
            aids.iter().map(|&v| Aid::new(v).unwrap()).collect()
        };
        beacon_bytes(Some(&bitmap(btim_aids)), &bitmap(tim_aids), false)
    }

    fn decide(c: &HideClient, bytes: &[u8]) -> WakeDecision {
        c.handle_beacon(&BeaconView::parse(bytes).unwrap()).unwrap()
    }

    #[test]
    fn over_the_air_association_flow() {
        use crate::ap::AccessPoint;
        use hide_wifi::assoc::AssociationRequest;

        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mut client = HideClient::new(MacAddr::station(1), OpenPortRegistry::new());

        // Request and response cross the air as real bytes.
        let req_bytes = client.association_request(ap.bssid(), "lab").to_bytes();
        let req = AssociationRequest::parse(&req_bytes).unwrap();
        assert!(req.supports_hide());
        let resp_bytes = ap.handle_association_request(&req).to_bytes();
        let resp = hide_wifi::assoc::AssociationResponse::parse(&resp_bytes).unwrap();
        let aid = client.handle_association_response(&resp).unwrap();

        assert_eq!(Some(aid), ap.aid_of(client.mac()));
        assert!(ap.is_hide_enabled(client.mac()), "capability recorded");
        // The client can now run the suspend handshake.
        let msg = client.prepare_suspend().unwrap();
        assert_eq!(msg.ap(), ap.bssid());
    }

    #[test]
    fn denied_association_leaves_client_unassociated() {
        use hide_wifi::assoc::AssociationResponse;
        let mut client = HideClient::new(MacAddr::station(1), OpenPortRegistry::new());
        let resp = AssociationResponse::denied(MacAddr::station(0), client.mac(), 17);
        assert!(matches!(
            client.handle_association_response(&resp),
            Err(CoreError::NotAssociated)
        ));
        assert!(client.aid().is_none());
    }

    #[test]
    fn response_for_other_station_rejected() {
        use hide_wifi::assoc::AssociationResponse;
        let mut client = HideClient::new(MacAddr::station(1), OpenPortRegistry::new());
        let resp = AssociationResponse::success(
            MacAddr::station(0),
            MacAddr::station(9),
            Aid::new(5).unwrap(),
        );
        assert!(matches!(
            client.handle_association_response(&resp),
            Err(CoreError::UnexpectedAck { .. })
        ));
    }

    #[test]
    fn suspend_requires_association() {
        let mut c = HideClient::new(MacAddr::station(1), OpenPortRegistry::new());
        assert!(matches!(c.prepare_suspend(), Err(CoreError::NotAssociated)));
    }

    #[test]
    fn suspend_flow_reaches_suspended_state() {
        let mut c = client_with_ports(&[5353]);
        assert!(!c.is_suspended());
        let msg = c.prepare_suspend().unwrap();
        assert_eq!(msg.ports(), &[5353]);
        assert!(!c.is_suspended(), "must wait for the ACK");
        c.handle_ack(&Ack::new(c.mac())).unwrap();
        assert!(c.is_suspended());
        assert_eq!(c.port_messages_sent(), 1);
    }

    #[test]
    fn foreign_ack_rejected() {
        let mut c = client_with_ports(&[]);
        let _ = c.prepare_suspend().unwrap();
        let err = c.handle_ack(&Ack::new(MacAddr::station(9))).unwrap_err();
        assert!(matches!(err, CoreError::UnexpectedAck { .. }));
        assert!(!c.is_suspended());
    }

    #[test]
    fn btim_bit_wakes_for_broadcast() {
        let c = client_with_ports(&[5353]);
        let d = decide(&c, &beacon(&[1], &[]));
        assert_eq!(d, WakeDecision::WakeForBroadcast);
    }

    #[test]
    fn broadcast_takes_priority_over_unicast() {
        let c = client_with_ports(&[5353]);
        let d = decide(&c, &beacon(&[1], &[1]));
        assert_eq!(d, WakeDecision::WakeForBroadcast);
    }

    #[test]
    fn unicast_only_wakes_for_unicast() {
        let c = client_with_ports(&[]);
        let d = decide(&c, &beacon(&[], &[1]));
        assert_eq!(d, WakeDecision::WakeForUnicast);
    }

    #[test]
    fn other_clients_bits_are_ignored() {
        let c = client_with_ports(&[]);
        let d = decide(&c, &beacon(&[2, 3], &[4]));
        assert_eq!(d, WakeDecision::StaySuspended);
    }

    #[test]
    fn needs_sync_tracks_port_changes() {
        let mut c = client_with_ports(&[80]);
        assert!(c.needs_sync());
        let _ = c.prepare_suspend().unwrap();
        c.handle_ack(&Ack::new(c.mac())).unwrap();
        assert!(!c.needs_sync());
        c.ports_mut().bind(443, [0, 0, 0, 0]).unwrap();
        assert!(c.needs_sync());
        assert!(!c.is_suspended(), "port change implies active mode");
    }

    #[test]
    fn paginated_suspend_flow_with_many_ports() {
        use crate::ap::{AccessPoint, ApCtx};
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mut reg = OpenPortRegistry::new();
        for p in 1000u16..1200 {
            reg.bind(p, [0, 0, 0, 0]).unwrap();
        }
        let mut client = HideClient::new(MacAddr::station(1), reg);
        let aid = ap.associate(client.mac()).unwrap();
        client.set_aid(aid);
        client.set_bssid(ap.bssid());

        let msgs = client.prepare_suspend_paginated().unwrap();
        assert!(msgs.len() > 1, "200 ports need multiple fragments");
        let mut last_ack = None;
        for m in &msgs {
            last_ack = Some(ap.process_port_message(m, &mut ApCtx::untimed()).unwrap());
        }
        client.handle_ack(&last_ack.unwrap()).unwrap();
        assert!(client.is_suspended());
        assert_eq!(ap.port_table().ports_of(aid).len(), 200);
    }

    #[test]
    fn retransmit_keeps_sequence_number() {
        let mut c = client_with_ports(&[80]);
        let m1 = c.prepare_suspend().unwrap();
        let m2 = c.retransmit().unwrap();
        assert_eq!(m1.seq(), m2.seq());
        assert_eq!(c.retransmissions(), 1);
        let m3 = c.prepare_suspend().unwrap();
        assert_ne!(m3.seq(), m1.seq());
    }

    #[test]
    fn consumes_matches_bound_ports() {
        use hide_wifi::udp::UdpDatagram;
        let c = client_with_ports(&[5353]);
        let useful = BroadcastDataFrame::new(
            MacAddr::station(0),
            UdpDatagram::new([10, 0, 0, 1], [255; 4], 1, 5353, vec![]),
            false,
        );
        let useless = BroadcastDataFrame::new(
            MacAddr::station(0),
            UdpDatagram::new([10, 0, 0, 1], [255; 4], 1, 1900, vec![]),
            false,
        );
        assert!(c.consumes(&useful));
        assert!(!c.consumes(&useless));
    }

    #[test]
    fn beacon_without_btim_falls_back_to_legacy_dtim_bit() {
        // Under a legacy AP the HIDE client must honour the standard
        // one-bit broadcast indication or it would miss broadcasts.
        let c = client_with_ports(&[5353]);
        let empty = PartialVirtualBitmap::new();
        let legacy_beacon = beacon_bytes(None, &empty, true);
        assert_eq!(decide(&c, &legacy_beacon), WakeDecision::WakeForBroadcast);

        let quiet_beacon = beacon_bytes(None, &empty, false);
        assert_eq!(decide(&c, &quiet_beacon), WakeDecision::StaySuspended);
    }
}
