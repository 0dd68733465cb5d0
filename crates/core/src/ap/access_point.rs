//! The HIDE-enabled access point.

use crate::ap::snapshot::{ApSnapshot, ClientSnapshot, PortEntrySnapshot};
use crate::ap::{calculate_broadcast_flags_observed, ApCtx, BroadcastBuffer, ClientPortTable};
use crate::error::CoreError;
use crate::fx::FxHashMap;
use hide_obs::{Counter, Distribution, MetricsSink, TraceEventKind, TraceSink};
use hide_wifi::assoc::{self, AssociationRequest, AssociationResponse, Disassociation};
use hide_wifi::bitmap::PartialVirtualBitmap;
use hide_wifi::frame::{Ack, BeaconFields, BroadcastDataFrame, UdpPortMessage};
use hide_wifi::mac::{Aid, MacAddr, MAX_AID};
use hide_wifi::WifiError;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// What the AP attaches to DTIM beacons beyond the standard TIM.
///
/// HIDE APs run [`BeaconMode::Btim`]; an AP serving only legacy-PSM or
/// scheduled-wake clients runs [`BeaconMode::TimOnly`], skipping both
/// the BTIM element and the Algorithm 1 flag computation (there are no
/// registered ports to match against), so beacons carry zero HIDE
/// overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BeaconMode {
    /// Attach the HIDE BTIM element to every DTIM beacon (default).
    #[default]
    Btim,
    /// Standard 802.11 beacons: TIM only, no BTIM element.
    TimOnly,
}

/// Record the AP keeps per associated client, in the slot of its AID.
#[derive(Debug, Clone)]
struct ClientRecord {
    mac: MacAddr,
    /// Set once the client has sent a UDP Port Message; legacy clients
    /// never do.
    hide_enabled: bool,
    /// Unicast frames buffered while the client is power-saving (we
    /// track only counts/lengths, enough for TIM signalling).
    unicast_buffered: u32,
}

/// A HIDE-enabled 802.11 access point.
///
/// Owns the association table, the [`ClientPortTable`], the broadcast
/// buffer, and builds beacons with both the standard TIM and the HIDE
/// BTIM so legacy and HIDE clients coexist (Section III.D).
#[derive(Debug, Clone)]
pub struct AccessPoint {
    bssid: MacAddr,
    /// Client records indexed by `aid - aid_lo`, grown to the highest
    /// AID handed out so far (not to `aid_hi`).
    slots: Vec<Option<ClientRecord>>,
    /// MAC → AID of every associated client, for frames that carry
    /// only a MAC. Never iterated, so its order reaches no output; it
    /// holds at most the AID range's 2007 keys.
    aids: FxHashMap<MacAddr, Aid>,
    port_table: ClientPortTable,
    buffer: BroadcastBuffer,
    dtim_period: u8,
    port_messages_received: u64,
    /// Partially received fragmented port reports, keyed by sender.
    pending_fragments: BTreeMap<MacAddr, Vec<u16>>,
    ssid: String,
    /// AID values released by disassociations and not yet re-assigned.
    /// Every element is below `next_fresh_aid`, so the heap minimum is
    /// the lowest free AID whenever the heap is non-empty.
    freed_aids: BinaryHeap<Reverse<u16>>,
    /// Lowest AID value never assigned so far (`aid_hi + 1` once the
    /// range has been fully touched).
    next_fresh_aid: u16,
    /// Inclusive AID allocation range. The default AP owns the whole
    /// `1..=MAX_AID` space; a sharded deployment (`hide-apd`) gives
    /// each shard a disjoint sub-range so AIDs stay globally unique.
    aid_lo: u16,
    aid_hi: u16,
    beacon_mode: BeaconMode,
}

impl AccessPoint {
    /// Creates an AP with the given BSSID and DTIM period 1, owning the
    /// full `1..=MAX_AID` association-ID space.
    pub fn new(bssid: MacAddr) -> Self {
        AccessPoint::with_aid_range(bssid, 1, MAX_AID).expect("full range is valid")
    }

    /// Creates an AP that allocates AIDs only from `lo..=hi`
    /// (inclusive). Shards of a partitioned AP (`hide-apd`) use
    /// disjoint ranges so every AID stays unique across the deployment.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidAidRange`] unless
    /// `1 <= lo <= hi <= MAX_AID`.
    pub fn with_aid_range(bssid: MacAddr, lo: u16, hi: u16) -> Result<Self, CoreError> {
        if lo == 0 || lo > hi || hi > MAX_AID {
            return Err(CoreError::InvalidAidRange { lo, hi });
        }
        Ok(AccessPoint {
            bssid,
            slots: Vec::new(),
            aids: FxHashMap::default(),
            port_table: ClientPortTable::new(),
            buffer: BroadcastBuffer::new(),
            dtim_period: 1,
            port_messages_received: 0,
            pending_fragments: BTreeMap::new(),
            ssid: "hide-net".to_string(),
            freed_aids: BinaryHeap::new(),
            next_fresh_aid: lo,
            aid_lo: lo,
            aid_hi: hi,
            beacon_mode: BeaconMode::default(),
        })
    }

    /// The inclusive AID allocation range `(lo, hi)`.
    pub fn aid_range(&self) -> (u16, u16) {
        (self.aid_lo, self.aid_hi)
    }

    /// Sets the beacon mode (whether DTIM beacons carry the HIDE BTIM).
    pub fn set_beacon_mode(&mut self, mode: BeaconMode) {
        self.beacon_mode = mode;
    }

    /// The current beacon mode.
    pub fn beacon_mode(&self) -> BeaconMode {
        self.beacon_mode
    }

    /// Sets the SSID advertised in beacons.
    ///
    /// # Errors
    ///
    /// Returns [`WifiError::FieldOverflow`] (as [`CoreError::Wifi`])
    /// for an SSID longer than 802.11's 32 octets
    /// ([`assoc::MAX_SSID_LEN`]); the SSID is then unchanged.
    pub fn set_ssid(&mut self, ssid: impl Into<String>) -> Result<(), CoreError> {
        let ssid = ssid.into();
        if ssid.len() > assoc::MAX_SSID_LEN {
            return Err(CoreError::Wifi(WifiError::FieldOverflow {
                field: "ssid",
                value: ssid.len() as u64,
            }));
        }
        self.ssid = ssid;
        Ok(())
    }

    /// The SSID advertised in beacons.
    pub fn ssid(&self) -> &str {
        &self.ssid
    }

    /// Sets the DTIM period announced in beacons.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn set_dtim_period(&mut self, period: u8) {
        assert!(period > 0, "DTIM period must be positive");
        self.dtim_period = period;
    }

    /// The AP's BSSID.
    pub fn bssid(&self) -> MacAddr {
        self.bssid
    }

    /// Associates a client, assigning the lowest free AID.
    ///
    /// Re-associating an already-associated client returns its existing
    /// AID.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoFreeAid`] when all 2007 AIDs are taken.
    pub fn associate(&mut self, mac: MacAddr) -> Result<Aid, CoreError> {
        if let Some(&aid) = self.aids.get(&mac) {
            return Ok(aid);
        }
        // Lowest free AID in O(log free): freed values all sit below
        // the fresh watermark, so the heap minimum (when present) beats
        // every never-assigned value — the same answer the linear
        // "first v in 1..=MAX_AID not assigned" scan produces.
        let v = if let Some(Reverse(v)) = self.freed_aids.pop() {
            v
        } else if self.next_fresh_aid <= self.aid_hi {
            let v = self.next_fresh_aid;
            self.next_fresh_aid += 1;
            v
        } else {
            return Err(CoreError::NoFreeAid);
        };
        let aid = Aid::new(v).expect("range is valid");
        let slot = self.slot_mut(v);
        debug_assert!(slot.is_none());
        *slot = Some(ClientRecord {
            mac,
            hide_enabled: false,
            unicast_buffered: 0,
        });
        self.aids.insert(mac, aid);
        Ok(aid)
    }

    /// The slot of AID value `v`, which must lie in `aid_lo..=aid_hi`,
    /// growing the slab to reach it.
    fn slot_mut(&mut self, v: u16) -> &mut Option<ClientRecord> {
        let i = usize::from(v - self.aid_lo);
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }

    /// The record in the slot of AID value `v`, if a client holds it.
    /// Safe for any `v`: values outside the slab are simply absent.
    fn record_at(&self, v: u16) -> Option<&ClientRecord> {
        let i = v.checked_sub(self.aid_lo)?;
        self.slots.get(usize::from(i))?.as_ref()
    }

    /// The record of associated client `mac`, with its AID.
    fn record_mut(&mut self, mac: MacAddr) -> Result<(Aid, &mut ClientRecord), CoreError> {
        let aid = *self.aids.get(&mac).ok_or(CoreError::UnknownClient(mac))?;
        let record = self
            .slot_mut(aid.value())
            .as_mut()
            .expect("every mapped AID holds a record");
        Ok((aid, record))
    }

    /// Processes an over-the-air association request, assigning an AID
    /// (or denying when none are free). A request carrying the HIDE
    /// capability (an Open UDP Ports element) pre-marks the client as
    /// HIDE-enabled.
    pub fn handle_association_request(
        &mut self,
        request: &AssociationRequest,
    ) -> AssociationResponse {
        match self.associate(request.client()) {
            Ok(aid) => {
                if request.supports_hide() {
                    if let Some(record) = self.slot_mut(aid.value()) {
                        record.hide_enabled = true;
                    }
                }
                AssociationResponse::success(self.bssid, request.client(), aid)
            }
            Err(_) => AssociationResponse::denied(
                self.bssid,
                request.client(),
                assoc::STATUS_DENIED_NO_RESOURCES,
            ),
        }
    }

    /// Processes an over-the-air disassociation notice.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClient`] when the sender is not
    /// associated.
    pub fn handle_disassociation(&mut self, notice: &Disassociation) -> Result<(), CoreError> {
        self.disassociate(notice.from())
    }

    /// Disassociates a client, releasing its AID and port-table entries.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClient`] when `mac` is not associated.
    pub fn disassociate(&mut self, mac: MacAddr) -> Result<(), CoreError> {
        let aid = self
            .aids
            .remove(&mac)
            .ok_or(CoreError::UnknownClient(mac))?;
        *self.slot_mut(aid.value()) = None;
        self.freed_aids.push(Reverse(aid.value()));
        self.port_table.remove_client(aid);
        self.pending_fragments.remove(&mac);
        Ok(())
    }

    /// The AID of an associated client.
    pub fn aid_of(&self, mac: MacAddr) -> Option<Aid> {
        self.aids.get(&mac).copied()
    }

    /// Number of associated clients.
    pub fn client_count(&self) -> usize {
        self.aids.len()
    }

    /// Whether a client has HIDE enabled (has ever sent a port message).
    pub fn is_hide_enabled(&self, mac: MacAddr) -> bool {
        self.aid_of(mac)
            .and_then(|aid| self.record_at(aid.value()))
            .is_some_and(|r| r.hide_enabled)
    }

    /// Processes a UDP Port Message: refreshes the Client UDP Port
    /// Table and returns the ACK to transmit (Fig. 2, steps 1-2).
    ///
    /// When `ctx` carries a timestamp ([`ApCtx::now`] is `Some`), the
    /// table entries it installs become eligible for
    /// [`AccessPoint::expire_stale_port_entries`] once that time falls
    /// behind the expiry cutoff — discrete-event simulations and the
    /// `hide-apd` daemon use timed contexts so a client that stops
    /// refreshing (left without disassociating, or kept losing its
    /// messages) eventually ages out of the table. With an untimed
    /// context the installed entries are exempt from expiry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClient`] when the sender is not
    /// associated.
    pub fn process_port_message<S: MetricsSink, T: TraceSink>(
        &mut self,
        msg: &UdpPortMessage,
        ctx: &mut ApCtx<S, T>,
    ) -> Result<Ack, CoreError> {
        let now = ctx.now();
        let (aid, record) = self.record_mut(msg.client())?;
        record.hide_enabled = true;
        self.port_messages_received += 1;

        let refresh = |table: &mut ClientPortTable, ports: &[u16]| match now {
            Some(at) => table.update_client_at(aid, ports, at),
            None => table.update_client(aid, ports),
        };
        if msg.more_fragments() {
            // Accumulate; the table refresh happens on the final
            // fragment so a half-received report never goes live.
            self.pending_fragments
                .entry(msg.client())
                .or_default()
                .extend_from_slice(msg.ports());
        } else if self.pending_fragments.is_empty() {
            // Common case: nothing mid-reassembly anywhere, so skip the
            // per-message map probe entirely.
            refresh(&mut self.port_table, msg.ports());
        } else if let Some(mut ports) = self.pending_fragments.remove(&msg.client()) {
            ports.extend_from_slice(msg.ports());
            refresh(&mut self.port_table, &ports);
        } else {
            refresh(&mut self.port_table, msg.ports());
        }
        Ok(Ack::new(msg.client()))
    }

    /// Expires port-table entries whose last timestamped refresh is
    /// strictly before `cutoff` (see [`ClientPortTable::expire_stale`]).
    /// Expired clients stay associated — only their port interests are
    /// forgotten, so they fall back to flagged-for-nothing until their
    /// next UDP Port Message lands.
    pub fn expire_stale_port_entries(&mut self, cutoff: f64) -> crate::ap::ExpiryReport {
        self.port_table.expire_stale(cutoff)
    }

    /// Buffers a broadcast frame for delivery after the next DTIM.
    pub fn enqueue_broadcast(&mut self, frame: BroadcastDataFrame) {
        self.buffer.push(frame);
    }

    /// Records a buffered unicast frame for `mac` (sets its TIM bit).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClient`] when `mac` is not associated.
    pub fn buffer_unicast(&mut self, mac: MacAddr) -> Result<(), CoreError> {
        let (_, record) = self.record_mut(mac)?;
        record.unicast_buffered += 1;
        Ok(())
    }

    /// Delivers one buffered unicast frame to `mac` in response to a
    /// PS-Poll, clearing the TIM bit when the queue empties.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClient`] when `mac` is not associated.
    pub fn ps_poll(&mut self, mac: MacAddr) -> Result<u32, CoreError> {
        let (_, record) = self.record_mut(mac)?;
        record.unicast_buffered = record.unicast_buffered.saturating_sub(1);
        Ok(record.unicast_buffered)
    }

    /// Whether the given frame is useful to the client with `aid`, i.e.
    /// whether the client listens on the frame's UDP destination port.
    /// Non-UDP frames are "useful" to everyone (delivered via the
    /// legacy path).
    pub fn is_useful_for(&self, aid: Aid, frame: &BroadcastDataFrame) -> bool {
        match frame.udp_dst_port() {
            Ok(port) => self.port_table.client_listens_on(aid, port),
            Err(_) => true,
        }
    }

    /// Writes the DTIM beacon for beacon index `index` into `out`
    /// (cleared first): runs Algorithm 1 over the buffered frames and
    /// sends both the standard TIM (with the one-bit broadcast
    /// indication for legacy clients) and the HIDE BTIM. This is the
    /// canonical entry point — Algorithm 1 runs through
    /// [`calculate_broadcast_flags_observed`] into `ctx.metrics`, and
    /// the DTIM boundary (buffered burst size, port-table occupancy)
    /// plus the BTIM's on-air footprint stream into `ctx.trace`. A
    /// caller that keeps `out` across DTIMs emits each beacon without
    /// allocating.
    ///
    /// The events are stamped at [`ApCtx::now`] when the caller
    /// provided a timestamp (the `hide-apd` daemon passes seconds since
    /// its process-wide epoch); with an untimed context the
    /// timestamp is derived from the beacon index on the paper's
    /// 102.4 ms cadence, exactly as the trace-driven simulator always
    /// stamped it.
    pub fn emit_dtim_beacon<S: MetricsSink, T: TraceSink>(
        &mut self,
        index: u64,
        ctx: &mut ApCtx<S, T>,
        out: &mut Vec<u8>,
    ) {
        let now = ctx
            .now()
            .unwrap_or(index as f64 * hide_wifi::timing::TIME_UNIT_SECS * 100.0);
        if ctx.trace.is_enabled() {
            ctx.trace.emit(
                now,
                TraceEventKind::DtimBoundary {
                    buffered: self.buffer.len() as u32,
                    table_entries: self.port_table.entry_count() as u32,
                },
            );
        }
        let mut flags = PartialVirtualBitmap::new();
        if self.beacon_mode == BeaconMode::Btim {
            calculate_broadcast_flags_observed(
                &self.buffer,
                &self.port_table,
                &mut flags,
                &mut ctx.metrics,
            );
            // The BTIM's on-air footprint (the `L^b_i` of Eq. 16 plus
            // its 2-byte ID/length header): ID, length, Offset and the
            // trimmed bitmap.
            let bytes = 2 + 1 + flags.trimmed_span().1;
            let bits_set = flags.count();
            ctx.metrics.incr(Counter::BtimBeacons);
            ctx.metrics.add(Counter::BtimBytes, bytes as u64);
            ctx.metrics.add(Counter::BtimBitsSet, bits_set as u64);
            ctx.metrics
                .observe(Distribution::BtimBytesPerBeacon, bytes as u64);
            if ctx.trace.is_enabled() {
                ctx.trace.emit(
                    now,
                    TraceEventKind::BtimEmitted {
                        bytes: bytes as u32,
                        bits_set: bits_set as u32,
                    },
                );
            }
        }
        self.write_beacon(index, 0, &flags, out);
    }

    /// Uninstrumented [`AccessPoint::emit_dtim_beacon`] sugar: an
    /// untimed no-op context, compiling to the same hot path.
    pub fn dtim_beacon(&mut self, index: u64, out: &mut Vec<u8>) {
        self.emit_dtim_beacon(index, &mut ApCtx::untimed(), out)
    }

    /// Writes a non-DTIM beacon (`dtim_count > 0`) into `out` (cleared
    /// first): no broadcast flags, unicast TIM bits only.
    pub fn beacon(&self, index: u64, dtim_count: u8, out: &mut Vec<u8>) {
        self.write_beacon(index, dtim_count, &PartialVirtualBitmap::new(), out)
    }

    fn write_beacon(
        &self,
        index: u64,
        dtim_count: u8,
        flags: &PartialVirtualBitmap,
        out: &mut Vec<u8>,
    ) {
        let mut unicast = PartialVirtualBitmap::new();
        for (v, record) in (self.aid_lo..).zip(&self.slots) {
            if record.as_ref().is_some_and(|r| r.unicast_buffered > 0) {
                unicast.set(Aid::new(v).expect("slots lie inside the AID range"));
            }
        }
        BeaconFields {
            bssid: self.bssid,
            timestamp_us: index.wrapping_mul(102_400),
            ssid: &self.ssid,
            dtim_count,
            dtim_period: self.dtim_period,
            broadcast_buffered: dtim_count == 0 && !self.buffer.is_empty(),
            unicast: &unicast,
            btim: (self.beacon_mode == BeaconMode::Btim).then_some(flags),
        }
        .write(out);
    }

    /// Drains the broadcast buffer for post-DTIM delivery (More Data
    /// bits set on all but the last frame), recording the burst into
    /// `ctx.metrics` (see
    /// [`BroadcastBuffer::drain_for_delivery_observed`]). This is the
    /// canonical entry point.
    pub fn drain_broadcasts<S: MetricsSink, T: TraceSink>(
        &mut self,
        ctx: &mut ApCtx<S, T>,
    ) -> Vec<BroadcastDataFrame> {
        self.buffer.drain_for_delivery_observed(&mut ctx.metrics)
    }

    /// Uninstrumented [`AccessPoint::drain_broadcasts`] sugar.
    pub fn deliver_broadcasts(&mut self) -> Vec<BroadcastDataFrame> {
        self.drain_broadcasts(&mut ApCtx::untimed())
    }

    /// Number of frames currently buffered (`n_f` at the next DTIM).
    pub fn buffered_broadcasts(&self) -> usize {
        self.buffer.len()
    }

    /// The Client UDP Port Table (for inspection and benches).
    pub fn port_table(&self) -> &ClientPortTable {
        &self.port_table
    }

    /// Total UDP Port Messages processed.
    pub fn port_messages_received(&self) -> u64 {
        self.port_messages_received
    }

    /// Captures the AP's durable client state as an [`ApSnapshot`]:
    /// association table (with HIDE capability and buffered-unicast
    /// counts), AID allocator, and the Client UDP Port Table with its
    /// refresh timestamps. The broadcast buffer and partially
    /// reassembled port reports are transient by design and are *not*
    /// captured — a restored AP starts with an empty buffer, exactly as
    /// a rebooted daemon should.
    ///
    /// The snapshot is canonical (clients sorted by MAC, port entries
    /// and freed AIDs sorted ascending), so two APs that processed the
    /// same frames produce byte-identical [`ApSnapshot::to_bytes`]
    /// encodings regardless of internal hash-map iteration order.
    pub fn snapshot(&self) -> ApSnapshot {
        let mut freed: Vec<u16> = self.freed_aids.iter().map(|Reverse(v)| *v).collect();
        freed.sort_unstable();
        let mut clients: Vec<ClientSnapshot> = (self.aid_lo..)
            .zip(&self.slots)
            .filter_map(|(aid, record)| {
                record.as_ref().map(|r| ClientSnapshot {
                    mac: r.mac,
                    aid,
                    hide_enabled: r.hide_enabled,
                    unicast_buffered: r.unicast_buffered,
                })
            })
            .collect();
        clients.sort_unstable_by_key(|c| c.mac);
        let port_entries = self
            .port_table
            .client_aids()
            .into_iter()
            .map(|aid| PortEntrySnapshot {
                aid: aid.value(),
                last_refresh: self.port_table.last_refresh_of(aid),
                ports: self.port_table.ports_of(aid).to_vec(),
            })
            .collect();
        ApSnapshot {
            bssid: self.bssid,
            ssid: self.ssid.clone(),
            dtim_period: self.dtim_period,
            aid_lo: self.aid_lo,
            aid_hi: self.aid_hi,
            next_fresh_aid: self.next_fresh_aid,
            freed_aids: freed,
            port_messages_received: self.port_messages_received,
            clients,
            port_entries,
        }
    }

    /// Reconstructs an AP from a snapshot taken by
    /// [`AccessPoint::snapshot`]. The restored AP answers every
    /// association, port-table and expiry query exactly as the
    /// snapshotted one did; its broadcast buffer starts empty.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidAidRange`] for a bad allocator
    /// range, or [`CoreError::Snapshot`] when the snapshot is
    /// internally inconsistent (AIDs outside the range or duplicated,
    /// port entries for unknown clients, a freed AID above the fresh
    /// watermark) or its SSID is longer than 32 octets.
    pub fn from_snapshot(snapshot: &ApSnapshot) -> Result<Self, CoreError> {
        let mut ap = AccessPoint::with_aid_range(snapshot.bssid, snapshot.aid_lo, snapshot.aid_hi)?;
        ap.set_ssid(snapshot.ssid.as_str())
            .map_err(|e| CoreError::Snapshot(e.to_string()))?;
        if snapshot.dtim_period == 0 {
            return Err(CoreError::Snapshot("DTIM period is zero".to_string()));
        }
        ap.dtim_period = snapshot.dtim_period;
        if snapshot.next_fresh_aid < snapshot.aid_lo
            || snapshot.next_fresh_aid > snapshot.aid_hi.saturating_add(1)
        {
            return Err(CoreError::Snapshot(format!(
                "fresh-AID watermark {} outside range {}..={}",
                snapshot.next_fresh_aid, snapshot.aid_lo, snapshot.aid_hi
            )));
        }
        ap.next_fresh_aid = snapshot.next_fresh_aid;
        ap.port_messages_received = snapshot.port_messages_received;
        for &v in &snapshot.freed_aids {
            if v < snapshot.aid_lo || v >= snapshot.next_fresh_aid {
                return Err(CoreError::Snapshot(format!(
                    "freed AID {v} outside the touched range"
                )));
            }
            ap.freed_aids.push(Reverse(v));
        }
        for client in &snapshot.clients {
            let aid = Aid::new(client.aid).map_err(|_| {
                CoreError::Snapshot(format!("client AID {} is invalid", client.aid))
            })?;
            if client.aid < snapshot.aid_lo
                || client.aid > snapshot.aid_hi
                || client.aid >= snapshot.next_fresh_aid
                || snapshot.freed_aids.binary_search(&client.aid).is_ok()
            {
                return Err(CoreError::Snapshot(format!(
                    "client AID {} is not an allocated AID of the snapshot",
                    client.aid
                )));
            }
            if ap.record_at(client.aid).is_some() {
                return Err(CoreError::Snapshot(format!(
                    "AID {} assigned to two clients",
                    client.aid
                )));
            }
            if ap.aids.insert(client.mac, aid).is_some() {
                return Err(CoreError::Snapshot(format!(
                    "client {} appears twice",
                    client.mac
                )));
            }
            // Range-checked above, so the AID has a slot.
            *ap.slot_mut(client.aid) = Some(ClientRecord {
                mac: client.mac,
                hide_enabled: client.hide_enabled,
                unicast_buffered: client.unicast_buffered,
            });
        }
        for entry in &snapshot.port_entries {
            let aid = Aid::new(entry.aid)
                .map_err(|_| CoreError::Snapshot(format!("entry AID {} is invalid", entry.aid)))?;
            if ap.record_at(entry.aid).is_none() {
                return Err(CoreError::Snapshot(format!(
                    "port entry for unassociated AID {}",
                    entry.aid
                )));
            }
            match entry.last_refresh {
                Some(at) => ap.port_table.update_client_at(aid, &entry.ports, at),
                None => ap.port_table.update_client(aid, &entry.ports),
            }
        }
        ap.port_table.reset_op_counts();
        Ok(ap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hide_wifi::frame::BeaconView;
    use hide_wifi::ie::InformationElement;
    use hide_wifi::udp::UdpDatagram;

    /// The AP's DTIM beacon `index`, on air.
    fn dtim(ap: &mut AccessPoint, index: u64) -> Vec<u8> {
        let mut out = Vec::new();
        ap.dtim_beacon(index, &mut out);
        out
    }

    fn view(bytes: &[u8]) -> BeaconView<'_> {
        BeaconView::parse(bytes).unwrap()
    }

    fn frame(port: u16) -> BroadcastDataFrame {
        let d = UdpDatagram::new([10, 0, 0, 1], [255; 4], 4000, port, vec![]);
        BroadcastDataFrame::new(MacAddr::station(0), d, false)
    }

    fn port_msg(client: MacAddr, ap: MacAddr, ports: &[u16]) -> UdpPortMessage {
        UdpPortMessage::new(client, ap, ports.iter().copied()).unwrap()
    }

    #[test]
    fn associate_assigns_sequential_aids() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let a = ap.associate(MacAddr::station(1)).unwrap();
        let b = ap.associate(MacAddr::station(2)).unwrap();
        assert_eq!(a.value(), 1);
        assert_eq!(b.value(), 2);
        assert_eq!(ap.client_count(), 2);
    }

    #[test]
    fn reassociation_is_idempotent() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let a = ap.associate(MacAddr::station(1)).unwrap();
        let b = ap.associate(MacAddr::station(1)).unwrap();
        assert_eq!(a, b);
        assert_eq!(ap.client_count(), 1);
    }

    #[test]
    fn disassociate_frees_aid_for_reuse() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let a = ap.associate(MacAddr::station(1)).unwrap();
        ap.disassociate(MacAddr::station(1)).unwrap();
        let b = ap.associate(MacAddr::station(2)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn disassociate_unknown_fails() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        assert!(matches!(
            ap.disassociate(MacAddr::station(9)),
            Err(CoreError::UnknownClient(_))
        ));
    }

    #[test]
    fn port_message_marks_hide_enabled_and_acks() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mac = MacAddr::station(1);
        ap.associate(mac).unwrap();
        assert!(!ap.is_hide_enabled(mac));
        let ack = ap
            .process_port_message(&port_msg(mac, ap.bssid(), &[5353]), &mut ApCtx::untimed())
            .unwrap();
        assert_eq!(ack.receiver(), mac);
        assert!(ap.is_hide_enabled(mac));
        assert_eq!(ap.port_messages_received(), 1);
    }

    #[test]
    fn fragmented_port_report_reassembles() {
        use hide_wifi::frame::UdpPortMessage as Msg;
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mac = MacAddr::station(1);
        let aid = ap.associate(mac).unwrap();
        let ports: Vec<u16> = (1000..1300).collect();
        let msgs = Msg::paginate(mac, ap.bssid(), ports.clone());
        assert!(msgs.len() > 1);
        for (i, m) in msgs.iter().enumerate() {
            // Nothing goes live until the final fragment.
            if i + 1 < msgs.len() {
                ap.process_port_message(m, &mut ApCtx::untimed()).unwrap();
                assert!(ap.port_table().ports_of(aid).len() < ports.len());
            } else {
                ap.process_port_message(m, &mut ApCtx::untimed()).unwrap();
            }
        }
        assert_eq!(ap.port_table().ports_of(aid).len(), ports.len());
        assert!(ap.port_table().client_listens_on(aid, 1299));
    }

    #[test]
    fn unfragmented_message_after_partial_train_discards_nothing_stale() {
        use hide_wifi::frame::UdpPortMessage as Msg;
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mac = MacAddr::station(1);
        let aid = ap.associate(mac).unwrap();
        // A dangling first fragment...
        let train = Msg::paginate(mac, ap.bssid(), (0..200u16).collect::<Vec<_>>());
        ap.process_port_message(&train[0], &mut ApCtx::untimed())
            .unwrap();
        // ...followed by a fresh complete (unfragmented-final) report:
        // the final fragment semantics merge the pending half, so the
        // table reflects the union of that train; a subsequent clean
        // report replaces everything.
        ap.process_port_message(&train[1], &mut ApCtx::untimed())
            .unwrap();
        let msg = Msg::new(mac, ap.bssid(), [9999u16]).unwrap();
        ap.process_port_message(&msg, &mut ApCtx::untimed())
            .unwrap();
        assert_eq!(ap.port_table().ports_of(aid), &[9999]);
    }

    #[test]
    fn port_message_from_stranger_rejected() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let err = ap
            .process_port_message(
                &port_msg(MacAddr::station(9), ap.bssid(), &[80]),
                &mut ApCtx::untimed(),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownClient(_)));
    }

    #[test]
    fn dtim_beacon_flags_match_algorithm_one() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mac1 = MacAddr::station(1);
        let mac2 = MacAddr::station(2);
        let aid1 = ap.associate(mac1).unwrap();
        let aid2 = ap.associate(mac2).unwrap();
        ap.process_port_message(&port_msg(mac1, ap.bssid(), &[1900]), &mut ApCtx::untimed())
            .unwrap();
        ap.process_port_message(&port_msg(mac2, ap.bssid(), &[5353]), &mut ApCtx::untimed())
            .unwrap();
        ap.enqueue_broadcast(frame(1900));

        let bytes = dtim(&mut ap, 0);
        let beacon = view(&bytes);
        let btim = beacon.btim().unwrap();
        assert!(btim.is_set(aid1));
        assert!(!btim.is_set(aid2));
        // Legacy path: the TIM broadcast bit is set because frames are
        // buffered, regardless of usefulness.
        assert!(beacon.tim().unwrap().broadcast_buffered());
    }

    #[test]
    fn observed_dtim_beacon_matches_plain_and_records_the_btim_on_air() {
        use hide_obs::{Recorder, TraceEventKind};
        let mut ap = AccessPoint::new(MacAddr::station(0));
        for (n, port) in [(1, 1900), (2, 5353), (3, 1900)] {
            let mac = MacAddr::station(n);
            ap.associate(mac).unwrap();
            ap.process_port_message(&port_msg(mac, ap.bssid(), &[port]), &mut ApCtx::untimed())
                .unwrap();
        }
        ap.enqueue_broadcast(frame(1900));

        let (mut rec, mut flight) = (Recorder::new(), hide_obs::FlightRecorder::with_capacity(8));
        let mut observed = vec![0xaa; 3];
        for _ in 0..2 {
            ap.clone().emit_dtim_beacon(
                0,
                &mut ApCtx::untimed()
                    .with_metrics(&mut rec)
                    .with_trace(&mut flight),
                &mut observed,
            );
        }
        assert_eq!(observed, dtim(&mut ap, 0));
        // ID, length, Offset and one bitmap octet (AIDs 1 and 3).
        let on_air = 2 + view(&observed).btim().unwrap().body_len() as u64;
        assert_eq!(on_air, 4);
        assert_eq!(rec.counter(Counter::BtimBeacons), 2);
        assert_eq!(rec.counter(Counter::BtimBytes), 2 * on_air);
        assert_eq!(rec.counter(Counter::BtimBitsSet), 4);
        let h = rec.distribution(Distribution::BtimBytesPerBeacon);
        assert_eq!((h.count(), h.min(), h.max()), (2, on_air, on_air));
        let emitted: Vec<_> = flight
            .events()
            .filter_map(|e| match e.kind {
                TraceEventKind::BtimEmitted { bytes, bits_set } => Some((bytes, bits_set)),
                _ => None,
            })
            .collect();
        assert_eq!(emitted, [(4, 2), (4, 2)]);
    }

    #[test]
    fn tim_only_beacons_record_no_btim() {
        use hide_obs::Recorder;
        let mut ap = AccessPoint::new(MacAddr::station(0));
        ap.set_beacon_mode(BeaconMode::TimOnly);
        ap.enqueue_broadcast(frame(1900));
        let mut rec = Recorder::new();
        let mut bytes = Vec::new();
        ap.emit_dtim_beacon(0, &mut ApCtx::untimed().with_metrics(&mut rec), &mut bytes);
        assert!(view(&bytes).btim().is_none());
        assert!(view(&bytes).tim().unwrap().broadcast_buffered());
        assert_eq!(rec.counter(Counter::BtimBeacons), 0);
        assert_eq!(rec.counter(Counter::BtimBytes), 0);
    }

    #[test]
    fn beacons_are_stamped_on_the_102_4_ms_cadence_from_the_bssid() {
        let bssid = MacAddr::station(7);
        let mut ap = AccessPoint::new(bssid);
        let mut bytes = Vec::new();
        for index in [0, 1, 3, 26_367] {
            ap.dtim_beacon(index, &mut bytes);
            assert_eq!(bytes[4..10], MacAddr::BROADCAST.octets());
            assert_eq!(bytes[10..16], bssid.octets());
            assert_eq!(bytes[16..22], bssid.octets());
            assert_eq!(bytes[24..32], (index * 102_400).to_le_bytes());
            assert_eq!(bytes[32..34], 100u16.to_le_bytes());
            ap.beacon(index, 1, &mut bytes);
            assert_eq!(bytes[24..32], (index * 102_400).to_le_bytes());
        }
    }

    #[test]
    fn non_dtim_beacon_has_empty_btim_and_count() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        ap.set_dtim_period(3);
        let aid = ap.associate(MacAddr::station(1)).unwrap();
        ap.enqueue_broadcast(frame(1900));
        let mut bytes = Vec::new();
        ap.beacon(1, 2, &mut bytes);
        let beacon = view(&bytes);
        let tim = beacon.tim().unwrap();
        assert_eq!((tim.dtim_count(), tim.dtim_period()), (2, 3));
        assert!(!tim.broadcast_buffered());
        // An empty BTIM: Offset 0 and one zero octet.
        let btim = beacon.btim().unwrap();
        assert_eq!(btim.body_len(), 2);
        assert!(!btim.is_set(aid));
    }

    #[test]
    fn beacons_advertise_ssid_and_rates() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        ap.set_ssid("corp-wifi").unwrap();
        let bytes = dtim(&mut ap, 0);
        let elements = InformationElement::decode_all(&bytes[36..]).unwrap();
        let ids: Vec<u8> = elements
            .iter()
            .map(InformationElement::element_id)
            .collect();
        assert_eq!(ids, [0, 1, 5, 201]);
        assert!(matches!(&elements[0], InformationElement::Raw(raw) if raw.body == b"corp-wifi"));
    }

    #[test]
    fn ssid_is_bounded_at_32_octets() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let longest = "x".repeat(32);
        ap.set_ssid(longest.as_str()).unwrap();
        let bytes = dtim(&mut ap, 0);
        assert_eq!(&bytes[36..38], &[0, 32]);
        assert_eq!(
            ap.set_ssid("y".repeat(300)),
            Err(CoreError::Wifi(WifiError::FieldOverflow {
                field: "ssid",
                value: 300,
            }))
        );
        assert_eq!(ap.ssid(), longest);
        let mut snapshot = ap.snapshot();
        let restored = AccessPoint::from_snapshot(&snapshot).unwrap();
        assert_eq!(restored.ssid(), longest);
        snapshot.ssid = "z".repeat(300);
        assert!(matches!(
            AccessPoint::from_snapshot(&snapshot),
            Err(CoreError::Snapshot(_))
        ));
    }

    #[test]
    fn delivery_drains_buffer() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        ap.enqueue_broadcast(frame(1));
        ap.enqueue_broadcast(frame(2));
        assert_eq!(ap.buffered_broadcasts(), 2);
        let burst = ap.deliver_broadcasts();
        assert_eq!(burst.len(), 2);
        assert!(burst[0].more_data());
        assert_eq!(ap.buffered_broadcasts(), 0);
    }

    #[test]
    fn usefulness_follows_port_table() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mac = MacAddr::station(1);
        let aid = ap.associate(mac).unwrap();
        ap.process_port_message(&port_msg(mac, ap.bssid(), &[5353]), &mut ApCtx::untimed())
            .unwrap();
        assert!(ap.is_useful_for(aid, &frame(5353)));
        assert!(!ap.is_useful_for(aid, &frame(1900)));
    }

    #[test]
    fn non_udp_frame_is_useful_to_everyone() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let aid = ap.associate(MacAddr::station(1)).unwrap();
        let raw = BroadcastDataFrame::from_raw_body(MacAddr::station(0), vec![0; 40], false);
        assert!(ap.is_useful_for(aid, &raw));
    }

    #[test]
    fn unicast_tim_bit_set_and_cleared() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mac = MacAddr::station(1);
        let aid = ap.associate(mac).unwrap();
        ap.buffer_unicast(mac).unwrap();
        let bytes = dtim(&mut ap, 0);
        assert!(view(&bytes).tim().unwrap().traffic_for(aid));
        assert_eq!(ap.ps_poll(mac).unwrap(), 0);
        let bytes = dtim(&mut ap, 1);
        assert!(!view(&bytes).tim().unwrap().traffic_for(aid));
    }

    #[test]
    fn timed_port_message_expires_when_refresh_stops() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mac = MacAddr::station(1);
        let aid = ap.associate(mac).unwrap();
        ap.process_port_message(&port_msg(mac, ap.bssid(), &[5353]), &mut ApCtx::at(0.0))
            .unwrap();
        assert!(ap.is_useful_for(aid, &frame(5353)));
        // Still fresh at a cutoff behind the refresh.
        assert!(ap.expire_stale_port_entries(0.0).is_empty());
        let report = ap.expire_stale_port_entries(10.0);
        assert_eq!(report.clients, vec![aid]);
        assert_eq!(report.entries_removed, 1);
        // Expired but still associated and HIDE-enabled.
        assert_eq!(ap.aid_of(mac), Some(aid));
        assert!(ap.is_hide_enabled(mac));
        assert!(!ap.is_useful_for(aid, &frame(5353)));
        // The next refresh brings the interests back.
        ap.process_port_message(&port_msg(mac, ap.bssid(), &[5353]), &mut ApCtx::at(20.0))
            .unwrap();
        assert!(ap.is_useful_for(aid, &frame(5353)));
    }

    #[test]
    fn untimed_port_message_never_expires() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mac = MacAddr::station(1);
        let aid = ap.associate(mac).unwrap();
        ap.process_port_message(&port_msg(mac, ap.bssid(), &[5353]), &mut ApCtx::untimed())
            .unwrap();
        assert!(ap.expire_stale_port_entries(f64::MAX).is_empty());
        assert!(ap.is_useful_for(aid, &frame(5353)));
    }

    #[test]
    fn timed_fragmented_report_stamps_on_final_fragment() {
        use hide_wifi::frame::UdpPortMessage as Msg;
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mac = MacAddr::station(1);
        let aid = ap.associate(mac).unwrap();
        let ports: Vec<u16> = (1000..1300).collect();
        let msgs = Msg::paginate(mac, ap.bssid(), ports.clone());
        assert!(msgs.len() > 1);
        for (i, m) in msgs.iter().enumerate() {
            ap.process_port_message(m, &mut ApCtx::at(i as f64))
                .unwrap();
        }
        assert_eq!(ap.port_table().ports_of(aid).len(), ports.len());
        assert_eq!(
            ap.port_table().last_refresh_of(aid),
            Some((msgs.len() - 1) as f64)
        );
    }

    #[test]
    fn disassociation_clears_port_table() {
        let mut ap = AccessPoint::new(MacAddr::station(0));
        let mac = MacAddr::station(1);
        let aid = ap.associate(mac).unwrap();
        ap.process_port_message(&port_msg(mac, ap.bssid(), &[1900]), &mut ApCtx::untimed())
            .unwrap();
        ap.disassociate(mac).unwrap();
        assert!(ap.port_table().clients_for_port(1900).is_empty());
        // A frame for the departed client flags nobody.
        ap.enqueue_broadcast(frame(1900));
        let bytes = dtim(&mut ap, 0);
        assert!(!view(&bytes).btim().unwrap().is_set(aid));
    }
}
