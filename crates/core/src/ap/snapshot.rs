//! Snapshot/restore of an [`AccessPoint`]'s durable client state.
//!
//! A long-running AP service ([`hide-apd`]) must survive restarts
//! without forcing every associated phone to re-associate and re-send
//! its UDP Port Message. [`ApSnapshot`] captures exactly the state that
//! matters across a restart — the association table, the AID
//! allocator, and the Client UDP Port Table with refresh timestamps —
//! and [`ApSnapshot::to_bytes`] / [`ApSnapshot::parse`] give it a
//! stable, versioned, line-based on-disk encoding (`hide-apsnap/1`).
//!
//! The encoding is **canonical**: [`AccessPoint::snapshot`] sorts
//! clients by MAC and entries by AID, so two APs that processed the
//! same frames — one live behind a socket, one replaying offline —
//! encode to byte-identical buffers. The `hide-apd` loopback
//! integration test leans on exactly that property.
//!
//! [`AccessPoint`]: crate::ap::AccessPoint
//! [`AccessPoint::snapshot`]: crate::ap::AccessPoint::snapshot
//! [`hide-apd`]: https://github.com/hide-repro/hide

use crate::error::CoreError;
use hide_wifi::mac::MacAddr;
use std::fmt::Write as _;

/// Magic first line of the version-1 snapshot encoding.
pub const SNAPSHOT_MAGIC: &str = "hide-apsnap/1";

/// One associated client, as the AP remembers it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ClientSnapshot {
    /// The client's MAC address.
    pub mac: MacAddr,
    /// The client's association ID.
    pub aid: u16,
    /// Whether the client has demonstrated HIDE support.
    pub hide_enabled: bool,
    /// Unicast frames buffered for the client (its TIM-bit count).
    pub unicast_buffered: u32,
}

/// One client's row of the Client UDP Port Table.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct PortEntrySnapshot {
    /// The owning client's association ID.
    pub aid: u16,
    /// When the row was last refreshed; `None` for rows installed
    /// through an untimed context (exempt from staleness expiry).
    pub last_refresh: Option<f64>,
    /// The client's open UDP ports, sorted ascending.
    pub ports: Vec<u16>,
}

/// The durable state of one [`AccessPoint`](crate::ap::AccessPoint).
///
/// Produced by [`AccessPoint::snapshot`](crate::ap::AccessPoint::snapshot),
/// consumed by
/// [`AccessPoint::from_snapshot`](crate::ap::AccessPoint::from_snapshot).
/// The broadcast buffer and in-flight fragment reassembly are
/// deliberately excluded — they are transient per-DTIM state.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ApSnapshot {
    /// The AP's BSSID.
    pub bssid: MacAddr,
    /// The SSID advertised in beacons.
    pub ssid: String,
    /// The DTIM period announced in beacons.
    pub dtim_period: u8,
    /// Low end (inclusive) of the AID allocation range.
    pub aid_lo: u16,
    /// High end (inclusive) of the AID allocation range.
    pub aid_hi: u16,
    /// Lowest AID value never assigned (`aid_hi + 1` when exhausted).
    pub next_fresh_aid: u16,
    /// Released, not-yet-reassigned AIDs, sorted ascending.
    pub freed_aids: Vec<u16>,
    /// Total UDP Port Messages the AP has processed.
    pub port_messages_received: u64,
    /// Associated clients, sorted by MAC address.
    pub clients: Vec<ClientSnapshot>,
    /// Port-table rows, sorted by AID.
    pub port_entries: Vec<PortEntrySnapshot>,
}

fn encode_mac(out: &mut String, mac: MacAddr) {
    for b in mac.octets() {
        let _ = write!(out, "{b:02x}");
    }
}

fn decode_mac(tok: &str) -> Result<MacAddr, CoreError> {
    if tok.len() != 12 || !tok.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(CoreError::Snapshot(format!("bad MAC token {tok:?}")));
    }
    let mut octets = [0u8; 6];
    for (i, chunk) in tok.as_bytes().chunks(2).enumerate() {
        let s = std::str::from_utf8(chunk).expect("hex digits are UTF-8");
        octets[i] = u8::from_str_radix(s, 16).expect("checked hexdigit");
    }
    Ok(MacAddr::new(octets))
}

fn encode_ssid(out: &mut String, ssid: &str) {
    for b in ssid.as_bytes() {
        let _ = write!(out, "{b:02x}");
    }
}

fn decode_ssid(tok: &str) -> Result<String, CoreError> {
    if !tok.len().is_multiple_of(2) || !tok.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(CoreError::Snapshot(format!("bad SSID token {tok:?}")));
    }
    if tok.len() / 2 > hide_wifi::assoc::MAX_SSID_LEN {
        return Err(CoreError::Snapshot(format!(
            "SSID of {} octets is longer than {}",
            tok.len() / 2,
            hide_wifi::assoc::MAX_SSID_LEN
        )));
    }
    let bytes: Vec<u8> = tok
        .as_bytes()
        .chunks(2)
        .map(|chunk| {
            let s = std::str::from_utf8(chunk).expect("hex digits are UTF-8");
            u8::from_str_radix(s, 16).expect("checked hexdigit")
        })
        .collect();
    String::from_utf8(bytes).map_err(|_| CoreError::Snapshot("SSID is not UTF-8".to_string()))
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, CoreError> {
    tok.parse()
        .map_err(|_| CoreError::Snapshot(format!("bad {what} token {tok:?}")))
}

impl ApSnapshot {
    /// Encodes the snapshot into the versioned `hide-apsnap/1` text
    /// form. The output is newline-terminated ASCII and canonical: the
    /// same logical state always encodes to the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str(SNAPSHOT_MAGIC);
        out.push('\n');
        out.push_str("bssid ");
        encode_mac(&mut out, self.bssid);
        out.push('\n');
        out.push_str("ssid ");
        encode_ssid(&mut out, &self.ssid);
        out.push('\n');
        let _ = writeln!(out, "dtim_period {}", self.dtim_period);
        let _ = writeln!(out, "aid_range {} {}", self.aid_lo, self.aid_hi);
        let _ = writeln!(out, "next_fresh {}", self.next_fresh_aid);
        out.push_str("freed");
        for v in &self.freed_aids {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
        let _ = writeln!(out, "port_messages {}", self.port_messages_received);
        let _ = writeln!(out, "clients {}", self.clients.len());
        for c in &self.clients {
            out.push_str("c ");
            encode_mac(&mut out, c.mac);
            let _ = writeln!(
                out,
                " {} {} {}",
                c.aid,
                u8::from(c.hide_enabled),
                c.unicast_buffered
            );
        }
        let _ = writeln!(out, "entries {}", self.port_entries.len());
        for e in &self.port_entries {
            match e.last_refresh {
                // `{:?}` prints the shortest representation that
                // round-trips through `str::parse::<f64>`.
                Some(at) => {
                    let _ = write!(out, "e {} {:?}", e.aid, at);
                }
                None => {
                    let _ = write!(out, "e {} -", e.aid);
                }
            }
            for p in &e.ports {
                let _ = write!(out, " {p}");
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out.into_bytes()
    }

    /// Decodes a snapshot produced by [`ApSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Snapshot`] on a missing/unknown magic line,
    /// truncated input, or any malformed field.
    pub fn parse(buf: &[u8]) -> Result<Self, CoreError> {
        let text = std::str::from_utf8(buf)
            .map_err(|_| CoreError::Snapshot("snapshot is not UTF-8".to_string()))?;
        let mut lines = text.lines();
        let magic = lines
            .next()
            .ok_or_else(|| CoreError::Snapshot("empty snapshot".to_string()))?;
        if magic != SNAPSHOT_MAGIC {
            return Err(CoreError::Snapshot(format!(
                "unsupported snapshot version {magic:?} (expected {SNAPSHOT_MAGIC:?})"
            )));
        }
        let mut field = |key: &str| -> Result<Vec<String>, CoreError> {
            let line = lines
                .next()
                .ok_or_else(|| CoreError::Snapshot(format!("missing {key} line")))?;
            let mut toks = line.split(' ');
            let head = toks.next().unwrap_or("");
            if head != key {
                return Err(CoreError::Snapshot(format!(
                    "expected {key} line, found {line:?}"
                )));
            }
            Ok(toks.map(str::to_string).collect())
        };

        let bssid_toks = field("bssid")?;
        let [bssid_tok] = bssid_toks.as_slice() else {
            return Err(CoreError::Snapshot(
                "bssid line needs one token".to_string(),
            ));
        };
        let bssid = decode_mac(bssid_tok)?;
        let ssid_toks = field("ssid")?;
        let ssid = match ssid_toks.as_slice() {
            [] => String::new(),
            [tok] => decode_ssid(tok)?,
            _ => return Err(CoreError::Snapshot("ssid line needs one token".to_string())),
        };
        let dtim_toks = field("dtim_period")?;
        let [dtim_tok] = dtim_toks.as_slice() else {
            return Err(CoreError::Snapshot("bad dtim_period line".to_string()));
        };
        let dtim_period: u8 = parse_num(dtim_tok, "dtim_period")?;
        let range_toks = field("aid_range")?;
        let [lo_tok, hi_tok] = range_toks.as_slice() else {
            return Err(CoreError::Snapshot("bad aid_range line".to_string()));
        };
        let aid_lo: u16 = parse_num(lo_tok, "aid_range")?;
        let aid_hi: u16 = parse_num(hi_tok, "aid_range")?;
        let fresh_toks = field("next_fresh")?;
        let [fresh_tok] = fresh_toks.as_slice() else {
            return Err(CoreError::Snapshot("bad next_fresh line".to_string()));
        };
        let next_fresh_aid: u16 = parse_num(fresh_tok, "next_fresh")?;
        let freed_aids = field("freed")?
            .iter()
            .map(|tok| parse_num(tok, "freed AID"))
            .collect::<Result<Vec<u16>, _>>()?;
        let pm_toks = field("port_messages")?;
        let [pm_tok] = pm_toks.as_slice() else {
            return Err(CoreError::Snapshot("bad port_messages line".to_string()));
        };
        let port_messages_received: u64 = parse_num(pm_tok, "port_messages")?;

        let count_toks = field("clients")?;
        let [count_tok] = count_toks.as_slice() else {
            return Err(CoreError::Snapshot("bad clients line".to_string()));
        };
        let client_count: usize = parse_num(count_tok, "client count")?;
        let mut clients = Vec::with_capacity(client_count.min(4096));
        for _ in 0..client_count {
            let toks = field("c")?;
            let [mac_tok, aid_tok, hide_tok, unicast_tok] = toks.as_slice() else {
                return Err(CoreError::Snapshot("bad client line".to_string()));
            };
            clients.push(ClientSnapshot {
                mac: decode_mac(mac_tok)?,
                aid: parse_num(aid_tok, "client AID")?,
                hide_enabled: match hide_tok.as_str() {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(CoreError::Snapshot(format!("bad hide flag {other:?}")));
                    }
                },
                unicast_buffered: parse_num(unicast_tok, "unicast count")?,
            });
        }

        let count_toks = field("entries")?;
        let [count_tok] = count_toks.as_slice() else {
            return Err(CoreError::Snapshot("bad entries line".to_string()));
        };
        let entry_count: usize = parse_num(count_tok, "entry count")?;
        let mut port_entries = Vec::with_capacity(entry_count.min(4096));
        for _ in 0..entry_count {
            let toks = field("e")?;
            let [aid_tok, refresh_tok, port_toks @ ..] = toks.as_slice() else {
                return Err(CoreError::Snapshot("bad entry line".to_string()));
            };
            let last_refresh = if refresh_tok == "-" {
                None
            } else {
                Some(parse_num::<f64>(refresh_tok, "refresh time")?)
            };
            port_entries.push(PortEntrySnapshot {
                aid: parse_num(aid_tok, "entry AID")?,
                last_refresh,
                ports: port_toks
                    .iter()
                    .map(|tok| parse_num(tok, "port"))
                    .collect::<Result<Vec<u16>, _>>()?,
            });
        }
        if field("end")? != Vec::<String>::new() {
            return Err(CoreError::Snapshot(
                "trailing tokens on end line".to_string(),
            ));
        }
        Ok(ApSnapshot {
            bssid,
            ssid,
            dtim_period,
            aid_lo,
            aid_hi,
            next_fresh_aid,
            freed_aids,
            port_messages_received,
            clients,
            port_entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ap::{AccessPoint, ApCtx};
    use hide_wifi::frame::UdpPortMessage;

    fn populated_ap() -> AccessPoint {
        let mut ap = AccessPoint::with_aid_range(MacAddr::station(0), 10, 20).unwrap();
        ap.set_ssid("corp wifi").unwrap(); // space exercises the hex encoding
        ap.set_dtim_period(3);
        let a = MacAddr::station(1);
        let b = MacAddr::station(2);
        let c = MacAddr::station(3);
        ap.associate(a).unwrap();
        ap.associate(b).unwrap();
        ap.associate(c).unwrap();
        ap.disassociate(b).unwrap();
        let msg = UdpPortMessage::new(a, ap.bssid(), [5353u16, 1900]).unwrap();
        ap.process_port_message(&msg, &mut ApCtx::at(4.25)).unwrap();
        let msg = UdpPortMessage::new(c, ap.bssid(), [80u16]).unwrap();
        ap.process_port_message(&msg, &mut ApCtx::untimed())
            .unwrap();
        ap.buffer_unicast(a).unwrap();
        ap
    }

    /// Clients associated out of MAC order, so AID order (station 9
    /// holds AID 5, station 7 AID 7) is not MAC order.
    fn unsorted_ap() -> AccessPoint {
        let mut ap = AccessPoint::with_aid_range(MacAddr::station(0), 5, 25).unwrap();
        let (s9, s3, s7) = (
            MacAddr::station(9),
            MacAddr::station(3),
            MacAddr::station(7),
        );
        for mac in [s9, s3, s7] {
            ap.associate(mac).unwrap();
        }
        ap.disassociate(s3).unwrap();
        let msg = UdpPortMessage::new(s9, ap.bssid(), [5353u16, 1900]).unwrap();
        ap.process_port_message(&msg, &mut ApCtx::at(2.5)).unwrap();
        let msg = UdpPortMessage::new(s7, ap.bssid(), [80u16]).unwrap();
        ap.process_port_message(&msg, &mut ApCtx::untimed())
            .unwrap();
        ap.buffer_unicast(s9).unwrap();
        ap
    }

    #[test]
    fn encoding_is_pinned_where_aid_order_is_not_mac_order() {
        let bytes = unsorted_ap().snapshot().to_bytes();
        let expected = "hide-apsnap/1\n\
                        bssid 020000000000\n\
                        ssid 686964652d6e6574\n\
                        dtim_period 1\n\
                        aid_range 5 25\n\
                        next_fresh 8\n\
                        freed 6\n\
                        port_messages 2\n\
                        clients 2\n\
                        c 020000000007 7 1 0\n\
                        c 020000000009 5 1 1\n\
                        entries 2\n\
                        e 5 2.5 1900 5353\n\
                        e 7 - 80\n\
                        end\n";
        assert_eq!(String::from_utf8(bytes).unwrap(), expected);
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let snap = populated_ap().snapshot();
        let parsed = ApSnapshot::parse(&snap.to_bytes()).unwrap();
        assert_eq!(parsed, snap);
        // Canonical encoding: re-encoding the parse is byte-identical.
        assert_eq!(parsed.to_bytes(), snap.to_bytes());
    }

    #[test]
    fn parse_bounds_the_ssid_at_32_octets() {
        let text = String::from_utf8(populated_ap().snapshot().to_bytes()).unwrap();
        let with_ssid = |octets: usize| {
            let line = format!("ssid {}\n", "78".repeat(octets));
            text.replace("ssid 636f72702077696669\n", &line)
        };
        let longest = ApSnapshot::parse(with_ssid(32).as_bytes()).unwrap();
        assert_eq!(longest.ssid, "x".repeat(32));
        assert_eq!(longest.to_bytes(), with_ssid(32).into_bytes());
        let mut ap = AccessPoint::from_snapshot(&longest).unwrap();
        let mut beacon = Vec::new();
        ap.dtim_beacon(0, &mut beacon);
        assert_eq!(&beacon[36..38], &[0, 32]);
        assert!(matches!(
            ApSnapshot::parse(with_ssid(300).as_bytes()),
            Err(CoreError::Snapshot(msg)) if msg.contains("300 octets")
        ));
    }

    #[test]
    fn restore_preserves_behavior() {
        let ap = populated_ap();
        let restored = AccessPoint::from_snapshot(&ap.snapshot()).unwrap();
        assert_eq!(restored.snapshot(), ap.snapshot());
        assert_eq!(restored.client_count(), ap.client_count());
        assert_eq!(restored.aid_range(), (10, 20));
        assert_eq!(
            restored.aid_of(MacAddr::station(1)),
            ap.aid_of(MacAddr::station(1))
        );
        // The freed AID (station 2's) is re-assigned first, as on the
        // original.
        let mut a = ap.clone();
        let mut b = restored.clone();
        assert_eq!(
            a.associate(MacAddr::station(9)).unwrap(),
            b.associate(MacAddr::station(9)).unwrap()
        );
    }

    #[test]
    fn restore_preserves_expiry_timestamps() {
        let ap = populated_ap();
        let mut restored = AccessPoint::from_snapshot(&ap.snapshot()).unwrap();
        // Station 1 refreshed at 4.25: stale at a cutoff past it.
        let report = restored.expire_stale_port_entries(10.0);
        assert_eq!(report.entries_removed, 2);
        // Station 3's untimed entry survives any cutoff.
        assert!(restored.expire_stale_port_entries(f64::MAX).is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ApSnapshot::parse(b"").is_err());
        assert!(ApSnapshot::parse(b"hide-apsnap/9\nend\n").is_err());
        let good = populated_ap().snapshot().to_bytes();
        let truncated = &good[..good.len() / 2];
        assert!(ApSnapshot::parse(truncated).is_err());
        let mut doctored = String::from_utf8(good).unwrap();
        doctored = doctored.replace("dtim_period 3", "dtim_period banana");
        assert!(ApSnapshot::parse(doctored.as_bytes()).is_err());
    }

    #[test]
    fn from_snapshot_rejects_inconsistencies() {
        let base = populated_ap().snapshot();
        let mut dup_aid = base.clone();
        dup_aid.clients[1].aid = dup_aid.clients[0].aid;
        assert!(AccessPoint::from_snapshot(&dup_aid).is_err());

        let mut out_of_range = base.clone();
        out_of_range.clients[0].aid = 21;
        assert!(AccessPoint::from_snapshot(&out_of_range).is_err());

        let mut bad_fresh = base.clone();
        bad_fresh.next_fresh_aid = 9;
        assert!(AccessPoint::from_snapshot(&bad_fresh).is_err());

        let mut orphan_entry = base;
        orphan_entry.port_entries[0].aid = 19;
        assert!(AccessPoint::from_snapshot(&orphan_entry).is_err());

        // Entry AIDs on either side of the 5..=25 range are errors, not
        // out-of-range indexing.
        for aid in [4u16, 26] {
            let mut outside = unsorted_ap().snapshot();
            outside.port_entries[0].aid = aid;
            assert!(matches!(
                AccessPoint::from_snapshot(&outside),
                Err(CoreError::Snapshot(m)) if m == format!("port entry for unassociated AID {aid}")
            ));
        }
    }
}
