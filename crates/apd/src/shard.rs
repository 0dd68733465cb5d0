//! The shard worker thread.
//!
//! Each shard owns one [`AccessPoint`] over a disjoint AID range plus
//! a [`Recorder`], and processes commands from the router, the timer
//! and the control plane over a single channel — so a shard's state is
//! only ever touched from its own thread and needs no locks. Replies
//! (ACKs, association responses) go straight out a clone of the data
//! socket.

use crate::telemetry::{ShardHealth, GAUGE_SAMPLE_EVERY};
use hide_core::ap::{AccessPoint, ApCtx, ApSnapshot};
use hide_obs::{Recorder, RtStage, SpanSink};
use hide_wifi::frame::AnyFrame;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// A command delivered to a shard thread.
pub(crate) enum ShardCmd {
    /// A routed wire frame and who sent it.
    Frame(AnyFrame, SocketAddr),
    /// DTIM boundary number `n`: emit the beacon, drain the broadcast
    /// buffer, expire stale port entries.
    Tick { index: u64, now: Option<f64> },
    /// Report the current client table.
    Snapshot(Sender<ApSnapshot>),
    /// Report the accumulated metrics.
    Metrics(Sender<Recorder>),
    /// Report the running statistics.
    Stats(Sender<ShardStats>),
    /// Exit the thread after replying on the channel.
    Shutdown(Sender<ShardFinal>),
}

/// Running per-shard statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ShardStats {
    /// UDP Port Messages applied to the port table.
    pub port_messages: u64,
    /// ACKs sent back to clients.
    pub acks_sent: u64,
    /// Successful associations.
    pub associations: u64,
    /// Denied association requests (AID range exhausted).
    pub assoc_denied: u64,
    /// Disassociations processed.
    pub disassociations: u64,
    /// Broadcast data frames enqueued.
    pub broadcasts_enqueued: u64,
    /// DTIM beacons emitted.
    pub beacons: u64,
    /// Broadcast frames delivered (drained) at DTIM boundaries.
    pub frames_delivered: u64,
    /// Port-table entries dropped by staleness expiry.
    pub entries_expired: u64,
    /// Frames that addressed a client this shard does not know.
    pub unknown_clients: u64,
    /// Frames of types an AP does not consume (beacons, ACKs). The
    /// router keeps them off the shards and counts them itself, so a
    /// shard's own count stays 0; [`crate::DaemonStats`] adds the
    /// router's count to the shards' total.
    pub ignored_frames: u64,
    /// Currently associated clients.
    pub clients: u64,
}

impl ShardStats {
    /// Accumulates `other` into `self` (for daemon-wide totals).
    pub fn merge(&mut self, other: &ShardStats) {
        self.port_messages += other.port_messages;
        self.acks_sent += other.acks_sent;
        self.associations += other.associations;
        self.assoc_denied += other.assoc_denied;
        self.disassociations += other.disassociations;
        self.broadcasts_enqueued += other.broadcasts_enqueued;
        self.beacons += other.beacons;
        self.frames_delivered += other.frames_delivered;
        self.entries_expired += other.entries_expired;
        self.unknown_clients += other.unknown_clients;
        self.ignored_frames += other.ignored_frames;
        self.clients += other.clients;
    }
}

/// What a shard thread returns when joined.
pub(crate) struct ShardFinal {
    pub snapshot: ApSnapshot,
    pub stats: ShardStats,
    pub recorder: Recorder,
}

pub(crate) struct Shard<R: SpanSink<RtStage>> {
    pub ap: AccessPoint,
    pub reply_socket: UdpSocket,
    pub rx: Receiver<ShardCmd>,
    /// Queued-frame depth, shared with the router for backpressure.
    pub depth: Arc<AtomicUsize>,
    /// Staleness window in seconds; `None` disables expiry and makes
    /// refreshes untimed.
    pub stale_timeout_secs: Option<f64>,
    /// Wall-clock stage-latency sink ([`hide_obs::NoopSpans`] when
    /// runtime telemetry is off — then the clock is never read here).
    pub runtime: R,
    /// This shard's live health cells (watchdog and `health` readers).
    pub health: Arc<ShardHealth>,
    /// The runtime plane's epoch, shared so progress stamps are
    /// comparable with the watchdog's clock.
    pub epoch: Instant,
}

impl<R: SpanSink<RtStage>> Shard<R> {
    /// Runs the shard loop until shutdown (or all senders dropped).
    pub fn run(mut self) -> ShardFinal {
        let mut stats = ShardStats::default();
        let mut recorder = Recorder::new();
        // The DTIM beacon, rewritten in place every tick.
        let mut beacon = Vec::new();
        let mut processed = 0u64;
        while let Ok(cmd) = self.rx.recv() {
            match cmd {
                ShardCmd::Frame(frame, from) => {
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                    let t = self.runtime.start();
                    self.handle_frame(frame, from, &mut stats, &mut recorder);
                    self.runtime.finish(RtStage::Handle, t);
                }
                ShardCmd::Tick { index, now } => {
                    let t = self.runtime.start();
                    self.handle_tick(index, now, &mut stats, &mut recorder, &mut beacon);
                    self.runtime.finish(RtStage::Handle, t);
                    self.sample_gauges();
                }
                ShardCmd::Snapshot(reply) => {
                    let _ = reply.send(self.ap.snapshot());
                }
                ShardCmd::Metrics(reply) => {
                    let _ = reply.send(recorder.clone());
                }
                ShardCmd::Stats(reply) => {
                    stats.clients = self.ap.client_count() as u64;
                    self.sample_gauges();
                    let _ = reply.send(stats);
                }
                ShardCmd::Shutdown(reply) => {
                    stats.clients = self.ap.client_count() as u64;
                    let _ = reply.send(ShardFinal {
                        snapshot: self.ap.snapshot(),
                        stats,
                        recorder: recorder.clone(),
                    });
                    break;
                }
            }
            processed += 1;
            self.mark_progress(processed);
        }
        stats.clients = self.ap.client_count() as u64;
        ShardFinal {
            snapshot: self.ap.snapshot(),
            stats,
            recorder,
        }
    }

    /// Stamp forward progress after every command; refresh the gauges
    /// every [`GAUGE_SAMPLE_EVERY`] commands so their staleness is
    /// bounded without per-message table walks.
    fn mark_progress(&self, processed: u64) {
        self.health.processed.store(processed, Ordering::Relaxed);
        self.health
            .last_progress_nanos
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if processed.is_multiple_of(GAUGE_SAMPLE_EVERY) {
            self.sample_gauges();
        }
    }

    fn sample_gauges(&self) {
        self.health
            .backlog
            .store(self.ap.buffered_broadcasts() as u64, Ordering::Relaxed);
        self.health
            .ports
            .store(self.ap.port_table().port_count() as u64, Ordering::Relaxed);
        self.health
            .clients
            .store(self.ap.client_count() as u64, Ordering::Relaxed);
    }

    fn handle_frame(
        &mut self,
        frame: AnyFrame,
        from: SocketAddr,
        stats: &mut ShardStats,
        recorder: &mut Recorder,
    ) {
        match frame {
            AnyFrame::UdpPortMessage(msg) => {
                let mut ctx = match self.stale_timeout_secs {
                    Some(_) => ApCtx::at(monotonic_secs()),
                    None => ApCtx::untimed(),
                }
                .with_metrics(&mut *recorder);
                match self.ap.process_port_message(&msg, &mut ctx) {
                    Ok(ack) => {
                        stats.port_messages += 1;
                        let bytes = ack.to_bytes();
                        let t = self.runtime.start();
                        let sent = self.reply_socket.send_to(&bytes, from).is_ok();
                        self.runtime.finish(RtStage::Send, t);
                        if sent {
                            stats.acks_sent += 1;
                        }
                    }
                    Err(_) => stats.unknown_clients += 1,
                }
            }
            AnyFrame::AssociationRequest(req) => {
                let resp = self.ap.handle_association_request(&req);
                if resp.is_success() {
                    stats.associations += 1;
                } else {
                    stats.assoc_denied += 1;
                }
                let bytes = resp.to_bytes();
                let t = self.runtime.start();
                let _ = self.reply_socket.send_to(&bytes, from);
                self.runtime.finish(RtStage::Send, t);
            }
            AnyFrame::Disassociation(notice) => match self.ap.handle_disassociation(&notice) {
                Ok(()) => stats.disassociations += 1,
                Err(_) => stats.unknown_clients += 1,
            },
            AnyFrame::Data(data) => {
                self.ap.enqueue_broadcast(data);
                stats.broadcasts_enqueued += 1;
            }
            AnyFrame::PsPoll(poll) => {
                if self.ap.ps_poll(poll.transmitter()).is_err() {
                    stats.unknown_clients += 1;
                }
            }
            // The router queues no other kind on a shard.
            _ => stats.ignored_frames += 1,
        }
    }

    fn handle_tick(
        &mut self,
        index: u64,
        now: Option<f64>,
        stats: &mut ShardStats,
        recorder: &mut Recorder,
        beacon: &mut Vec<u8>,
    ) {
        let mut ctx = match now {
            Some(now) => ApCtx::at(now),
            None => ApCtx::untimed(),
        }
        .with_metrics(&mut *recorder);
        self.ap.emit_dtim_beacon(index, &mut ctx, beacon);
        stats.beacons += 1;
        let delivered = self
            .ap
            .drain_broadcasts(&mut ApCtx::untimed().with_metrics(&mut *recorder));
        stats.frames_delivered += delivered.len() as u64;
        if let (Some(timeout), Some(now)) = (self.stale_timeout_secs, now) {
            let report = self.ap.expire_stale_port_entries(now - timeout);
            stats.entries_expired += report.entries_removed;
        }
    }
}

/// Seconds since an arbitrary process-wide epoch (first call).
///
/// All shard and timer threads share the epoch so port-refresh stamps
/// and expiry cutoffs are comparable across threads.
pub(crate) fn monotonic_secs() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The shard a client address routes to: FNV-1a over the six octets.
pub(crate) fn shard_of(mac: hide_wifi::mac::MacAddr, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in mac.octets() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use hide_wifi::mac::MacAddr;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 5, 16] {
            for i in 0..200u32 {
                let mac = MacAddr::station(i);
                let s = shard_of(mac, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(mac, shards), "routing must be deterministic");
            }
        }
    }

    #[test]
    fn shard_routing_spreads_clients() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for i in 0..4000u32 {
            counts[shard_of(MacAddr::station(i), shards)] += 1;
        }
        for (i, &n) in counts.iter().enumerate() {
            assert!(n > 100, "shard {i} starved: {n} of 4000");
        }
    }

    #[test]
    fn monotonic_secs_never_goes_backwards() {
        let a = monotonic_secs();
        let b = monotonic_secs();
        assert!(b >= a);
    }
}
