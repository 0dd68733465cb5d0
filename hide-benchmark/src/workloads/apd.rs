//! `apd-refresh` and `apd-broadcast`: the `hide-apd` daemon over
//! loopback UDP, driven by one generator thread on one socket.
//!
//! * `apd-refresh` measures port-table writes: an **open** loop of UDP
//!   Port Messages at a fixed rate with a DTIM tick every 100 ms
//!   (latency timed from each message's due time, so stalls count),
//!   and a **closed** loop holding a fixed number of messages
//!   outstanding (the refresh rate the daemon sustains).
//! * `apd-broadcast` measures the read side: WML-trace broadcast frames
//!   in bursts, each ended by one port message per shard whose ACK
//!   proves the shard has buffered the burst, with a DTIM tick (BTIM +
//!   buffer drain) after every fourth burst.
//!
//! A run repeats its phases in rounds, each phase against a fresh
//! daemon, and reports medians over the rounds: thread placement on
//! the two cores is decided per daemon and moves single-phase numbers
//! by ±10 %. The generator never toggles socket modes or timeouts
//! while pacing; each phase sets its socket up once.

use super::timed_loop;
use crate::json::Json;
use crate::stats::{median, tail_percentile};
use crate::{Metric, Outcome, RunOpts};
use hide::apd::{ApdConfig, DaemonHandle, DaemonStats};
use hide::obs::{LatencyHistogram, LogLevel, RtStage};
use hide::traces::scenario::Scenario;
use hide::wifi::assoc::AssociationRequest;
use hide::wifi::frame::{AnyFrame, BroadcastDataFrame, UdpPortMessage};
use hide::wifi::mac::MacAddr;
use hide::wifi::udp::UdpDatagram;
use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Shard threads in the daemon under test (one per core).
pub const SHARDS: usize = 2;
/// HIDE clients associated with each daemon.
pub const CLIENTS: usize = 256;
/// Open ports each client reports.
const PORTS_PER_CLIENT: usize = 32;
/// Most datagrams in flight (sent, not yet answered) at any time. A
/// 256-datagram burst overflows the daemon socket's default
/// 212,992-byte receive buffer; 64 never lost a datagram on loopback.
pub const BURST: usize = 64;
/// A reply not seen this long after its request is counted lost.
pub const REPLY_DEADLINE: Duration = Duration::from_secs(1);
/// Open-loop offered rate, port messages per second.
const OPEN_RATE: f64 = 20_000.0;
/// Real-time DTIM cadence in the open loop.
const TICK_EVERY: Duration = Duration::from_millis(100);
/// Broadcast bursts per DTIM tick.
const BURSTS_PER_TICK: usize = 4;
/// Seconds of WML trace the broadcast phase cycles through.
const TRACE_SECS: f64 = 300.0;
/// Every fifth refresh of a client reports a changed port set (apps
/// opening and closing sockets), so refreshes are real table writes.
const PORT_CHURN_EVERY: usize = 5;
/// How often a pacing loop scans for overdue replies.
const EXPIRY_SCAN: Duration = Duration::from_millis(10);
/// Rounds of phases per untraced run.
const ROUNDS: usize = 4;
/// Rounds per traced run; each runs every phase telemetry off and on,
/// in alternating order.
const TRACED_ROUNDS: usize = 2;

/// One simulated station: its address and two pre-encoded port
/// messages (its usual port set and a churned variant).
#[derive(Debug, Clone)]
pub struct Client {
    /// Station address.
    pub mac: MacAddr,
    msgs: [Vec<u8>; 2],
}

impl Client {
    /// The `round`-th refresh this client sends.
    fn refresh(&self, round: usize) -> &[u8] {
        &self.msgs[usize::from(round % PORT_CHURN_EVERY == PORT_CHURN_EVERY - 1)]
    }
}

/// Everything a phase sends, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The stations that associate.
    pub clients: Vec<Client>,
    /// Encoded broadcast data frames (empty for the refresh workload).
    pub frames: Vec<Vec<u8>>,
}

/// SplitMix64: a tiny seeded generator for port sets.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn ephemeral_port(&mut self) -> u16 {
        1024 + self.below(64_000) as u16
    }
}

/// A client's port set: a quarter drawn from the WML scenario's port
/// mix (so broadcast frames match some clients), the rest ephemeral.
fn port_set(rng: &mut SplitMix, mix: &[u16]) -> Vec<u16> {
    let mut ports = Vec::with_capacity(PORTS_PER_CLIENT);
    while ports.len() < PORTS_PER_CLIENT {
        let p = if rng.below(4) == 0 {
            mix[rng.below(mix.len())]
        } else {
            rng.ephemeral_port()
        };
        if !ports.contains(&p) {
            ports.push(p);
        }
    }
    ports
}

/// Port message bytes for `mac` reporting `ports`.
fn port_message(mac: MacAddr, bssid: MacAddr, ports: &[u16]) -> Result<Vec<u8>, String> {
    UdpPortMessage::new(mac, bssid, ports.iter().copied())
        .map(|m| m.to_bytes())
        .map_err(|e| e.to_string())
}

/// Stations `first..first + count` with seeded port sets.
///
/// # Errors
///
/// Fails only if a port set cannot be encoded.
pub fn make_clients(seed: u64, first: usize, count: usize) -> Result<Vec<Client>, String> {
    let bssid = ApdConfig::new().bssid;
    let mix = Scenario::Wml.params().port_mix.ports();
    (first..first + count)
        .map(|i| {
            let mut rng = SplitMix(seed ^ (i as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
            let mac = MacAddr::station(1 + i as u32);
            let usual = port_set(&mut rng, &mix);
            let mut churned = usual.clone();
            for slot in churned.iter_mut().take(PORTS_PER_CLIENT / 4) {
                *slot = rng.ephemeral_port();
            }
            churned.sort_unstable();
            churned.dedup();
            Ok(Client {
                mac,
                msgs: [
                    port_message(mac, bssid, &usual)?,
                    port_message(mac, bssid, &churned)?,
                ],
            })
        })
        .collect()
}

/// The seeded inputs of one phase.
///
/// # Errors
///
/// Fails only if an input cannot be encoded.
pub fn make_inputs(seed: u64, broadcast: bool) -> Result<Inputs, String> {
    let frames = if broadcast {
        let bssid = ApdConfig::new().bssid;
        Scenario::Wml
            .generate(TRACE_SECS, seed)
            .frames
            .iter()
            .map(|f| {
                let body = vec![0; usize::from(f.len_bytes).saturating_sub(60)];
                let datagram = UdpDatagram::new([10, 0, 0, 2], [255; 4], 4000, f.dst_port, body);
                BroadcastDataFrame::new(bssid, datagram, false).to_bytes()
            })
            .collect()
    } else {
        Vec::new()
    };
    Ok(Inputs {
        clients: make_clients(seed, 0, CLIENTS)?,
        frames,
    })
}

/// Requests awaiting their ACK, per client in send order: a shard
/// answers one client's messages in the order it received them, and
/// an ACK names only the client.
struct Pending {
    index: HashMap<MacAddr, usize>,
    queues: Vec<VecDeque<Instant>>,
}

impl Pending {
    fn new(clients: &[Client]) -> Pending {
        Pending {
            index: clients
                .iter()
                .enumerate()
                .map(|(i, c)| (c.mac, i))
                .collect(),
            queues: vec![VecDeque::new(); clients.len()],
        }
    }

    fn push(&mut self, client: usize, at: Instant) {
        self.queues[client].push_back(at);
    }

    /// The timestamp of the request `datagram` acknowledges, if it is
    /// an ACK for a pending request.
    fn ack(&mut self, datagram: &[u8]) -> Option<Instant> {
        match AnyFrame::parse(datagram) {
            Ok(AnyFrame::Ack(ack)) => {
                let client = *self.index.get(&ack.receiver())?;
                self.queues[client].pop_front()
            }
            _ => None,
        }
    }

    /// Drops requests older than [`REPLY_DEADLINE`]; returns how many.
    fn expire(&mut self, now: Instant) -> u64 {
        let mut lost = 0;
        for q in &mut self.queues {
            while q
                .front()
                .is_some_and(|&t| now.duration_since(t) > REPLY_DEADLINE)
            {
                q.pop_front();
                lost += 1;
            }
        }
        lost
    }

    fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Forgets every pending request; returns how many there were.
    fn clear(&mut self) -> u64 {
        self.queues
            .iter_mut()
            .map(|q| std::mem::take(q).len() as u64)
            .sum()
    }
}

/// What one phase's generator saw.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LoopStats {
    /// Requests sent in the measured phase.
    pub sent: u64,
    /// Requests whose reply arrived.
    pub acked: u64,
    /// Requests whose reply never came within [`REPLY_DEADLINE`]
    /// (including any the socket refused to send).
    pub lost: u64,
    /// Measured seconds (excluding the drain of late replies).
    pub secs: f64,
    /// Every ACK latency, nanoseconds, exactly (open loop only).
    pub exact_ns: Vec<u64>,
    /// Every ACK latency, bucketed.
    pub acks: LatencyHistogram,
    /// Worst lateness of the open-loop generator behind its schedule.
    pub late_max: Duration,
    /// Broadcast frames sent (broadcast phase only).
    pub frames: u64,
    /// Wall time of each broadcast burst round trip, seconds.
    pub burst_secs: Vec<f64>,
    /// Wall time of each DTIM tick until every shard processed it.
    pub tick_ns: Vec<u64>,
}

impl LoopStats {
    fn in_flight(&self) -> usize {
        (self.sent - self.acked - self.lost) as usize
    }

    fn acked_at(&mut self, from: Instant, exact: bool) {
        let ns = from.elapsed().as_nanos() as u64;
        self.acked += 1;
        self.acks.record(ns);
        if exact {
            self.exact_ns.push(ns);
        }
    }
}

/// A spawned daemon with every input client associated, plus the
/// generator's socket.
pub struct Bench {
    handle: DaemonHandle,
    socket: UdpSocket,
    /// Datagrams this generator sent to the daemon.
    sent: u64,
    /// One associated client index per shard, for ACK barriers.
    barrier: Vec<usize>,
}

impl Bench {
    /// Spawns a 2-shard daemon (no timer thread, no expiry) and
    /// associates every client in `inputs`, lockstep.
    ///
    /// # Errors
    ///
    /// Fails when the daemon cannot start or a client is refused.
    pub fn start(inputs: &Inputs, telemetry: bool) -> Result<Bench, String> {
        let cfg = ApdConfig::new().shards(SHARDS).runtime_telemetry(telemetry);
        let ranges: Vec<(u16, u16)> = (0..SHARDS).map(|i| cfg.aid_range_of(i)).collect();
        let bssid = cfg.bssid;
        let handle = DaemonHandle::spawn(cfg).map_err(|e| e.to_string())?;
        let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        socket
            .connect(handle.data_addr())
            .map_err(|e| e.to_string())?;
        socket
            .set_read_timeout(Some(REPLY_DEADLINE))
            .map_err(|e| e.to_string())?;
        let mut bench = Bench {
            handle,
            socket,
            sent: 0,
            barrier: vec![usize::MAX; SHARDS],
        };
        let mut buf = [0u8; 2048];
        for (i, c) in inputs.clients.iter().enumerate() {
            let req = AssociationRequest::new(c.mac, bssid, "hide").with_hide_support();
            bench.send(&req.to_bytes())?;
            let len = bench
                .socket
                .recv(&mut buf)
                .map_err(|e| format!("association of client {i}: {e}"))?;
            let aid = match AnyFrame::parse(&buf[..len]) {
                Ok(AnyFrame::AssociationResponse(r)) if r.is_success() => r.aid(),
                other => return Err(format!("association of client {i} refused: {other:?}")),
            };
            let aid = aid.ok_or("association response without an AID")?.value();
            if let Some(shard) = ranges.iter().position(|&(lo, hi)| (lo..=hi).contains(&aid)) {
                if bench.barrier[shard] == usize::MAX {
                    bench.barrier[shard] = i;
                }
            }
        }
        Ok(bench)
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.socket.send(bytes).map_err(|e| e.to_string())?;
        self.sent += 1;
        Ok(())
    }

    /// Sends one request unless the socket buffer is full (then it
    /// counts lost at once).
    fn request(
        &mut self,
        bytes: &[u8],
        client: usize,
        at: Instant,
        pending: &mut Pending,
        stats: &mut LoopStats,
    ) -> Result<(), String> {
        stats.sent += 1;
        match self.socket.send(bytes) {
            Ok(_) => {
                self.sent += 1;
                pending.push(client, at);
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                stats.lost += 1;
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// Receives one datagram into `buf`; `None` on timeout (or, on a
    /// non-blocking socket, when nothing is queued).
    fn recv<'b>(&self, buf: &'b mut [u8]) -> Result<Option<&'b [u8]>, String> {
        match self.socket.recv(buf) {
            Ok(len) => Ok(Some(&buf[..len])),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Open loop: port messages from `clients` (round robin) due at
    /// [`OPEN_RATE`], a DTIM tick every [`TICK_EVERY`], for `secs`.
    /// Latency runs from each message's due time to its ACK; a message
    /// waits (and its lateness counts) while [`BURST`] are in flight.
    ///
    /// # Errors
    ///
    /// Fails on a socket error other than a full buffer.
    pub fn open_loop(&mut self, clients: &[Client], secs: f64) -> Result<LoopStats, String> {
        self.socket
            .set_nonblocking(true)
            .map_err(|e| e.to_string())?;
        let mut pending = Pending::new(clients);
        let mut stats = LoopStats {
            exact_ns: Vec::with_capacity((OPEN_RATE * secs) as usize + BURST),
            ..LoopStats::default()
        };
        let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let (mut next_send, mut next_tick, mut next_scan) = (start, start + TICK_EVERY, start);
        let mut k = 0usize;
        let mut buf = [0u8; 2048];
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            while next_send <= now && stats.in_flight() < BURST {
                let c = k % clients.len();
                stats.late_max = stats.late_max.max(Instant::now() - next_send);
                let msg = clients[c].refresh(k / clients.len());
                self.request(msg, c, next_send, &mut pending, &mut stats)?;
                k += 1;
                next_send += interval;
            }
            if next_tick <= now {
                self.handle.tick(1).map_err(|e| e.to_string())?;
                next_tick += TICK_EVERY;
            }
            let mut got = false;
            while let Some(datagram) = self.recv(&mut buf)? {
                got = true;
                if let Some(due) = pending.ack(datagram) {
                    stats.acked_at(due, true);
                }
            }
            if now >= next_scan {
                stats.lost += pending.expire(now);
                next_scan = now + EXPIRY_SCAN;
            }
            if !got && next_send > Instant::now() {
                std::thread::yield_now();
            }
        }
        stats.secs = start.elapsed().as_secs_f64();
        self.drain(&mut pending, &mut stats, true)?;
        Ok(stats)
    }

    /// Closed loop: [`BURST`] port messages outstanding, each ACK
    /// releasing the next, for `secs`.
    ///
    /// # Errors
    ///
    /// Fails on a socket error.
    pub fn closed_loop(&mut self, clients: &[Client], secs: f64) -> Result<LoopStats, String> {
        self.socket
            .set_read_timeout(Some(EXPIRY_SCAN))
            .map_err(|e| e.to_string())?;
        let mut pending = Pending::new(clients);
        let mut stats = LoopStats::default();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let mut next_scan = start + EXPIRY_SCAN;
        let mut k = 0usize;
        let mut buf = [0u8; 2048];
        while Instant::now() < end {
            while stats.in_flight() < BURST {
                let c = k % clients.len();
                let msg = clients[c].refresh(k / clients.len());
                self.request(msg, c, Instant::now(), &mut pending, &mut stats)?;
                k += 1;
            }
            match self.recv(&mut buf)? {
                Some(datagram) => {
                    if let Some(sent_at) = pending.ack(datagram) {
                        stats.acked_at(sent_at, false);
                    }
                }
                None => next_scan = Instant::now(),
            }
            let now = Instant::now();
            if now >= next_scan {
                stats.lost += pending.expire(now);
                next_scan = now + EXPIRY_SCAN;
            }
        }
        stats.secs = start.elapsed().as_secs_f64();
        self.drain(&mut pending, &mut stats, false)?;
        Ok(stats)
    }

    /// Broadcast phase: bursts of `frames` (cycled) closed by one port
    /// message per shard, a DTIM tick every [`BURSTS_PER_TICK`] bursts,
    /// for `secs`.
    ///
    /// # Errors
    ///
    /// Fails on a socket error or when a shard has no client to carry
    /// its barrier.
    pub fn broadcast_loop(
        &mut self,
        clients: &[Client],
        frames: &[Vec<u8>],
        secs: f64,
    ) -> Result<LoopStats, String> {
        if self.barrier.contains(&usize::MAX) || frames.is_empty() {
            return Err("broadcast phase needs frames and a client on every shard".into());
        }
        self.socket
            .set_read_timeout(Some(EXPIRY_SCAN))
            .map_err(|e| e.to_string())?;
        let mut pending = Pending::new(clients);
        let mut stats = LoopStats::default();
        let per_burst = BURST - SHARDS;
        let (mut next, mut bursts) = (0usize, 0usize);
        let mut buf = [0u8; 2048];
        let started = Instant::now();
        let burst_secs = timed_loop(secs, 1, || -> Result<f64, String> {
            let t = Instant::now();
            for _ in 0..per_burst {
                self.send(&frames[next])?;
                next = (next + 1) % frames.len();
            }
            stats.frames += per_burst as u64;
            for b in 0..SHARDS {
                let c = self.barrier[b];
                self.request(clients[c].refresh(bursts), c, t, &mut pending, &mut stats)?;
            }
            while !pending.is_empty() && t.elapsed() <= REPLY_DEADLINE {
                if let Some(sent_at) = self.recv(&mut buf)?.and_then(|d| pending.ack(d)) {
                    stats.acked_at(sent_at, false);
                }
            }
            stats.lost += pending.clear();
            let burst_secs = t.elapsed().as_secs_f64();
            bursts += 1;
            if bursts % BURSTS_PER_TICK == 0 {
                let t = Instant::now();
                self.handle.tick(1).map_err(|e| e.to_string())?;
                self.handle.stats().map_err(|e| e.to_string())?;
                stats.tick_ns.push(t.elapsed().as_nanos() as u64);
            }
            Ok(burst_secs)
        })?;
        stats.secs = started.elapsed().as_secs_f64();
        stats.burst_secs = burst_secs;
        Ok(stats)
    }

    /// After the measured phase: waits up to [`REPLY_DEADLINE`] for
    /// outstanding replies, then counts the rest lost.
    fn drain(
        &mut self,
        pending: &mut Pending,
        stats: &mut LoopStats,
        exact: bool,
    ) -> Result<(), String> {
        self.socket
            .set_nonblocking(false)
            .and_then(|()| self.socket.set_read_timeout(Some(EXPIRY_SCAN)))
            .map_err(|e| e.to_string())?;
        let deadline = Instant::now() + REPLY_DEADLINE;
        let mut buf = [0u8; 2048];
        while !pending.is_empty() && Instant::now() < deadline {
            if let Some(at) = self.recv(&mut buf)?.and_then(|d| pending.ack(d)) {
                stats.acked_at(at, exact);
            }
        }
        stats.lost += pending.clear();
        Ok(())
    }

    /// Final tick (drains every buffer), then shutdown. Returns the
    /// daemon's statistics, the datagrams this generator sent and the
    /// daemon's `hide-apd-health/1` document.
    ///
    /// # Errors
    ///
    /// Fails when a shard died.
    pub fn finish(self) -> Result<(DaemonStats, u64, String), String> {
        self.handle.tick(1).map_err(|e| e.to_string())?;
        self.handle.stats().map_err(|e| e.to_string())?;
        let health = self.handle.health_json();
        let stats = self.handle.shutdown().map_err(|e| e.to_string())?;
        Ok((stats, self.sent, health))
    }
}

/// One phase of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    Closed,
    Broadcast,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Open => "open",
            Phase::Closed => "closed",
            Phase::Broadcast => "broadcast",
        }
    }

    /// The phase's end-to-end figure: open-loop ACK p50 in ns (lower is
    /// better) or closed-loop / broadcast throughput (higher is better).
    fn headline(self, s: &LoopStats) -> f64 {
        match self {
            Phase::Open => median_of(&s.exact_ns),
            Phase::Closed => s.acked as f64 / s.secs,
            Phase::Broadcast => s.frames as f64 / s.secs,
        }
    }
}

fn median_of(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return f64::NAN;
    }
    median(&ns.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// One phase against one daemon.
struct PhaseRun {
    phase: Phase,
    telemetry: bool,
    setup_secs: f64,
    stats: LoopStats,
    daemon: DaemonStats,
    health: String,
}

fn run_phase(
    seed: u64,
    phase: Phase,
    secs: f64,
    telemetry: bool,
    out: &mut Outcome,
) -> Result<PhaseRun, String> {
    let t = Instant::now();
    let inputs = make_inputs(seed, phase == Phase::Broadcast)?;
    let mut bench = Bench::start(&inputs, telemetry)?;
    let setup_secs = t.elapsed().as_secs_f64();
    let stats = match phase {
        Phase::Open => bench.open_loop(&inputs.clients, secs)?,
        Phase::Closed => bench.closed_loop(&inputs.clients, secs)?,
        Phase::Broadcast => bench.broadcast_loop(&inputs.clients, &inputs.frames, secs)?,
    };
    let (daemon, sent, health) = bench.finish()?;

    // Every datagram is accounted for: a request without its ACK, or a
    // datagram the daemon never received, is a failure.
    let name = phase.name();
    out.attempted += stats.sent + stats.frames;
    out.failed += stats.lost.max(sent.saturating_sub(daemon.frames_received));
    out.check(daemon.shards.associations == CLIENTS as u64, || {
        format!(
            "{name}: {} of {CLIENTS} clients associated",
            daemon.shards.associations
        )
    });
    out.check(daemon.parse_errors == 0, || {
        format!(
            "{name}: daemon saw {} unparseable datagrams",
            daemon.parse_errors
        )
    });
    out.check(stats.acked + stats.lost == stats.sent, || {
        format!(
            "{name}: {} sent but {} acked + {} lost",
            stats.sent, stats.acked, stats.lost
        )
    });
    Ok(PhaseRun {
        phase,
        telemetry,
        setup_secs,
        stats,
        daemon,
        health,
    })
}

/// Per-stage telemetry scraped from a `hide-apd-health/1` document.
fn telemetry_metrics(out: &mut Outcome, run: &PhaseRun) -> Result<(), String> {
    let doc = Json::parse(&run.health).map_err(|e| format!("health document: {e}"))?;
    let name = run.phase.name();
    for stage in RtStage::ALL.map(RtStage::label) {
        let s = doc
            .get("stages")
            .and_then(|s| s.get(stage))
            .ok_or_else(|| format!("health document lacks stage {stage}"))?;
        let field = |k: &str| s.get(k).and_then(Json::num).unwrap_or(0.0);
        out.push(Metric::value(
            format!("apd.{name}.{stage}_p50_ns"),
            "ns",
            field("p50_ns"),
        ));
        out.push(Metric::value(
            format!("apd.{name}.{stage}_count"),
            "count",
            field("count"),
        ));
        if stage == "handle" {
            out.push(Metric::value(
                format!("apd.{name}.handle_p99_ns"),
                "ns",
                field("p99_ns"),
            ));
        }
    }
    Ok(())
}

/// The traced run's diagnostics for `phase`, pooled over its
/// telemetry-on rounds.
fn diagnostics(out: &mut Outcome, phase: Phase, runs: &[&PhaseRun]) {
    let us = |ns: u64| ns as f64 / 1e3;
    match phase {
        Phase::Open => {
            let pooled: Vec<u64> = runs
                .iter()
                .flat_map(|r| r.stats.exact_ns.iter().copied())
                .collect();
            for (name, q) in [
                ("apd.open.ack_p99_us", 0.99),
                ("apd.open.ack_p999_us", 0.999),
            ] {
                if let Some(ns) = tail_percentile(&pooled, q) {
                    out.push(Metric::value(name, "us", us(ns)));
                }
            }
            let late = runs
                .iter()
                .map(|r| r.stats.late_max)
                .max()
                .unwrap_or_default();
            out.push(Metric::value(
                "apd.open.gen_late_max_ms",
                "ms",
                late.as_secs_f64() * 1e3,
            ));
        }
        Phase::Closed => {
            let mut acks = LatencyHistogram::new();
            for r in runs {
                acks.merge_from(&r.stats.acks);
            }
            if acks.count() >= 1000 {
                out.push(Metric::value(
                    "apd.closed.ack_p99_us",
                    "us",
                    us(acks.quantile(0.99)),
                ));
            }
        }
        Phase::Broadcast => {
            let ticks: Vec<u64> = runs
                .iter()
                .flat_map(|r| r.stats.tick_ns.iter().copied())
                .collect();
            out.push(Metric::value(
                "apd.broadcast.tick_p50_us",
                "us",
                median_of(&ticks) / 1e3,
            ));
            let delivered: u64 = runs.iter().map(|r| r.daemon.shards.frames_delivered).sum();
            let frames: u64 = runs.iter().map(|r| r.stats.frames).sum();
            out.push(Metric::value(
                "apd.broadcast.delivered_per_frame",
                "frames",
                delivered as f64 / frames.max(1) as f64,
            ));
        }
    }
}

fn run_workload(opts: &RunOpts, phases: &[Phase]) -> Result<Outcome, String> {
    hide::obs::log::set_level(LogLevel::Warn);
    if opts.warm_up_secs() > 0.0 {
        let inputs = make_inputs(opts.seed, false)?;
        let mut bench = Bench::start(&inputs, false)?;
        bench.closed_loop(&inputs.clients, opts.warm_up_secs())?;
        bench.finish()?;
    }
    let mut out = Outcome::default();
    // Traced runs measure every phase with telemetry off and on, in
    // alternating order, so the telemetry's own cost is reported
    // beside the stage numbers it buys.
    let mut schedule = Vec::new();
    let rounds = if opts.trace { TRACED_ROUNDS } else { ROUNDS };
    for round in 0..rounds {
        for &phase in phases {
            match (opts.trace, round % 2) {
                (false, _) => schedule.push((phase, false)),
                (true, 0) => schedule.extend([(phase, false), (phase, true)]),
                (true, _) => schedule.extend([(phase, true), (phase, false)]),
            }
        }
    }
    let secs = opts.seconds / schedule.len() as f64;
    let runs = schedule
        .into_iter()
        .map(|(phase, telemetry)| run_phase(opts.seed, phase, secs, telemetry, &mut out))
        .collect::<Result<Vec<_>, _>>()?;

    let of = |phase: Phase, telemetry: bool| -> Vec<&PhaseRun> {
        runs.iter()
            .filter(|r| r.phase == phase && r.telemetry == telemetry)
            .collect()
    };
    let headlines = |phase: Phase, telemetry: bool| -> Vec<f64> {
        of(phase, telemetry)
            .iter()
            .map(|r| phase.headline(&r.stats))
            .collect()
    };
    if opts.trace {
        for &phase in phases {
            let on = of(phase, true);
            for run in &on {
                telemetry_metrics(&mut out, run)?;
            }
            diagnostics(&mut out, phase, &on);
            let (off, on) = (
                median(&headlines(phase, false)),
                median(&headlines(phase, true)),
            );
            let overhead = match phase {
                Phase::Open => on / off - 1.0,
                Phase::Closed | Phase::Broadcast => off / on - 1.0,
            };
            out.push(Metric::value(
                format!("apd.{}.telemetry_overhead_pct", phase.name()),
                "%",
                overhead * 100.0,
            ));
        }
        let total =
            |f: fn(&DaemonStats) -> u64| runs.iter().map(|r| f(&r.daemon) as f64).sum::<f64>();
        out.push(Metric::value(
            "apd.dropped_backpressure",
            "count",
            total(|d| d.dropped_backpressure),
        ));
        out.push(Metric::value(
            "apd.parse_errors",
            "count",
            total(|d| d.parse_errors),
        ));
    } else {
        out.push(Metric::samples(
            "setup_s",
            "s",
            runs.iter().map(|r| r.setup_secs).collect(),
        ));
        if phases.contains(&Phase::Broadcast) {
            let bursts = of(Phase::Broadcast, false)
                .iter()
                .flat_map(|r| r.stats.burst_secs.iter().map(|s| s * 1e3))
                .collect();
            out.push(Metric::samples("op_p50_ms", "ms", bursts));
            out.push(Metric::samples(
                "work_per_s",
                "1/s",
                headlines(Phase::Broadcast, false),
            ));
        } else {
            let p50s = headlines(Phase::Open, false)
                .iter()
                .map(|ns| ns / 1e6)
                .collect();
            out.push(Metric::samples("op_p50_ms", "ms", p50s));
            out.push(Metric::samples(
                "work_per_s",
                "1/s",
                headlines(Phase::Closed, false),
            ));
        }
    }
    Ok(out)
}

/// `apd-refresh`: rounds of the open and the closed refresh loop.
///
/// # Errors
///
/// Fails when a daemon cannot start or a socket breaks.
pub fn run_refresh(opts: &RunOpts) -> Result<Outcome, String> {
    run_workload(opts, &[Phase::Open, Phase::Closed])
}

/// `apd-broadcast`: rounds of broadcast bursts between DTIM ticks.
///
/// # Errors
///
/// Fails when a daemon cannot start or a socket breaks.
pub fn run_broadcast(opts: &RunOpts) -> Result<Outcome, String> {
    run_workload(opts, &[Phase::Broadcast])
}
