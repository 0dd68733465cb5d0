//! The long-running AP service.
//!
//! Thread layout (no async runtime; plain threads and channels):
//!
//! ```text
//!  data UDP socket ──▶ router thread ──┬──▶ shard 0 (AccessPoint, AIDs 1..)
//!                                      ├──▶ shard 1 (AccessPoint, ...)
//!  timer thread (DTIM cadence) ────────┤         │
//!  ctrl UDP socket ──▶ ctrl thread ────┘         └──▶ ACKs out the
//!                                                     data socket
//! ```
//!
//! The router parses each datagram with [`AnyFrame::parse`] and routes
//! it by client MAC to one shard; broadcast data frames fan out to
//! every shard (each shard's AP serves its own clients' BTIM flags, so
//! each needs the full broadcast stream). Shards apply backpressure:
//! when a shard's queue exceeds the configured watermark the router
//! drops *data* frames (management traffic is never dropped), exactly
//! like a real AP's bounded broadcast buffer.

use crate::config::ApdConfig;
use crate::ctrl::{CtrlParseError, CtrlRequest, CtrlResponse};
use crate::error::ApdError;
use crate::shard::{monotonic_secs, shard_of, Shard, ShardCmd, ShardFinal, ShardStats};
use crate::snapshot::ApdSnapshot;
use crate::telemetry::{self, RouterCounters, RuntimePlane, ShardHealth};
use hide_core::ap::{AccessPoint, ApSnapshot};
use hide_obs::{log_info, AtomicRuntime, NoopSpans, Recorder, RtStage, SpanSink};
use hide_wifi::frame::AnyFrame;
use hide_wifi::mac::MacAddr;
use std::net::{SocketAddr, UdpSocket};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long blocking socket reads wait before re-checking the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Daemon-wide statistics: router totals plus every shard's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DaemonStats {
    /// Datagrams received on the data socket.
    pub frames_received: u64,
    /// Datagrams that failed to parse as any supported frame.
    pub parse_errors: u64,
    /// Broadcast data frames dropped by backpressure.
    pub dropped_backpressure: u64,
    /// Totals accumulated across all shards. Its `ignored_frames` also
    /// counts, once each, the frames of kinds no AP consumes, which
    /// the router queues on no shard.
    pub shards: ShardStats,
}

impl DaemonStats {
    /// The router's totals, before any shard's are merged in.
    fn from_router(counters: &RouterCounters) -> Self {
        let mut stats = DaemonStats {
            frames_received: counters.frames_received.load(Ordering::Relaxed),
            parse_errors: counters.parse_errors.load(Ordering::Relaxed),
            dropped_backpressure: counters.dropped_backpressure.load(Ordering::Relaxed),
            ..DaemonStats::default()
        };
        stats.shards.ignored_frames = counters.ignored_frames.load(Ordering::Relaxed);
        stats
    }

    /// Renders the stats as the control protocol's `key=value` line.
    #[must_use]
    pub fn to_line(&self) -> String {
        let s = &self.shards;
        format!(
            "frames_received={} parse_errors={} dropped_backpressure={} \
             port_messages={} acks_sent={} associations={} assoc_denied={} \
             disassociations={} broadcasts_enqueued={} beacons={} \
             frames_delivered={} entries_expired={} unknown_clients={} \
             ignored_frames={} clients={}",
            self.frames_received,
            self.parse_errors,
            self.dropped_backpressure,
            s.port_messages,
            s.acks_sent,
            s.associations,
            s.assoc_denied,
            s.disassociations,
            s.broadcasts_enqueued,
            s.beacons,
            s.frames_delivered,
            s.entries_expired,
            s.unknown_clients,
            s.ignored_frames,
            s.clients,
        )
    }
}

/// Everything the control plane needs to serve requests; shared
/// between the ctrl thread and the in-process [`DaemonHandle`] so both
/// answer identically.
struct ControlPlane {
    cfg: ApdConfig,
    shard_txs: Vec<Sender<ShardCmd>>,
    counters: Arc<RouterCounters>,
    rt: Arc<RuntimePlane>,
    tick_counter: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
}

impl ControlPlane {
    fn gather_snapshots(&self) -> Result<Vec<ApSnapshot>, ApdError> {
        let mut snaps = Vec::with_capacity(self.shard_txs.len());
        for tx in &self.shard_txs {
            let (reply_tx, reply_rx) = channel();
            tx.send(ShardCmd::Snapshot(reply_tx))
                .map_err(|_| ApdError::ChannelClosed("shard"))?;
            snaps.push(
                reply_rx
                    .recv()
                    .map_err(|_| ApdError::ChannelClosed("shard"))?,
            );
        }
        Ok(snaps)
    }

    fn gather_stats(&self) -> Result<DaemonStats, ApdError> {
        let mut stats = DaemonStats::from_router(&self.counters);
        for tx in &self.shard_txs {
            let (reply_tx, reply_rx) = channel();
            tx.send(ShardCmd::Stats(reply_tx))
                .map_err(|_| ApdError::ChannelClosed("shard"))?;
            let shard = reply_rx
                .recv()
                .map_err(|_| ApdError::ChannelClosed("shard"))?;
            stats.shards.merge(&shard);
        }
        Ok(stats)
    }

    fn gather_metrics(&self) -> Result<Recorder, ApdError> {
        let mut merged = Recorder::new();
        for tx in &self.shard_txs {
            let (reply_tx, reply_rx) = channel();
            tx.send(ShardCmd::Metrics(reply_tx))
                .map_err(|_| ApdError::ChannelClosed("shard"))?;
            let rec = reply_rx
                .recv()
                .map_err(|_| ApdError::ChannelClosed("shard"))?;
            merged.merge_from(&rec);
        }
        Ok(merged)
    }

    /// Live telemetry: merged shard metrics rendered as
    /// `hide-metrics/1` with a `daemon` section of router/shard
    /// totals.
    fn metrics_json(&self) -> Result<String, ApdError> {
        let stats = self.gather_stats()?;
        let recorder = self.gather_metrics()?;
        let daemon = format!(
            "{{\"frames_received\": {}, \"parse_errors\": {}, \"dropped_backpressure\": {}, \
             \"port_messages\": {}, \"beacons\": {}, \"clients\": {}}}",
            stats.frames_received,
            stats.parse_errors,
            stats.dropped_backpressure,
            stats.shards.port_messages,
            stats.shards.beacons,
            stats.shards.clients,
        );
        Ok(recorder.to_json_with_sections(&[("daemon", &daemon)]))
    }

    fn write_snapshot(&self, path: &Path) -> Result<(), ApdError> {
        let snap = ApdSnapshot::new(self.gather_snapshots()?);
        std::fs::write(path, snap.to_bytes())?;
        Ok(())
    }

    fn tick(&self, beacons: u64) -> Result<(), ApdError> {
        for _ in 0..beacons {
            let index = self.tick_counter.fetch_add(1, Ordering::Relaxed);
            let now = self.cfg.stale_timeout_secs.is_some().then(monotonic_secs);
            for tx in &self.shard_txs {
                tx.send(ShardCmd::Tick { index, now })
                    .map_err(|_| ApdError::ChannelClosed("shard"))?;
            }
        }
        Ok(())
    }

    /// The `hide-apd-health/1` wall-clock health document.
    fn health_json(&self) -> String {
        telemetry::health_json(&self.rt, &self.counters)
    }

    /// The Prometheus-style text exposition.
    fn expo_text(&self) -> String {
        telemetry::expo_text(&self.rt, &self.counters)
    }

    fn serve(&self, req: CtrlRequest) -> CtrlResponse {
        match req {
            CtrlRequest::Ping => CtrlResponse::pong(),
            CtrlRequest::Stats => match self.gather_stats() {
                Ok(stats) => CtrlResponse::Ok(stats.to_line()),
                Err(e) => CtrlResponse::err("internal", e.to_string()),
            },
            CtrlRequest::Metrics => match self.metrics_json() {
                Ok(json) => CtrlResponse::Ok(json),
                Err(e) => CtrlResponse::err("internal", e.to_string()),
            },
            CtrlRequest::Snapshot => match &self.cfg.snapshot_path {
                Some(path) => match self.write_snapshot(path) {
                    Ok(()) => CtrlResponse::Ok(path.display().to_string()),
                    Err(e) => CtrlResponse::err("internal", e.to_string()),
                },
                None => CtrlResponse::err("no-snapshot-path", "no snapshot path configured"),
            },
            CtrlRequest::Health => CtrlResponse::Ok(self.health_json()),
            CtrlRequest::Expo => CtrlResponse::Ok(self.expo_text()),
            CtrlRequest::Tick(n) => match self.tick(n) {
                Ok(()) => CtrlResponse::Ok(String::new()),
                Err(e) => CtrlResponse::err("internal", e.to_string()),
            },
            CtrlRequest::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                CtrlResponse::Ok(String::new())
            }
        }
    }
}

/// A running daemon: spawn it, talk to it (in-process or over its
/// sockets), shut it down.
pub struct DaemonHandle {
    data_addr: SocketAddr,
    ctrl_addr: SocketAddr,
    plane: Arc<ControlPlane>,
    shutdown: Arc<AtomicBool>,
    router: Option<JoinHandle<()>>,
    timer: Option<JoinHandle<()>>,
    ctrl: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<ShardFinal>>,
}

impl DaemonHandle {
    /// Binds the sockets, restores any snapshot, and starts the
    /// router, shard, timer and control threads.
    ///
    /// # Errors
    ///
    /// Returns [`ApdError::Config`] for an invalid configuration,
    /// [`ApdError::Io`] when a socket cannot bind, and
    /// [`ApdError::Snapshot`] when restore is requested and the file
    /// is malformed or does not match the shard count.
    pub fn spawn(cfg: ApdConfig) -> Result<DaemonHandle, ApdError> {
        cfg.validate()?;
        if cfg.runtime_telemetry {
            let hists = Arc::new(AtomicRuntime::new());
            Self::spawn_inner(cfg, Arc::clone(&hists), Some(hists))
        } else {
            // Monomorphized against the no-op sink: the hot paths
            // never read the clock for stage timing.
            Self::spawn_inner(cfg, NoopSpans, None)
        }
    }

    fn spawn_inner<R>(
        cfg: ApdConfig,
        runtime: R,
        hists: Option<Arc<AtomicRuntime>>,
    ) -> Result<DaemonHandle, ApdError>
    where
        R: SpanSink<RtStage> + Clone + Send + 'static,
    {
        let data_socket = UdpSocket::bind(&cfg.bind_addr)?;
        data_socket.set_read_timeout(Some(POLL_INTERVAL))?;
        let data_addr = data_socket.local_addr()?;
        let ctrl_socket = UdpSocket::bind(&cfg.ctrl_addr)?;
        ctrl_socket.set_read_timeout(Some(POLL_INTERVAL))?;
        let ctrl_addr = ctrl_socket.local_addr()?;

        let restored = Self::load_restore(&cfg)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(RouterCounters::default());
        let tick_counter = Arc::new(AtomicU64::new(0));

        // Per-shard channels, depth counters and health cells exist
        // before any thread starts so the runtime plane (and its
        // shared epoch) covers every shard from the first command.
        let mut shard_txs = Vec::with_capacity(cfg.shards);
        let mut shard_rxs = Vec::with_capacity(cfg.shards);
        let mut depths = Vec::with_capacity(cfg.shards);
        let mut cells = Vec::with_capacity(cfg.shards);
        for _ in 0..cfg.shards {
            let (tx, rx) = channel();
            let depth = Arc::new(AtomicUsize::new(0));
            cells.push(Arc::new(ShardHealth::new(Arc::clone(&depth))));
            shard_txs.push(tx);
            shard_rxs.push(rx);
            depths.push(depth);
        }
        let rt = Arc::new(RuntimePlane::new(
            hists,
            cells.clone(),
            cfg.backpressure_watermark,
            cfg.watchdog_stall_secs,
            cfg.watchdog_interval_secs,
        ));

        // --- shard threads ---
        let mut shards = Vec::with_capacity(cfg.shards);
        for (i, rx) in shard_rxs.into_iter().enumerate() {
            let ap = match &restored {
                Some(snaps) => AccessPoint::from_snapshot(&snaps[i])?,
                None => {
                    let (lo, hi) = cfg.aid_range_of(i);
                    let mut ap = AccessPoint::with_aid_range(cfg.bssid, lo, hi)?;
                    ap.set_ssid(cfg.ssid.clone())?;
                    ap.set_dtim_period(cfg.dtim_period);
                    ap
                }
            };
            let shard = Shard {
                ap,
                reply_socket: data_socket.try_clone()?,
                rx,
                depth: Arc::clone(&depths[i]),
                stale_timeout_secs: cfg.stale_timeout_secs,
                runtime: runtime.clone(),
                health: Arc::clone(&cells[i]),
                epoch: rt.epoch,
            };
            shards.push(
                std::thread::Builder::new()
                    .name(format!("apd-shard-{i}"))
                    .spawn(move || shard.run())?,
            );
        }

        let plane = Arc::new(ControlPlane {
            cfg: cfg.clone(),
            shard_txs: shard_txs.clone(),
            counters: Arc::clone(&counters),
            rt: Arc::clone(&rt),
            tick_counter: Arc::clone(&tick_counter),
            shutdown: Arc::clone(&shutdown),
        });

        // --- router thread ---
        let router = {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let txs = shard_txs.clone();
            let depths = depths.clone();
            let watermark = cfg.backpressure_watermark;
            let mut runtime = runtime.clone();
            std::thread::Builder::new()
                .name("apd-router".into())
                .spawn(move || {
                    route_loop(
                        &data_socket,
                        &txs,
                        &depths,
                        watermark,
                        &counters,
                        &mut runtime,
                        &shutdown,
                    );
                })?
        };

        // --- ctrl thread ---
        let ctrl = {
            let shutdown = Arc::clone(&shutdown);
            let plane = Arc::clone(&plane);
            std::thread::Builder::new()
                .name("apd-ctrl".into())
                .spawn(move || ctrl_loop(&ctrl_socket, &plane, &shutdown))?
        };

        // --- timer thread (optional) ---
        let timer = match cfg.beacon_interval_secs {
            Some(secs) => {
                let shutdown = Arc::clone(&shutdown);
                let plane = Arc::clone(&plane);
                let every = cfg.metrics_every_ticks.max(1);
                Some(
                    std::thread::Builder::new()
                        .name("apd-timer".into())
                        .spawn(move || timer_loop(secs, every, &plane, &shutdown))?,
                )
            }
            None => None,
        };

        // --- watchdog thread ---
        let watchdog = {
            let shutdown = Arc::clone(&shutdown);
            let rt = Arc::clone(&rt);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("apd-watchdog".into())
                .spawn(move || telemetry::watchdog_loop(&rt, &counters, &shutdown))?
        };

        log_info!(
            "listening data={data_addr} ctrl={ctrl_addr} shards={} telemetry={}",
            cfg.shards,
            if cfg.runtime_telemetry { "on" } else { "off" },
        );

        Ok(DaemonHandle {
            data_addr,
            ctrl_addr,
            plane,
            shutdown,
            router: Some(router),
            timer,
            ctrl: Some(ctrl),
            watchdog: Some(watchdog),
            shards,
        })
    }

    fn load_restore(cfg: &ApdConfig) -> Result<Option<Vec<ApSnapshot>>, ApdError> {
        let path = match (&cfg.snapshot_path, cfg.restore) {
            (Some(path), true) if path.exists() => path,
            _ => return Ok(None),
        };
        let bytes = std::fs::read(path)?;
        let snap = ApdSnapshot::parse(&bytes)?;
        if snap.shards.len() != cfg.shards {
            return Err(ApdError::Snapshot(format!(
                "snapshot has {} shards, daemon configured for {}",
                snap.shards.len(),
                cfg.shards
            )));
        }
        Ok(Some(snap.shards))
    }

    /// The data socket's bound address.
    #[must_use]
    pub fn data_addr(&self) -> SocketAddr {
        self.data_addr
    }

    /// The control socket's bound address.
    #[must_use]
    pub fn ctrl_addr(&self) -> SocketAddr {
        self.ctrl_addr
    }

    /// `true` once shutdown has been requested (in-process or via the
    /// control socket).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Advances the DTIM cadence by `beacons` ticks, as the timer
    /// thread would.
    ///
    /// # Errors
    ///
    /// Returns [`ApdError::ChannelClosed`] when a shard has exited.
    pub fn tick(&self, beacons: u64) -> Result<(), ApdError> {
        self.plane.tick(beacons)
    }

    /// A point-in-time image of every shard's client table.
    ///
    /// # Errors
    ///
    /// Returns [`ApdError::ChannelClosed`] when a shard has exited.
    pub fn snapshot(&self) -> Result<ApdSnapshot, ApdError> {
        Ok(ApdSnapshot::new(self.plane.gather_snapshots()?))
    }

    /// Current daemon-wide statistics.
    ///
    /// # Errors
    ///
    /// Returns [`ApdError::ChannelClosed`] when a shard has exited.
    pub fn stats(&self) -> Result<DaemonStats, ApdError> {
        self.plane.gather_stats()
    }

    /// The live `hide-metrics/1` telemetry document.
    ///
    /// # Errors
    ///
    /// Returns [`ApdError::ChannelClosed`] when a shard has exited.
    pub fn metrics_json(&self) -> Result<String, ApdError> {
        self.plane.metrics_json()
    }

    /// The live `hide-apd-health/1` wall-clock health document (stage
    /// latency summaries, per-shard gauges, watchdog state, recent
    /// warn/error log records). Never blocks on shard threads.
    #[must_use]
    pub fn health_json(&self) -> String {
        self.plane.health_json()
    }

    /// The live Prometheus-style text exposition of the wall-clock
    /// plane. Never blocks on shard threads.
    #[must_use]
    pub fn expo_text(&self) -> String {
        self.plane.expo_text()
    }

    /// Blocks until shutdown is requested (e.g. by a `shutdown`
    /// control request), polling at the socket cadence.
    pub fn wait_for_shutdown_request(&self) {
        while !self.is_shutting_down() {
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// Shuts the daemon down: stops the router/timer/ctrl threads,
    /// drains and joins every shard, writes a final snapshot when a
    /// path is configured, and returns the final statistics.
    ///
    /// # Errors
    ///
    /// Returns [`ApdError::Io`] when the final snapshot cannot be
    /// written; shutdown still completes (threads are joined) in that
    /// case.
    pub fn shutdown(mut self) -> Result<DaemonStats, ApdError> {
        self.shutdown.store(true, Ordering::SeqCst);
        for handle in [
            self.router.take(),
            self.timer.take(),
            self.ctrl.take(),
            self.watchdog.take(),
        ]
        .into_iter()
        .flatten()
        {
            let _ = handle.join();
        }

        let mut stats = DaemonStats::from_router(&self.plane.counters);
        let mut snapshots = Vec::with_capacity(self.shards.len());
        let mut recorder = Recorder::new();
        for (tx, handle) in self.plane.shard_txs.iter().zip(self.shards.drain(..)) {
            let (reply_tx, reply_rx) = channel();
            let _ = tx.send(ShardCmd::Shutdown(reply_tx));
            drop(reply_rx);
            match handle.join() {
                Ok(fin) => {
                    stats.shards.merge(&fin.stats);
                    recorder.merge_from(&fin.recorder);
                    snapshots.push(fin.snapshot);
                }
                Err(_) => return Err(ApdError::ChannelClosed("shard panicked")),
            }
        }
        if let Some(path) = &self.plane.cfg.telemetry_path {
            let daemon = format!(
                "{{\"frames_received\": {}, \"parse_errors\": {}, \"dropped_backpressure\": {}, \
                 \"port_messages\": {}, \"beacons\": {}, \"clients\": {}}}",
                stats.frames_received,
                stats.parse_errors,
                stats.dropped_backpressure,
                stats.shards.port_messages,
                stats.shards.beacons,
                stats.shards.clients,
            );
            std::fs::write(path, recorder.to_json_with_sections(&[("daemon", &daemon)]))?;
        }
        if let Some(path) = &self.plane.cfg.snapshot_path {
            std::fs::write(path, ApdSnapshot::new(snapshots).to_bytes())?;
        }
        // Final wall-clock health dump — written last so it reflects
        // the fully drained daemon.
        if let Some(path) = &self.plane.cfg.health_path {
            std::fs::write(path, self.plane.health_json())?;
        }
        log_info!(
            "shutdown complete: frames_received={} port_messages={} clients={}",
            stats.frames_received,
            stats.shards.port_messages,
            stats.shards.clients,
        );
        Ok(stats)
    }
}

/// The router loop: receive, parse, route. The `recv` stage times the
/// blocking receive of datagrams that actually arrive; the `route`
/// stage times parse plus shard dispatch.
fn route_loop<R: SpanSink<RtStage>>(
    socket: &UdpSocket,
    txs: &[Sender<ShardCmd>],
    depths: &[Arc<AtomicUsize>],
    watermark: usize,
    counters: &RouterCounters,
    runtime: &mut R,
    shutdown: &AtomicBool,
) {
    let mut buf = [0u8; 65536];
    while !shutdown.load(Ordering::SeqCst) {
        let recv_timer = runtime.start();
        let (len, from) = match socket.recv_from(&mut buf) {
            Ok(ok) => ok,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => continue,
        };
        runtime.finish(RtStage::Recv, recv_timer);
        let route_timer = runtime.start();
        counters.frames_received.fetch_add(1, Ordering::Relaxed);
        let frame = match AnyFrame::parse(&buf[..len]) {
            Ok(frame) => frame,
            Err(_) => {
                counters.parse_errors.fetch_add(1, Ordering::Relaxed);
                runtime.finish(RtStage::Route, route_timer);
                continue;
            }
        };
        match route_mac(&frame) {
            Route::Client(mac) => {
                let i = shard_of(mac, txs.len());
                depths[i].fetch_add(1, Ordering::Relaxed);
                let _ = txs[i].send(ShardCmd::Frame(frame, from));
            }
            Route::AllShards => {
                // Broadcast data: every shard buffers it, subject to
                // per-shard backpressure.
                for (i, tx) in txs.iter().enumerate() {
                    if depths[i].load(Ordering::Relaxed) >= watermark {
                        counters
                            .dropped_backpressure
                            .fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    depths[i].fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(ShardCmd::Frame(frame.clone(), from));
                }
            }
            Route::Ignored => {
                counters.ignored_frames.fetch_add(1, Ordering::Relaxed);
            }
        }
        runtime.finish(RtStage::Route, route_timer);
    }
}

enum Route {
    Client(MacAddr),
    AllShards,
    /// A kind no AP consumes: counted once here, queued on no shard.
    Ignored,
}

/// Which client address (and therefore shard) a frame belongs to.
fn route_mac(frame: &AnyFrame) -> Route {
    match frame {
        AnyFrame::UdpPortMessage(msg) => Route::Client(msg.client()),
        AnyFrame::AssociationRequest(req) => Route::Client(req.client()),
        AnyFrame::Disassociation(notice) => Route::Client(notice.from()),
        AnyFrame::PsPoll(poll) => Route::Client(poll.transmitter()),
        AnyFrame::Data(_) => Route::AllShards,
        // Beacons, ACKs and association responses are what an AP
        // sends, not what it handles.
        _ => Route::Ignored,
    }
}

/// The control loop: one datagram in, one out.
fn ctrl_loop(socket: &UdpSocket, plane: &ControlPlane, shutdown: &AtomicBool) {
    let mut buf = [0u8; 4096];
    while !shutdown.load(Ordering::SeqCst) {
        let (len, from) = match socket.recv_from(&mut buf) {
            Ok(ok) => ok,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => continue,
        };
        let resp = match std::str::from_utf8(&buf[..len]) {
            Ok(text) => match CtrlRequest::parse(text) {
                Ok(req) => plane.serve(req),
                Err(CtrlParseError::UnknownCommand(verb)) => {
                    CtrlResponse::err("unknown-command", verb)
                }
                Err(CtrlParseError::Malformed(detail)) => CtrlResponse::err("malformed", detail),
            },
            Err(_) => CtrlResponse::err("malformed", "request is not utf-8"),
        };
        let _ = socket.send_to(resp.encode().as_bytes(), from);
    }
}

/// The timer loop: DTIM cadence plus periodic telemetry dumps.
fn timer_loop(interval_secs: f64, metrics_every: u64, plane: &ControlPlane, shutdown: &AtomicBool) {
    let interval = Duration::from_secs_f64(interval_secs);
    let mut ticks: u64 = 0;
    while !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        if plane.tick(1).is_err() {
            break;
        }
        ticks += 1;
        if ticks.is_multiple_of(metrics_every) {
            if let Some(path) = &plane.cfg.telemetry_path {
                if let Ok(json) = plane.metrics_json() {
                    let _ = std::fs::write(path, json);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_rejects_bad_config() {
        assert!(matches!(
            DaemonHandle::spawn(ApdConfig::new().shards(0)),
            Err(ApdError::Config(_))
        ));
    }

    #[test]
    fn spawn_ping_stats_shutdown() {
        let handle = DaemonHandle::spawn(ApdConfig::new()).unwrap();
        assert_ne!(handle.data_addr().port(), 0);
        assert_ne!(handle.ctrl_addr().port(), 0);
        let stats = handle.stats().unwrap();
        assert_eq!(stats.frames_received, 0);
        let final_stats = handle.shutdown().unwrap();
        assert_eq!(final_stats.shards.port_messages, 0);
    }

    #[test]
    fn ticks_emit_beacons_on_every_shard() {
        let handle = DaemonHandle::spawn(ApdConfig::new().shards(3)).unwrap();
        handle.tick(5).unwrap();
        let stats = handle.stats().unwrap();
        assert_eq!(stats.shards.beacons, 15);
        handle.shutdown().unwrap();
    }

    #[test]
    fn metrics_json_carries_schema_and_daemon_section() {
        let handle = DaemonHandle::spawn(ApdConfig::new()).unwrap();
        handle.tick(2).unwrap();
        let json = handle.metrics_json().unwrap();
        assert!(json.contains("\"schema\": \"hide-metrics/1\""));
        assert!(json.contains("\"daemon\": {"));
        assert!(json.contains("\"beacons\": 2"));
        handle.shutdown().unwrap();
    }

    #[test]
    fn health_and_expo_are_always_served() {
        let handle = DaemonHandle::spawn(ApdConfig::new().shards(2)).unwrap();
        handle.tick(1).unwrap();
        let health = handle.health_json();
        assert!(health.contains("\"schema\": \"hide-apd-health/1\""));
        assert!(health.contains("\"telemetry\": \"on\""));
        assert_eq!(telemetry::parse_health_shards(&health).len(), 2);
        let expo = handle.expo_text();
        assert!(expo.contains("hide_apd_shard_queue_depth{shard=\"1\"}"));
        handle.shutdown().unwrap();
    }

    #[test]
    fn noop_runtime_daemon_serves_empty_stage_histograms() {
        let handle = DaemonHandle::spawn(ApdConfig::new().runtime_telemetry(false)).unwrap();
        handle.tick(4).unwrap();
        // Stats is served by the shard thread after the queued ticks,
        // so once it returns the progress gauges are up to date.
        handle.stats().unwrap();
        let health = handle.health_json();
        assert!(health.contains("\"telemetry\": \"off\""));
        for (stage, count) in telemetry::parse_health_stage_counts(&health) {
            assert_eq!(count, 0, "stage {stage} recorded through the noop sink");
        }
        // The always-on gauge plane still works without the clocked seam.
        let shards = telemetry::parse_health_shards(&health);
        assert!(shards[0].processed >= 4);
        handle.shutdown().unwrap();
    }

    #[test]
    fn shutdown_writes_the_health_dump() {
        let path = std::env::temp_dir().join(format!("apd_health_{}.json", std::process::id()));
        let handle = DaemonHandle::spawn(ApdConfig::new().health_path(path.clone())).unwrap();
        handle.tick(2).unwrap();
        handle.shutdown().unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(json.contains("\"schema\": \"hide-apd-health/1\""));
        assert!(json.contains("\"watchdog\": {"));
    }

    #[test]
    fn shutdown_telemetry_dump_carries_daemon_section() {
        let path = std::env::temp_dir().join(format!("apd_final_{}.json", std::process::id()));
        let handle = DaemonHandle::spawn(ApdConfig::new().telemetry_path(path.clone())).unwrap();
        handle.tick(3).unwrap();
        handle.shutdown().unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(json.contains("\"schema\": \"hide-metrics/1\""));
        assert!(json.contains("\"daemon\": {"));
        assert!(json.contains("\"beacons\": 3"));
    }
}
