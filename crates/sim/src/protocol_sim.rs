//! Protocol-driven simulation: runs the *actual* HIDE implementation —
//! [`hide_core::ap::AccessPoint`] and [`hide_core::client::HideClient`],
//! real encoded beacons included — over a trace, beacon interval by
//! beacon interval, and streams the frames the client receives through
//! the one-pass energy model as they arrive.
//!
//! This is the ground truth the fast marking-based
//! [`crate::SimulationBuilder`] is validated against: both must agree
//! on which DTIM intervals wake the client and (closely) on energy.
//!
//! A trace records only each frame's port and length, so the datagram
//! body of every distinct (destination port, length) pair is encoded
//! (IPv4 and UDP checksums included) once per run, and each frame the
//! AP buffers carries a copy of those bytes. The AP, the beacons it
//! writes into one reused buffer and the client reads through a
//! borrowed view every DTIM, and the client all stay real.

use crate::error::SimError;
use crate::solution::Solution;
use hide_core::ap::{AccessPoint, ApCtx, BeaconMode};
use hide_core::client::{HideClient, OpenPortRegistry, WakeDecision};
use hide_core::CoreError;
use hide_energy::profile::DeviceProfile;
use hide_energy::timeline::{Overhead, TimelineFrame};
use hide_energy::{EnergyReport, MoreData, Pass};
use hide_obs::{Counter, MetricsSink, TraceEventKind, TraceSink, WakeCause, WakeClass};
use hide_policy::WakePolicy;
use hide_traces::record::Trace;
use hide_traces::useful::Usefulness;
use hide_wifi::frame::{BeaconView, BroadcastDataFrame};
use hide_wifi::mac::MacAddr;
use hide_wifi::phy::{self, DataRate};
use hide_wifi::udp::UdpDatagram;
use std::collections::HashMap;

/// Per-run protocol statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Beacons the AP transmitted.
    pub beacons: u64,
    /// DTIM intervals in which the client's BTIM bit was set.
    pub wake_intervals: u64,
    /// Broadcast frames the AP delivered while our client listened.
    pub frames_delivered: u64,
    /// Delivered frames an application on the client consumed.
    pub frames_consumed: u64,
    /// UDP Port Messages the client sent.
    pub port_messages: u64,
    /// Total BTIM bytes across all transmitted beacons.
    pub btim_bytes: u64,
}

/// Outcome of a protocol-driven run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolOutcome {
    /// Energy report computed from the frames the protocol delivered.
    pub energy: EnergyReport,
    /// Protocol statistics.
    pub stats: ProtocolStats,
}

/// Drives the real protocol over a trace.
#[derive(Debug, Clone)]
pub struct ProtocolSimulation<'a> {
    trace: &'a Trace,
    profile: DeviceProfile,
    useful_fraction: f64,
    sync_interval_secs: f64,
    beacon_interval: f64,
    policy: WakePolicy,
}

impl<'a> ProtocolSimulation<'a> {
    /// Creates a protocol simulation at the given useful fraction
    /// (the client binds the same port set the marking-based simulator
    /// would choose).
    pub fn new(trace: &'a Trace, profile: DeviceProfile, useful_fraction: f64) -> Self {
        ProtocolSimulation {
            trace,
            profile,
            useful_fraction,
            sync_interval_secs: 10.0,
            beacon_interval: hide_wifi::timing::TIME_UNIT_SECS * 100.0,
            policy: WakePolicy::Hide,
        }
    }

    /// Sets the UDP Port Message interval.
    pub fn sync_interval_secs(mut self, secs: f64) -> Self {
        self.sync_interval_secs = secs;
        self
    }

    /// Sets the wake policy the client runs. [`WakePolicy::Hide`] (the
    /// default) drives the real BTIM protocol; the other policies run
    /// the AP TIM-only (no BTIM bytes, no UDP Port Messages) and make
    /// the wake decision from the buffered burst alone —
    /// [`WakePolicy::LegacyPsm`] wakes whenever the AP delivers, while
    /// [`WakePolicy::ScheduledWake`] wakes only inside its negotiated
    /// service window and lets the AP buffer across the rest.
    pub fn policy(mut self, policy: WakePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs the protocol and evaluates the energy model on the
    /// outcome, streaming metrics into `sink` (per-beacon BTIM
    /// footprint, AP delivery counts, port-table traffic and the
    /// energy-model counters) and events into `trace` (every DTIM
    /// boundary, emitted BTIM and wake decision, at simulation time).
    ///
    /// Both sinks are taken by value, as [`ApCtx`] takes them: pass
    /// `(NoopSink, NoopTrace)` for an uninstrumented run, whose sink
    /// calls compile to nothing, or `(&mut recorder, &mut flight)` to
    /// keep what they collect. All protocol wakes here are proper by
    /// construction (a single client whose refreshes are never lost),
    /// so every HIDE `WakeDecision` carries class `Proper`; the frame
    /// id is the running delivered-frame count of the first consumed
    /// frame.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Energy`] when the trace is degenerate (zero
    /// duration) and [`SimError::Core`] when the protocol rejects an
    /// operation; none occurs for a valid trace.
    pub fn run<S: MetricsSink, T: TraceSink>(
        &self,
        mut sink: S,
        mut trace: T,
    ) -> Result<ProtocolOutcome, SimError> {
        let tau = self.profile.wakelock_secs;
        let marking = Usefulness::port_based(self.trace, self.useful_fraction);
        let hide_mode = self.policy.uses_port_refresh();

        // --- set up AP and client with the real handshake ---
        let mut ap = AccessPoint::new(MacAddr::station(0));
        if !self.policy.ap_btim_enabled() {
            ap.set_beacon_mode(BeaconMode::TimOnly);
        }
        let mut registry = OpenPortRegistry::new();
        for &port in marking.useful_ports() {
            registry.bind(port, [0, 0, 0, 0])?;
        }
        let mut client = HideClient::new(MacAddr::station(1), registry);
        client.set_aid(ap.associate(client.mac())?);
        client.set_bssid(ap.bssid());
        let sync = |client: &mut HideClient, ap: &mut AccessPoint| -> Result<(), CoreError> {
            let msg = client.prepare_suspend()?;
            let ack = ap.process_port_message(&msg, &mut ApCtx::untimed())?;
            client.handle_ack(&ack)
        };
        if hide_mode {
            sync(&mut client, &mut ap)?;
        }

        // A scheduled-wake client deep-sleeps through out-of-window
        // beacons, so the energy model's beacon cadence stretches by
        // the schedule's interval:period ratio. Hide and PSM hear every
        // beacon.
        let heard_beacon_interval = match self.policy.schedule() {
            Some(s) => {
                self.beacon_interval * f64::from(s.interval_dtims) / f64::from(s.period_dtims)
            }
            None => self.beacon_interval,
        };
        // The frames the client receives stream straight into the
        // energy model; the AP re-marks More Data over its bursts.
        let mut received = Pass::new(
            &self.profile,
            self.trace.duration,
            heard_beacon_interval,
            MoreData::Recompute,
        );

        // --- walk the beacon schedule ---
        let intervals = (self.trace.duration / self.beacon_interval).ceil() as u64;
        let mut frame_iter = self.trace.frames.iter().peekable();
        let mut stats = ProtocolStats {
            beacons: 0,
            wake_intervals: 0,
            frames_delivered: 0,
            frames_consumed: 0,
            port_messages: u64::from(hide_mode),
            btim_bytes: 0,
        };
        let mut next_sync = self.sync_interval_secs;
        let mut bodies: HashMap<(u16, u16), Vec<u8>> = HashMap::new();
        let mut beacon_bytes = Vec::new();

        for i in 0..intervals {
            let interval_start = i as f64 * self.beacon_interval;
            let interval_end = interval_start + self.beacon_interval;

            // Frames arriving at the AP during this interval get
            // buffered (we treat trace times as AP arrival times here).
            while let Some(f) = frame_iter.peek() {
                if f.time >= interval_end {
                    break;
                }
                let f = frame_iter.next().expect("peeked");
                let body = bodies.entry((f.dst_port, f.len_bytes)).or_insert_with(|| {
                    UdpDatagram::new(
                        [10, 0, 0, 2],
                        [255; 4],
                        4000,
                        f.dst_port,
                        vec![0; (f.len_bytes as usize).saturating_sub(60)],
                    )
                    .to_bytes()
                });
                ap.enqueue_broadcast(BroadcastDataFrame::from_raw_body(
                    ap.bssid(),
                    body.clone(),
                    false,
                ));
            }

            // DTIM beacon at the end of the interval, over real bytes.
            ap.emit_dtim_beacon(
                i,
                &mut ApCtx::untimed()
                    .with_metrics(&mut sink)
                    .with_trace(&mut trace),
                &mut beacon_bytes,
            );
            stats.beacons += 1;
            let beacon = BeaconView::parse(&beacon_bytes).map_err(CoreError::Wifi)?;
            stats.btim_bytes += beacon.btim().map(|b| b.body_len() as u64 + 2).unwrap_or(0);

            if !hide_mode {
                // Non-HIDE policies never consult the BTIM: the wake
                // decision is burst-presence (legacy PSM) optionally
                // gated by the negotiated window (scheduled wake). An
                // out-of-window DTIM leaves the AP buffering, so the
                // burst is deferred to the next window, not dropped.
                let in_window = self.policy.schedule().is_none_or(|s| s.in_window(i));
                if !in_window {
                    continue;
                }
                let delivered = ap.drain_broadcasts(&mut ApCtx::untimed().with_metrics(&mut sink));
                if delivered.is_empty() {
                    continue;
                }
                stats.wake_intervals += 1;
                // Receive-all semantics: the radio hears the entire
                // burst; the app consumes only its useful frames.
                let mut t = interval_end;
                for frame in &delivered {
                    stats.frames_delivered += 1;
                    if client.consumes(frame) {
                        stats.frames_consumed += 1;
                    }
                    let airtime = phy::airtime_of_total_bytes(frame.len_bytes(), DataRate::R1M);
                    if t <= self.trace.duration {
                        received.push(TimelineFrame {
                            start: t,
                            airtime,
                            more_data: false,
                            hold: tau,
                        });
                    }
                    t += airtime;
                }
                if trace.is_enabled() {
                    trace.emit(
                        interval_end,
                        TraceEventKind::WakeDecision {
                            aid: client.aid().map(|a| a.value()).unwrap_or(0),
                            port: 0,
                            frame_id: stats.frames_delivered,
                            class: WakeClass::Legacy,
                            cause: WakeCause::Proper,
                        },
                    );
                }
                continue;
            }

            let decision = client.handle_beacon(&beacon)?;
            let delivered = ap.drain_broadcasts(&mut ApCtx::untimed().with_metrics(&mut sink));

            if decision == WakeDecision::WakeForBroadcast {
                stats.wake_intervals += 1;
                // The client's radio receives its useful frames from the
                // delivery burst, back to back after the beacon (model
                // accounting follows the paper: only useful frames are
                // charged, Eq. 1).
                let mut t = interval_end;
                let mut first_consumed: Option<(u16, u64)> = None;
                for frame in &delivered {
                    let consumed = client.consumes(frame);
                    stats.frames_delivered += 1;
                    if consumed {
                        stats.frames_consumed += 1;
                        if trace.is_enabled() && first_consumed.is_none() {
                            first_consumed =
                                Some((frame.udp_dst_port().unwrap_or(0), stats.frames_delivered));
                        }
                        let airtime = phy::airtime_of_total_bytes(frame.len_bytes(), DataRate::R1M);
                        if t <= self.trace.duration {
                            received.push(TimelineFrame {
                                start: t,
                                airtime,
                                more_data: false,
                                hold: tau,
                            });
                        }
                        t += airtime;
                    }
                }
                if trace.is_enabled() {
                    let (port, frame_id) = first_consumed.unwrap_or((0, 0));
                    trace.emit(
                        interval_end,
                        TraceEventKind::WakeDecision {
                            aid: client.aid().map(|a| a.value()).unwrap_or(0),
                            port,
                            frame_id,
                            class: WakeClass::Proper,
                            cause: WakeCause::Proper,
                        },
                    );
                }
                // Awake now; re-sync before suspending again if due.
                client.resume();
                if interval_end >= next_sync {
                    sync(&mut client, &mut ap)?;
                    stats.port_messages += 1;
                    next_sync += self.sync_interval_secs;
                }
            }
        }

        let received = received.finish()?;

        let msg_len = 24 + 2 + 2 * marking.useful_ports().len().min(100);
        let overhead = Overhead {
            btim_bytes_total: stats.btim_bytes as f64,
            port_messages: stats.port_messages,
            port_message_airtime: phy::airtime_of_total_bytes(msg_len, DataRate::R1M),
        };
        ap.port_table().observe_into(&mut sink);
        sink.add(Counter::PortMessages, stats.port_messages);
        let energy = received.report(&overhead, &mut sink);
        Ok(ProtocolOutcome { energy, stats })
    }

    /// The marking-based simulator configured identically, for
    /// cross-validation.
    pub fn marking_equivalent(&self) -> crate::SimulationBuilder<'a> {
        crate::SimulationBuilder::new(self.trace, self.profile)
            .solution(Solution::hide(self.useful_fraction))
            .sync_interval_secs(self.sync_interval_secs)
            .dtim_period(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hide_energy::profile::NEXUS_ONE;
    use hide_obs::{NoopSink, NoopTrace};
    use hide_traces::scenario::Scenario;

    #[test]
    fn protocol_run_completes_with_sane_stats() {
        let trace = Scenario::CsDept.generate(300.0, 81);
        let outcome = ProtocolSimulation::new(&trace, NEXUS_ONE, 0.10)
            .run(NoopSink, NoopTrace)
            .unwrap();
        assert!(outcome.stats.beacons >= 2929); // 300 s / 102.4 ms
        assert!(outcome.stats.wake_intervals > 0);
        assert!(outcome.stats.frames_consumed > 0);
        assert!(outcome.stats.frames_delivered >= outcome.stats.frames_consumed);
        assert!(outcome.stats.port_messages >= 1);
        assert!(outcome.energy.breakdown.total() > 0.0);
    }

    #[test]
    fn protocol_agrees_with_marking_simulator() {
        // The ground-truth protocol run and the fast marking-based
        // simulator must agree on the consumed-frame count exactly and
        // on energy within a small tolerance (delivery times differ by
        // at most one beacon interval per frame).
        let trace = Scenario::Starbucks.generate(600.0, 83);
        let protocol = ProtocolSimulation::new(&trace, NEXUS_ONE, 0.10);
        let outcome = protocol.run(NoopSink, NoopTrace).unwrap();
        let marked = protocol.marking_equivalent().run(NoopSink).unwrap();

        assert_eq!(
            outcome.stats.frames_consumed as usize, marked.received_frames,
            "consumed-frame counts diverge"
        );
        let a = outcome.energy.breakdown.total();
        let b = marked.energy.breakdown.total();
        assert!((a - b).abs() / b < 0.10, "protocol {a} J vs marking {b} J");
        let sa = outcome.energy.suspend_fraction();
        let sb = marked.energy.suspend_fraction();
        assert!((sa - sb).abs() < 0.05, "suspend {sa} vs {sb}");
    }

    #[test]
    fn zero_useful_fraction_never_wakes() {
        let trace = Scenario::Wrl.generate(200.0, 85);
        let outcome = ProtocolSimulation::new(&trace, NEXUS_ONE, 0.0)
            .run(NoopSink, NoopTrace)
            .unwrap();
        assert_eq!(outcome.stats.wake_intervals, 0);
        assert_eq!(outcome.stats.frames_consumed, 0);
        assert!(outcome.energy.suspend_fraction() > 0.95);
    }

    #[test]
    fn observed_run_matches_plain_and_records_protocol_metrics() {
        use hide_obs::{Counter, Recorder};
        let trace = Scenario::Starbucks.generate(120.0, 89);
        let sim = ProtocolSimulation::new(&trace, NEXUS_ONE, 0.10);
        let plain = sim.run(NoopSink, NoopTrace).unwrap();
        let mut rec = Recorder::new();
        let observed = sim.run(&mut rec, NoopTrace).unwrap();
        assert_eq!(plain, observed);
        assert_eq!(rec.counter(Counter::BtimBeacons), observed.stats.beacons);
        assert_eq!(rec.counter(Counter::BtimBytes), observed.stats.btim_bytes);
        // The AP drains its buffer every DTIM regardless of whether our
        // client is awake, so the AP-side count is a superset of the
        // frames our client saw.
        assert!(rec.counter(Counter::ApFramesDelivered) >= observed.stats.frames_delivered);
        assert_eq!(
            rec.counter(Counter::PortMessages),
            observed.stats.port_messages
        );
        assert_eq!(rec.counter(Counter::EnergyEvals), 1);
        assert!(rec.counter(Counter::PortLookups) > 0);
    }

    #[test]
    fn psm_never_beats_hide_and_carries_no_hide_overhead() {
        // Legacy PSM wakes for every buffered burst and hears the whole
        // thing, so on any traffic-bearing trace it spends at least as
        // much as HIDE — while transmitting zero port messages and
        // hearing zero BTIM bytes.
        use hide_policy::WakePolicy;
        let trace = Scenario::Starbucks.generate(300.0, 91);
        let base = ProtocolSimulation::new(&trace, NEXUS_ONE, 0.10);
        let hide = base.clone().run(NoopSink, NoopTrace).unwrap();
        let psm = base
            .policy(WakePolicy::LegacyPsm)
            .run(NoopSink, NoopTrace)
            .unwrap();
        assert_eq!(psm.stats.port_messages, 0);
        assert_eq!(psm.stats.btim_bytes, 0);
        assert!(psm.stats.wake_intervals >= hide.stats.wake_intervals);
        assert!(psm.stats.frames_delivered > psm.stats.frames_consumed);
        assert!(
            psm.energy.breakdown.total() >= hide.energy.breakdown.total(),
            "psm {} J vs hide {} J",
            psm.energy.breakdown.total(),
            hide.energy.breakdown.total()
        );
    }

    #[test]
    fn scheduled_wake_defers_bursts_into_windows() {
        // A 1-in-8 schedule wakes in at most 1/8 of the DTIMs, and the
        // AP buffers across closed windows, so every delivered frame
        // still arrives (at the next open window).
        use hide_policy::{ScheduleConfig, WakePolicy};
        let trace = Scenario::Starbucks.generate(300.0, 91);
        let base = ProtocolSimulation::new(&trace, NEXUS_ONE, 0.10);
        let psm = base
            .clone()
            .policy(WakePolicy::LegacyPsm)
            .run(NoopSink, NoopTrace)
            .unwrap();
        let sched = base
            .policy(WakePolicy::ScheduledWake(ScheduleConfig {
                interval_dtims: 8,
                period_dtims: 1,
            }))
            .run(NoopSink, NoopTrace)
            .unwrap();
        assert!(sched.stats.wake_intervals <= sched.stats.beacons / 8 + 1);
        assert!(sched.stats.wake_intervals < psm.stats.wake_intervals);
        // Buffering across windows preserves delivery.
        assert_eq!(sched.stats.frames_delivered, psm.stats.frames_delivered);
        assert_eq!(sched.stats.btim_bytes, 0);
        // Fewer wake cycles and 1/8 the heard beacons: scheduled wake
        // undercuts receive-all PSM.
        assert!(sched.energy.breakdown.total() < psm.energy.breakdown.total());
    }

    #[test]
    fn degenerate_trace_is_error_not_panic() {
        // Regression: a zero-duration trace used to panic on the
        // timeline `expect` although `run` returns `Result`.
        let trace = Trace::new("bad", 0.0, vec![]);
        let err = ProtocolSimulation::new(&trace, NEXUS_ONE, 0.1)
            .run(NoopSink, NoopTrace)
            .unwrap_err();
        assert!(matches!(err, SimError::Energy(_)), "{err:?}");
    }

    #[test]
    fn btim_bytes_accumulate_per_beacon() {
        let trace = Scenario::Starbucks.generate(60.0, 87);
        let outcome = ProtocolSimulation::new(&trace, NEXUS_ONE, 0.10)
            .run(NoopSink, NoopTrace)
            .unwrap();
        // Every beacon carries at least the 4-byte empty BTIM.
        assert!(outcome.stats.btim_bytes >= outcome.stats.beacons * 4);
    }
}
