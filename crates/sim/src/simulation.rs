//! The trace-driven simulation: trace + solution → the frames the
//! client receives, streamed through the one-pass energy model → energy
//! report.

use crate::error::SimError;
use crate::solution::Solution;
use hide_core::CoreError;
use hide_energy::profile::DeviceProfile;
use hide_energy::timeline::{EnergyError, Overhead, TimelineFrame};
use hide_energy::{EnergyReport, Evaluation, MoreData};
use hide_obs::{Counter, Distribution, MetricsSink};
use hide_traces::record::{Trace, TraceFrame};
use hide_traces::unicast::UnicastTrace;
use hide_traces::useful::Usefulness;
use hide_wifi::frame::UdpPortMessage;
use hide_wifi::mac::MacAddr;
use hide_wifi::phy::{self, DataRate};

/// How frames are marked useful for a target fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkingStrategy {
    /// Choose a port set whose traffic share approximates the target —
    /// faithful to the HIDE mechanism (default).
    PortBased,
    /// Port-based with a seeded random port order, so different clients
    /// get different (equally valid) useful sets.
    PortBasedSeeded {
        /// Seed choosing the port set.
        seed: u64,
    },
    /// Mark frames i.i.d. with the target probability (ablation).
    Bernoulli {
        /// RNG seed for the marking.
        seed: u64,
    },
}

/// Configures and runs one simulation.
///
/// Defaults follow the paper's evaluation settings (Section VI.A.2):
/// UDP Port Messages every 10 s at 1 Mbit/s carrying 100 ports, beacon
/// interval 102.4 ms.
#[derive(Debug, Clone)]
pub struct SimulationBuilder<'a> {
    trace: &'a Trace,
    profile: DeviceProfile,
    solution: Solution,
    sync_interval_secs: f64,
    ports_per_message: usize,
    port_message_rate: DataRate,
    beacon_interval: f64,
    dtim_period: u8,
    network_aid_span: u16,
    marking: MarkingStrategy,
    unicast: Option<&'a UnicastTrace>,
}

impl<'a> SimulationBuilder<'a> {
    /// Starts a simulation of `trace` on a device with `profile`,
    /// defaulting to the receive-all solution.
    pub fn new(trace: &'a Trace, profile: DeviceProfile) -> Self {
        SimulationBuilder {
            trace,
            profile,
            solution: Solution::ReceiveAll,
            sync_interval_secs: 10.0,
            ports_per_message: 100,
            port_message_rate: DataRate::R1M,
            beacon_interval: hide_wifi::timing::TIME_UNIT_SECS * 100.0,
            dtim_period: 1,
            network_aid_span: 10,
            marking: MarkingStrategy::PortBased,
            unicast: None,
        }
    }

    /// Selects the solution to simulate.
    pub fn solution(mut self, solution: Solution) -> Self {
        self.solution = solution;
        self
    }

    /// Sets the UDP Port Message sending interval `1/f` (paper: 10 s).
    pub fn sync_interval_secs(mut self, secs: f64) -> Self {
        self.sync_interval_secs = secs;
        self
    }

    /// Sets the number of ports per UDP Port Message (paper: 100,
    /// "heavy usage").
    pub fn ports_per_message(mut self, ports: usize) -> Self {
        self.ports_per_message = ports;
        self
    }

    /// Sets the data rate of UDP Port Messages (paper: 1 Mbit/s).
    pub fn port_message_rate(mut self, rate: DataRate) -> Self {
        self.port_message_rate = rate;
        self
    }

    /// Sets the beacon interval in seconds.
    pub fn beacon_interval(mut self, secs: f64) -> Self {
        self.beacon_interval = secs;
        self
    }

    /// Sets the DTIM period in beacon intervals (default 1; the paper
    /// notes typical values of 1–3).
    ///
    /// With a period above 1, trace times are interpreted as AP arrival
    /// times: the AP buffers each frame until the next DTIM beacon and
    /// delivers the batch back to back, which coalesces wake-ups at the
    /// cost of delivery latency.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn dtim_period(mut self, period: u8) -> Self {
        assert!(period > 0, "DTIM period must be positive");
        self.dtim_period = period;
        self
    }

    /// Sets the highest AID in the network, which determines the BTIM
    /// bitmap length and hence the per-beacon overhead.
    pub fn network_aid_span(mut self, span: u16) -> Self {
        self.network_aid_span = span;
        self
    }

    /// Selects the useful-marking strategy.
    pub fn marking(mut self, marking: MarkingStrategy) -> Self {
        self.marking = marking;
        self
    }

    /// Overlays unicast traffic for this client. Unicast frames are
    /// announced through the standard TIM and wake the device under
    /// *every* solution (HIDE only manages broadcast traffic); each is
    /// delivered via PS-Poll right after the first beacon following its
    /// arrival at the AP.
    pub fn unicast(mut self, unicast: &'a UnicastTrace) -> Self {
        self.unicast = Some(unicast);
        self
    }

    /// Runs the simulation, streaming its metrics into `sink`: counts
    /// the run, its trace/delivered/hidden/wake frames and UDP Port
    /// Messages, feeds the per-run delivered and hidden counts into
    /// their distributions, and forwards the sink into the energy model
    /// ([`hide_energy::Evaluation::report`]).
    ///
    /// The trace's frames stream once through the one-pass evaluator
    /// ([`hide_energy::evaluate`]); only a unicast overlay, which
    /// reorders the frames, collects them first.
    ///
    /// The sink is taken by value, as [`hide_core::ap::ApCtx`] takes
    /// its sinks: pass [`NoopSink`](hide_obs::NoopSink) for an
    /// uninstrumented run (its calls compile to nothing) or
    /// `&mut recorder` to keep the metrics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Energy`] when the trace is degenerate (zero
    /// duration or unsorted frames) and [`SimError::Core`] when a UDP
    /// Port Message cannot carry [`Self::ports_per_message`] ports
    /// (more than `OpenUdpPorts::MAX_PORTS`).
    pub fn run<S: MetricsSink>(&self, mut sink: S) -> Result<SimulationResult, SimError> {
        let tau = self.profile.wakelock_secs;
        let received = |f: &TraceFrame, hold: f64| TimelineFrame {
            start: f.time,
            airtime: f.airtime(),
            more_data: f.more_data,
            hold,
        };
        let frames = self.trace.frames.iter();

        // The reception timeline of the chosen solution, one frame at a
        // time. HIDE and hybrid frames are the ones the AP filtered.
        let (achieved, evaluation) = match self.solution {
            Solution::ReceiveAll => (None, self.evaluate(false, frames.map(|f| received(f, tau)))),
            Solution::ClientSide { useful_fraction } => {
                let marking = self.mark_useful(useful_fraction);
                let frames = frames
                    .zip(marking.flags())
                    .map(|(f, &useful)| received(f, if useful { tau } else { 0.0 }));
                (
                    Some(marking.achieved_fraction()),
                    self.evaluate(false, frames),
                )
            }
            Solution::Hide { useful_fraction } => {
                let marking = self.mark_useful(useful_fraction);
                let frames = frames
                    .zip(marking.flags())
                    .filter(|&(_, &useful)| useful)
                    .map(|(f, _)| received(f, tau));
                (
                    Some(marking.achieved_fraction()),
                    self.evaluate(true, frames),
                )
            }
            Solution::Hybrid {
                delivered_fraction,
                useful_fraction,
            } => {
                // The AP delivers the port-matching share...
                let delivered = self.mark_useful(delivered_fraction);
                // ...and the client's driver keeps only the app-useful
                // sub-share, chosen port-consistently within the
                // delivered frames.
                let within = if delivered_fraction > 0.0 {
                    (useful_fraction / delivered_fraction).min(1.0)
                } else {
                    0.0
                };
                let app = Usefulness::port_based_within(self.trace, &delivered, within);
                let achieved = if !self.trace.is_empty() {
                    app.useful_count() as f64 / self.trace.len() as f64
                } else {
                    0.0
                };
                let frames = frames
                    .zip(delivered.flags())
                    .filter(|&(_, &delivered)| delivered)
                    .zip(app.flags())
                    .map(|((f, _), &useful)| received(f, if useful { tau } else { 0.0 }));
                (Some(achieved), self.evaluate(true, frames))
            }
        };
        let evaluation = evaluation?;

        let overhead = if self.solution.has_hide_overhead() {
            self.hide_overhead(evaluation.beacons)?
        } else {
            Overhead::NONE
        };

        let received_frames = evaluation.frames;
        sink.incr(Counter::SimsRun);
        sink.add(Counter::TraceFrames, self.trace.len() as u64);
        sink.add(Counter::FramesDelivered, received_frames as u64);
        let hidden = (self.trace.len() - received_frames.min(self.trace.len())) as u64;
        sink.add(Counter::FramesHidden, hidden);
        sink.add(Counter::FramesWake, evaluation.wake_frames as u64);
        sink.add(Counter::PortMessages, overhead.port_messages);
        sink.observe(Distribution::DeliveredPerRun, received_frames as u64);
        sink.observe(Distribution::HiddenPerRun, hidden);

        let energy = evaluation.report(&overhead, &mut sink);
        Ok(SimulationResult {
            solution: self.solution,
            scenario: self.trace.scenario.clone(),
            device: self.profile.name.to_string(),
            energy,
            achieved_useful_fraction: achieved,
            received_frames,
            wake_frames: evaluation.wake_frames,
            trace_frames: self.trace.len(),
        })
    }

    /// Evaluates the frames a solution delivers, in trace order, after
    /// the DTIM batching and the unicast overlay this run configures.
    fn evaluate(
        &self,
        filtered_by_ap: bool,
        frames: impl Iterator<Item = TimelineFrame>,
    ) -> Result<Evaluation<'_>, EnergyError> {
        // The More Data bits follow the frames actually delivered to
        // this client, not the raw trace.
        let more_data = if filtered_by_ap || self.dtim_period > 1 {
            MoreData::Recompute
        } else {
            MoreData::AsGiven
        };
        if self.dtim_period > 1 {
            // The AP buffers frames and delivers them in a burst after
            // each DTIM beacon.
            let duration = self.trace.duration;
            let frames = batch_at_dtim(frames, self.beacon_interval, self.dtim_period)
                .filter(move |f| f.start <= duration);
            self.overlay_unicast(more_data, frames)
        } else {
            self.overlay_unicast(more_data, frames)
        }
    }

    /// Adds the unicast overlay, if any: each unicast frame is delivered
    /// right after the first beacon that announces it, waking the device
    /// regardless of solution. The overlay reorders the frames, so only
    /// this path collects them.
    fn overlay_unicast(
        &self,
        more_data: MoreData,
        frames: impl Iterator<Item = TimelineFrame>,
    ) -> Result<Evaluation<'_>, EnergyError> {
        let (duration, beacon_interval) = (self.trace.duration, self.beacon_interval);
        let Some(unicast) = self.unicast else {
            return hide_energy::evaluate(
                &self.profile,
                duration,
                beacon_interval,
                more_data,
                frames,
            );
        };
        let mut all = Vec::with_capacity(self.trace.len() + unicast.arrivals().len());
        all.extend(frames);
        let airtime = phy::airtime_of_total_bytes(unicast.frame_bytes() as usize, DataRate::R2M);
        for &arrival in unicast.arrivals() {
            let beacon_idx = (arrival / beacon_interval).floor() + 1.0;
            let delivery = beacon_idx * beacon_interval;
            if delivery <= duration {
                all.push(TimelineFrame {
                    start: delivery,
                    airtime,
                    more_data: false,
                    hold: self.profile.wakelock_secs,
                });
            }
        }
        all.sort_by(|a, b| a.start.total_cmp(&b.start));
        hide_energy::evaluate(&self.profile, duration, beacon_interval, more_data, all)
    }

    fn mark_useful(&self, fraction: f64) -> Usefulness {
        match self.marking {
            MarkingStrategy::PortBased => Usefulness::port_based(self.trace, fraction),
            MarkingStrategy::PortBasedSeeded { seed } => {
                Usefulness::port_based_seeded(self.trace, fraction, seed)
            }
            MarkingStrategy::Bernoulli { seed } => {
                Usefulness::bernoulli(self.trace, fraction, seed)
            }
        }
    }

    /// The `Eo` inputs of Eqs. (15)–(19) for a run of `beacons` beacons.
    fn hide_overhead(&self, beacons: u64) -> Result<Overhead, CoreError> {
        // One UDP Port Message per sync interval (Eq. 18, M = f · T).
        let port_messages = (self.trace.duration / self.sync_interval_secs).ceil() as u64;
        // Eq. (19): the message's MAC bytes, preceded by the PHY
        // preamble on air. Build a real frame so the length is honest.
        let msg = UdpPortMessage::new(
            MacAddr::station(1),
            MacAddr::station(0),
            (0..self.ports_per_message).map(|i| 1024u16.wrapping_add(i as u16)),
        )?;
        let port_message_airtime =
            phy::airtime_of_total_bytes(msg.len_bytes(), self.port_message_rate);

        // Eq. (16): BTIM bytes in every beacon. The bitmap spans AIDs
        // 1..=network_aid_span; header (2) + offset (1) + bitmap bytes.
        let bitmap_bytes = (self.network_aid_span as usize) / 8 + 1;
        let btim_bytes_per_beacon = (2 + 1 + bitmap_bytes) as f64;
        Ok(Overhead {
            btim_bytes_total: btim_bytes_per_beacon * beacons as f64,
            port_messages,
            port_message_airtime,
        })
    }
}

/// Reschedules frame delivery to post-DTIM bursts: each frame goes on
/// air at the first DTIM beacon after its (AP) arrival time, queued
/// back to back behind earlier deliveries.
fn batch_at_dtim(
    frames: impl Iterator<Item = TimelineFrame>,
    beacon_interval: f64,
    period: u8,
) -> impl Iterator<Item = TimelineFrame> {
    let dtim_interval = beacon_interval * period as f64;
    frames.scan(0.0f64, move |cursor, mut f| {
        let next_dtim = ((f.start / dtim_interval).floor() + 1.0) * dtim_interval;
        f.start = next_dtim.max(*cursor);
        *cursor = f.start + f.airtime;
        Some(f)
    })
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// The simulated solution.
    pub solution: Solution,
    /// Scenario label of the trace.
    pub scenario: String,
    /// Device profile name.
    pub device: String,
    /// Full energy report (Eq. 2 breakdown plus state statistics).
    pub energy: EnergyReport,
    /// The useful fraction actually achieved by the marking (None for
    /// receive-all).
    pub achieved_useful_fraction: Option<f64>,
    /// Frames the client's radio received.
    pub received_frames: usize,
    /// Frames that woke the system (held a nonzero wakelock).
    pub wake_frames: usize,
    /// Total frames in the trace.
    pub trace_frames: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hide_energy::profile::{GALAXY_S4, NEXUS_ONE};
    use hide_obs::NoopSink;
    use hide_traces::scenario::Scenario;

    fn trace() -> Trace {
        Scenario::CsDept.generate(600.0, 17)
    }

    #[test]
    fn receive_all_receives_everything() {
        let t = trace();
        let r = SimulationBuilder::new(&t, NEXUS_ONE).run(NoopSink).unwrap();
        assert_eq!(r.received_frames, t.len());
        assert_eq!(r.wake_frames, t.len());
        assert_eq!(r.energy.breakdown.overhead, 0.0);
        assert!(r.achieved_useful_fraction.is_none());
    }

    #[test]
    fn hide_receives_only_useful() {
        let t = trace();
        let r = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::hide(0.10))
            .run(NoopSink)
            .unwrap();
        assert!(r.received_frames < t.len());
        assert_eq!(r.received_frames, r.wake_frames);
        let achieved = r.achieved_useful_fraction.unwrap();
        assert!((achieved - 0.10).abs() < 0.06, "achieved {achieved}");
        assert!(r.energy.breakdown.overhead > 0.0);
    }

    #[test]
    fn client_side_receives_all_but_wakes_for_useful() {
        let t = trace();
        let r = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::client_side(0.10))
            .run(NoopSink)
            .unwrap();
        assert_eq!(r.received_frames, t.len());
        assert!(r.wake_frames < t.len());
        assert_eq!(r.energy.breakdown.overhead, 0.0);
    }

    #[test]
    fn client_side_lower_bound_never_holds_wakelocks() {
        let t = trace();
        let r = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::client_side_lower_bound())
            .run(NoopSink)
            .unwrap();
        assert_eq!(r.wake_frames, 0);
        assert_eq!(r.energy.breakdown.wakelock, 0.0);
        // But state transfers still cost plenty.
        assert!(r.energy.breakdown.state_transfer > 0.0);
    }

    #[test]
    fn hide_beats_receive_all_and_client_side() {
        let t = trace();
        let all = SimulationBuilder::new(&t, NEXUS_ONE).run(NoopSink).unwrap();
        let cs = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::client_side_lower_bound())
            .run(NoopSink)
            .unwrap();
        let hide = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::hide(0.10))
            .run(NoopSink)
            .unwrap();
        assert!(hide.energy.breakdown.total() < all.energy.breakdown.total());
        assert!(hide.energy.breakdown.total() < cs.energy.breakdown.total());
    }

    #[test]
    fn lower_useful_fraction_saves_more() {
        let t = trace();
        let run = |f: f64| {
            SimulationBuilder::new(&t, NEXUS_ONE)
                .solution(Solution::hide(f))
                .run(NoopSink)
                .unwrap()
                .energy
                .breakdown
                .total()
        };
        assert!(run(0.02) < run(0.10));
    }

    #[test]
    fn hide_suspends_more_than_alternatives() {
        let t = trace();
        let all = SimulationBuilder::new(&t, NEXUS_ONE).run(NoopSink).unwrap();
        let hide = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::hide(0.02))
            .run(NoopSink)
            .unwrap();
        assert!(hide.energy.suspend_fraction() > all.energy.suspend_fraction());
    }

    #[test]
    fn s4_client_side_saves_less_than_on_nexus() {
        // The paper: state transfers are pricier on the S4, so the
        // client-side solution helps much less there.
        let t = Scenario::Classroom.generate(900.0, 23);
        let saving = |p| {
            let all = SimulationBuilder::new(&t, p).run(NoopSink).unwrap();
            let cs = SimulationBuilder::new(&t, p)
                .solution(Solution::client_side_lower_bound())
                .run(NoopSink)
                .unwrap();
            cs.energy.saving_vs(&all.energy)
        };
        assert!(saving(GALAXY_S4) < saving(NEXUS_ONE));
    }

    #[test]
    fn overhead_grows_with_sync_frequency() {
        let t = trace();
        let run = |interval: f64| {
            SimulationBuilder::new(&t, NEXUS_ONE)
                .solution(Solution::hide(0.10))
                .sync_interval_secs(interval)
                .run(NoopSink)
                .unwrap()
                .energy
                .breakdown
                .overhead
        };
        assert!(run(1.0) > run(10.0));
        assert!(run(10.0) > run(60.0));
    }

    #[test]
    fn overhead_is_negligible_at_paper_settings() {
        // The paper's third observation: Eo is negligible even at heavy
        // usage (10 s interval, 100 ports).
        let t = trace();
        let r = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::hide(0.10))
            .run(NoopSink)
            .unwrap();
        assert!(r.energy.breakdown.overhead < 0.05 * r.energy.breakdown.total());
    }

    #[test]
    fn bernoulli_marking_close_to_port_based() {
        let t = Scenario::Wml.generate(1800.0, 29);
        let pb = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::hide(0.10))
            .run(NoopSink)
            .unwrap();
        let bn = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::hide(0.10))
            .marking(MarkingStrategy::Bernoulli { seed: 5 })
            .run(NoopSink)
            .unwrap();
        let a = pb.energy.breakdown.total();
        let b = bn.energy.breakdown.total();
        assert!((a - b).abs() / a < 0.35, "port-based {a} vs bernoulli {b}");
    }

    #[test]
    fn degenerate_trace_is_error() {
        let t = Trace::new("bad", 0.0, vec![]);
        let err = SimulationBuilder::new(&t, NEXUS_ONE)
            .run(NoopSink)
            .unwrap_err();
        assert!(matches!(err, SimError::Energy(_)), "{err:?}");
    }

    #[test]
    fn port_list_beyond_one_element_is_error_not_panic() {
        // Regression: 128 ports used to panic on the port-message
        // `expect`; the Open UDP Ports element holds at most 127.
        use hide_wifi::ie::OpenUdpPorts;
        let t = trace();
        let hide = |ports| {
            SimulationBuilder::new(&t, NEXUS_ONE)
                .solution(Solution::hide(0.1))
                .ports_per_message(ports)
                .run(NoopSink)
        };
        assert_eq!(OpenUdpPorts::MAX_PORTS, 127);
        assert!(hide(127).is_ok());
        let err = hide(128).unwrap_err();
        assert!(matches!(err, SimError::Core(_)), "{err:?}");
    }

    #[test]
    fn hybrid_between_hide_levels() {
        // hybrid(10%, 4%): receives like HIDE:10% but wakes like a
        // client-side filter at 4% — energy must land between HIDE:10%
        // and HIDE:4%.
        let t = trace();
        let hide10 = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::hide(0.10))
            .run(NoopSink)
            .unwrap();
        let hide4 = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::hide(0.04))
            .run(NoopSink)
            .unwrap();
        let hybrid = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::hybrid(0.10, 0.04))
            .run(NoopSink)
            .unwrap();
        assert_eq!(hybrid.received_frames, hide10.received_frames);
        assert!(hybrid.wake_frames < hybrid.received_frames);
        let (e10, e4, eh) = (
            hide10.energy.breakdown.total(),
            hide4.energy.breakdown.total(),
            hybrid.energy.breakdown.total(),
        );
        assert!(eh < e10, "hybrid {eh} vs HIDE:10% {e10}");
        assert!(eh > e4 * 0.95, "hybrid {eh} vs HIDE:4% {e4}");
    }

    #[test]
    fn hybrid_achieved_fraction_is_app_level() {
        let t = trace();
        let hybrid = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::hybrid(0.10, 0.04))
            .run(NoopSink)
            .unwrap();
        let achieved = hybrid.achieved_useful_fraction.unwrap();
        assert!((achieved - 0.04).abs() < 0.03, "achieved {achieved}");
    }

    #[test]
    fn dtim_batching_keeps_frames_and_similar_wake_count() {
        // Batching coalesces same-window frames but can also split a
        // previously-merged wake session by delaying a frame past the
        // prior wakelock; on a real trace the net wake count stays in
        // the same ballpark.
        let t = trace();
        let base = SimulationBuilder::new(&t, NEXUS_ONE).run(NoopSink).unwrap();
        let batched = SimulationBuilder::new(&t, NEXUS_ONE)
            .dtim_period(3)
            .run(NoopSink)
            .unwrap();
        let (b, a) = (base.energy.resume_count, batched.energy.resume_count);
        assert!(
            a as f64 <= b as f64 * 1.3 + 5.0,
            "batched resumes {a} vs base {b}"
        );
        // Batching never loses frames beyond the final interval.
        assert!(batched.received_frames >= base.received_frames - 10);
        // Delivery times stay sorted and within the trace.
        assert_eq!(batched.trace_frames, base.trace_frames);
    }

    #[test]
    fn dtim_batching_delivers_in_bursts() {
        // Frames spread inside one DTIM window leave back to back right
        // after the next DTIM beacon.
        let frames = vec![
            hide_traces::record::TraceFrame {
                time: 0.01,
                len_bytes: 300,
                rate: hide_wifi::phy::DataRate::R1M,
                dst_port: 1,
                more_data: false,
            },
            hide_traces::record::TraceFrame {
                time: 0.05,
                len_bytes: 300,
                rate: hide_wifi::phy::DataRate::R1M,
                dst_port: 2,
                more_data: false,
            },
        ];
        let t = Trace::new("burst", 10.0, frames);
        let r = SimulationBuilder::new(&t, NEXUS_ONE)
            .dtim_period(2)
            .run(NoopSink)
            .unwrap();
        // Both frames delivered, one wake session.
        assert_eq!(r.received_frames, 2);
        assert_eq!(r.energy.resume_count, 1);
    }

    #[test]
    #[should_panic(expected = "DTIM period")]
    fn zero_dtim_period_panics() {
        let t = trace();
        let _ = SimulationBuilder::new(&t, NEXUS_ONE).dtim_period(0);
    }

    #[test]
    fn unicast_wakes_all_solutions_equally() {
        use hide_traces::unicast::UnicastTrace;
        let t = trace();
        let unicast = UnicastTrace::poisson(t.duration, 0.2, 13);
        let hide_quiet = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::hide(0.02))
            .run(NoopSink)
            .unwrap();
        let hide_busy = SimulationBuilder::new(&t, NEXUS_ONE)
            .solution(Solution::hide(0.02))
            .unicast(&unicast)
            .run(NoopSink)
            .unwrap();
        assert!(hide_busy.energy.breakdown.total() > hide_quiet.energy.breakdown.total());
        assert!(hide_busy.energy.resume_count >= hide_quiet.energy.resume_count);
        assert!(hide_busy.energy.suspend_fraction() < hide_quiet.energy.suspend_fraction());
    }

    #[test]
    fn unicast_dilutes_hide_savings() {
        use hide_traces::unicast::UnicastTrace;
        let t = trace();
        let saving_at = |rate: f64| {
            let unicast = UnicastTrace::poisson(t.duration, rate, 13);
            let all = SimulationBuilder::new(&t, NEXUS_ONE)
                .unicast(&unicast)
                .run(NoopSink)
                .unwrap();
            let hide = SimulationBuilder::new(&t, NEXUS_ONE)
                .solution(Solution::hide(0.10))
                .unicast(&unicast)
                .run(NoopSink)
                .unwrap();
            hide.energy.saving_vs(&all.energy)
        };
        // Heavy unicast keeps the device awake anyway, so HIDE's
        // broadcast filtering matters less.
        assert!(saving_at(0.0) > saving_at(2.0));
    }

    #[test]
    fn empty_unicast_is_a_noop() {
        use hide_traces::unicast::UnicastTrace;
        let t = trace();
        let none = UnicastTrace::none(t.duration);
        let with = SimulationBuilder::new(&t, NEXUS_ONE)
            .unicast(&none)
            .run(NoopSink)
            .unwrap();
        let without = SimulationBuilder::new(&t, NEXUS_ONE).run(NoopSink).unwrap();
        assert_eq!(
            with.energy.breakdown.total(),
            without.energy.breakdown.total()
        );
    }
}
