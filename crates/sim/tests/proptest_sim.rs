//! Property-based tests of simulator invariants over randomly
//! generated traces.

use hide_energy::profile::{GALAXY_S4, NEXUS_ONE};
use hide_obs::{Counter, NoopSink, Recorder};
use hide_sim::solution::Solution;
use hide_sim::SimulationBuilder;
use hide_traces::record::{Trace, TraceFrame};
use hide_wifi::phy::DataRate;
use proptest::collection::vec;
use proptest::prelude::*;

/// A small random trace: gaps (s), lengths (bytes) and ports.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    vec((0.01f64..5.0, 100u16..800, 1u16..40), 1..80).prop_map(|entries| {
        let mut t = 0.5;
        let frames: Vec<TraceFrame> = entries
            .into_iter()
            .map(|(gap, len, port)| {
                t += gap;
                TraceFrame {
                    time: t,
                    len_bytes: len,
                    rate: DataRate::R1M,
                    dst_port: port,
                    more_data: false,
                }
            })
            .collect();
        let duration = t + 10.0;
        let mut trace = Trace::new("prop", duration, frames);
        trace.assign_more_data(0.1024);
        trace
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// HIDE essentially never uses more energy than receive-all on the
    /// same trace. Frame filtering is *almost* monotone in the state
    /// machine: a dropped frame can occasionally convert a cheap
    /// wakelock renewal into a fresh suspend/resume cycle or an aborted
    /// suspend, each worth at most one boundary premium (see the
    /// `machine_energy_bounded_under_subset` property in `hide-energy`).
    #[test]
    fn hide_never_beats_receive_all_backwards(
        trace in trace_strategy(),
        fraction in 0.0f64..0.5,
        s4 in any::<bool>(),
    ) {
        let profile = if s4 { GALAXY_S4 } else { NEXUS_ONE };
        let all = SimulationBuilder::new(&trace, profile).run(NoopSink).unwrap();
        let hide = SimulationBuilder::new(&trace, profile)
            .solution(Solution::hide(fraction))
            .run(NoopSink).unwrap();
        // Compare the filtering-sensitive components; Eo is the price
        // of the protocol and Eb is identical by construction.
        let filtered = |r: &hide_sim::SimulationResult| {
            r.energy.breakdown.frames
                + r.energy.breakdown.wakelock
                + r.energy.breakdown.state_transfer
        };
        let extra_boundaries = (hide.energy.resume_count
            + hide.energy.aborted_suspends)
            .saturating_sub(all.energy.resume_count + all.energy.aborted_suspends)
            as f64;
        let per_boundary = profile.wake_cycle_energy()
            + profile.active_idle_power * (profile.wakelock_secs + profile.resume_secs);
        prop_assert!(
            filtered(&hide) <= filtered(&all) + extra_boundaries * per_boundary + 1e-9,
            "HIDE {} vs receive-all {}",
            filtered(&hide),
            filtered(&all)
        );
        prop_assert!(hide.received_frames <= all.received_frames);
        prop_assert!(
            hide.energy.suspend_fraction() >= all.energy.suspend_fraction() - 1e-9
        );
    }

    /// The received-frame count always matches the marking exactly.
    #[test]
    fn received_matches_marking(trace in trace_strategy(), fraction in 0.0f64..1.0) {
        let r = SimulationBuilder::new(&trace, NEXUS_ONE)
            .solution(Solution::hide(fraction))
            .run(NoopSink).unwrap();
        let achieved = r.achieved_useful_fraction.unwrap();
        let expected = (achieved * trace.len() as f64).round() as usize;
        prop_assert_eq!(r.received_frames, expected);
        prop_assert_eq!(r.wake_frames, r.received_frames);
    }

    /// Client-side receives everything but wakes only for useful
    /// frames; its radio energy equals receive-all's.
    #[test]
    fn client_side_radio_equals_receive_all(trace in trace_strategy()) {
        let all = SimulationBuilder::new(&trace, NEXUS_ONE).run(NoopSink).unwrap();
        let cs = SimulationBuilder::new(&trace, NEXUS_ONE)
            .solution(Solution::client_side_lower_bound())
            .run(NoopSink).unwrap();
        prop_assert_eq!(cs.received_frames, all.received_frames);
        prop_assert_eq!(cs.wake_frames, 0);
        prop_assert!((cs.energy.breakdown.frames - all.energy.breakdown.frames).abs() < 1e-9);
        prop_assert_eq!(cs.energy.breakdown.wakelock, 0.0);
    }

    /// Energy reports are always finite and non-negative, for every
    /// solution, on arbitrary traces.
    #[test]
    fn all_solutions_produce_sane_reports(trace in trace_strategy()) {
        for solution in [
            Solution::ReceiveAll,
            Solution::client_side_lower_bound(),
            Solution::client_side(0.3),
            Solution::hide(0.3),
            Solution::hybrid(0.3, 0.1),
        ] {
            let r = SimulationBuilder::new(&trace, NEXUS_ONE)
                .solution(solution)
                .run(NoopSink)
                .unwrap();
            let total = r.energy.breakdown.total();
            prop_assert!(total.is_finite() && total >= 0.0, "{solution}: {total}");
            let sf = r.energy.suspend_fraction();
            prop_assert!((0.0..=1.0).contains(&sf), "{solution}: suspend {sf}");
        }
    }

    /// DTIM batching never changes how many frames exist, only when
    /// they are delivered (modulo the final-interval spill).
    #[test]
    fn dtim_batching_preserves_frames(trace in trace_strategy(), period in 2u8..5) {
        let base = SimulationBuilder::new(&trace, NEXUS_ONE).run(NoopSink).unwrap();
        let batched = SimulationBuilder::new(&trace, NEXUS_ONE)
            .dtim_period(period)
            .run(NoopSink).unwrap();
        prop_assert!(batched.received_frames <= base.received_frames);
        // At most the frames of the last DTIM window can spill.
        prop_assert!(base.received_frames - batched.received_frames <= 16);
    }

    /// The uninstrumented run and the recorded run agree exactly, and
    /// the recorder's per-run counters match the result they describe.
    #[test]
    fn noop_run_equals_recorded_run(trace in trace_strategy()) {
        for solution in [
            Solution::ReceiveAll,
            Solution::client_side_lower_bound(),
            Solution::client_side(0.3),
            Solution::hide(0.3),
            Solution::hybrid(0.3, 0.1),
        ] {
            let sim = SimulationBuilder::new(&trace, NEXUS_ONE).solution(solution);
            let plain = sim.run(NoopSink).unwrap();
            let mut rec = Recorder::new();
            let recorded = sim.run(&mut rec).unwrap();
            prop_assert_eq!(&plain, &recorded, "{}", solution);
            prop_assert_eq!(rec.counter(Counter::SimsRun), 1);
            prop_assert_eq!(
                rec.counter(Counter::FramesDelivered),
                recorded.received_frames as u64
            );
            prop_assert_eq!(
                rec.counter(Counter::FramesHidden),
                (recorded.trace_frames - recorded.received_frames) as u64
            );
            prop_assert_eq!(rec.counter(Counter::FramesWake), recorded.wake_frames as u64);
        }
    }
}
