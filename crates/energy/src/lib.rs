//! Smartphone energy model from Section IV of the HIDE paper.
//!
//! The model computes the energy a smartphone spends handling WiFi
//! broadcast traffic, split into the five components of Eq. (2):
//!
//! ```text
//! E = Eb + Ef + Ewl + Est + Eo
//! ```
//!
//! * `Eb` — receiving beacon frames (Eq. 6),
//! * `Ef` — receiving broadcast data frames, including idle listening
//!   driven by the *More Data* bit (Eqs. 7–11),
//! * `Ewl` — system-active idle time under WiFi wakelocks (Eq. 12),
//! * `Est` — suspend/resume state transfers, including aborted suspend
//!   operations (Eqs. 13–14),
//! * `Eo` — HIDE's own overhead: BTIM bytes in beacons and UDP Port
//!   Message transmissions (Eqs. 15–19).
//!
//! Every price comes from one [`DeviceProfile`]: a Table I row or a
//! registry extension. The `Ewl` and `Est` terms come from [`machine`],
//! an event-driven power-state machine that generalizes the paper's
//! equations to per-frame wakelock durations (needed for the
//! "client-side" baseline, which holds a zero-length wakelock for
//! useless frames). The test suite holds it to a literal transcription
//! of Eqs. (3)–(5) and (14) for the uniform-wakelock case
//! (`tests/closed_form/mod.rs`).
//!
//! # Example
//!
//! ```
//! use hide_energy::profile::NEXUS_ONE;
//! use hide_energy::timeline::{Overhead, Timeline, TimelineFrame};
//!
//! // Two broadcast frames, 5 s apart, each holding a 1 s wakelock.
//! let frames = vec![
//!     TimelineFrame { start: 1.0, airtime: 0.002, more_data: false, hold: 1.0 },
//!     TimelineFrame { start: 6.0, airtime: 0.002, more_data: false, hold: 1.0 },
//! ];
//! let timeline = Timeline::new(10.0, 0.1024, frames)?;
//! let report = hide_energy::evaluate(&NEXUS_ONE, &timeline, &Overhead::NONE);
//! assert!(report.breakdown.total() > 0.0);
//! assert!(report.suspend_fraction() > 0.5);
//! # Ok::<(), hide_energy::EnergyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod battery;
pub mod breakdown;
pub mod machine;
pub mod profile;
pub mod radio;
pub mod timeline;

pub use attribution::{
    metrics_section_for, write_csv_row, write_jsonl_row, AttributionLedger, CauseEnergy,
    ClientEnergy, WakePricing, ATTRIBUTION_CSV_HEADER,
};
pub use breakdown::{EnergyBreakdown, EnergyReport};
pub use profile::DeviceProfile;
pub use timeline::{EnergyError, Overhead, Timeline, TimelineFrame};

/// Evaluates the full Section-IV energy model on a reception timeline.
///
/// Combines the radio model (`Eb`, `Ef`), the power-state machine
/// (`Ewl`, `Est`, suspend-time accounting) and the protocol overhead
/// (`Eo`) into one [`EnergyReport`].
pub fn evaluate(profile: &DeviceProfile, timeline: &Timeline, overhead: &Overhead) -> EnergyReport {
    evaluate_observed(profile, timeline, overhead, &mut hide_obs::NoopSink)
}

/// [`evaluate`] with instrumentation: counts the evaluation itself, the
/// timeline frames and beacon intervals the model covered, and the
/// resume/aborted-suspend transitions the state machine took. The
/// uninstrumented [`evaluate`] delegates here with a
/// [`hide_obs::NoopSink`], so both compile to the same code.
pub fn evaluate_observed<S: hide_obs::MetricsSink>(
    profile: &DeviceProfile,
    timeline: &Timeline,
    overhead: &Overhead,
    sink: &mut S,
) -> EnergyReport {
    use hide_obs::{Counter, Distribution};

    let radio = radio::evaluate_radio(profile, timeline);
    let machine = machine::run(profile, timeline);
    let eo = overhead.energy(profile);
    sink.incr(Counter::EnergyEvals);
    sink.add(Counter::TimelineFrames, timeline.frames().len() as u64);
    sink.add(Counter::BeaconsModeled, timeline.beacon_count());
    sink.add(Counter::Resumes, machine.resume_count);
    sink.add(Counter::AbortedSuspends, machine.aborted_suspends);
    sink.observe(Distribution::ResumesPerRun, machine.resume_count);
    EnergyReport {
        breakdown: EnergyBreakdown {
            beacon: radio.beacon_energy,
            frames: radio.frame_energy,
            wakelock: machine.wakelock_energy,
            state_transfer: machine.state_transfer_energy,
            overhead: eo,
        },
        duration: timeline.duration(),
        suspend_time: machine.suspend_time,
        resume_count: machine.resume_count,
        aborted_suspends: machine.aborted_suspends,
        suspend_floor_energy: profile.suspend_power * machine.suspend_time,
    }
}
