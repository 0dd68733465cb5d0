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
//! [`evaluate`] runs the whole model in one pass over any iterator of
//! received frames: it checks each frame, steps the radio and the
//! machine, and keeps no timeline ([`pass`]).
//!
//! # Example
//!
//! ```
//! use hide_energy::profile::NEXUS_ONE;
//! use hide_energy::{MoreData, Overhead, TimelineFrame};
//!
//! // Two broadcast frames, 5 s apart, each holding a 1 s wakelock.
//! let frames = [1.0, 6.0].map(|start| TimelineFrame {
//!     start,
//!     airtime: 0.002,
//!     more_data: false,
//!     hold: 1.0,
//! });
//! let run = hide_energy::evaluate(&NEXUS_ONE, 10.0, 0.1024, MoreData::AsGiven, frames)?;
//! assert_eq!(run.machine.resume_count, 2);
//! let report = run.report(&Overhead::NONE, &mut hide_obs::NoopSink);
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
pub mod pass;
pub mod profile;
pub mod radio;
pub mod timeline;

pub use attribution::{
    metrics_section_for, write_csv_row, write_jsonl_row, AttributionLedger, CauseEnergy,
    ClientEnergy, WakePricing, ATTRIBUTION_CSV_HEADER,
};
pub use breakdown::{EnergyBreakdown, EnergyReport};
pub use pass::{evaluate, Evaluation, MoreData, Pass};
pub use profile::DeviceProfile;
pub use timeline::{EnergyError, Overhead, TimelineFrame};
