//! Trace-driven simulation of broadcast-traffic handling
//! (Section VI.A of the HIDE paper).
//!
//! Replays a broadcast trace against one of three solutions and feeds
//! the resulting reception timeline through the Section-IV energy
//! model:
//!
//! * **receive-all** — the stock smartphone: every broadcast frame is
//!   received and holds a 1-second WiFi wakelock;
//! * **client-side** — the driver-filtering baseline of the paper's reference \[6\]:
//!   every frame is still received, but useless frames are dropped and
//!   the system returns to suspend immediately (its *lower bound*
//!   charges no wakelock time for them);
//! * **HIDE** — useless frames never reach the client; only useful
//!   frames are received and wake the device, at the cost of UDP Port
//!   Message transmissions and BTIM bytes in every beacon.
//!
//! # Example
//!
//! ```
//! use hide::prelude::*;
//!
//! let trace = Scenario::Starbucks.generate(300.0, 1);
//! let hide = SimulationBuilder::new(&trace, NEXUS_ONE)
//!     .solution(Solution::hide(0.10))
//!     .run(NoopSink)?;
//! let all = SimulationBuilder::new(&trace, NEXUS_ONE)
//!     .solution(Solution::ReceiveAll)
//!     .run(NoopSink)?;
//! assert!(hide.energy.breakdown.total() < all.energy.breakdown.total());
//! assert!(hide.energy.suspend_fraction() > all.energy.suspend_fraction());
//! # Ok::<(), SimError>(())
//! ```
//!
//! Every run has one fallible entry point that takes its sinks by
//! value, as [`hide_core::ap::ApCtx`] does: [`SimulationBuilder::run`]
//! takes a metrics sink (`NoopSink` or `&mut recorder`), and
//! [`protocol_sim::ProtocolSimulation::run`] takes a metrics sink and a
//! trace sink (`&mut recorder, &mut flight`). The [`experiment`]
//! runners take a [`hide_obs::Recorder`]; see their module docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod experiment;
pub mod latency;
pub mod network;
pub mod protocol_sim;
pub mod reliability;
pub mod report;
pub mod sensitivity;
pub mod simulation;
pub mod solution;

pub use error::SimError;
pub use simulation::{SimulationBuilder, SimulationResult};
pub use solution::Solution;
