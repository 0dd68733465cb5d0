//! Deterministic discrete-event multi-BSS fleet simulator with client
//! lifecycle churn.
//!
//! The static layers of this workspace answer "what does one DTIM
//! cycle cost?" ([`hide_core`]) and "what does one trace replay cost
//! for a fixed population?" ([`hide_sim`]). This crate answers the
//! deployment question the HIDE paper poses at evaluation scale: **what
//! happens across thousands of BSSes whose clients come and go**, with
//! associations and disassociations running the real
//! `hide_wifi::assoc` exchange, periodic UDP Port Message refreshes
//! that can be lost, and an AP that ages out stale port-table entries?
//!
//! # Architecture
//!
//! * [`kernel`] — a binary-heap event calendar with seeded
//!   tie-breaking ([`EventQueue`]), plus FIFO lanes for the timer chains
//!   scheduled in time order: the pop order is a pure function of the
//!   seed, so reruns and any `--jobs` count see the same sequence.
//! * [`churn`] — the client lifecycle model ([`ChurnConfig`]):
//!   presence and activity as independent alternating-renewal
//!   processes, plus refresh period, loss, port churn, and the AP's
//!   stale timeout.
//! * [`bss`] — one BSS under the kernel: a real
//!   [`AccessPoint`](hide_core::ap::AccessPoint), each client's true
//!   ports as a bit mask over the scenario's port universe for wakeup
//!   classification, and a *streaming* broadcast
//!   source ([`hide_traces::stream::FrameStream`]) so the trace is
//!   never materialized. The engine works per event, not per client
//!   per DTIM: beacons and an awake client's bursts are charged once
//!   per segment, so a DTIM with nothing buffered costs O(1), and one
//!   with a burst visits only the suspended clients that wake or miss.
//! * [`fleet`] — shard-by-BSS execution over [`hide_par`], merged in
//!   input order into one [`Recorder`](hide_obs::Recorder) aggregate;
//!   the metrics JSON is byte-identical at any parallelism.
//!
//! # Tracing and provenance
//!
//! [`FleetConfig::try_run_traced_with_jobs`] additionally streams every
//! shard kernel's structured events (DTIM boundaries, refreshes lost
//! and applied, port churn, expiries, per-client wake decisions) into
//! a bounded [`FlightRecorder`](hide_obs::FlightRecorder), merged in
//! input order so the exported log is byte-identical at any `--jobs`.
//! The engine attributes every missed and spurious wakeup to its
//! causal event online (lost refresh, staleness expiry, or port-churn
//! race) — the per-cause counters land in the `hide-metrics/1`
//! artifact whether or not tracing is on, and
//! [`hide_obs::provenance::analyze`] re-derives the same attribution
//! from the event log as a cross-check.
//!
//! # Example
//!
//! ```
//! use hide_fleet::{ChurnConfig, FleetConfig};
//!
//! let cfg = FleetConfig {
//!     bss_count: 2,
//!     clients_per_bss: 4,
//!     duration_secs: 5.0,
//!     ..FleetConfig::default()
//! };
//! let result = cfg.try_run_with_jobs(1).expect("valid config");
//! assert!(result.report.associations > 0);
//! // Loss-free refreshes mean no missed wakeups, ever.
//! assert_eq!(result.report.missed_wakeups, 0);
//! # let _ = ChurnConfig::default();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bss;
pub mod churn;
pub mod error;
pub mod fleet;
pub mod kernel;
pub mod profile;

pub use bss::BssReport;
pub use churn::ChurnConfig;
pub use error::FleetError;
pub use fleet::{FleetConfig, FleetResult, StreamExportConfig, StreamSinks, StreamedFleetResult};
pub use hide_policy::{ScheduleConfig, WakePolicy};
pub use kernel::{derive_seed, EventQueue};
pub use profile::{FleetStage, StageProfile};
