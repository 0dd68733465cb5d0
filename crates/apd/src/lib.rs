//! `hide-apd`: the HIDE access point as a long-running service.
//!
//! Everything the repo's simulators drive offline — association, the
//! Client UDP Port Table, Algorithm 1 broadcast flags, DTIM cadence —
//! runs here as a daemon terminating the *real* wire formats
//! ([`hide_wifi::frame::AnyFrame`]) over plain UDP sockets:
//!
//! * **Sharded, lock-free state** — the AID space is split into
//!   disjoint ranges, one [`hide_core::ap::AccessPoint`] per shard
//!   thread; a router thread parses datagrams and routes them by
//!   client MAC, so no AP state is ever shared between threads.
//! * **One canonical API** — every protocol operation goes through
//!   [`hide_core::ap::ApCtx`], the same entry points the offline
//!   simulators use, which is what makes daemon state byte-comparable
//!   with offline replays (see the `loopback` integration test).
//! * **Control plane, not signals** — a UDP control socket speaks the
//!   tiny text protocol in [`ctrl`]: `ping`, `stats`, `metrics` (a
//!   live `hide-metrics/1` dump), `snapshot`, `health`, `expo`,
//!   `tick`, `shutdown`.
//! * **Snapshot/restore** — the client table serializes to the
//!   `hide-apdsnap/1` container ([`ApdSnapshot`]) on request and at
//!   shutdown, and restores at spawn.
//! * **Two observability planes** — the deterministic `hide-metrics/1`
//!   plane (byte-identical with offline replays) and a wall-clock
//!   runtime plane ([`telemetry`]): stage latency histograms recorded
//!   through the zero-cost [`hide_obs::SpanSink`] seam, per-shard
//!   health gauges, a stall watchdog, and the `hide-apd-health/1` /
//!   Prometheus-style `expo` outputs. Nothing from the wall-clock
//!   plane ever feeds the deterministic artifact.
//!
//! # Example
//!
//! ```
//! use hide_apd::{ApdConfig, DaemonHandle};
//!
//! let handle = DaemonHandle::spawn(ApdConfig::new()).unwrap();
//! // Clients talk to handle.data_addr(); operators to handle.ctrl_addr().
//! handle.tick(3).unwrap(); // drive the DTIM cadence manually
//! let stats = handle.shutdown().unwrap();
//! assert_eq!(stats.shards.beacons, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod ctrl;
pub mod daemon;
pub mod error;
pub mod loadgen;
mod shard;
pub mod snapshot;
pub mod telemetry;

pub use config::ApdConfig;
pub use ctrl::{CtrlParseError, CtrlRequest, CtrlResponse, CTRL_PROTOCOL_VERSION};
pub use daemon::{DaemonHandle, DaemonStats};
pub use error::ApdError;
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use shard::ShardStats;
pub use snapshot::ApdSnapshot;
pub use telemetry::{
    parse_health_shards, parse_health_stage_counts, parse_health_stalled_shards, render_top,
    ShardRow,
};
