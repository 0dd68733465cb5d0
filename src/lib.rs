//! # HIDE — AP-assisted broadcast traffic management
//!
//! Facade crate for the reproduction of *HIDE: AP-assisted Broadcast
//! Traffic Management to Save Smartphone Energy* (Peng et al., ICDCS
//! 2016). Re-exports the public API of every workspace crate:
//!
//! * [`wifi`] — 802.11 frames, information elements, PHY and DCF models
//! * [`protocol`] — the HIDE AP and client protocol implementation
//! * [`energy`] — the Section-IV smartphone energy model
//! * [`traces`] — synthetic broadcast-traffic traces for the five scenarios
//! * [`sim`] — the trace-driven simulator and experiment runners
//! * [`policy`] — the device-profile registry and the pluggable
//!   wake-policy seam (HIDE, legacy PSM, scheduled wake)
//! * [`fleet`] — the discrete-event multi-BSS fleet simulator with
//!   client lifecycle churn
//! * [`apd`] — the AP as a long-running UDP service (`hide-apd`) with
//!   live telemetry and snapshot/restore
//! * [`analysis`] — the Section-V capacity and delay overhead analysis
//! * [`obs`] — deterministic counters, histograms and span timers
//!
//! plus the unifying pieces that only make sense at the top:
//! [`HideError`] (every layer's error, one enum) and [`prelude`].
//!
//! # Quickstart
//!
//! ```
//! use hide::prelude::*;
//!
//! // Generate a coffee-shop-like broadcast trace, run HIDE at 10% useful
//! // frames on a Nexus One, and compare with receiving everything.
//! let trace = Scenario::Starbucks.generate(60.0, 42);
//! let hide = SimulationBuilder::new(&trace, NEXUS_ONE)
//!     .solution(Solution::hide(0.10))
//!     .run(NoopSink)?;
//! let all = SimulationBuilder::new(&trace, NEXUS_ONE)
//!     .solution(Solution::ReceiveAll)
//!     .run(NoopSink)?;
//! assert!(hide.energy.breakdown.total() < all.energy.breakdown.total());
//! # Ok::<(), HideError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hide_analysis as analysis;
pub use hide_apd as apd;
pub use hide_core as protocol;
pub use hide_energy as energy;
pub use hide_fleet as fleet;
pub use hide_obs as obs;
pub use hide_policy as policy;
pub use hide_sim as sim;
pub use hide_traces as traces;
pub use hide_wifi as wifi;

pub mod error;

pub use error::HideError;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::error::HideError;
    pub use hide_analysis::capacity::{CapacityAnalysis, NetworkConfig};
    pub use hide_analysis::delay::{DelayAnalysis, DelayConfig};
    pub use hide_apd::{ApdConfig, ApdError, ApdSnapshot, DaemonHandle};
    pub use hide_core::ap::{AccessPoint, ApCtx, ApSnapshot};
    pub use hide_core::client::{HideClient, LegacyClient, OpenPortRegistry, WakeDecision};
    pub use hide_energy::battery::Battery;
    pub use hide_energy::profile::{DeviceProfile, GALAXY_S4, NEXUS_ONE};
    pub use hide_fleet::{ChurnConfig, FleetConfig, FleetError, FleetResult};
    pub use hide_obs::{
        Counter, Distribution, FlightRecorder, Histogram, MetricsSink, NoopSink, NoopTrace,
        Recorder, Stage, TraceEvent, TraceEventKind, TraceSink, WakeCause, WakeClass,
    };
    pub use hide_policy::{DeviceEntry, LifetimeProjection, ScheduleConfig, WakePolicy};
    pub use hide_sim::network::{fleet, NetworkSimulation};
    pub use hide_sim::protocol_sim::ProtocolSimulation;
    pub use hide_sim::solution::Solution;
    pub use hide_sim::{SimError, SimulationBuilder, SimulationResult};
    pub use hide_traces::scenario::Scenario;
    pub use hide_traces::unicast::UnicastTrace;
    pub use hide_traces::useful::Usefulness;
    pub use hide_traces::Trace;
    pub use hide_wifi::frame::BeaconView;
    pub use hide_wifi::mac::{Aid, MacAddr};
}
