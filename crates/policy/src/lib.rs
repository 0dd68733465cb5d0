//! Power-save policy subsystem: the device-profile registry and the
//! pluggable wake-policy seam.
//!
//! The HIDE paper's claim is an energy *delta* — what a phone spends
//! under AP-side broadcast hiding versus what it would have spent
//! waking for every multicast burst. Turning that delta into a real
//! experiment axis needs two things the energy layer alone does not
//! provide:
//!
//! * **[`registry`]** — named [`DeviceEntry`]s pairing a
//!   [`DeviceProfile`](hide_energy::profile::DeviceProfile) with its
//!   battery, spanning IoT-class to tablet-class radios;
//! * **[`wake`]** — the [`WakePolicy`] enum the simulators dispatch
//!   on: [`WakePolicy::Hide`] (the paper's protocol, byte-identical to
//!   the pre-seam engine), [`WakePolicy::LegacyPsm`] (wake on every
//!   DTIM with buffered traffic — the paper's receive-all baseline as
//!   an actual protocol), and [`WakePolicy::ScheduledWake`] (Wi-Fi
//!   8-primer-style negotiated wake windows with a configurable
//!   service interval/period).
//!
//! [`lifetime`] closes the loop with Life-Add-style battery-lifetime
//! projections: nanojoules spent over a horizon become projected
//! standby seconds per policy, emitted as the integer-only `battery`
//! section of the `hide-metrics/1` artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lifetime;
pub mod registry;
pub mod wake;

pub use lifetime::{LifetimeProjection, ProjectionError};
pub use registry::{builtin, lookup, registry_keys, DeviceEntry};
pub use wake::{ScheduleConfig, WakePolicy};
