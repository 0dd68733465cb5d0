//! Error type for the fleet layer.

use hide_core::CoreError;
use hide_policy::ProjectionError;
use std::fmt;

/// Anything a fleet run can fail with.
///
/// Config problems are reported before any simulation work starts; the
/// root `hide` crate folds this into its top-level `HideError`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// A fleet needs at least one BSS.
    NoBsses,
    /// A BSS needs at least one client.
    NoClients,
    /// The simulated horizon must be positive and finite.
    InvalidDuration(f64),
    /// A probability-like knob left `[0, 1]` (or was NaN).
    InvalidProbability {
        /// Name of the offending knob.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A duration-like churn knob was non-positive or non-finite.
    InvalidInterval {
        /// Name of the offending knob.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The stale timeout must exceed the refresh interval, else entries
    /// expire between perfectly delivered refreshes and the loss-free
    /// run would report phantom missed wakeups.
    StaleTimeoutTooShort {
        /// Configured stale timeout, seconds.
        stale_timeout_secs: f64,
        /// Configured refresh interval, seconds.
        refresh_interval_secs: f64,
    },
    /// A client needs at least one listened-on port.
    NoPorts,
    /// The named device profile fails
    /// [`DeviceProfile::is_consistent`](hide_energy::profile::DeviceProfile::is_consistent):
    /// a negative or NaN constant would be charged as a wrong but
    /// plausible nanojoule price.
    InconsistentProfile(&'static str),
    /// The HIDE protocol layer rejected an operation mid-run.
    Core(CoreError),
    /// The out-of-core export pipeline failed: spill-file I/O, a codec
    /// decode error, or a sink write. Carries the rendered cause
    /// (`FleetError` is `Clone`; `io::Error` is not).
    Export(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoBsses => write!(f, "fleet must contain at least one BSS"),
            FleetError::NoClients => write!(f, "each BSS must contain at least one client"),
            FleetError::InvalidDuration(d) => {
                write!(f, "duration must be positive and finite, got {d}")
            }
            FleetError::InvalidProbability { what, value } => {
                write!(f, "{what} must be within [0, 1], got {value}")
            }
            FleetError::InvalidInterval { what, value } => {
                write!(f, "{what} must be positive and finite, got {value}")
            }
            FleetError::StaleTimeoutTooShort {
                stale_timeout_secs,
                refresh_interval_secs,
            } => write!(
                f,
                "stale timeout ({stale_timeout_secs} s) must exceed the refresh \
                 interval ({refresh_interval_secs} s)"
            ),
            FleetError::NoPorts => write!(f, "clients must listen on at least one port"),
            FleetError::InconsistentProfile(name) => write!(
                f,
                "device profile {name:?} is inconsistent: every duration, energy and \
                 power must be positive, suspend power below active-idle power and \
                 idle power below receive power"
            ),
            FleetError::Core(e) => write!(f, "protocol failure during fleet run: {e}"),
            FleetError::Export(msg) => write!(f, "streamed export failed: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for FleetError {
    fn from(e: CoreError) -> Self {
        FleetError::Core(e)
    }
}

/// A lifetime projection over a validated fleet config cannot fail;
/// should it, the error names the same knob the config check would.
impl From<ProjectionError> for FleetError {
    fn from(e: ProjectionError) -> Self {
        match e {
            ProjectionError::InvalidDuration(d) => FleetError::InvalidDuration(d),
            ProjectionError::NoClients => FleetError::NoClients,
        }
    }
}

impl From<hide_obs::SpillError> for FleetError {
    fn from(e: hide_obs::SpillError) -> Self {
        FleetError::Export(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let cases = [
            FleetError::NoBsses,
            FleetError::NoClients,
            FleetError::InvalidDuration(-1.0),
            FleetError::InvalidProbability {
                what: "refresh_loss",
                value: 2.0,
            },
            FleetError::InvalidInterval {
                what: "mean_present_secs",
                value: 0.0,
            },
            FleetError::StaleTimeoutTooShort {
                stale_timeout_secs: 1.0,
                refresh_interval_secs: 5.0,
            },
            FleetError::NoPorts,
            FleetError::InconsistentProfile("Nexus One"),
            FleetError::Export("spill file truncated at byte 9".into()),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
            assert!(std::error::Error::source(&e).is_none());
        }
        let wrapped = FleetError::from(CoreError::NoFreeAid);
        assert!(wrapped.to_string().contains("protocol failure"));
        assert!(std::error::Error::source(&wrapped).is_some());
        assert_eq!(
            FleetError::from(ProjectionError::InvalidDuration(0.0)),
            FleetError::InvalidDuration(0.0)
        );
        assert_eq!(
            FleetError::from(ProjectionError::NoClients),
            FleetError::NoClients
        );
        let spill = FleetError::from(hide_obs::SpillError::Truncated { offset: 9 });
        assert_eq!(
            spill,
            FleetError::Export("spill file truncated at byte 9".into())
        );
    }
}
