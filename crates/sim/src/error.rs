//! Error type for the simulation and experiment layer.

use hide_core::CoreError;
use hide_energy::EnergyError;
use std::fmt;

/// Anything a simulation run or an experiment runner can fail with.
///
/// The root `hide` crate folds this into its top-level `HideError`, so
/// binaries see one error surface.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A trace produced a degenerate timeline (zero duration, unsorted
    /// frames).
    Energy(EnergyError),
    /// The protocol layer rejected an operation or a frame (e.g. a UDP
    /// Port Message with more ports than its element holds).
    Core(CoreError),
    /// A summary was requested over comparisons missing a required bar.
    MissingBar {
        /// Label of the absent bar (e.g. `"client-side"`, `"HIDE:10%"`).
        label: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Energy(e) => write!(f, "energy model rejected the timeline: {e}"),
            SimError::Core(e) => write!(f, "protocol failure: {e}"),
            SimError::MissingBar { label } => {
                write!(f, "comparison is missing the '{label}' bar")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Energy(e) => Some(e),
            SimError::Core(e) => Some(e),
            SimError::MissingBar { .. } => None,
        }
    }
}

impl From<EnergyError> for SimError {
    fn from(e: EnergyError) -> Self {
        SimError::Energy(e)
    }
}

impl From<CoreError> for SimError {
    fn from(e: CoreError) -> Self {
        SimError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SimError::from(EnergyError::NonPositiveDuration(0.0));
        assert!(e.to_string().contains("energy model"));
        assert!(std::error::Error::source(&e).is_some());
        let c = SimError::from(CoreError::NoFreeAid);
        assert!(c.to_string().contains("protocol"));
        assert!(std::error::Error::source(&c).is_some());
        let m = SimError::MissingBar {
            label: "client-side".into(),
        };
        assert!(m.to_string().contains("client-side"));
        assert!(std::error::Error::source(&m).is_none());
    }
}
