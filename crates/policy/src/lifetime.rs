//! Life-Add-style battery-lifetime projection: turn the nanojoules
//! spent over a simulated horizon into projected standby time on a
//! named battery.
//!
//! The projection is deliberately simple — constant average draw over
//! the horizon, scaled to one client — because its job is comparative:
//! the same battery under two policies yields a lifetime *gain*, and
//! that gain is what the `hide-metrics/1` artifact pins. All exported
//! numbers are integers (micro-watts, seconds, parts-per-million) so
//! the artifact stays byte-stable across platforms.

use hide_energy::battery::Battery;
use std::fmt;

/// An integer-only battery-lifetime projection for one policy run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifetimeProjection {
    /// Battery capacity, milli-watt-hours (rounded).
    pub capacity_mwh: u64,
    /// Clients the fleet energy was averaged over.
    pub clients: u64,
    /// Average per-client draw under the policy, micro-watts (rounded).
    pub avg_draw_uw: u64,
    /// Projected standby seconds on this battery under the policy.
    pub projected_secs: u64,
    /// Projected standby seconds under the receive-all baseline.
    pub baseline_secs: u64,
    /// Lifetime gain of the policy over the baseline, parts-per-million
    /// (negative when the policy costs battery life).
    pub lifetime_gain_ppm: i64,
}

/// Why [`LifetimeProjection::project`] could not average a run down to
/// one client's draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProjectionError {
    /// The horizon was not positive and finite, seconds.
    InvalidDuration(f64),
    /// The energy was spent by zero clients.
    NoClients,
}

impl fmt::Display for ProjectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjectionError::InvalidDuration(d) => {
                write!(f, "projection horizon must be positive and finite, got {d}")
            }
            ProjectionError::NoClients => write!(f, "projection needs at least one client"),
        }
    }
}

impl std::error::Error for ProjectionError {}

impl LifetimeProjection {
    /// Projects standby lifetime from fleet totals.
    ///
    /// `spent_nj` and `baseline_nj` are the summed energy of `clients`
    /// clients over `duration_secs` of simulated time, in integer
    /// nanojoules; the projection divides down to one client before
    /// extrapolating. When either total is 0 — a horizon too short for
    /// any charge — the projection is all zeros but for the capacity
    /// and the client count.
    ///
    /// # Errors
    ///
    /// [`ProjectionError::InvalidDuration`] when `duration_secs` is not
    /// positive and finite, [`ProjectionError::NoClients`] when
    /// `clients` is 0.
    pub fn project(
        battery: &Battery,
        spent_nj: u64,
        baseline_nj: u64,
        duration_secs: f64,
        clients: u64,
    ) -> Result<Self, ProjectionError> {
        if !(duration_secs.is_finite() && duration_secs > 0.0) {
            return Err(ProjectionError::InvalidDuration(duration_secs));
        }
        if clients == 0 {
            return Err(ProjectionError::NoClients);
        }
        let mut out = LifetimeProjection {
            capacity_mwh: (battery.capacity_wh() * 1e3).round() as u64,
            clients,
            avg_draw_uw: 0,
            projected_secs: 0,
            baseline_secs: 0,
            lifetime_gain_ppm: 0,
        };
        if spent_nj == 0 || baseline_nj == 0 {
            return Ok(out);
        }
        let n = clients as f64;
        let draw_w = spent_nj as f64 / 1e9 / duration_secs / n;
        let baseline_draw_w = baseline_nj as f64 / 1e9 / duration_secs / n;
        let projected = battery.standby_hours(draw_w) * 3600.0;
        let baseline = battery.standby_hours(baseline_draw_w) * 3600.0;
        out.avg_draw_uw = (draw_w * 1e6).round() as u64;
        out.projected_secs = projected.round() as u64;
        out.baseline_secs = baseline.round() as u64;
        out.lifetime_gain_ppm = ((projected / baseline - 1.0) * 1e6).round() as i64;
        Ok(out)
    }

    /// The `battery` section body for the `hide-metrics/1` artifact:
    /// a single-line JSON object of integers, keys in declaration
    /// order.
    #[must_use]
    pub fn to_metrics_section(&self) -> String {
        format!(
            "{{\"capacity_mwh\":{},\"clients\":{},\"avg_draw_uw\":{},\"projected_secs\":{},\"baseline_secs\":{},\"lifetime_gain_ppm\":{}}}",
            self.capacity_mwh,
            self.clients,
            self.avg_draw_uw,
            self.projected_secs,
            self.baseline_secs,
            self.lifetime_gain_ppm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Joules as the integer nanojoules `project` takes.
    const J: u64 = 1_000_000_000;

    #[test]
    fn saving_energy_extends_life() {
        let b = Battery::NEXUS_ONE;
        // Policy spends half the baseline energy → double the lifetime.
        let p = LifetimeProjection::project(&b, 50 * J, 100 * J, 1000.0, 1).unwrap();
        assert_eq!(p.projected_secs, 2 * p.baseline_secs);
        assert_eq!(p.lifetime_gain_ppm, 1_000_000);
    }

    #[test]
    fn equal_energy_means_zero_gain() {
        let b = Battery::GALAXY_S4;
        let p = LifetimeProjection::project(&b, 70 * J, 70 * J, 600.0, 7).unwrap();
        assert_eq!(p.projected_secs, p.baseline_secs);
        assert_eq!(p.lifetime_gain_ppm, 0);
    }

    #[test]
    fn costlier_policy_goes_negative() {
        let b = Battery::NEXUS_ONE;
        let p = LifetimeProjection::project(&b, 120 * J, 100 * J, 1000.0, 2).unwrap();
        assert!(p.lifetime_gain_ppm < 0);
        assert!(p.projected_secs < p.baseline_secs);
    }

    #[test]
    fn per_client_scaling() {
        let b = Battery::NEXUS_ONE;
        // Ten clients spending 10x the energy of one client draw the
        // same per-client power → identical projection.
        let one = LifetimeProjection::project(&b, 30 * J, 60 * J, 600.0, 1).unwrap();
        let ten = LifetimeProjection::project(&b, 300 * J, 600 * J, 600.0, 10).unwrap();
        assert_eq!(one.projected_secs, ten.projected_secs);
        assert_eq!(one.avg_draw_uw, ten.avg_draw_uw);
    }

    #[test]
    fn section_is_single_line_integer_json() {
        let b = Battery::NEXUS_ONE;
        let p = LifetimeProjection::project(&b, 50 * J, 100 * J, 1000.0, 1).unwrap();
        let s = p.to_metrics_section();
        assert!(!s.contains('\n'));
        assert!(!s.contains('.'));
        assert!(s.starts_with("{\"capacity_mwh\":"));
        assert!(s.ends_with('}'));
    }

    #[test]
    fn zero_duration_is_an_error() {
        let b = Battery::NEXUS_ONE;
        for d in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = LifetimeProjection::project(&b, J, J, d, 1).unwrap_err();
            assert!(matches!(err, ProjectionError::InvalidDuration(_)), "{d}");
            assert!(!err.to_string().is_empty());
        }
        assert_eq!(
            LifetimeProjection::project(&b, J, J, 1.0, 0),
            Err(ProjectionError::NoClients)
        );
    }

    #[test]
    fn zero_energy_projects_nothing() {
        // A 1 ms fleet horizon charges a join's refresh but reaches no
        // DTIM: energy spent, none in the baseline. Neither case panics.
        let b = Battery::NEXUS_ONE;
        for (spent, baseline) in [(167_000_000, 0), (0, J), (0, 0)] {
            let p = LifetimeProjection::project(&b, spent, baseline, 0.001, 400).unwrap();
            assert_eq!(
                p,
                LifetimeProjection {
                    capacity_mwh: 5180,
                    clients: 400,
                    avg_draw_uw: 0,
                    projected_secs: 0,
                    baseline_secs: 0,
                    lifetime_gain_ppm: 0,
                }
            );
        }
    }
}
