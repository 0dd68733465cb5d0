//! The pluggable wake-policy seam.
//!
//! [`WakePolicy`] is enum-dispatched rather than trait-object-dispatched
//! on purpose: the fleet engine's DTIM sweep is the hottest loop in the
//! workspace, and an enum the engine can hoist out of the loop (`Hide`
//! compiles to the exact pre-seam code path, which `fleet_sim --smoke`
//! holds to `fleet_events_per_sec_floor`) costs nothing where a vtable
//! call per client per DTIM would.

/// Configuration of an AP-negotiated wake schedule (Wi-Fi 8 primer's
/// scheduled-wake / TWT-style operation): the client is awake for
/// `period_dtims` consecutive DTIMs out of every `interval_dtims`, and
/// deep-sleeps through the rest — beacons included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleConfig {
    /// Service interval: schedule length in DTIM beacons (≥ 1).
    pub interval_dtims: u32,
    /// Service period: awake DTIMs at the start of each interval
    /// (≥ 1, clamped to the interval).
    pub period_dtims: u32,
}

impl Default for ScheduleConfig {
    /// One awake DTIM out of every eight — with the paper's 102.4 ms
    /// DTIM spacing, a wake window about every 0.82 s.
    fn default() -> Self {
        ScheduleConfig {
            interval_dtims: 8,
            period_dtims: 1,
        }
    }
}

impl ScheduleConfig {
    /// Normalizes the knobs: interval ≥ 1, 1 ≤ period ≤ interval.
    #[must_use]
    pub fn normalized(self) -> Self {
        let interval_dtims = self.interval_dtims.max(1);
        ScheduleConfig {
            interval_dtims,
            period_dtims: self.period_dtims.clamp(1, interval_dtims),
        }
    }

    /// Whether a suspended client on this schedule is awake at DTIM
    /// number `dtim_index` (0-based).
    #[inline]
    #[must_use]
    pub fn in_window(&self, dtim_index: u64) -> bool {
        dtim_index % u64::from(self.interval_dtims) < u64::from(self.period_dtims)
    }

    /// Fraction of DTIMs inside the wake window.
    #[must_use]
    pub fn duty_cycle(&self) -> f64 {
        f64::from(self.period_dtims) / f64::from(self.interval_dtims)
    }
}

/// Which power-save protocol suspended clients run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum WakePolicy {
    /// The paper's protocol: clients register listened UDP ports with
    /// the AP, which flags only the clients whose buffered traffic is
    /// useful. The default, byte-identical to the pre-seam engine.
    #[default]
    Hide,
    /// Standard 802.11 power-save: every suspended client wakes for
    /// every DTIM with buffered broadcast traffic — the paper's
    /// receive-all baseline as a live protocol.
    LegacyPsm,
    /// Wi-Fi 8-primer-style negotiated wake windows: suspended clients
    /// deep-sleep through every beacon outside their service window
    /// and receive-all inside it. Broadcast bursts outside the window
    /// are *deferred* (slept through), not missed.
    ScheduledWake(ScheduleConfig),
}

impl WakePolicy {
    /// The CLI spellings [`parse`](Self::parse) accepts, for help text.
    pub const NAMES: [&'static str; 3] = ["hide", "psm", "scheduled[:interval[:period]]"];

    /// Stable snake_case key (`hide`, `psm`, `scheduled`) used in CLI
    /// flags and metrics sections.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            WakePolicy::Hide => "hide",
            WakePolicy::LegacyPsm => "psm",
            WakePolicy::ScheduledWake(_) => "scheduled",
        }
    }

    /// Dense id for the integer-only metrics artifact: 0 = hide,
    /// 1 = psm, 2 = scheduled.
    #[must_use]
    pub fn kind_id(&self) -> u64 {
        match self {
            WakePolicy::Hide => 0,
            WakePolicy::LegacyPsm => 1,
            WakePolicy::ScheduledWake(_) => 2,
        }
    }

    /// Parses a CLI spelling: `hide`, `psm` (or `legacy-psm`),
    /// `scheduled`, `scheduled:INTERVAL`, `scheduled:INTERVAL:PERIOD`
    /// (DTIM counts).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "hide" => return Ok(WakePolicy::Hide),
            "psm" | "legacy-psm" | "legacy_psm" => return Ok(WakePolicy::LegacyPsm),
            "scheduled" => return Ok(WakePolicy::ScheduledWake(ScheduleConfig::default())),
            _ => {}
        }
        if let Some(rest) = lower.strip_prefix("scheduled:") {
            let mut parts = rest.split(':');
            let parse_u32 = |part: Option<&str>, what: &str| {
                part.map(|p| {
                    p.parse::<u32>()
                        .map_err(|_| format!("bad scheduled {what} {p:?}"))
                })
                .transpose()
            };
            let interval = parse_u32(parts.next(), "interval")?;
            let period = parse_u32(parts.next(), "period")?;
            if parts.next().is_some() {
                return Err(format!("too many ':' segments in policy {s:?}"));
            }
            let d = ScheduleConfig::default();
            let cfg = ScheduleConfig {
                interval_dtims: interval.unwrap_or(d.interval_dtims),
                period_dtims: period.unwrap_or(d.period_dtims),
            }
            .normalized();
            return Ok(WakePolicy::ScheduledWake(cfg));
        }
        Err(format!(
            "unknown policy {s:?}; valid: {}",
            Self::NAMES.join(", ")
        ))
    }

    /// Whether clients register and refresh listened ports with the AP
    /// (UDP Port Messages). Only HIDE does; under the other policies
    /// clients associate without HIDE support and never transmit
    /// refreshes.
    #[must_use]
    pub fn uses_port_refresh(&self) -> bool {
        matches!(self, WakePolicy::Hide)
    }

    /// Whether the AP attaches the BTIM element to DTIM beacons. Only
    /// HIDE needs it; the other policies run TIM-only beacons, so the
    /// Eq. 16 BTIM byte overhead is zero.
    #[must_use]
    pub fn ap_btim_enabled(&self) -> bool {
        matches!(self, WakePolicy::Hide)
    }

    /// The negotiated wake schedule, when one exists.
    #[must_use]
    pub fn schedule(&self) -> Option<ScheduleConfig> {
        match self {
            WakePolicy::ScheduledWake(cfg) => Some(cfg.normalized()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_names() {
        assert_eq!(WakePolicy::parse("hide").unwrap(), WakePolicy::Hide);
        assert_eq!(WakePolicy::parse("HIDE").unwrap(), WakePolicy::Hide);
        assert_eq!(WakePolicy::parse("psm").unwrap(), WakePolicy::LegacyPsm);
        assert_eq!(
            WakePolicy::parse("legacy-psm").unwrap(),
            WakePolicy::LegacyPsm
        );
        assert_eq!(
            WakePolicy::parse("scheduled").unwrap(),
            WakePolicy::ScheduledWake(ScheduleConfig::default())
        );
        assert!(WakePolicy::parse("twt").is_err());
    }

    #[test]
    fn parse_scheduled_knobs() {
        let p = WakePolicy::parse("scheduled:16").unwrap();
        assert_eq!(
            p.schedule().unwrap(),
            ScheduleConfig {
                interval_dtims: 16,
                period_dtims: 1
            }
        );
        let p = WakePolicy::parse("scheduled:16:4").unwrap();
        assert_eq!(
            p.schedule().unwrap(),
            ScheduleConfig {
                interval_dtims: 16,
                period_dtims: 4
            }
        );
        // Period clamps to the interval; zero interval normalizes to 1.
        let p = WakePolicy::parse("scheduled:4:9").unwrap();
        assert_eq!(p.schedule().unwrap().period_dtims, 4);
        let p = WakePolicy::parse("scheduled:0:0").unwrap();
        assert_eq!(
            p.schedule().unwrap(),
            ScheduleConfig {
                interval_dtims: 1,
                period_dtims: 1
            }
        );
        assert!(WakePolicy::parse("scheduled:x").is_err());
        assert!(WakePolicy::parse("scheduled:1:2:3").is_err());
    }

    #[test]
    fn window_membership_and_duty_cycle() {
        let s = ScheduleConfig {
            interval_dtims: 8,
            period_dtims: 2,
        };
        let awake: Vec<u64> = (0..16).filter(|&i| s.in_window(i)).collect();
        assert_eq!(awake, vec![0, 1, 8, 9]);
        assert!((s.duty_cycle() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn policy_capability_matrix() {
        let sched = WakePolicy::ScheduledWake(ScheduleConfig::default());
        assert!(WakePolicy::Hide.uses_port_refresh());
        assert!(WakePolicy::Hide.ap_btim_enabled());
        assert!(!WakePolicy::LegacyPsm.uses_port_refresh());
        assert!(!WakePolicy::LegacyPsm.ap_btim_enabled());
        assert!(!sched.uses_port_refresh());
        assert!(!sched.ap_btim_enabled());
        assert_eq!(WakePolicy::Hide.kind_id(), 0);
        assert_eq!(WakePolicy::LegacyPsm.kind_id(), 1);
        assert_eq!(sched.kind_id(), 2);
        assert_eq!(WakePolicy::default(), WakePolicy::Hide);
    }
}
