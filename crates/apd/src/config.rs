//! Daemon configuration.

use crate::error::ApdError;
use hide_wifi::mac::{MacAddr, MAX_AID};
use std::path::PathBuf;

/// Configuration for [`DaemonHandle::spawn`](crate::DaemonHandle::spawn).
///
/// Marked `#[non_exhaustive]`: construct via [`ApdConfig::new`] (or
/// `Default`) and refine with the chainable setters, so new knobs can
/// be added without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ApdConfig {
    /// Address the data socket binds (UDP). Port 0 picks an ephemeral
    /// port; read the real one from
    /// [`DaemonHandle::data_addr`](crate::DaemonHandle::data_addr).
    pub bind_addr: String,
    /// Address the control socket binds (UDP).
    pub ctrl_addr: String,
    /// Number of shard threads; the AID space `1..=2007` is split into
    /// that many disjoint ranges, one per shard.
    pub shards: usize,
    /// BSSID the daemon's access point advertises.
    pub bssid: MacAddr,
    /// SSID the daemon's access point advertises.
    pub ssid: String,
    /// DTIM period (beacons per DTIM).
    pub dtim_period: u8,
    /// Real-time seconds between DTIM ticks, or `None` to disable the
    /// timer thread — cadence is then driven by `tick` control
    /// requests, which is what lockstep tests and the load generator
    /// use.
    pub beacon_interval_secs: Option<f64>,
    /// Emit a `hide-metrics/1` telemetry dump every this many DTIM
    /// ticks (only when [`ApdConfig::telemetry_path`] is set).
    pub metrics_every_ticks: u64,
    /// Where periodic telemetry dumps are written (overwritten each
    /// time, so the file always holds the latest snapshot).
    pub telemetry_path: Option<PathBuf>,
    /// Where `snapshot` control requests and shutdown write the client
    /// table (`hide-apdsnap/1`).
    pub snapshot_path: Option<PathBuf>,
    /// Restore the client table from [`ApdConfig::snapshot_path`] at
    /// spawn when the file exists.
    pub restore: bool,
    /// Expire port-table entries not refreshed for this many seconds
    /// (checked at each DTIM tick). `None` disables expiry *and* makes
    /// every port-message refresh untimed, which keeps daemon state
    /// byte-comparable with offline replays.
    pub stale_timeout_secs: Option<f64>,
    /// Maximum broadcast data frames queued per shard before the
    /// router starts dropping them (management frames are never
    /// dropped).
    pub backpressure_watermark: usize,
    /// Record wall-clock stage latencies into the live
    /// [`hide_obs::AtomicRuntime`] plane. When `false` the daemon is
    /// compiled against [`hide_obs::NoopSpans`] and never reads the
    /// clock on the hot path; `health`/`expo` still work but report
    /// empty stage histograms.
    pub runtime_telemetry: bool,
    /// Last-progress age (seconds) beyond which the watchdog flags a
    /// shard with a non-empty inbound queue as stalled.
    pub watchdog_stall_secs: f64,
    /// Seconds between watchdog checks (also the rate-meter sampling
    /// cadence).
    pub watchdog_interval_secs: f64,
    /// Where the final `hide-apd-health/1` document is written at
    /// shutdown.
    pub health_path: Option<PathBuf>,
}

impl ApdConfig {
    /// The default loopback configuration: one shard, ephemeral ports,
    /// no timer, no persistence.
    #[must_use]
    pub fn new() -> Self {
        ApdConfig {
            bind_addr: "127.0.0.1:0".into(),
            ctrl_addr: "127.0.0.1:0".into(),
            shards: 1,
            bssid: MacAddr::station(0),
            ssid: "hide".into(),
            dtim_period: 1,
            beacon_interval_secs: None,
            metrics_every_ticks: 100,
            telemetry_path: None,
            snapshot_path: None,
            restore: false,
            stale_timeout_secs: None,
            backpressure_watermark: 4096,
            runtime_telemetry: true,
            watchdog_stall_secs: 5.0,
            watchdog_interval_secs: 1.0,
            health_path: None,
        }
    }

    /// Sets the data-socket bind address.
    #[must_use]
    pub fn bind(mut self, addr: impl Into<String>) -> Self {
        self.bind_addr = addr.into();
        self
    }

    /// Sets the control-socket bind address.
    #[must_use]
    pub fn ctrl(mut self, addr: impl Into<String>) -> Self {
        self.ctrl_addr = addr.into();
        self
    }

    /// Sets the shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables the DTIM timer thread at `secs` per beacon interval.
    #[must_use]
    pub fn beacon_interval_secs(mut self, secs: f64) -> Self {
        self.beacon_interval_secs = Some(secs);
        self
    }

    /// Sets the telemetry dump path.
    #[must_use]
    pub fn telemetry_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.telemetry_path = Some(path.into());
        self
    }

    /// Sets the snapshot path.
    #[must_use]
    pub fn snapshot_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
        self
    }

    /// Restores from the snapshot path at spawn when the file exists.
    #[must_use]
    pub fn restore(mut self, restore: bool) -> Self {
        self.restore = restore;
        self
    }

    /// Sets the port-table staleness timeout.
    #[must_use]
    pub fn stale_timeout_secs(mut self, secs: f64) -> Self {
        self.stale_timeout_secs = Some(secs);
        self
    }

    /// Sets the per-shard broadcast backpressure watermark.
    #[must_use]
    pub fn backpressure_watermark(mut self, frames: usize) -> Self {
        self.backpressure_watermark = frames;
        self
    }

    /// Enables or disables wall-clock stage-latency recording.
    #[must_use]
    pub fn runtime_telemetry(mut self, on: bool) -> Self {
        self.runtime_telemetry = on;
        self
    }

    /// Sets the watchdog stall threshold (seconds of no progress with
    /// a non-empty queue).
    #[must_use]
    pub fn watchdog_stall_secs(mut self, secs: f64) -> Self {
        self.watchdog_stall_secs = secs;
        self
    }

    /// Sets the watchdog check cadence.
    #[must_use]
    pub fn watchdog_interval_secs(mut self, secs: f64) -> Self {
        self.watchdog_interval_secs = secs;
        self
    }

    /// Sets the shutdown health-dump path.
    #[must_use]
    pub fn health_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.health_path = Some(path.into());
        self
    }

    /// The disjoint AID range `(lo, hi)` shard `index` owns.
    ///
    /// The 2007 AIDs are split as evenly as possible; earlier shards
    /// take the remainder, and every AID belongs to exactly one shard.
    #[must_use]
    pub fn aid_range_of(&self, index: usize) -> (u16, u16) {
        let shards = self.shards as u16;
        let per = MAX_AID / shards;
        let extra = MAX_AID % shards;
        let i = index as u16;
        let lo = 1 + i * per + i.min(extra);
        let hi = lo + per - 1 + u16::from(i < extra);
        (lo, hi)
    }

    pub(crate) fn validate(&self) -> Result<(), ApdError> {
        if self.shards == 0 {
            return Err(ApdError::Config("shards must be >= 1".into()));
        }
        if self.shards > usize::from(MAX_AID) {
            return Err(ApdError::Config(format!(
                "shards {} exceeds the {} available AIDs",
                self.shards, MAX_AID
            )));
        }
        if self.ssid.len() > hide_wifi::assoc::MAX_SSID_LEN {
            return Err(ApdError::Config(format!(
                "ssid of {} octets is longer than {}",
                self.ssid.len(),
                hide_wifi::assoc::MAX_SSID_LEN
            )));
        }
        if let Some(secs) = self.beacon_interval_secs {
            if secs.is_nan() || secs <= 0.0 {
                return Err(ApdError::Config(format!(
                    "beacon interval must be positive, got {secs}"
                )));
            }
        }
        if let Some(secs) = self.stale_timeout_secs {
            if secs.is_nan() || secs <= 0.0 {
                return Err(ApdError::Config(format!(
                    "stale timeout must be positive, got {secs}"
                )));
            }
        }
        if self.backpressure_watermark == 0 {
            return Err(ApdError::Config(
                "backpressure watermark must be >= 1".into(),
            ));
        }
        for (name, secs) in [
            ("watchdog stall threshold", self.watchdog_stall_secs),
            ("watchdog interval", self.watchdog_interval_secs),
        ] {
            if secs.is_nan() || secs <= 0.0 {
                return Err(ApdError::Config(format!(
                    "{name} must be positive, got {secs}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for ApdConfig {
    fn default() -> Self {
        ApdConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aid_ranges_partition_the_space() {
        for shards in [1usize, 2, 3, 7, 64] {
            let cfg = ApdConfig::new().shards(shards);
            let mut covered = 0u32;
            let mut prev_hi = 0u16;
            for i in 0..shards {
                let (lo, hi) = cfg.aid_range_of(i);
                assert_eq!(lo, prev_hi + 1, "shards={shards} i={i}");
                assert!(hi >= lo);
                covered += u32::from(hi - lo + 1);
                prev_hi = hi;
            }
            assert_eq!(prev_hi, MAX_AID, "shards={shards}");
            assert_eq!(covered, u32::from(MAX_AID));
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(ApdConfig::new().shards(0).validate().is_err());
        assert!(ApdConfig::new()
            .beacon_interval_secs(0.0)
            .validate()
            .is_err());
        assert!(ApdConfig::new()
            .stale_timeout_secs(-1.0)
            .validate()
            .is_err());
        assert!(ApdConfig::new()
            .backpressure_watermark(0)
            .validate()
            .is_err());
        assert!(ApdConfig::new()
            .watchdog_stall_secs(0.0)
            .validate()
            .is_err());
        assert!(ApdConfig::new()
            .watchdog_interval_secs(f64::NAN)
            .validate()
            .is_err());
        assert!(ApdConfig::new().validate().is_ok());
    }

    #[test]
    fn validation_bounds_the_ssid_at_32_octets() {
        let mut cfg = ApdConfig::new();
        cfg.ssid = "x".repeat(32);
        assert!(cfg.validate().is_ok());
        cfg.ssid = "x".repeat(300);
        assert!(matches!(cfg.validate(), Err(ApdError::Config(msg)) if msg.contains("300")));
    }
}
