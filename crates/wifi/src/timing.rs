//! 802.11 time.
//!
//! 802.11 time is measured in *time units* (TU) of 1024 µs. An AP emits a
//! beacon every `beacon_interval` TUs; every `dtim_period`-th beacon is a
//! DTIM beacon, after which buffered broadcast/multicast frames are
//! delivered. The paper notes typical DTIM periods of 1–3 beacon intervals;
//! every layer of this reproduction runs the common 100 TU interval
//! (`TIME_UNIT_SECS * 100.0`, about 102.4 ms) at DTIM period 1.

/// One 802.11 time unit in seconds (1024 µs).
pub const TIME_UNIT_SECS: f64 = 1024e-6;
