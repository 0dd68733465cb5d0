//! The unified AP call context.
//!
//! Every [`AccessPoint`](crate::ap::AccessPoint) operation used to come
//! in up to three spellings — plain, `_observed` (metrics), `_traced`
//! (metrics + events) — plus `_at` twins for timed refreshes. Each new
//! cross-cutting concern doubled the method surface. [`ApCtx`] collapses
//! the matrix: one canonical method per operation, taking the timestamp,
//! metrics sink and trace sink together.
//!
//! The context is generic over its sinks, so the no-op instantiation
//! ([`NoopSink`] + [`NoopTrace`]) monomorphizes to exactly the code the
//! old plain entry points compiled to — the collapse is free.
//!
//! # Example
//!
//! ```
//! use hide_core::ap::{AccessPoint, ApCtx};
//! use hide_obs::{Counter, Recorder};
//! use hide_wifi::frame::BeaconView;
//! use hide_wifi::mac::MacAddr;
//!
//! let mut ap = AccessPoint::new(MacAddr::station(0));
//! let mut beacon = Vec::new();
//! // Uninstrumented, untimed (what `dtim_beacon` sugars over):
//! ap.emit_dtim_beacon(0, &mut ApCtx::untimed(), &mut beacon);
//! assert!(BeaconView::parse(&beacon)?.btim().is_some());
//!
//! // Instrumented, stamped at 1.5 s:
//! let mut rec = Recorder::new();
//! ap.emit_dtim_beacon(1, &mut ApCtx::at(1.5).with_metrics(&mut rec), &mut beacon);
//! assert_eq!(rec.counter(Counter::BtimBeacons), 1);
//! # Ok::<(), hide_wifi::WifiError>(())
//! ```

use hide_obs::{MetricsSink, NoopSink, NoopTrace, TraceSink};

/// Timestamp, metrics sink and trace sink for one AP operation.
///
/// The sinks are held by value; pass `&mut Recorder` (the blanket
/// `MetricsSink for &mut S` / `TraceSink for &mut T` impls forward) to
/// keep ownership at the call site. `now` is optional: `None` means the
/// operation is untimed — port-table refreshes install entries exempt
/// from staleness expiry, and DTIM beacons derive their trace timestamp
/// from the beacon index as the trace-driven simulator always has.
#[derive(Debug)]
pub struct ApCtx<S: MetricsSink = NoopSink, T: TraceSink = NoopTrace> {
    now: Option<f64>,
    /// Where the operation's counters and distributions go.
    pub metrics: S,
    /// Where the operation's structured events go.
    pub trace: T,
}

impl ApCtx {
    /// An untimed, uninstrumented context — the zero-cost default.
    #[must_use]
    pub fn untimed() -> Self {
        ApCtx {
            now: None,
            metrics: NoopSink,
            trace: NoopTrace,
        }
    }

    /// An uninstrumented context stamped at `now` seconds.
    #[must_use]
    pub fn at(now: f64) -> Self {
        ApCtx {
            now: Some(now),
            metrics: NoopSink,
            trace: NoopTrace,
        }
    }
}

impl<S: MetricsSink, T: TraceSink> ApCtx<S, T> {
    /// The operation timestamp, if the caller provided one.
    #[must_use]
    pub fn now(&self) -> Option<f64> {
        self.now
    }

    /// Returns the context re-stamped at `now`.
    #[must_use]
    pub fn timestamped(mut self, now: f64) -> Self {
        self.now = Some(now);
        self
    }

    /// Returns the context with `metrics` as its metrics sink.
    #[must_use]
    pub fn with_metrics<S2: MetricsSink>(self, metrics: S2) -> ApCtx<S2, T> {
        ApCtx {
            now: self.now,
            metrics,
            trace: self.trace,
        }
    }

    /// Returns the context with `trace` as its trace sink.
    #[must_use]
    pub fn with_trace<T2: TraceSink>(self, trace: T2) -> ApCtx<S, T2> {
        ApCtx {
            now: self.now,
            metrics: self.metrics,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hide_obs::{Counter, Recorder};

    #[test]
    fn constructors_carry_time() {
        assert_eq!(ApCtx::untimed().now(), None);
        assert_eq!(ApCtx::at(3.5).now(), Some(3.5));
        assert_eq!(ApCtx::untimed().timestamped(1.0).now(), Some(1.0));
    }

    #[test]
    fn sinks_swap_without_losing_time() {
        let mut rec = Recorder::new();
        let ctx = ApCtx::at(2.0).with_metrics(&mut rec);
        ctx.metrics.incr(Counter::BtimBeacons);
        assert_eq!(ctx.now(), Some(2.0));
        let _ = ctx;
        assert_eq!(rec.counter(Counter::BtimBeacons), 1);
    }
}
