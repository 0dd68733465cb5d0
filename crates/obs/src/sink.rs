//! The [`MetricsSink`] trait and its zero-cost [`NoopSink`].

use crate::metric::{Counter, Distribution};

/// Where instrumented code sends its metrics.
///
/// Hot paths take `S: MetricsSink` as a generic parameter so the
/// compiler monomorphizes per sink: with [`NoopSink`] every call is an
/// empty inlined function and the instrumented code compiles to the
/// same machine code as the uninstrumented version; with
/// [`crate::Recorder`] each call is an array index and an add.
pub trait MetricsSink {
    /// Add `n` to a counter.
    fn add(&mut self, counter: Counter, n: u64);

    /// Record one observation of a distribution.
    fn observe(&mut self, dist: Distribution, value: u64);

    /// Add 1 to a counter.
    #[inline]
    fn incr(&mut self, counter: Counter) {
        self.add(counter, 1);
    }
}

/// A sink that discards everything, at zero cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl MetricsSink for NoopSink {
    #[inline]
    fn add(&mut self, _counter: Counter, _n: u64) {}

    #[inline]
    fn observe(&mut self, _dist: Distribution, _value: u64) {}
}

/// Forwarding impl so instrumented functions can be called with either
/// an owned sink or a borrowed one without extra generics at the call
/// site.
impl<S: MetricsSink + ?Sized> MetricsSink for &mut S {
    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        (**self).add(counter, n);
    }

    #[inline]
    fn observe(&mut self, dist: Distribution, value: u64) {
        (**self).observe(dist, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_accepts_everything() {
        let mut sink = NoopSink;
        sink.add(Counter::SimsRun, 10);
        sink.incr(Counter::SimsRun);
        sink.observe(Distribution::FramesPerDtim, 7);
    }

    #[test]
    fn forwarding_impl_reaches_the_recorder() {
        let mut rec = crate::Recorder::new();
        fn record_two<S: MetricsSink>(mut sink: S) {
            sink.incr(Counter::SimsRun);
            sink.incr(Counter::SimsRun);
        }
        record_two(&mut rec);
        assert_eq!(rec.counter(Counter::SimsRun), 2);
    }
}
