//! Deterministic observability for the HIDE workspace.
//!
//! Every crate in the workspace emits metrics through one narrow
//! interface — the [`MetricsSink`] trait — so the hot paths stay
//! instrumentable without paying for instrumentation they don't use:
//!
//! * [`NoopSink`] is a zero-sized sink whose methods are empty and
//!   `#[inline]`; code generic over `S: MetricsSink` monomorphizes the
//!   calls away entirely, so an uninstrumented run pays nothing for the
//!   instrumentation it skips.
//! * [`Recorder`] is the real sink: flat arrays of [`Counter`]s,
//!   fixed-bucket [`Histogram`]s keyed by [`Distribution`], and
//!   per-[`Stage`] span timings.
//!
//! Event tracing follows the same shape one level down: hot paths are
//! generic over a [`TraceSink`], [`NoopTrace`] monomorphizes to
//! nothing, and the [`FlightRecorder`] is the real sink — a bounded
//! ring buffer of structured [`TraceEvent`]s in simulation-time order,
//! exportable as JSONL or Chrome-trace JSON ([`crate::export`]) and
//! analyzable for wakeup provenance ([`crate::provenance`]).
//!
//! A third seam is deliberately kept on the *other* side of the
//! determinism fence: [`SpanSink`] ([`crate::runtime`]) is the one
//! wall-clock timing seam, generic over the stage type. The daemon
//! times its hot-path stages through it into log-scale
//! [`LatencyHistogram`]s ([`AtomicRuntime`]), and the fleet kernel
//! times its stages into its own profile; [`NoopSpans`] is zero-cost
//! and never reads the clock. The leveled structured logger
//! ([`crate::log`]) gates stderr output and retains recent warn/error
//! records. Nothing from this plane may feed the `hide-metrics/1`
//! artifact.
//!
//! Both planes bucket through one histogram implementation,
//! [`LogHistogram`], in two layouts: the deterministic [`Histogram`]
//! (32 power-of-two buckets) and the wall-clock [`LatencyHistogram`]
//! (8 sub-buckets per power of two).
//!
//! The workspace reads its own JSON documents (traces, metrics
//! artifacts, the daemon's health report) through one reader,
//! [`crate::json`], whose escaper is also the one that writers use.
//!
//! # Determinism rules
//!
//! The recorder is built for **byte-identical output at any `--jobs`
//! count**:
//!
//! 1. Counters and histograms only ever record *values computed by the
//!    simulation* — frame counts, byte lengths, table sizes — never
//!    wall-clock time, addresses, or thread identity.
//! 2. Merging is elementwise addition, which is associative and
//!    commutative, so per-worker recorders fanned in **in input order**
//!    (the `hide-par` convention) equal the sequential recorder exactly.
//! 3. Span timers *do* measure wall-clock time, so they are excluded
//!    from the serialized artifact: [`Recorder::to_json`] emits counter
//!    and histogram values plus per-stage *call counts*, while the
//!    nanosecond totals appear only in the human-readable
//!    [`Recorder::render_summary`] table.
//!
//! # Example
//!
//! ```
//! use hide_obs::{Counter, Distribution, MetricsSink, Recorder, Stage};
//!
//! fn deliver<S: MetricsSink>(frames: &[u32], sink: &mut S) {
//!     sink.add(Counter::FramesDelivered, frames.len() as u64);
//!     sink.observe(Distribution::DeliveredPerRun, frames.len() as u64);
//! }
//!
//! let mut a = Recorder::new();
//! let mut b = Recorder::new();
//! a.time(Stage::Extensions, || deliver(&[1, 2, 3], &mut b));
//! a.merge_from(&b);
//! assert_eq!(a.counter(Counter::FramesDelivered), 3);
//! assert!(a.to_json().contains("\"frames_delivered\": 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod latency;
pub mod log;
pub mod metric;
pub mod provenance;
pub mod recorder;
pub mod runtime;
pub mod sink;
pub mod spill;
pub mod trace;

pub use latency::{Histogram, LatencyHistogram, LatencySummary, LogHistogram, LATENCY_BUCKETS};
pub use log::{LogLevel, LogRecord};
pub use metric::{Counter, Distribution, Stage};
pub use provenance::{CauseCounts, ClientKey, ClientWakes, ProvenanceBreakdown, ProvenanceLedger};
pub use recorder::{Recorder, StageTiming};
pub use runtime::{AtomicRuntime, NoopSpans, RateMeter, RtStage, SpanSink};
pub use sink::{MetricsSink, NoopSink};
pub use spill::{
    EventSource, HashingWriter, KWayMerge, RunMeta, RunReader, SpillError, SpillIndex, SpillWriter,
    DEFAULT_CHUNK_EVENTS, SPILL_MAGIC,
};
pub use trace::{
    FlightRecorder, NoopTrace, TraceEvent, TraceEventKind, TraceSink, WakeCause, WakeClass,
    DEFAULT_TRACE_CAPACITY,
};
