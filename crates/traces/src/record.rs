//! Trace records: one captured (synthesized) broadcast frame per entry.
//!
//! [`Trace::port_histogram`] is the input of every port-based marking
//! (see [`crate::useful`]), so it runs once per HIDE, hybrid,
//! network-sim and reliability run. It counts into a flat table with
//! one slot per UDP port and sorts only the distinct ports: one
//! increment per frame, with no tree insert.

use crate::stats::Cdf;
use hide_wifi::phy::DataRate;

/// Number of distinct UDP ports: the size of a table indexed by port.
pub(crate) const PORT_COUNT: usize = 1 << 16;

/// One UDP-padded broadcast frame in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceFrame {
    /// On-air start time, seconds from trace start.
    pub time: f64,
    /// Total frame length in bytes (MAC header + LLC/SNAP + IP + UDP +
    /// payload), the `l_i` of the energy model.
    pub len_bytes: u16,
    /// PHY data rate the frame was sent at (`r_i`).
    pub rate: DataRate,
    /// UDP destination port — what HIDE keys usefulness on.
    pub dst_port: u16,
    /// The MAC *More Data* bit as observed on air.
    pub more_data: bool,
}

impl TraceFrame {
    /// On-air duration of the frame in seconds (PHY preamble included).
    pub fn airtime(&self) -> f64 {
        hide_wifi::phy::airtime_of_total_bytes(self.len_bytes as usize, self.rate)
    }
}

/// A broadcast traffic trace: a duration plus time-sorted frames.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Name of the capture scenario.
    pub scenario: String,
    /// Capture duration in seconds.
    pub duration: f64,
    /// Frames sorted by [`TraceFrame::time`].
    pub frames: Vec<TraceFrame>,
}

impl Trace {
    /// Creates a trace, sorting frames by time.
    pub fn new(scenario: impl Into<String>, duration: f64, mut frames: Vec<TraceFrame>) -> Self {
        frames.sort_by(|a, b| a.time.total_cmp(&b.time));
        Trace {
            scenario: scenario.into(),
            duration,
            frames,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when the trace has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Mean broadcast frames per second over the whole trace — the
    /// black squares of Fig. 6.
    pub fn mean_fps(&self) -> f64 {
        if self.duration > 0.0 {
            self.frames.len() as f64 / self.duration
        } else {
            0.0
        }
    }

    /// Per-second frame counts (1-second bins over the duration).
    pub fn per_second_counts(&self) -> Vec<u32> {
        let bins = self.duration.ceil().max(1.0) as usize;
        let mut counts = vec![0u32; bins];
        for f in &self.frames {
            let bin = (f.time as usize).min(bins - 1);
            counts[bin] += 1;
        }
        counts
    }

    /// Empirical CDF of the per-second frame counts — the curves of
    /// Fig. 6.
    pub fn fps_cdf(&self) -> Cdf {
        Cdf::from_samples(self.per_second_counts().iter().map(|&c| c as f64))
    }

    /// Histogram of frames per UDP destination port, descending by
    /// count (ties ascending by port).
    pub fn port_histogram(&self) -> Vec<(u16, usize)> {
        let mut counts = vec![0usize; PORT_COUNT];
        let mut ports = Vec::new();
        for f in &self.frames {
            let count = &mut counts[usize::from(f.dst_port)];
            if *count == 0 {
                ports.push(f.dst_port);
            }
            *count += 1;
        }
        let mut hist: Vec<(u16, usize)> = ports
            .into_iter()
            .map(|p| (p, counts[usize::from(p)]))
            .collect();
        hist.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hist
    }

    /// Recomputes every frame's *More Data* bit with the same-beacon-
    /// interval rule: set when the next frame starts in the same beacon
    /// interval of length `beacon_interval`.
    pub fn assign_more_data(&mut self, beacon_interval: f64) {
        let n = self.frames.len();
        for i in 0..n {
            let more = i + 1 < n && {
                let a = (self.frames[i].time / beacon_interval) as u64;
                let b = (self.frames[i + 1].time / beacon_interval) as u64;
                a == b
            };
            self.frames[i].more_data = more;
        }
    }

    /// Returns the sub-trace containing only frames whose index
    /// satisfies `keep`, preserving duration and scenario.
    pub fn filter_by_index<F: FnMut(usize) -> bool>(&self, mut keep: F) -> Trace {
        Trace {
            scenario: self.scenario.clone(),
            duration: self.duration,
            frames: self
                .frames
                .iter()
                .enumerate()
                .filter(|(i, _)| keep(*i))
                .map(|(_, f)| *f)
                .collect(),
        }
    }

    /// Extracts the window `[start, end)` as a new trace whose frames
    /// are re-based to start at time 0.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= start < end`.
    pub fn slice(&self, start: f64, end: f64) -> Trace {
        assert!(start >= 0.0 && end > start, "need 0 <= start < end");
        let end = end.min(self.duration);
        let frames = self
            .frames
            .iter()
            .filter(|f| f.time >= start && f.time < end)
            .map(|f| TraceFrame {
                time: f.time - start,
                ..*f
            })
            .collect();
        Trace {
            scenario: format!("{}[{start:.0}s..{end:.0}s]", self.scenario),
            duration: end - start,
            frames,
        }
    }

    /// Merges several traces onto one timeline (superimposing their
    /// frames; think multiple capture points at the same venue). The
    /// result spans the longest input.
    pub fn merge<'a, I: IntoIterator<Item = &'a Trace>>(name: &str, traces: I) -> Trace {
        let mut frames = Vec::new();
        let mut duration = 0.0f64;
        for t in traces {
            frames.extend_from_slice(&t.frames);
            duration = duration.max(t.duration);
        }
        Trace::new(name, duration.max(f64::MIN_POSITIVE), frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(time: f64, port: u16) -> TraceFrame {
        TraceFrame {
            time,
            len_bytes: 300,
            rate: DataRate::R1M,
            dst_port: port,
            more_data: false,
        }
    }

    #[test]
    fn new_sorts_frames() {
        let t = Trace::new("x", 10.0, vec![frame(5.0, 1), frame(1.0, 2)]);
        assert!(t.frames[0].time < t.frames[1].time);
    }

    #[test]
    fn mean_fps() {
        let frames = (0..20).map(|i| frame(i as f64 * 0.5, 1)).collect();
        let t = Trace::new("x", 10.0, frames);
        assert!((t.mean_fps() - 2.0).abs() < 1e-12);
        let empty = Trace::new("x", 10.0, vec![]);
        assert_eq!(empty.mean_fps(), 0.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn per_second_counts_bins_correctly() {
        let t = Trace::new(
            "x",
            3.0,
            vec![frame(0.1, 1), frame(0.9, 1), frame(1.5, 1), frame(2.99, 1)],
        );
        assert_eq!(t.per_second_counts(), vec![2, 1, 1]);
    }

    #[test]
    fn frame_at_exact_duration_goes_to_last_bin() {
        let t = Trace::new("x", 2.0, vec![frame(2.0, 1)]);
        assert_eq!(t.per_second_counts(), vec![0, 1]);
    }

    #[test]
    fn port_histogram_descending() {
        let t = Trace::new("x", 10.0, vec![frame(0.0, 5), frame(1.0, 5), frame(2.0, 9)]);
        assert_eq!(t.port_histogram(), vec![(5, 2), (9, 1)]);
    }

    #[test]
    fn assign_more_data_uses_beacon_intervals() {
        let mut t = Trace::new(
            "x",
            1.0,
            vec![frame(0.01, 1), frame(0.05, 1), frame(0.30, 1)],
        );
        t.assign_more_data(0.1024);
        let bits: Vec<bool> = t.frames.iter().map(|f| f.more_data).collect();
        assert_eq!(bits, vec![true, false, false]);
    }

    #[test]
    fn filter_by_index_keeps_metadata() {
        let t = Trace::new("x", 10.0, vec![frame(0.0, 1), frame(1.0, 2)]);
        let f = t.filter_by_index(|i| i == 1);
        assert_eq!(f.len(), 1);
        assert_eq!(f.frames[0].dst_port, 2);
        assert_eq!(f.duration, 10.0);
        assert_eq!(f.scenario, "x");
    }

    #[test]
    fn slice_rebases_times() {
        let t = Trace::new("x", 10.0, vec![frame(1.0, 1), frame(4.0, 2), frame(9.0, 3)]);
        let s = t.slice(3.0, 8.0);
        assert_eq!(s.len(), 1);
        assert!((s.frames[0].time - 1.0).abs() < 1e-12);
        assert_eq!(s.duration, 5.0);
        assert!(s.scenario.contains("x["));
    }

    #[test]
    fn slice_clamps_to_duration() {
        let t = Trace::new("x", 10.0, vec![frame(9.5, 1)]);
        let s = t.slice(9.0, 100.0);
        assert_eq!(s.duration, 1.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "start < end")]
    fn bad_slice_panics() {
        let t = Trace::new("x", 10.0, vec![]);
        let _ = t.slice(5.0, 5.0);
    }

    #[test]
    fn merge_superimposes_sorted() {
        let a = Trace::new("a", 10.0, vec![frame(1.0, 1), frame(5.0, 1)]);
        let b = Trace::new("b", 20.0, vec![frame(3.0, 2)]);
        let m = Trace::merge("ab", [&a, &b]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.duration, 20.0);
        let times: Vec<f64> = m.frames.iter().map(|f| f.time).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let m = Trace::merge("none", []);
        assert!(m.is_empty());
    }

    #[test]
    fn airtime_positive_and_rate_sensitive() {
        let slow = frame(0.0, 1);
        let mut fast = frame(0.0, 1);
        fast.rate = DataRate::R11M;
        assert!(fast.airtime() < slow.airtime());
        assert!(fast.airtime() > 0.0);
    }
}
