//! The discrete-event kernel: a binary-heap event calendar with seeded
//! tie-breaking, plus FIFO lanes for timers that arrive in time order.
//!
//! Events pop in ascending time order ([`f64::total_cmp`], so the order
//! is total even for pathological times). Two events at exactly the
//! same time are ordered by a per-event *tie key* drawn from a seeded
//! SplitMix64 generator at scheduling time, with the monotone schedule
//! sequence number as the final tiebreak. The effect: simultaneous
//! events interleave pseudo-randomly (no structural bias toward, say,
//! DTIM-before-refresh), yet the whole ordering is a pure function of
//! the seed and the schedule calls — reruns and any `--jobs` count see
//! the identical event sequence.
//!
//! # Why a binary heap
//!
//! Each BSS runs its own calendar, and it stays shallow: a few pending
//! timers per client plus one DTIM and one arrival. At 100 clients per
//! BSS under the `fleet_sim` churn defaults no queue holds more than
//! 286 events, where a heap push or pop costs a few comparisons on
//! cache-resident memory. The hierarchical timing wheel that used to
//! sit here was sized for a million resident events, and in a
//! micro-benchmark it took 1.5–1.9× the heap's time per event at every
//! depth a BSS can reach (DESIGN §14 has the measurements).
//!
//! # Why lanes beside the heap
//!
//! Most of a BSS's events are chains the caller schedules in time
//! order anyway: the next DTIM, the next broadcast arrival, and
//! refresh timers that each fall a fixed interval after the event that
//! schedules them. In the fleet-churn benchmark (1500 BSS × 100 clients
//! under the `fleet_sim` churn defaults) they are 1.89 M of the 2.44 M
//! events of a run. [`EventQueue::schedule_in`] appends such an event
//! to the back of a FIFO lane in O(1), and a pop takes the least of the
//! heap top and the lane fronts, so these events never pay the heap's
//! sift-up and sift-down. Each lane stays sorted by `(time, tie, seq)`:
//! a push that would sort before its lane's back goes to the heap
//! instead, so a caller that breaks its own order (or two pushes at
//! exactly one time whose tie draws come out backwards) costs a heap
//! push, never a wrong pop.
//!
//! # Determinism contract
//!
//! The pop sequence is the `(time, tie, seq)` order, with the tie
//! stream drawn once per `schedule` or `schedule_in` call in call
//! order; which lane, if any, holds an event never changes when it
//! pops. `crates/fleet/tests/proptest_kernel.rs` pins it against a
//! sorted-`Vec` oracle that has no lanes and replays the same tie
//! stream, so every `hide-metrics/1` artifact produced through the
//! kernel depends only on the seed and the schedule calls.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// SplitMix64 step — the same mixer the vendored rand crate uses to
/// spread seeds; good enough for tie keys and cheap per call.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a decorrelated child seed from a base seed and an index —
/// how the fleet gives every BSS its own RNG stream.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut state = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut state)
}

/// One scheduled entry. Ordering is (time, tie, seq) ascending; the
/// payload never participates, so `E` needs no trait bounds.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: f64,
    tie: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.tie.cmp(&self.tie))
            .then(other.seq.cmp(&self.seq))
    }
}

impl<E> Scheduled<E> {
    /// Whether `self` pops before `other`: it has the lesser
    /// `(time, tie, seq)`, which the reversed [`Ord`] ranks greater.
    #[inline]
    fn precedes(&self, other: &Self) -> bool {
        self.cmp(other).is_gt()
    }
}

/// A deterministic event calendar.
///
/// # Example
///
/// ```
/// use hide_fleet::kernel::EventQueue;
///
/// let mut q = EventQueue::with_seed(7);
/// q.schedule(2.0, "late");
/// q.schedule(1.0, "early");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// FIFO lanes, each sorted by `(time, tie, seq)` front to back.
    lanes: Vec<VecDeque<Scheduled<E>>>,
    seq: u64,
    tie_state: u64,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue whose tie-breaking stream derives from
    /// `seed`.
    pub fn with_seed(seed: u64) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            seq: 0,
            tie_state: seed ^ 0x6a09_e667_f3bc_c908,
            popped: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics when `time` is not finite — a NaN deadline is always a
    /// caller bug, and `total_cmp` would sort `+inf` after every real
    /// time and silently starve the event (`-inf` would hijack the
    /// queue head instead).
    pub fn schedule(&mut self, time: f64, event: E) {
        let entry = self.entry(time, event);
        self.heap.push(entry);
    }

    /// [`schedule`](Self::schedule) for a timer chain the caller
    /// schedules in non-decreasing time: the event joins the back of
    /// FIFO lane `lane` (lanes are numbered from 0 and created on first
    /// use). An event that would sort before the lane's back goes to
    /// the heap instead, so the pop order is the same as if every
    /// event had gone to the heap.
    ///
    /// # Panics
    ///
    /// Panics when `time` is not finite, as [`schedule`](Self::schedule)
    /// does.
    pub fn schedule_in(&mut self, lane: usize, time: f64, event: E) {
        let entry = self.entry(time, event);
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let lane = &mut self.lanes[lane];
        match lane.back() {
            Some(back) if entry.precedes(back) => self.heap.push(entry),
            _ => lane.push_back(entry),
        }
    }

    /// Keys `event` for the calendar: one tie draw and one sequence
    /// number per schedule call.
    fn entry(&mut self, time: f64, event: E) -> Scheduled<E> {
        assert!(
            time.is_finite(),
            "event time must be finite (got {time}); NaN and infinite deadlines \
             would starve or hijack the queue"
        );
        let tie = splitmix64(&mut self.tie_state);
        let seq = self.seq;
        self.seq += 1;
        Scheduled {
            time,
            tie,
            seq,
            event,
        }
    }

    /// The earliest pending entry, and the lane holding it (`None` for
    /// the heap).
    #[inline]
    fn earliest(&self) -> (Option<&Scheduled<E>>, Option<usize>) {
        let mut best = self.heap.peek();
        let mut from = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(front) = lane.front() {
                if best.is_none_or(|b| front.precedes(b)) {
                    best = Some(front);
                    from = Some(i);
                }
            }
        }
        (best, from)
    }

    /// Removes and returns the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.pop_keyed().map(|(time, _, _, event)| (time, event))
    }

    /// [`EventQueue::pop`] including the deterministic ordering keys:
    /// `(time, tie, seq, event)`. The tie/seq exposure exists so tests
    /// can pin the full pop order against an oracle.
    pub fn pop_keyed(&mut self) -> Option<(f64, u64, u64, E)> {
        let s = match self.earliest().1 {
            None => self.heap.pop()?,
            Some(lane) => self.lanes[lane]
                .pop_front()
                .expect("earliest() saw this lane's front"),
        };
        self.popped += 1;
        Some((s.time, s.tie, s.seq, s.event))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.earliest().0.map(|s| s.time)
    }

    /// Number of events currently scheduled, in the heap and the lanes.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// `true` when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events popped so far (the kernel's work measure).
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

/// The sorted-`Vec` calendar oracle the kernel tests share.
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::SortedCalendar;
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::with_seed(1);
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            q.schedule(t, t as u32);
        }
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.popped(), 5);
    }

    #[test]
    fn same_seed_same_tie_order() {
        let order = |seed: u64| -> Vec<u32> {
            let mut q = EventQueue::with_seed(seed);
            for i in 0..64u32 {
                q.schedule(1.0, i);
            }
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
        };
        assert_eq!(order(9), order(9));
        // Not schedule order: the tie key shuffles simultaneous events.
        assert_ne!(order(9), (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn different_seeds_shuffle_ties_differently() {
        let order = |seed: u64| -> Vec<u32> {
            let mut q = EventQueue::with_seed(seed);
            for i in 0..64u32 {
                q.schedule(1.0, i);
            }
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
        };
        assert_ne!(order(1), order(2));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::with_seed(0);
        q.schedule(10.0, "b");
        q.schedule(1.0, "a");
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.pop(), Some((1.0, "a")));
        q.schedule(5.0, "c");
        assert_eq!(q.pop(), Some((5.0, "c")));
        assert_eq!(q.pop(), Some((10.0, "b")));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn zero_delay_reschedule_lands_in_the_tie_group() {
        let mut q = EventQueue::with_seed(3);
        q.schedule(1.0, "first");
        q.schedule(2.0, "later");
        let (now, _) = q.pop().unwrap();
        // A handler rescheduling at its own pop time must sort against
        // any pending same-time events by (tie, seq), not jump or lag.
        q.schedule(now, "again");
        assert_eq!(q.pop(), Some((1.0, "again")));
        assert_eq!(q.pop(), Some((2.0, "later")));
    }

    #[test]
    fn scheduling_before_the_last_pop_still_pops_first() {
        let mut q = EventQueue::with_seed(5);
        q.schedule(10.0, "b");
        assert_eq!(q.pop(), Some((10.0, "b")));
        // A schedule in the past is still the earliest pending event.
        q.schedule(3.0, "past");
        q.schedule(11.0, "future");
        assert_eq!(q.peek_time(), Some(3.0));
        assert_eq!(q.pop(), Some((3.0, "past")));
        assert_eq!(q.pop(), Some((11.0, "future")));
    }

    #[test]
    fn far_horizon_and_dense_times_mix() {
        let mut q = EventQueue::with_seed(11);
        let times = [1e-9, 7.25e8, 3.0, 3.0000000000000004, 1e12, 0.5, 3.0];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut popped: Vec<f64> = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t);
        }
        let mut want = times.to_vec();
        want.sort_by(f64::total_cmp);
        assert_eq!(popped, want);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_rejected() {
        let mut q = EventQueue::with_seed(0);
        q.schedule(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn positive_infinity_rejected() {
        // `total_cmp` would sort +inf after every real time — a
        // silently starved event. It fails at the call site instead.
        let mut q = EventQueue::with_seed(0);
        q.schedule(f64::INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_infinity_rejected() {
        let mut q = EventQueue::with_seed(0);
        q.schedule(f64::NEG_INFINITY, ());
    }

    #[test]
    fn matches_sorted_oracle_on_a_mixed_workload() {
        // A compact inline differential check; the proptest owns the
        // exhaustive version. The in-order times alternate between two
        // lanes, with exact ties; the far-horizon ones go to the heap.
        let mut queue = EventQueue::with_seed(42);
        let mut oracle = SortedCalendar::with_seed(42);
        let mut t = 0.25f64;
        for i in 0..200u32 {
            if i % 7 == 0 {
                queue.schedule(1e9 + t, i);
                oracle.schedule(1e9 + t, i);
            } else {
                queue.schedule_in(i as usize % 2, t, i);
                oracle.schedule(t, i);
            }
            t += if i % 3 == 0 { 0.0 } else { 0.125 };
            if i % 5 == 4 {
                assert_eq!(queue.pop_keyed(), oracle.pop_keyed());
            }
            assert_eq!(queue.len(), oracle.len());
            assert_eq!(queue.peek_time(), oracle.peek_time());
        }
        loop {
            let a = queue.pop_keyed();
            let b = oracle.pop_keyed();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(queue.popped(), 200);
    }

    #[test]
    fn derive_seed_decorrelates() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(42, 0));
    }
}
