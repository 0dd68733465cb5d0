//! A sorted-`Vec` oracle for the fleet's event calendar
//! (`hide_fleet::EventQueue`), shared by the kernel's unit tests and
//! `proptest_kernel.rs`.
//!
//! It replays the calendar's tie stream — one SplitMix64 draw per
//! `schedule` call, seeded with `seed ^ 0x6a09_e667_f3bc_c908` — and
//! keeps the pending events sorted by `(time, tie, seq)` with a plain
//! binary-search insert, so a queue that pops anything else has an
//! ordering bug.

/// Pending events sorted descending by `(time, tie, seq)`: the next
/// pop comes off the back.
pub struct SortedCalendar<E> {
    pending: Vec<(f64, u64, u64, E)>,
    seq: u64,
    tie_state: u64,
}

impl<E> SortedCalendar<E> {
    /// An empty calendar replaying `EventQueue::with_seed(seed)`'s ties.
    pub fn with_seed(seed: u64) -> Self {
        SortedCalendar {
            pending: Vec::new(),
            seq: 0,
            tie_state: seed ^ 0x6a09_e667_f3bc_c908,
        }
    }

    /// Schedules `event` at `time`, drawing the next tie word.
    pub fn schedule(&mut self, time: f64, event: E) {
        self.tie_state = self.tie_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.tie_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let tie = z ^ (z >> 31);
        let seq = self.seq;
        self.seq += 1;
        let at = self.pending.partition_point(|&(t, k, s, _)| {
            t.total_cmp(&time).then((k, s).cmp(&(tie, seq))).is_gt()
        });
        self.pending.insert(at, (time, tie, seq, event));
    }

    /// Removes the earliest event with its `(time, tie, seq)` keys.
    pub fn pop_keyed(&mut self) -> Option<(f64, u64, u64, E)> {
        self.pending.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.pending.last().map(|&(t, ..)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }
}
