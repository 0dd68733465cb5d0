//! Property-based differential test: the event calendar
//! ([`EventQueue`]) must pop the *identical* `(time, tie, seq, event)`
//! sequence as a sorted-`Vec` oracle ([`SortedCalendar`]) for any
//! interleaving of schedules and pops — exact time ties, zero-delay
//! self-reschedules, and far-horizon outliers included. The oracle
//! replays the calendar's seeded SplitMix64 tie stream, so any
//! divergence is a calendar ordering bug, not noise.

mod oracle;

use hide_fleet::EventQueue;
use oracle::SortedCalendar;
use proptest::collection::vec;
use proptest::prelude::*;

/// One scripted action against both calendars.
#[derive(Debug, Clone, Copy)]
enum Action {
    Schedule(f64),
    /// Pop once; on `Some`, reschedule the popped event `delay`
    /// seconds later (zero models the self-rescheduling DTIM).
    PopThenReschedule(Option<f64>),
}

/// Actions mix three time regimes — a dense near-horizon band
/// (sub-second gaps), repeats of round values (exact tie groups), and
/// far-horizon outliers — with pops, some of which self-reschedule at
/// zero or positive delay.
fn action_strategy() -> impl Strategy<Value = Action> {
    (0u32..8, 0u32..2_000, 0u32..100).prop_map(|(kind, t, d)| match kind {
        0..=2 => Action::Schedule(t as f64 * 0.1024),
        3 => Action::Schedule((t % 50) as f64),
        4 => Action::Schedule((t % 6) as f64 * 86_400.0),
        5 => Action::PopThenReschedule(None),
        6 => Action::PopThenReschedule(Some(0.0)),
        _ => Action::PopThenReschedule(Some(d as f64 * 0.5)),
    })
}

proptest! {
    /// Replay a random schedule/pop script against both calendars and
    /// demand keyed-pop equality at every step, then drain both.
    #[test]
    fn queue_and_oracle_pop_identical_keyed_sequences(
        seed in any::<u64>(),
        script in vec(action_strategy(), 1..200),
    ) {
        let mut queue = EventQueue::with_seed(seed);
        let mut oracle = SortedCalendar::with_seed(seed);
        let mut next_id: u32 = 0;
        for action in script {
            match action {
                Action::Schedule(t) => {
                    queue.schedule(t, next_id);
                    oracle.schedule(t, next_id);
                    next_id += 1;
                }
                Action::PopThenReschedule(delay) => {
                    let q = queue.pop_keyed();
                    let o = oracle.pop_keyed();
                    prop_assert_eq!(q, o);
                    if let (Some((t, _, _, ev)), Some(delay)) = (q, delay) {
                        queue.schedule(t + delay, ev);
                        oracle.schedule(t + delay, ev);
                    }
                }
            }
            prop_assert_eq!(queue.len(), oracle.len());
        }
        loop {
            let q = queue.pop_keyed();
            let o = oracle.pop_keyed();
            prop_assert_eq!(q, o);
            if q.is_none() {
                break;
            }
        }
        prop_assert!(queue.is_empty() && oracle.len() == 0);
    }

    /// Exact ties are the adversarial case: many events on one
    /// timestamp must still come out in seeded-tie order.
    #[test]
    fn exact_tie_groups_pop_in_identical_order(
        seed in any::<u64>(),
        group_sizes in vec(1usize..12, 1..8),
    ) {
        let mut queue = EventQueue::with_seed(seed);
        let mut oracle = SortedCalendar::with_seed(seed);
        let mut id: u32 = 0;
        for (g, &size) in group_sizes.iter().enumerate() {
            let t = g as f64 * 0.1024;
            for _ in 0..size {
                queue.schedule(t, id);
                oracle.schedule(t, id);
                id += 1;
            }
        }
        while let Some(o) = oracle.pop_keyed() {
            prop_assert_eq!(queue.pop_keyed(), Some(o));
        }
        prop_assert!(queue.pop_keyed().is_none());
    }
}
