//! Property-based differential test: the event calendar
//! ([`EventQueue`]) must pop the *identical* `(time, tie, seq, event)`
//! sequence as a sorted-`Vec` oracle ([`SortedCalendar`]) for any
//! interleaving of schedules and pops — exact time ties, zero-delay
//! self-reschedules, and far-horizon outliers included. Scripts send
//! each schedule call to the heap or to one of the calendar's FIFO
//! lanes, including lane pushes earlier than the lane's back and exact
//! ties inside a lane; the oracle has no lanes. It replays the
//! calendar's seeded SplitMix64 tie stream, so any divergence is a
//! calendar ordering bug, not noise.

mod oracle;

use hide_fleet::EventQueue;
use oracle::SortedCalendar;
use proptest::collection::vec;
use proptest::prelude::*;

/// Lanes the scripts use; the calendar creates them on first use.
const LANES: usize = 3;

/// One scripted action against both calendars. A `lane` of `None`
/// sends the schedule call to the heap.
#[derive(Debug, Clone, Copy)]
enum Action {
    Schedule(f64, Option<usize>),
    /// Schedule on a lane `delay` seconds after that lane's previous
    /// schedule call: an in-order timer chain, which a zero delay
    /// turns into an exact tie inside the lane.
    Chain(usize, f64),
    /// Pop once; on `Some`, reschedule the popped event `delay`
    /// seconds later (zero models the self-rescheduling DTIM).
    PopThenReschedule(Option<f64>, Option<usize>),
}

/// Actions mix three time regimes — a dense near-horizon band
/// (sub-second gaps), repeats of round values (exact tie groups), and
/// far-horizon outliers — with lane chains and with pops, some of
/// which self-reschedule at zero or positive delay. Absolute times
/// sent to a lane often sort before its back.
fn action_strategy() -> impl Strategy<Value = Action> {
    (0u32..10, 0u32..2_000, 0u32..100, 0..=LANES).prop_map(|(kind, t, d, lane)| {
        let to = (lane < LANES).then_some(lane);
        match kind {
            0..=2 => Action::Schedule(t as f64 * 0.1024, to),
            3 => Action::Schedule((t % 50) as f64, to),
            4 => Action::Schedule((t % 6) as f64 * 86_400.0, to),
            5 => Action::PopThenReschedule(None, to),
            6 => Action::PopThenReschedule(Some(0.0), to),
            7 => Action::PopThenReschedule(Some(d as f64 * 0.5), to),
            _ => Action::Chain(lane % LANES, (d % 3) as f64 * 0.1024),
        }
    })
}

/// Schedules `event` on both calendars: on the queue's heap or lane,
/// on the oracle's one sorted list.
fn schedule_both(
    queue: &mut EventQueue<u32>,
    oracle: &mut SortedCalendar<u32>,
    lane: Option<usize>,
    time: f64,
    event: u32,
) {
    match lane {
        None => queue.schedule(time, event),
        Some(lane) => queue.schedule_in(lane, time, event),
    }
    oracle.schedule(time, event);
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
        let mut lane_last = [0.0f64; LANES];
        for action in script {
            match action {
                Action::Schedule(t, lane) => {
                    schedule_both(&mut queue, &mut oracle, lane, t, next_id);
                    if let Some(lane) = lane {
                        lane_last[lane] = t;
                    }
                    next_id += 1;
                }
                Action::Chain(lane, delay) => {
                    let t = lane_last[lane] + delay;
                    schedule_both(&mut queue, &mut oracle, Some(lane), t, next_id);
                    lane_last[lane] = t;
                    next_id += 1;
                }
                Action::PopThenReschedule(delay, lane) => {
                    let q = queue.pop_keyed();
                    let o = oracle.pop_keyed();
                    prop_assert_eq!(q, o);
                    if let (Some((t, _, _, ev)), Some(delay)) = (q, delay) {
                        schedule_both(&mut queue, &mut oracle, lane, t + delay, ev);
                        if let Some(lane) = lane {
                            lane_last[lane] = t + delay;
                        }
                    }
                }
            }
            prop_assert_eq!(queue.len(), oracle.len());
            prop_assert_eq!(queue.peek_time(), oracle.peek_time());
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
    /// timestamp, spread over the heap and the lanes, must still come
    /// out in seeded-tie order.
    #[test]
    fn exact_tie_groups_pop_in_identical_order(
        seed in any::<u64>(),
        group_sizes in vec(1usize..12, 1..8),
        targets in vec(0..=LANES, 12),
    ) {
        let mut queue = EventQueue::with_seed(seed);
        let mut oracle = SortedCalendar::with_seed(seed);
        let mut id: u32 = 0;
        for (g, &size) in group_sizes.iter().enumerate() {
            let t = g as f64 * 0.1024;
            for &lane in &targets[..size] {
                let lane = (lane < LANES).then_some(lane);
                schedule_both(&mut queue, &mut oracle, lane, t, id);
                id += 1;
            }
        }
        while let Some(o) = oracle.pop_keyed() {
            prop_assert_eq!(queue.pop_keyed(), Some(o));
        }
        prop_assert!(queue.pop_keyed().is_none());
    }
}
