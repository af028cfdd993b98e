//! A deterministic discrete-event queue.
//!
//! A driver schedules `(time, event)` pairs and pops them in order. Ties
//! break by insertion sequence, so two events scheduled for the same
//! instant always replay in the order they were scheduled: determinism is
//! what makes every experiment in EXPERIMENTS.md exactly repeatable.
//! Inside the library the JobTracker loop (`hl-mapreduce::jobtracker`) is
//! the [`EventQueue`]'s caller; the NameNode scale harnesses
//! (`hl_core::scale_numbers`, `benchmark/`) keep DataNode timers on the
//! [`TimerWheel`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use hl_common::{SimDuration, SimTime};

/// A time-ordered, insertion-stable event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: SimTime::ZERO }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// simulator bug and panics (debug builds) or clamps to `now` (release).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        let at = at.max(self.now);
        self.heap.push(Reverse(Entry { at, seq: self.seq, event }));
        self.seq += 1;
    }

    /// Pop the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Peek at the next event time without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }
}

/// A bucketed timer wheel for per-node recurring timers (heartbeats, block
/// reports).
///
/// Scheduling one [`EventQueue`] entry per DataNode per heartbeat means a
/// 10k-node cluster keeps 10k timer events in the heap at all times, and
/// every `pop`/`push` pays `O(log n)` against that bulk. The wheel instead
/// coalesces timers into *rounds* of fixed `granularity`: the driver
/// schedules **one** queue event per non-empty round and asks the wheel
/// which keys fire. The heap holds `O(rounds)` entries instead of
/// `O(nodes)`.
///
/// Determinism is preserved: keys within a round are stored in a
/// `BTreeSet`, so [`TimerWheel::pop_due`] always yields them in key order.
#[derive(Debug)]
pub struct TimerWheel<K> {
    granularity: SimDuration,
    /// round index -> keys due in that round, in key order.
    rounds: BTreeMap<u64, BTreeSet<K>>,
    /// key -> its scheduled round, for O(log n) reschedule.
    slot: BTreeMap<K, u64>,
}

impl<K: Ord + Copy> TimerWheel<K> {
    /// Empty wheel with the given round width. Panics on a zero width —
    /// that would put every deadline in round 0 forever.
    pub fn new(granularity: SimDuration) -> Self {
        assert!(granularity.as_micros() > 0, "timer wheel granularity must be non-zero");
        TimerWheel { granularity, rounds: BTreeMap::new(), slot: BTreeMap::new() }
    }

    /// Round a deadline up to its round index: a timer never fires early.
    fn round_of(&self, at: SimTime) -> u64 {
        let g = self.granularity.as_micros();
        at.as_micros().div_ceil(g)
    }

    /// Schedule (or reschedule) `key` to fire at the first round boundary
    /// at or after `at`. A key lives in at most one round.
    pub fn schedule(&mut self, key: K, at: SimTime) {
        let round = self.round_of(at);
        if let Some(old) = self.slot.insert(key, round) {
            if old == round {
                return;
            }
            if let Some(keys) = self.rounds.get_mut(&old) {
                keys.remove(&key);
                if keys.is_empty() {
                    self.rounds.remove(&old);
                }
            }
        }
        self.rounds.entry(round).or_default().insert(key);
    }

    /// The fire time of the earliest non-empty round. This is what the
    /// driver schedules its single queue event at.
    pub fn next_due(&self) -> Option<SimTime> {
        let round = *self.rounds.keys().next()?;
        Some(SimTime(round.saturating_mul(self.granularity.as_micros())))
    }

    /// Pop every key in the earliest round due at or before `now`, in key
    /// order. Returns an empty vec when nothing is due yet.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<K> {
        let Some((&round, _)) = self.rounds.first_key_value() else {
            return Vec::new();
        };
        if round.saturating_mul(self.granularity.as_micros()) > now.as_micros() {
            return Vec::new();
        }
        let keys = self.rounds.remove(&round).unwrap_or_default();
        for key in &keys {
            self.slot.remove(key);
        }
        keys.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule_at(SimTime(1), ());
        assert_eq!(q.peek_time(), Some(SimTime(1)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn wheel_coalesces_timers_into_rounds() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimDuration::from_micros(100));
        // 1000 nodes, deadlines spread across two rounds.
        for node in 0..1000u32 {
            let at = if node % 2 == 0 { SimTime(150) } else { SimTime(250) };
            w.schedule(node, at);
        }
        assert_eq!(w.next_due(), Some(SimTime(200)));

        // Nothing due before the round boundary.
        assert!(w.pop_due(SimTime(199)).is_empty());

        // Keys come out in key order: deterministic tie-break.
        let due = w.pop_due(SimTime(200));
        assert_eq!(due.len(), 500);
        assert_eq!(due, (0..1000).filter(|n| n % 2 == 0).collect::<Vec<_>>());
        assert_eq!(w.next_due(), Some(SimTime(300)));

        let due = w.pop_due(SimTime(300));
        assert_eq!(due, (0..1000).filter(|n| n % 2 == 1).collect::<Vec<_>>());
        assert_eq!(w.next_due(), None);
    }

    #[test]
    fn wheel_rounds_deadlines_up_never_early() {
        let mut w: TimerWheel<&str> = TimerWheel::new(SimDuration::from_micros(100));
        w.schedule("exact", SimTime(200));
        w.schedule("late", SimTime(201));
        assert_eq!(w.pop_due(SimTime(200)), vec!["exact"]);
        // 201 rounds up to 300, not down to 200.
        assert_eq!(w.next_due(), Some(SimTime(300)));
        assert_eq!(w.pop_due(SimTime(300)), vec!["late"]);
    }

    #[test]
    fn wheel_reschedule_moves_key_to_new_round() {
        let mut w: TimerWheel<u8> = TimerWheel::new(SimDuration::from_micros(10));
        w.schedule(7, SimTime(10));
        w.schedule(7, SimTime(50));
        assert_eq!(w.next_due(), Some(SimTime(50)));
        assert!(w.pop_due(SimTime(10)).is_empty());
        assert_eq!(w.pop_due(SimTime(50)), vec![7]);
        // Rescheduling into the same round is a no-op, not a duplicate.
        w.schedule(3, SimTime(11));
        w.schedule(3, SimTime(19));
        assert_eq!(w.pop_due(SimTime(20)), vec![3]);
    }
}
