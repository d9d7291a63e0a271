//! The engine's event queue: a slab arena of event records plus a
//! bucketed-wheel calendar queue.
//!
//! The engine schedules every future event — protocol deliveries, timers,
//! ARQ bookkeeping, flow completions — through one [`Scheduler`]. Events
//! pop in the total order `(time, seq)`: by time, and FIFO within a tick by
//! one monotone push sequence. Records live in a free-listed slab addressed
//! by integer [`EventHandle`]s; the wheel has [`Scheduler::WHEEL_BUCKETS`]
//! one-tick buckets, so push and pop are `O(1)` amortized, and events
//! scheduled beyond the wheel horizon wait in an overflow heap.
//!
//! # Determinism
//!
//! For the wheel the `(time, seq)` order follows from three invariants
//! (see DESIGN.md §11 for the argument):
//!
//! 1. events are never pushed into the past (`time ≥ cur`), so a bucket
//!    only ever holds entries of the single absolute time `t` with
//!    `cur ≤ t < cur + B` and `t ≡ bucket (mod B)` — appending to the
//!    bucket is insertion in seq order;
//! 2. overflow events (time ≥ `cur + B`) migrate into the wheel in
//!    `(time, seq)` heap order *immediately* whenever `cur` advances, so a
//!    migrated entry always lands in its bucket before any direct push of
//!    the same time (a direct push at time `t` requires `t < cur + B`,
//!    which becomes true only at a `cur` advance — after migration ran);
//! 3. `cur` only advances when every earlier bucket is drained.

use crate::engine::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Integer address of an event record in the scheduler's slab arena.
///
/// Handles are indices into a free-listed `Vec` of slots: allocating an
/// event never moves existing records, and a popped slot is recycled for
/// the next push. A handle is live from push to pop; the wheel and the
/// overflow heap store only these 4-byte handles, never event payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventHandle(pub u32);

impl EventHandle {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One event as returned by [`Scheduler::pop`].
pub struct PoppedEvent<T> {
    /// Simulated time the event fires at.
    pub time: SimTime,
    /// Destination node.
    pub node: usize,
    /// The engine-defined payload (delivery, timer, ARQ bookkeeping...).
    pub payload: T,
}

/// Arena slot. `payload` is `Some` while the handle is live and taken on
/// pop (the slot then returns to the free list). The seq tiebreak is not
/// stored here: within a bucket it is the insertion order, and the
/// overflow heap carries it in its key.
struct Slot<T> {
    time: SimTime,
    node: u32,
    payload: Option<T>,
}

/// One wheel bucket: handles in insertion (= seq) order with a pop cursor,
/// so draining never shifts elements. The backing `Vec` is reused across
/// wheel rotations.
#[derive(Default)]
struct Bucket {
    items: Vec<EventHandle>,
    head: usize,
}

impl Bucket {
    fn is_drained(&self) -> bool {
        self.head >= self.items.len()
    }
}

/// The engine's future-event set: push with an auto-assigned global
/// sequence number, pop in `(time, seq)` order.
pub struct Scheduler<T> {
    seq: u64,
    live: usize,
    peak_live: usize,
    slots: Vec<Slot<T>>,
    free: Vec<EventHandle>,
    buckets: Vec<Bucket>,
    /// Far-future events (`time ≥ cur + B`), ordered by `(time, seq)`.
    overflow: BinaryHeap<Reverse<(SimTime, u64, EventHandle)>>,
    /// Lower bound on every queued event's time; the wheel window is
    /// `[cur, cur + B)`.
    cur: SimTime,
    /// Live handles currently in wheel buckets (excludes overflow).
    in_wheel: usize,
}

impl<T> Default for Scheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Scheduler<T> {
    /// Buckets in the calendar wheel (one simulated tick each). Sized to
    /// cover the implicit-schedule horizon of a 64k-node fleet (§4 start
    /// times reach a few thousand ticks); later events overflow into a
    /// heap and migrate in when the window reaches them.
    pub const WHEEL_BUCKETS: usize = 8192;

    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            seq: 0,
            live: 0,
            peak_live: 0,
            slots: Vec::new(),
            free: Vec::new(),
            buckets: (0..Self::WHEEL_BUCKETS)
                .map(|_| Bucket::default())
                .collect(),
            overflow: BinaryHeap::new(),
            cur: 0,
            in_wheel: 0,
        }
    }

    /// Queued events right now.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// High-water mark of simultaneously queued events over the whole run.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    fn horizon(&self) -> SimTime {
        self.cur + self.buckets.len() as SimTime
    }

    fn bucket_of(&self, time: SimTime) -> usize {
        (time & (self.buckets.len() as SimTime - 1)) as usize
    }

    fn alloc(&mut self, time: SimTime, node: usize, payload: T) -> EventHandle {
        let slot = Slot {
            time,
            node: node as u32,
            payload: Some(payload),
        };
        match self.free.pop() {
            Some(h) => {
                self.slots[h.index()] = slot;
                h
            }
            None => {
                let h = EventHandle(u32::try_from(self.slots.len()).expect("event arena overflow")); // simlint: allow(no-panic-in-protocol): structural capacity invariant (u32 handles), not a fault path
                self.slots.push(slot);
                h
            }
        }
    }

    /// Queues `payload` for `node` at `time`, assigning the next global
    /// sequence number (the same-tick FIFO tiebreak).
    pub fn push(&mut self, time: SimTime, node: usize, payload: T) {
        debug_assert!(time >= self.cur, "push into the past breaks the wheel");
        let seq = self.seq;
        self.seq += 1;
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        let h = self.alloc(time, node, payload);
        if time < self.horizon() {
            let b = self.bucket_of(time);
            self.buckets[b].items.push(h);
            self.in_wheel += 1;
        } else {
            self.overflow.push(Reverse((time, seq, h)));
        }
    }

    /// Advances the window to `cur` and drains every overflow handle that
    /// now fits into the wheel, in `(time, seq)` order. Must run before
    /// any event at the new `cur` is popped or pushed (invariant 2).
    fn set_cur(&mut self, cur: SimTime) {
        self.cur = cur;
        let horizon = self.horizon();
        while let Some(&Reverse((t, _, h))) = self.overflow.peek() {
            if t >= horizon {
                break;
            }
            self.overflow.pop();
            let b = self.bucket_of(t);
            self.buckets[b].items.push(h);
            self.in_wheel += 1;
        }
    }

    /// Time of the earliest queued event (`None` when empty) without
    /// committing any cursor movement — a pure peek, so `run_until` can
    /// stop at a deadline and a later `inject` between the deadline and
    /// the next queued event stays legal (`push` requires `time ≥ cur`,
    /// and `cur` only advances on [`Scheduler::pop`]).
    pub fn next_time(&self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        if self.in_wheel == 0 {
            // Wheel empty: the earliest event is the overflow minimum.
            let &Reverse((t, _, _)) = self.overflow.peek().expect("live events unaccounted"); // simlint: allow(no-panic-in-protocol): guarded by the live-count accounting above, not reachable from faults
            return Some(t);
        }
        // Scan forward for the first non-drained bucket. All wheel events
        // live in [cur, cur + B) — and every overflow event is later than
        // all of them — so the wheel minimum is the global minimum and the
        // scan terminates within one rotation.
        let mut t = self.cur;
        loop {
            if !self.buckets[self.bucket_of(t)].is_drained() {
                return Some(t);
            }
            t += 1;
            debug_assert!(t < self.horizon(), "in_wheel count out of sync");
        }
    }

    /// Removes and returns the earliest event (`(time, seq)` order).
    pub fn pop(&mut self) -> Option<PoppedEvent<T>> {
        let t = self.next_time()?;
        if t != self.cur {
            // Commit the window advance; migrates every overflow handle
            // that now fits (all at times > t — see invariant 2).
            self.set_cur(t);
        }
        let b = self.bucket_of(t);
        let bucket = &mut self.buckets[b];
        let h = bucket.items[bucket.head];
        bucket.head += 1;
        if bucket.is_drained() {
            // Reset for reuse one rotation later; same-tick pushes from the
            // handler simply re-populate it and are popped in seq order.
            bucket.items.clear();
            bucket.head = 0;
        }
        self.in_wheel -= 1;
        self.live -= 1;
        let slot = &mut self.slots[h.index()];
        debug_assert_eq!(slot.time, t, "bucket held a foreign-time handle");
        let payload = slot.payload.take().expect("double pop of event handle"); // simlint: allow(no-panic-in-protocol): arena bookkeeping invariant; a bucket handle is live exactly once
        let node = slot.node as usize;
        self.free.push(h);
        Some(PoppedEvent {
            time: t,
            node,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(s: &mut Scheduler<T>) -> Vec<(SimTime, usize, T)> {
        let mut out = Vec::new();
        while let Some(e) = s.pop() {
            out.push((e.time, e.node, e.payload));
        }
        out
    }

    #[test]
    fn same_tick_pops_in_push_order() {
        let mut s = Scheduler::new();
        for i in 0..10u32 {
            s.push(5, i as usize, i);
        }
        let order: Vec<u32> = drain(&mut s).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pops_in_time_order_across_wheel_wrap() {
        let mut s = Scheduler::new();
        let b = Scheduler::<u64>::WHEEL_BUCKETS as SimTime;
        // Times straddling several wheel rotations, pushed out of order.
        let times = [3 * b + 1, 0, b, 2, 2 * b + 2, 1, b - 1, b + 1, 7];
        for (i, &t) in times.iter().enumerate() {
            s.push(t, i, t);
        }
        let got: Vec<SimTime> = drain(&mut s).into_iter().map(|(t, _, _)| t).collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn overflow_migration_preserves_seq_order() {
        // Two events at the same far-future time T: one pushed while T is
        // beyond the horizon (overflow), one pushed after the window moved
        // close enough for a direct bucket insert. Seq order must survive.
        let b = Scheduler::<u32>::WHEEL_BUCKETS as SimTime;
        let far = b + 100;
        let mut s = Scheduler::new();
        s.push(far, 0, 1); // beyond horizon from cur=0: overflow
        s.push(200, 0, 0); // pops first; advances cur past 200
        assert_eq!(s.pop().unwrap().payload, 0);
        // Window now reaches `far`: this goes straight into the bucket.
        s.push(far, 0, 2);
        let order: Vec<u32> = drain(&mut s).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![1, 2], "migration lost FIFO");
    }

    #[test]
    fn next_time_peeks_without_losing_events() {
        let mut s = Scheduler::new();
        assert_eq!(s.next_time(), None);
        s.push(9, 1, 'a');
        s.push(4, 2, 'b');
        assert_eq!(s.next_time(), Some(4));
        assert_eq!(s.next_time(), Some(4), "peek must not pop");
        assert_eq!(s.len(), 2);
        let e = s.pop().unwrap();
        assert_eq!((e.time, e.node, e.payload), (4, 2, 'b'));
        assert_eq!(s.next_time(), Some(9));
    }

    #[test]
    fn peak_live_tracks_high_water_mark() {
        let mut s = Scheduler::new();
        for t in 0..100 {
            s.push(t, 0, ());
        }
        for _ in 0..100 {
            s.pop();
        }
        s.push(1000, 0, ());
        assert_eq!(s.peak_live(), 100);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn arena_recycles_slots() {
        let mut s = Scheduler::new();
        // Steady-state churn: the arena should stay at the live size, not
        // grow with total pushes.
        for round in 0..1000u64 {
            s.push(round, 0, round);
            let e = s.pop().unwrap();
            assert_eq!(e.payload, round);
        }
        assert!(s.slots.len() <= 2, "arena grew: {} slots", s.slots.len());
    }

    /// Oracle test: the calendar queue pops exactly what a plain binary
    /// heap keyed on `(time, seq)` pops, on adversarial interleaved
    /// workloads (deterministic LCG per seed; same-tick bursts, in-window
    /// and far-future overflow times, pop-while-pushing churn and
    /// `next_time` peeks).
    #[test]
    fn heap_and_calendar_agree_on_random_workloads() {
        type Oracle = BinaryHeap<Reverse<(SimTime, u64, usize, u64)>>;
        for seed in 0..16u64 {
            let mut s: Scheduler<u64> = Scheduler::new();
            let mut oracle = Oracle::new();
            let mut lcg: u64 = 0x5eed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = || {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                lcg >> 33
            };
            let mut now: SimTime = 0;
            let mut tag = 0u64;
            let check_pop = |s: &mut Scheduler<u64>, oracle: &mut Oracle| {
                let want = oracle.peek().map(|&Reverse((t, ..))| t);
                assert_eq!(s.next_time(), want, "seed {seed}: next_time peek");
                let got = s.pop().map(|e| (e.time, e.node, e.payload));
                let want = oracle.pop().map(|Reverse((t, _, node, p))| (t, node, p));
                assert_eq!(got, want, "seed {seed}: pop order diverged");
                got
            };
            for _ in 0..500 {
                // Burst of pushes at assorted offsets from `now`.
                for _ in 0..(next() % 8) {
                    let r = next();
                    let dt = match r % 4 {
                        0 => 0,                                          // same tick
                        1 => r % 16,                                     // near future
                        2 => r % Scheduler::<u64>::WHEEL_BUCKETS as u64, // in window
                        _ => 8192 + r % 50_000,                          // overflow
                    };
                    let node = (r % 64) as usize;
                    s.push(now + dt, node, tag);
                    oracle.push(Reverse((now + dt, tag, node, tag)));
                    tag += 1;
                }
                // Drain a few.
                for _ in 0..(next() % 6) {
                    if let Some((t, ..)) = check_pop(&mut s, &mut oracle) {
                        assert!(t >= now, "seed {seed}: time went backwards");
                        now = t;
                    }
                }
            }
            while check_pop(&mut s, &mut oracle).is_some() {}
            assert!(s.is_empty());
        }
    }
}
