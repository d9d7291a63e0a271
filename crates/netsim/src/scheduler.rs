//! The engine's event queue: a slab arena of event records plus a
//! bucketed-wheel calendar queue, with O(1) cancellation.
//!
//! The engine schedules every future event — protocol deliveries, timers,
//! ARQ bookkeeping, flow completions — through one [`Scheduler`]. Events
//! pop in the total order `(time, seq)`: by time, and FIFO within a tick by
//! one monotone push sequence. Records live in a free-listed slab addressed
//! by generation-tagged [`EventHandle`]s; the wheel has
//! [`Scheduler::WHEEL_BUCKETS`] one-tick buckets, so push and pop are
//! `O(1)` amortized, and events scheduled beyond the wheel horizon wait in
//! an overflow heap.
//!
//! One entry may stand for a *run*: `k` events at one tick, for the
//! consecutive nodes `v, v + 1, …, v + k − 1`, under `k` consecutive
//! sequence numbers, all carrying the same payload
//! ([`Scheduler::push_run`]). [`Scheduler::pop`] hands the run out one
//! dispatch at a time, lending the payload until the last, and the run
//! counts as live events until each of its dispatches has popped.
//!
//! # Memory
//!
//! The queue's bookkeeping follows its live entries, not the length of the
//! run. A wheel bucket is a `(head, tail)` pair of slot indices: its events
//! are linked through their slots' `next` field and appended at the tail,
//! so a bucket holds them in push order and owns no storage of its own.
//! The free list is linked through the same field from one head index.
//! While an event waits in the overflow heap its `next` holds a sentinel
//! instead, which is how [`Scheduler::cancel`] tells the two places apart.
//! So the scheduler owns the chunked slab, 8 bytes of bucket heads per
//! bucket and the overflow heap, and nothing else. A run of `k` events
//! takes one slot, not `k`: its remaining count sits in what was the
//! slot's padding, so a slot stays 16 bytes beside its payload.
//!
//! # Cancellation
//!
//! [`Scheduler::cancel`] drops an event's payload at once. A cancelled
//! event is never popped and never counted: `len`, `is_empty`,
//! `next_time` and `peak_live` see live events only. A wheel bucket names
//! its events by bare slot index, so a cancelled wheel event keeps its
//! slot, linked in its bucket, until the wheel reaches its tick, where the
//! slot is freed and skipped. An overflow entry carries its slot's
//! generation, so a cancelled far-future event frees its slot at once; its
//! entry becomes stale. The heap counts its stale entries exactly: a cancel
//! adds one, and each stale entry discarded at migration or as the heap
//! minimum takes one away. Once they are more than half of the heap, every
//! stale entry is dropped in one pass, so the heap holds at most twice its
//! live entries (plus one) after any cancel, at amortized O(1) per cancel.
//!
//! # Determinism
//!
//! For the wheel the `(time, seq)` order follows from four invariants
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
//! 3. `cur` only advances when every earlier bucket is drained, cancelled
//!    entries included;
//! 4. a run takes the queue position of its first event, and its events
//!    hold consecutive sequence numbers, so no other event could fall
//!    between them: a run stays at the head of its bucket until its last
//!    dispatch pops, and every event pushed meanwhile, at its tick or
//!    later, carries a later sequence number.
//!
//! Cancellation removes entries and never reorders the rest, so the live
//! events keep their `(time, seq)` order. Dropping the stale overflow
//! entries rebuilds the heap, but its keys are unique, so the survivors pop
//! in the same order.

use crate::engine::SimTime;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Generation-tagged address of an event record in the scheduler's slab
/// arena, returned by [`Scheduler::push`] and taken by
/// [`Scheduler::cancel`].
///
/// The slot index addresses a free-listed arena of records kept in
/// fixed-size chunks: allocating an event never moves existing records,
/// and a freed slot is recycled for a later push. Each free bumps the
/// slot's generation, so a handle whose event popped or was cancelled never
/// reaches the slot's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    gen: u32,
}

impl EventHandle {
    /// The `n`-th handle minted by the model checker's capture seam, which
    /// enqueues nothing: it names a captured event, never a queue slot.
    pub(crate) fn captured(n: u64) -> Self {
        EventHandle {
            slot: n as u32,
            gen: (n >> 32) as u32,
        }
    }
}

/// One event as returned by [`Scheduler::pop`].
pub struct PoppedEvent<'a, T: Clone> {
    /// Simulated time the event fires at.
    pub time: SimTime,
    /// Destination node: for the `i`-th dispatch of a run, the run's
    /// first node plus `i`.
    pub node: usize,
    /// The engine-defined payload (delivery, timer, ARQ bookkeeping...):
    /// owned for a plain event and for a run's last dispatch, lent by the
    /// queue while the run owes more.
    pub payload: Cow<'a, T>,
}

/// End of a bucket's list or of the free list.
const NIL: u32 = u32::MAX;
/// `Slot::next` of an event waiting in the overflow heap.
const IN_OVERFLOW: u32 = u32::MAX - 1;

/// Arena slot. `payload` is `Some` while the entry is live; cancel and
/// the entry's last pop take it. Neither the time nor the seq tiebreak is
/// stored here: a bucket stands for one tick and keeps its slots in
/// insertion order, and the overflow heap carries both in its key.
struct Slot<T> {
    /// The node of the entry's next dispatch.
    node: u32,
    /// Bumped each time the slot is freed.
    gen: u32,
    /// The next slot in this slot's wheel bucket or in the free list
    /// ([`NIL`] at the end), or [`IN_OVERFLOW`] while the event waits in
    /// the overflow heap.
    next: u32,
    /// Dispatches the entry still owes: 1 for a plain event, `k` for a
    /// run of `k` that has not popped yet.
    left: u32,
    payload: Option<T>,
}

/// The slot arena, in chunks of [`Slab::CHUNK`] slots, each allocated at
/// its final size. Growing the arena adds a chunk: no record moves, and
/// at most one partly filled chunk is reserved beyond the slots in use. A
/// doubling `Vec` would reserve up to twice its high-water mark, and where
/// that never-written half lands in the heap decides the peak RSS of a
/// process that builds one simulator after another (DESIGN.md §11.4).
struct Slab<T> {
    chunks: Vec<Vec<Slot<T>>>,
}

impl<T> Slab<T> {
    const SHIFT: u32 = 10;
    const CHUNK: usize = 1 << Self::SHIFT;

    fn new() -> Self {
        Slab { chunks: Vec::new() }
    }

    /// Slots ever allocated (live, cancelled-in-wheel and free).
    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * Self::CHUNK + c.len())
    }

    fn push(&mut self, slot: Slot<T>) {
        match self.chunks.last_mut() {
            Some(c) if c.len() < Self::CHUNK => c.push(slot),
            _ => {
                let mut c = Vec::with_capacity(Self::CHUNK);
                c.push(slot);
                self.chunks.push(c);
            }
        }
    }

    fn get_mut(&mut self, i: usize) -> Option<&mut Slot<T>> {
        self.chunks
            .get_mut(i >> Self::SHIFT)?
            .get_mut(i & (Self::CHUNK - 1))
    }
}

impl<T> std::ops::Index<usize> for Slab<T> {
    type Output = Slot<T>;

    fn index(&self, i: usize) -> &Slot<T> {
        &self.chunks[i >> Self::SHIFT][i & (Self::CHUNK - 1)]
    }
}

impl<T> std::ops::IndexMut<usize> for Slab<T> {
    fn index_mut(&mut self, i: usize) -> &mut Slot<T> {
        &mut self.chunks[i >> Self::SHIFT][i & (Self::CHUNK - 1)]
    }
}

/// One wheel bucket: the first and last slot of its list ([`NIL`] when
/// empty). Pushes append at `tail` and pops take `head`, so the list is in
/// insertion (= seq) order.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

/// The engine's future-event set: push with an auto-assigned global
/// sequence number, pop in `(time, seq)` order, cancel by handle.
pub struct Scheduler<T> {
    seq: u64,
    /// Live events: each live entry counts the dispatches it still owes.
    live: usize,
    peak_live: usize,
    slots: Slab<T>,
    /// Head of the free list, linked through `Slot::next`.
    free: u32,
    buckets: Vec<Bucket>,
    /// Far-future events (`time ≥ cur + B`), ordered by `(time, seq)`, with
    /// the slot and its generation at push. An entry whose slot has moved
    /// to a later generation was cancelled (stale).
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32, u32)>>,
    /// Stale entries in `overflow`.
    overflow_dead: usize,
    /// Lower bound on every queued event's time; the wheel window is
    /// `[cur, cur + B)`.
    cur: SimTime,
    /// Entries in wheel buckets not yet drained, cancelled ones included.
    in_wheel: usize,
    /// Cancelled entries among `in_wheel`, still holding their slots.
    wheel_dead: usize,
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
            slots: Slab::new(),
            free: NIL,
            buckets: vec![Bucket::EMPTY; Self::WHEEL_BUCKETS],
            overflow: BinaryHeap::new(),
            overflow_dead: 0,
            cur: 0,
            in_wheel: 0,
            wheel_dead: 0,
        }
    }

    /// Live (queued, uncancelled) events right now; a run counts each
    /// dispatch it still owes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events are queued.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// High-water mark of simultaneously live events over the whole run,
    /// counted as [`Scheduler::len`] counts them.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    fn horizon(&self) -> SimTime {
        self.cur + self.buckets.len() as SimTime
    }

    fn bucket_of(&self, time: SimTime) -> usize {
        (time & (self.buckets.len() as SimTime - 1)) as usize
    }

    /// Takes a slot for a `left`-dispatch entry with the given `next` link.
    fn alloc(&mut self, node: usize, next: u32, left: u32, payload: T) -> EventHandle {
        let node = node as u32;
        if self.free != NIL {
            let slot = self.free;
            let s = &mut self.slots[slot as usize];
            self.free = s.next;
            (s.node, s.next, s.left, s.payload) = (node, next, left, Some(payload));
            EventHandle { slot, gen: s.gen }
        } else {
            let slot = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i < IN_OVERFLOW)
                .expect("event arena overflow"); // simlint: allow(no-panic-in-protocol): structural capacity invariant (u32 slot indices below the link sentinels), not a fault path
            self.slots.push(Slot {
                node,
                gen: 0,
                next,
                left,
                payload: Some(payload),
            });
            EventHandle { slot, gen: 0 }
        }
    }

    /// Returns `slot` to the free list under a new generation.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.next = self.free;
        self.free = slot;
    }

    /// Appends `slot`, whose `next` is [`NIL`], to the bucket of `time`
    /// and counts it in `in_wheel`.
    fn link(&mut self, time: SimTime, slot: u32) {
        let b = self.bucket_of(time);
        let bucket = &mut self.buckets[b];
        match bucket.tail {
            NIL => bucket.head = slot,
            tail => self.slots[tail as usize].next = slot,
        }
        bucket.tail = slot;
        self.in_wheel += 1;
    }

    /// Queues `payload` for `node` at `time`, assigning the next global
    /// sequence number (the same-tick FIFO tiebreak). The handle stays
    /// valid for [`Scheduler::cancel`] until the event pops.
    // simlint: hot
    pub fn push(&mut self, time: SimTime, node: usize, payload: T) -> EventHandle {
        self.push_run(time, node, 1, payload)
    }

    /// Queues a run: `k` events at `time`, for the nodes `node`,
    /// `node + 1`, …, `node + k − 1` in that order, each carrying
    /// `payload`. It pops exactly as `k` [`Scheduler::push`]es made now
    /// would: the run takes the next `k` sequence numbers and counts as `k`
    /// live events, one fewer at each of its dispatches, but it takes one
    /// slot and one place in the wheel or the overflow heap. The handle
    /// cancels the dispatches the run still owes.
    // simlint: hot
    pub fn push_run(&mut self, time: SimTime, node: usize, k: u32, payload: T) -> EventHandle {
        debug_assert!(time >= self.cur, "push into the past breaks the wheel");
        debug_assert!(k > 0, "a run of no events");
        let seq = self.seq;
        self.seq += u64::from(k);
        self.live += k as usize;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        if time < self.horizon() {
            let h = self.alloc(node, NIL, k, payload);
            self.link(time, h.slot);
            h
        } else {
            let h = self.alloc(node, IN_OVERFLOW, k, payload);
            self.overflow.push(Reverse((time, seq, h.slot, h.gen)));
            h
        }
    }

    /// Cancels a queued event, or what a run still owes, and drops its
    /// payload; `false` (and no change) if the entry already popped in
    /// full or was cancelled. A wheel entry keeps its slot until the wheel
    /// reaches its tick; an overflow entry frees its slot at once.
    // simlint: hot
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        let Some(s) = self.slots.get_mut(h.slot as usize) else {
            return false;
        };
        if s.gen != h.gen || s.payload.take().is_none() {
            return false;
        }
        self.live -= s.left as usize;
        if s.next != IN_OVERFLOW {
            self.wheel_dead += 1;
            return true;
        }
        self.release(h.slot);
        self.overflow_dead += 1;
        if 2 * self.overflow_dead > self.overflow.len() {
            self.compact_overflow();
        }
        true
    }

    /// Drops every stale overflow entry: those whose slot has moved on to
    /// a later generation since the push.
    fn compact_overflow(&mut self) {
        let before = self.overflow.len();
        let slots = &self.slots;
        self.overflow
            .retain(|&Reverse((_, _, slot, gen))| slots[slot as usize].gen == gen);
        debug_assert_eq!(
            before - self.overflow.len(),
            self.overflow_dead,
            "stale overflow count out of sync"
        );
        self.overflow_dead = 0;
    }

    /// Drops the cancelled entries at the head of bucket `b`; whether a
    /// live entry remains there.
    fn skip_dead(&mut self, b: usize) -> bool {
        let mut slot = self.buckets[b].head;
        while slot != NIL {
            let s = &self.slots[slot as usize];
            if s.payload.is_some() {
                self.buckets[b].head = slot;
                return true;
            }
            let next = s.next;
            self.in_wheel -= 1;
            self.wheel_dead -= 1;
            self.release(slot);
            slot = next;
        }
        self.buckets[b] = Bucket::EMPTY;
        false
    }

    /// Advances the window to `cur` and drains every live overflow entry
    /// that now fits into the wheel, in `(time, seq)` order. Must run
    /// before any event at the new `cur` is popped or pushed (invariant 2).
    fn set_cur(&mut self, cur: SimTime) {
        self.cur = cur;
        let horizon = self.horizon();
        while let Some(&Reverse((t, _, slot, gen))) = self.overflow.peek() {
            if t >= horizon {
                break;
            }
            self.overflow.pop();
            let s = &mut self.slots[slot as usize];
            if s.gen != gen {
                self.overflow_dead -= 1; // cancelled: its slot was freed at the cancel
                continue;
            }
            s.next = NIL;
            self.link(t, slot);
        }
    }

    /// Time of the earliest live event (`None` when there is none). It
    /// drops the cancelled entries it passes but never moves the cursor,
    /// so `run_until` can stop at a deadline and a later `inject` between
    /// the deadline and the next queued event stays legal (`push` requires
    /// `time ≥ cur`, and `cur` only advances on [`Scheduler::pop`]).
    // simlint: hot
    pub fn next_time(&mut self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        if self.in_wheel == self.wheel_dead {
            // No live event in the wheel: the earliest is the live overflow
            // minimum. The wheel's cancelled leftovers all lie before it,
            // and once the cursor jumps past them their buckets would stand
            // for later ticks, so they go now.
            let mut t = self.cur;
            while self.in_wheel > 0 {
                self.skip_dead(self.bucket_of(t));
                t += 1;
            }
            while let Some(&Reverse((t, _, slot, gen))) = self.overflow.peek() {
                if self.slots[slot as usize].gen == gen {
                    return Some(t);
                }
                self.overflow.pop();
                self.overflow_dead -= 1;
            }
            debug_assert!(false, "live events unaccounted");
            return None;
        }
        // Scan forward for the first bucket with a live head. All wheel
        // events live in [cur, cur + B) — and every overflow event is later
        // than all of them — so the wheel minimum is the global minimum and
        // the scan terminates within one rotation.
        let mut t = self.cur;
        while !self.skip_dead(self.bucket_of(t)) {
            t += 1;
            debug_assert!(t < self.horizon(), "in_wheel count out of sync");
        }
        Some(t)
    }
}

impl<T: Clone> Scheduler<T> {
    /// Removes and returns the earliest live event (`(time, seq)` order).
    /// A run's dispatches pop one per call, back to back; the queue lends
    /// its payload to each but the last, which takes it.
    // simlint: hot
    pub fn pop(&mut self) -> Option<PoppedEvent<'_, T>> {
        let t = self.next_time()?;
        if t != self.cur {
            // Commit the window advance; migrates every overflow entry that
            // now fits (all at times > t, or the overflow minimum itself at
            // t when the wheel held no live event — see invariant 2).
            self.set_cur(t);
        }
        self.live -= 1;
        let b = self.bucket_of(t);
        let slot = self.buckets[b].head;
        let s = &mut self.slots[slot as usize];
        let node = s.node as usize;
        if s.left > 1 {
            // A run that owes more stays at the head of its bucket: a
            // same-tick push from this dispatch's handler carries a later
            // seq than the run's remaining events (invariant 4).
            s.left -= 1;
            s.node += 1;
            let lent = self.slots[slot as usize].payload.as_ref();
            debug_assert!(lent.is_some(), "next_time left a cancelled head");
            return lent.map(|payload| PoppedEvent {
                time: t,
                node,
                payload: Cow::Borrowed(payload),
            });
        }
        // Unlink the head; same-tick pushes from the handler append to
        // what is left and pop in seq order.
        let payload = s.payload.take().expect("next_time left a cancelled head"); // simlint: allow(no-panic-in-protocol): arena bookkeeping invariant; next_time stops only at a live head
        let bucket = &mut self.buckets[b];
        bucket.head = s.next;
        if bucket.head == NIL {
            bucket.tail = NIL;
        }
        self.in_wheel -= 1;
        self.release(slot);
        Some(PoppedEvent {
            time: t,
            node,
            payload: Cow::Owned(payload),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T: Clone>(s: &mut Scheduler<T>) -> Vec<(SimTime, usize, T)> {
        let mut out = Vec::new();
        while let Some(e) = s.pop() {
            out.push((e.time, e.node, e.payload.into_owned()));
        }
        out
    }

    /// Slots on the free list.
    fn free_len<T>(s: &Scheduler<T>) -> usize {
        let (mut n, mut slot) = (0, s.free);
        while slot != NIL {
            n += 1;
            slot = s.slots[slot as usize].next;
        }
        n
    }

    #[test]
    fn slots_carry_sixteen_bytes_beside_the_payload() {
        // Node, generation, link and the dispatches a run still owes; the
        // time lives in the bucket or the overflow key (DESIGN.md §11.4).
        // Over an 8-byte-aligned payload that is 16 bytes, no padding.
        fn check<T>() {
            let (slot, payload) = (
                std::mem::size_of::<Slot<T>>(),
                std::mem::size_of::<Option<T>>(),
            );
            assert_eq!(slot, payload + 16, "slot over a {payload}-byte payload");
        }
        check::<[u64; 10]>();
        check::<[u64; 15]>();
        assert_eq!(std::mem::size_of::<Bucket>(), 8);
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
    fn a_run_pops_back_to_back_and_counts_until_its_last_dispatch() {
        let mut s = Scheduler::new();
        s.push(3, 9, 'a');
        s.push_run(3, 4, 3, 'r');
        assert_eq!((s.len(), s.peak_live()), (4, 4));
        assert_eq!(*s.pop().unwrap().payload, 'a');
        let e = s.pop().unwrap();
        assert_eq!(e.node, 4);
        assert!(matches!(e.payload, Cow::Borrowed('r')), "lent while owed");
        // A same-tick push from the run's first dispatch waits for the
        // rest of the run, and the run still counts what it owes.
        s.push(3, 0, 'b');
        assert_eq!((s.len(), s.next_time()), (3, Some(3)));
        assert_eq!(s.pop().unwrap().node, 5);
        let e = s.pop().unwrap();
        assert_eq!(e.node, 6);
        assert!(
            matches!(e.payload, Cow::Owned('r')),
            "handed over at the last"
        );
        assert_eq!(*s.pop().unwrap().payload, 'b');
        assert_eq!((s.len(), s.peak_live()), (0, 4));
        // The run held one slot, and 'b' reused the one 'a' freed.
        assert_eq!(s.slots.len(), 2);
        assert_eq!(free_len(&s), 2);
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
        assert_eq!(*s.pop().unwrap().payload, 0);
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
        assert_eq!((e.time, e.node, *e.payload), (4, 2, 'b'));
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
            assert_eq!(*e.payload, round);
        }
        assert!(s.slots.len() <= 2, "arena grew: {} slots", s.slots.len());
    }

    #[test]
    fn arena_grows_by_whole_chunks_across_boundaries() {
        // Two and a half chunks of live events, pushed out of time order,
        // some cancelled in the wheel and some in the overflow heap: the
        // arena holds exactly the pushed slots, chunk by chunk, and the
        // survivors pop in time order.
        let chunk = Slab::<u64>::CHUNK;
        let far = Scheduler::<u64>::WHEEL_BUCKETS as SimTime;
        let n = 2 * chunk + chunk / 2;
        let mut s = Scheduler::new();
        let mut want = Vec::new();
        let mut dead = Vec::new();
        for i in 0..n as u64 {
            let t = (i * 7919) % (2 * far);
            let h = s.push(t, 0, i);
            if i % 3 == 0 {
                dead.push(h);
            } else {
                want.push((t, i));
            }
        }
        assert_eq!(s.slots.len(), n);
        assert_eq!(s.slots.chunks.len(), 3);
        assert!(s.slots.chunks.iter().all(|c| c.capacity() == chunk));
        for h in dead {
            assert!(s.cancel(h));
        }
        want.sort_unstable();
        let got: Vec<(SimTime, u64)> = drain(&mut s).into_iter().map(|(t, _, p)| (t, p)).collect();
        assert_eq!(got, want);
        // Every slot is free again and is reused before the arena grows.
        for i in 0..n as u64 {
            s.push(2 * far + i, 0, i);
        }
        assert_eq!(s.slots.len(), n);
    }

    #[test]
    fn cancel_after_pop_or_twice_is_a_no_op() {
        let mut s = Scheduler::new();
        let a = s.push(3, 0, 'a');
        let b = s.push(4, 1, 'b');
        assert_eq!(*s.pop().unwrap().payload, 'a');
        assert!(!s.cancel(a), "a popped event cannot be cancelled");
        assert_eq!(s.len(), 1);
        assert!(s.cancel(b));
        assert!(!s.cancel(b), "a second cancel must change nothing");
        assert_eq!((s.len(), s.next_time()), (0, None));
        assert!(s.pop().is_none());
    }

    #[test]
    fn cancelled_overflow_slot_is_reused_before_its_stale_entry_surfaces() {
        let far = Scheduler::<char>::WHEEL_BUCKETS as SimTime + 50;
        let mut s = Scheduler::new();
        let a = s.push(far, 0, 'a');
        assert!(s.cancel(a));
        // The freed slot goes to the next push, under a new generation.
        let b = s.push(far + 1, 1, 'b');
        assert_eq!(s.slots.len(), 1);
        assert_ne!(a, b);
        assert!(
            !s.cancel(a),
            "the stale handle must not reach the new occupant"
        );
        // `a`'s heap entry surfaces first and is discarded.
        assert_eq!(s.next_time(), Some(far + 1));
        let e = s.pop().unwrap();
        assert_eq!((e.time, e.node, *e.payload), (far + 1, 1, 'b'));
        assert!(s.is_empty());
    }

    #[test]
    fn queue_works_after_emptying_with_cancelled_leftovers() {
        let far = Scheduler::<u32>::WHEEL_BUCKETS as SimTime * 3;
        let mut s = Scheduler::new();
        let near = s.push(10, 0, 0);
        let remote = s.push(far, 0, 1);
        s.push(5, 0, 2);
        assert_eq!(*s.pop().unwrap().payload, 2);
        assert!(s.cancel(near) && s.cancel(remote));
        // Empty, with a dead entry in a wheel bucket and one in the heap.
        assert!(s.is_empty());
        assert_eq!(s.next_time(), None);
        s.push(10, 1, 3);
        s.push(far, 1, 4);
        s.push(7, 1, 5);
        let got: Vec<(SimTime, u32)> = drain(&mut s).into_iter().map(|(t, _, p)| (t, p)).collect();
        assert_eq!(got, vec![(7, 5), (10, 3), (far, 4)]);
        // The dead wheel slot was freed when the wheel reached tick 10.
        assert_eq!(free_len(&s), s.slots.len(), "a slot leaked");
    }

    #[test]
    fn next_time_skips_cancelled_without_moving_the_cursor() {
        let b = Scheduler::<u32>::WHEEL_BUCKETS as SimTime;
        let mut s = Scheduler::new();
        let x = s.push(10, 0, 0);
        s.push(20, 0, 1);
        let y = s.push(2 * b, 0, 2);
        assert!(s.cancel(x));
        assert_eq!(s.next_time(), Some(20));
        // The peek dropped the dead entry at 10 but left the cursor at 0:
        // an injection at 5, between the cursor and the next event, is legal.
        s.push(5, 0, 3);
        assert_eq!(s.next_time(), Some(5));
        assert_eq!(*s.pop().unwrap().payload, 3);
        assert_eq!(*s.pop().unwrap().payload, 1);
        // Only the overflow event is left; cancel it and peek past it too.
        assert!(s.cancel(y));
        s.push(30, 0, 4);
        let dead = s.push(40, 0, 5);
        assert!(s.cancel(dead));
        assert_eq!(s.next_time(), Some(30));
        assert_eq!(*s.pop().unwrap().payload, 4);
        assert_eq!(s.next_time(), None);
    }

    #[test]
    fn cancelling_far_future_events_keeps_the_arena_at_the_live_count() {
        let far = Scheduler::<u64>::WHEEL_BUCKETS as SimTime * 100;
        let mut s = Scheduler::new();
        let keep: Vec<EventHandle> = (0..10).map(|i| s.push(far + i, 0, i)).collect();
        for i in 0..1000 {
            let h = s.push(far + 50 + i, 0, i);
            assert!(s.cancel(h));
            assert_eq!(s.slots.len(), keep.len() + 1, "slot {i} was not freed");
            // Stale entries are compacted out once they are the majority.
            assert!(
                s.overflow.len() <= 2 * keep.len() + 1,
                "overflow heap holds {} entries for {} live after cancel {i}",
                s.overflow.len(),
                keep.len()
            );
        }
        assert_eq!(s.len(), keep.len());
        assert_eq!(s.peak_live(), keep.len() + 1);
        let got: Vec<u64> = drain(&mut s).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    /// Oracle test: the calendar queue pops exactly what a plain binary
    /// heap keyed on `(time, seq)` pops, on adversarial interleaved
    /// workloads (deterministic LCG per seed; same-tick bursts, in-window
    /// and far-future overflow times, pop-while-pushing churn, `next_time`
    /// peeks, and cancellation of random live events in the wheel and the
    /// overflow heap, which the oracle drops too). One push in four is a
    /// run of two to six events, which the oracle holds as that many
    /// entries under consecutive seqs for consecutive nodes; a cancelled
    /// run drops what it still owes, also when some of it has popped.
    /// `len` and `peak_live` must count what the oracle holds. Every seed
    /// also has a cancel-heavy far-future phase, bursts of overflow events
    /// most of which are cancelled again between pops, so the overflow heap
    /// compacts mid-run; the stale-entry count is checked after each of
    /// those cancels.
    #[test]
    fn heap_and_calendar_agree_on_random_workloads() {
        use std::collections::BTreeMap;
        /// `(time, seq, node, tag)`: a run's events share its tag.
        type Oracle = BinaryHeap<Reverse<(SimTime, u64, usize, u64)>>;
        /// Live tags: the handle and the events still owed.
        type Live = BTreeMap<u64, (EventHandle, u32)>;
        struct World {
            s: Scheduler<u64>,
            oracle: Oracle,
            live: Live,
            seq: u64,
            tag: u64,
            peak: usize,
        }
        impl World {
            fn push(&mut self, t: SimTime, node: usize, k: u32) {
                let h = self.s.push_run(t, node, k, self.tag);
                for i in 0..u64::from(k) {
                    self.oracle
                        .push(Reverse((t, self.seq + i, node + i as usize, self.tag)));
                }
                self.live.insert(self.tag, (h, k));
                self.seq += u64::from(k);
                self.tag += 1;
                self.peak = self.peak.max(self.oracle.len());
            }
            fn cancel(&mut self, victim: u64, seed: u64) {
                let (h, _) = self.live.remove(&victim).expect("live");
                assert!(self.s.cancel(h), "seed {seed}: live cancel refused");
                assert!(!self.s.cancel(h), "seed {seed}: double cancel accepted");
                self.oracle.retain(|&Reverse((.., t))| t != victim);
            }
            fn check_pop(&mut self, seed: u64) -> Option<SimTime> {
                assert_eq!(self.s.len(), self.oracle.len(), "seed {seed}: live count");
                assert_eq!(self.s.peak_live(), self.peak, "seed {seed}: live peak");
                let want = self.oracle.peek().map(|&Reverse((t, ..))| t);
                assert_eq!(self.s.next_time(), want, "seed {seed}: next_time peek");
                let got = self.s.pop().map(|e| (e.time, e.node, *e.payload));
                let want = self
                    .oracle
                    .pop()
                    .map(|Reverse((t, _, node, tag))| (t, node, tag));
                assert_eq!(got, want, "seed {seed}: pop order diverged");
                let (t, _, tag) = got?;
                let (h, owed) = self.live.get_mut(&tag).expect("popped a live tag");
                *owed -= 1;
                if *owed == 0 {
                    let h = *h;
                    self.live.remove(&tag);
                    assert!(!self.s.cancel(h), "seed {seed}: cancelled a popped event");
                }
                Some(t)
            }
        }
        for seed in 0..16u64 {
            let mut w = World {
                s: Scheduler::new(),
                oracle: Oracle::new(),
                live: Live::new(),
                seq: 0,
                tag: 0,
                peak: 0,
            };
            let mut lcg: u64 = 0x5eed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = || {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                lcg >> 33
            };
            let mut now: SimTime = 0;
            let mut compactions = 0;
            let mut runs = 0;
            for round in 0..500 {
                // Burst of pushes at assorted offsets from `now`.
                for _ in 0..(next() % 8) {
                    let r = next();
                    let dt = match r % 4 {
                        0 => 0,                                          // same tick
                        1 => r % 16,                                     // near future
                        2 => r % Scheduler::<u64>::WHEEL_BUCKETS as u64, // in window
                        _ => 8192 + r % 50_000,                          // overflow
                    };
                    let k = match next() % 4 {
                        0 => 2 + (next() % 5) as u32,
                        _ => 1,
                    };
                    runs += usize::from(k > 1);
                    w.push(now + dt, (r % 64) as usize, k);
                }
                // Cancel a few random live events and runs.
                for _ in 0..(next() % 3) {
                    if w.live.is_empty() {
                        break;
                    }
                    let pick = next() as usize % w.live.len();
                    let victim = *w.live.keys().nth(pick).expect("in range");
                    w.cancel(victim, seed);
                }
                // Every 20th round: a far-future burst, seven in eight of
                // it cancelled again, with pops in between.
                if round % 20 == 10 {
                    let first = w.tag;
                    for _ in 0..(16 + next() % 48) {
                        let r = next();
                        w.push(now + 8192 + r % 50_000, (r % 64) as usize, 1);
                    }
                    for victim in first..w.tag {
                        if next() % 8 == 0 || !w.live.contains_key(&victim) {
                            continue; // kept, or popped in between
                        }
                        let before = w.s.overflow.len();
                        w.cancel(victim, seed);
                        compactions += usize::from(w.s.overflow.len() < before);
                        let stale =
                            w.s.overflow
                                .iter()
                                .filter(|&&Reverse((_, _, slot, gen))| {
                                    w.s.slots[slot as usize].gen != gen
                                })
                                .count();
                        assert_eq!(w.s.overflow_dead, stale, "seed {seed}: stale count");
                        if victim % 4 == 0 {
                            if let Some(t) = w.check_pop(seed) {
                                now = t;
                            }
                        }
                    }
                }
                // Drain a few.
                for _ in 0..(next() % 6) {
                    if let Some(t) = w.check_pop(seed) {
                        assert!(t >= now, "seed {seed}: time went backwards");
                        now = t;
                    }
                }
            }
            while w.check_pop(seed).is_some() {}
            assert!(
                compactions > 0,
                "seed {seed}: the overflow heap never compacted"
            );
            assert!(runs > 0, "seed {seed}: no run was pushed");
            assert!(w.s.is_empty());
            assert!(w.live.is_empty(), "seed {seed}: live handles left over");
        }
    }
}
