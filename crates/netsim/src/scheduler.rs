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
//! # Memory
//!
//! The queue's bookkeeping follows its live events, not the length of the
//! run. A wheel bucket is a `(head, tail)` pair of slot indices: its events
//! are linked through their slots' `next` field and appended at the tail,
//! so a bucket holds them in push order and owns no storage of its own.
//! The free list is linked through the same field from one head index.
//! While an event waits in the overflow heap its `next` holds a sentinel
//! instead, which is how [`Scheduler::cancel`] tells the two places apart.
//! So the scheduler owns the chunked slab, 8 bytes of bucket heads per
//! bucket and the overflow heap, and nothing else.
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
//! 3. `cur` only advances when every earlier bucket is drained, cancelled
//!    entries included.
//!
//! Cancellation removes entries and never reorders the rest, so the live
//! events keep their `(time, seq)` order. Dropping the stale overflow
//! entries rebuilds the heap, but its keys are unique, so the survivors pop
//! in the same order.

use crate::engine::SimTime;
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
pub struct PoppedEvent<T> {
    /// Simulated time the event fires at.
    pub time: SimTime,
    /// Destination node.
    pub node: usize,
    /// The engine-defined payload (delivery, timer, ARQ bookkeeping...).
    pub payload: T,
}

/// End of a bucket's list or of the free list.
const NIL: u32 = u32::MAX;
/// `Slot::next` of an event waiting in the overflow heap.
const IN_OVERFLOW: u32 = u32::MAX - 1;

/// Arena slot. `payload` is `Some` while the event is live; pop and cancel
/// take it. Neither the time nor the seq tiebreak is stored here: a
/// bucket stands for one tick and keeps its slots in insertion order, and
/// the overflow heap carries both in its key.
struct Slot<T> {
    node: u32,
    /// Bumped each time the slot is freed.
    gen: u32,
    /// The next slot in this slot's wheel bucket or in the free list
    /// ([`NIL`] at the end), or [`IN_OVERFLOW`] while the event waits in
    /// the overflow heap.
    next: u32,
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

    /// Live (queued, uncancelled) events right now.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events are queued.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// High-water mark of simultaneously live events over the whole run.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    fn horizon(&self) -> SimTime {
        self.cur + self.buckets.len() as SimTime
    }

    fn bucket_of(&self, time: SimTime) -> usize {
        (time & (self.buckets.len() as SimTime - 1)) as usize
    }

    /// Takes a slot for `payload` with the given `next` link.
    fn alloc(&mut self, node: usize, next: u32, payload: T) -> EventHandle {
        let node = node as u32;
        if self.free != NIL {
            let slot = self.free;
            let s = &mut self.slots[slot as usize];
            self.free = s.next;
            (s.node, s.next, s.payload) = (node, next, Some(payload));
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
        debug_assert!(time >= self.cur, "push into the past breaks the wheel");
        let seq = self.seq;
        self.seq += 1;
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        if time < self.horizon() {
            let h = self.alloc(node, NIL, payload);
            self.link(time, h.slot);
            h
        } else {
            let h = self.alloc(node, IN_OVERFLOW, payload);
            self.overflow.push(Reverse((time, seq, h.slot, h.gen)));
            h
        }
    }

    /// Cancels a queued event and drops its payload; `false` (and no
    /// change) if the event already popped or was cancelled. A wheel event
    /// keeps its slot until the wheel reaches its tick; an overflow event
    /// frees its slot at once.
    // simlint: hot
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        let Some(s) = self.slots.get_mut(h.slot as usize) else {
            return false;
        };
        if s.gen != h.gen || s.payload.take().is_none() {
            return false;
        }
        self.live -= 1;
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

    /// Removes and returns the earliest live event (`(time, seq)` order).
    // simlint: hot
    pub fn pop(&mut self) -> Option<PoppedEvent<T>> {
        let t = self.next_time()?;
        if t != self.cur {
            // Commit the window advance; migrates every overflow entry that
            // now fits (all at times > t, or the overflow minimum itself at
            // t when the wheel held no live event — see invariant 2).
            self.set_cur(t);
        }
        let b = self.bucket_of(t);
        let slot = self.buckets[b].head;
        let s = &mut self.slots[slot as usize];
        let payload = s.payload.take().expect("next_time left a cancelled head"); // simlint: allow(no-panic-in-protocol): arena bookkeeping invariant; next_time stops only at a live head
        let node = s.node as usize;
        // Unlink the head; same-tick pushes from the handler append to
        // what is left and pop in seq order.
        let bucket = &mut self.buckets[b];
        bucket.head = s.next;
        if bucket.head == NIL {
            bucket.tail = NIL;
        }
        self.in_wheel -= 1;
        self.live -= 1;
        self.release(slot);
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
    fn slots_carry_twelve_bytes_beside_the_payload() {
        // Node, generation and link; the time lives in the bucket or the
        // overflow key (DESIGN.md §11.4). Over an 8-byte-aligned payload
        // that is 16 bytes with padding.
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
        assert_eq!(s.pop().unwrap().payload, 'a');
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
        assert_eq!((e.time, e.node, e.payload), (far + 1, 1, 'b'));
        assert!(s.is_empty());
    }

    #[test]
    fn queue_works_after_emptying_with_cancelled_leftovers() {
        let far = Scheduler::<u32>::WHEEL_BUCKETS as SimTime * 3;
        let mut s = Scheduler::new();
        let near = s.push(10, 0, 0);
        let remote = s.push(far, 0, 1);
        s.push(5, 0, 2);
        assert_eq!(s.pop().unwrap().payload, 2);
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
        assert_eq!(s.pop().unwrap().payload, 3);
        assert_eq!(s.pop().unwrap().payload, 1);
        // Only the overflow event is left; cancel it and peek past it too.
        assert!(s.cancel(y));
        s.push(30, 0, 4);
        let dead = s.push(40, 0, 5);
        assert!(s.cancel(dead));
        assert_eq!(s.next_time(), Some(30));
        assert_eq!(s.pop().unwrap().payload, 4);
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
    /// overflow heap, which the oracle drops too). Every seed also has a
    /// cancel-heavy far-future phase, bursts of overflow events most of
    /// which are cancelled again between pops, so the overflow heap
    /// compacts mid-run; the stale-entry count is checked after each of
    /// those cancels.
    #[test]
    fn heap_and_calendar_agree_on_random_workloads() {
        use std::collections::BTreeMap;
        type Oracle = BinaryHeap<Reverse<(SimTime, u64, usize, u64)>>;
        for seed in 0..16u64 {
            let mut s: Scheduler<u64> = Scheduler::new();
            let mut oracle = Oracle::new();
            // Live handles by tag.
            let mut handles: BTreeMap<u64, EventHandle> = BTreeMap::new();
            let mut lcg: u64 = 0x5eed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = || {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                lcg >> 33
            };
            let mut now: SimTime = 0;
            let mut tag = 0u64;
            let check_pop = |s: &mut Scheduler<u64>,
                             oracle: &mut Oracle,
                             handles: &mut BTreeMap<u64, EventHandle>| {
                assert_eq!(s.len(), oracle.len(), "seed {seed}: live count");
                let want = oracle.peek().map(|&Reverse((t, ..))| t);
                assert_eq!(s.next_time(), want, "seed {seed}: next_time peek");
                let got = s.pop().map(|e| (e.time, e.node, e.payload));
                let want = oracle.pop().map(|Reverse((t, _, node, p))| (t, node, p));
                assert_eq!(got, want, "seed {seed}: pop order diverged");
                if let Some((.., p)) = got {
                    let h = handles.remove(&p).expect("popped a live tag");
                    assert!(!s.cancel(h), "seed {seed}: cancelled a popped event");
                }
                got
            };
            let mut compactions = 0;
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
                    let node = (r % 64) as usize;
                    handles.insert(tag, s.push(now + dt, node, tag));
                    oracle.push(Reverse((now + dt, tag, node, tag)));
                    tag += 1;
                }
                // Cancel a few random live events.
                for _ in 0..(next() % 3) {
                    if handles.is_empty() {
                        break;
                    }
                    let pick = next() as usize % handles.len();
                    let victim = *handles.keys().nth(pick).expect("in range");
                    let h = handles.remove(&victim).expect("live");
                    assert!(s.cancel(h), "seed {seed}: live cancel refused");
                    assert!(!s.cancel(h), "seed {seed}: double cancel accepted");
                    oracle.retain(|&Reverse((_, t, ..))| t != victim);
                }
                // Every 20th round: a far-future burst, seven in eight of
                // it cancelled again, with pops in between.
                if round % 20 == 10 {
                    let first = tag;
                    for _ in 0..(16 + next() % 48) {
                        let r = next();
                        let (t, node) = (now + 8192 + r % 50_000, (r % 64) as usize);
                        handles.insert(tag, s.push(t, node, tag));
                        oracle.push(Reverse((t, tag, node, tag)));
                        tag += 1;
                    }
                    for victim in first..tag {
                        if next() % 8 == 0 {
                            continue;
                        }
                        let Some(h) = handles.remove(&victim) else {
                            continue; // popped in between
                        };
                        let before = s.overflow.len();
                        assert!(s.cancel(h), "seed {seed}: live cancel refused");
                        oracle.retain(|&Reverse((_, t, ..))| t != victim);
                        compactions += usize::from(s.overflow.len() < before);
                        let stale = s
                            .overflow
                            .iter()
                            .filter(|&&Reverse((_, _, slot, gen))| {
                                s.slots[slot as usize].gen != gen
                            })
                            .count();
                        assert_eq!(s.overflow_dead, stale, "seed {seed}: stale count");
                        if victim % 4 == 0 {
                            if let Some((t, ..)) = check_pop(&mut s, &mut oracle, &mut handles) {
                                now = t;
                            }
                        }
                    }
                }
                // Drain a few.
                for _ in 0..(next() % 6) {
                    if let Some((t, ..)) = check_pop(&mut s, &mut oracle, &mut handles) {
                        assert!(t >= now, "seed {seed}: time went backwards");
                        now = t;
                    }
                }
            }
            while check_pop(&mut s, &mut oracle, &mut handles).is_some() {}
            assert!(
                compactions > 0,
                "seed {seed}: the overflow heap never compacted"
            );
            assert!(s.is_empty());
            assert!(handles.is_empty(), "seed {seed}: live handles left over");
        }
    }
}
