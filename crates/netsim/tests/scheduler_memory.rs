//! The scheduler's memory follows its live events, not the length of the
//! run. A counting global allocator measures the bytes a `Scheduler` holds
//! after two wheel rotations of churn, and the allocations of a warmed-up
//! push/pop/cancel cycle.
//!
//! The counters are per thread, so the test harness's own threads cannot
//! disturb them.

use elink_netsim::{EventHandle, Scheduler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

/// The system allocator, counting the current thread's live bytes and
/// allocation calls.
struct Counting;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: isize, calls: usize) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + calls));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe the sizes and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` pass through as given.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize, 1);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` via `alloc` or `realloc` above with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(p, layout) };
        note(-(layout.size() as isize), 0);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller's guarantees on
        // `new_size` pass through as given.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            note(new_size as isize - layout.size() as isize, 1);
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn alloc_calls() -> usize {
    ALLOC_CALLS.with(Cell::get)
}

/// A 64-byte payload; word 0 is 1 for a far-future event.
type Payload = [u64; 8];

#[test]
fn scheduler_bytes_follow_live_events() {
    const B: u64 = Scheduler::<Payload>::WHEEL_BUCKETS as u64;
    const PER_TICK: u64 = 200;
    const FAR_BURST: u64 = 16;
    const FAR_KEPT: usize = 64;
    let ticks = 2 * B;
    let warm = ticks - 2048;

    // The test's own storage, allocated before the baseline and never
    // grown: handles to cancel, the far-future survivors, and the pending
    // wheel entries per tick.
    let mut victims: Vec<EventHandle> = Vec::with_capacity(PER_TICK as usize);
    let mut kept: [Option<EventHandle>; FAR_KEPT] = [None; FAR_KEPT];
    let mut due = [0usize; 8];

    let before = live_bytes();
    let mut s: Scheduler<Payload> = Scheduler::new();
    // An upper bound on the slots in use: wheel entries not yet drained
    // (a cancelled one keeps its slot until its tick) plus the live
    // far-future events (a cancelled one frees its slot at once).
    let mut wheel_pending = 0;
    let mut peak_slots = 0;
    let mut calls_at_warm = 0;
    for t in 0..ticks {
        if t == warm {
            calls_at_warm = alloc_calls();
        }
        while s.next_time() == Some(t) {
            let e = s.pop().expect("next_time saw it");
            assert_eq!(e.payload[0], 0, "a far-future event reached the wheel");
        }
        // Every entry at or before `t` has been drained now.
        wheel_pending -= std::mem::take(&mut due[(t % 8) as usize]);

        // About 200 events a tick, one to four ticks out; a quarter of
        // them is cancelled while it waits in the wheel.
        for i in 0..PER_TICK {
            let at = t + 1 + (i + t) % 4;
            let h = s.push(at, i as usize, [0, t, i, 0, 0, 0, 0, 0]);
            due[(at % 8) as usize] += 1;
            if i % 4 == 3 {
                victims.push(h);
            }
        }
        wheel_pending += PER_TICK as usize;
        // Every 16th tick, a burst of far-future events 2,000 to 6,000
        // ticks beyond the wheel. All but one are cancelled at once, and
        // that one 64 bursts later, while it still waits in the overflow
        // heap: the heap sees 16 pushes and 16 cancels per burst, and
        // compaction keeps it near its 64 live entries.
        if t % 16 == 0 {
            let ring = &mut kept[(t / 16) as usize % FAR_KEPT];
            victims.extend(ring.take());
            for j in 0..FAR_BURST {
                let at = t + B + 2000 + (j * 331 + t) % 4000;
                let h = s.push(at, 0, [1, t, j, 0, 0, 0, 0, 0]);
                match j {
                    0 => *ring = Some(h),
                    _ => victims.push(h),
                }
            }
        }
        for h in victims.drain(..) {
            assert!(s.cancel(h));
        }
        let far_live = kept.iter().flatten().count();
        peak_slots = peak_slots.max(wheel_pending + far_live);
    }
    let warm_calls = alloc_calls() - calls_at_warm;
    let held = (live_bytes() - before) as usize;

    // What the scheduler may hold: whole chunks of 1,024 slots, each its
    // payload plus 16 bytes of node, generation, link and run length
    // (DESIGN.md §11.4), the chunk list, 8 bytes of bucket heads per
    // bucket, and an overflow heap of 24-byte entries that compaction keeps
    // within twice its live entries plus one, plus one burst pushed since
    // the last compaction (doubling capacity).
    let chunks = peak_slots.div_ceil(1024);
    let slab = chunks * 1024 * (size_of::<Option<Payload>>() + 16) + 2 * chunks.max(4) * 24;
    let buckets = B as usize * 8;
    let heap = 2 * (2 * FAR_KEPT + 1 + FAR_BURST as usize) * 24;
    assert!(
        held <= slab + buckets + heap,
        "scheduler holds {held} B; {peak_slots} slots at the peak allow {slab} + {buckets} + {heap} B"
    );
    // A `Vec<u32>` per bucket would keep 256 entries' capacity in each of
    // the 8,192 buckets: more than this.
    assert!(held < B as usize * 800, "scheduler holds {held} B");
    assert_eq!(
        warm_calls, 0,
        "the last 2,048 ticks of steady churn allocated {warm_calls} times"
    );
}
