//! Outside-in layer timing: forwarding wrappers around the program's public
//! seams. [`Timed`] wraps any [`Protocol`] and times its handlers;
//! [`TimedLink`] wraps any [`LinkModel`] and times `hop`, attributing each
//! hop to the handler on the stack, if any. Both forward every call
//! unchanged, so a traced run is the same simulation as an untimed one —
//! the benchmark checks this by comparing digests.

use elink_netsim::{Ctx, FlowParams, HopOutcome, LinkModel, Protocol, SimTime};
use rand::rngs::StdRng;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Which handler is running (index into the per-handler counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handler {
    Start = 0,
    Message = 1,
    Timer = 2,
}

const NO_HANDLER: usize = 3;

/// Counters shared by every [`Timed`] node and the [`TimedLink`] of one
/// simulator. The engine is single-threaded, so plain cells suffice.
#[derive(Debug)]
pub struct Probe {
    current: Cell<usize>,
    calls: [Cell<u64>; 3],
    ns: [Cell<u64>; 3],
    /// Hop calls and nanoseconds, by the handler on the stack
    /// ([`NO_HANDLER`] for hops the engine makes on its own: relay legs,
    /// ARQ retransmissions and acks).
    hops: [Cell<u64>; 4],
    hop_ns: [Cell<u64>; 4],
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            current: Cell::new(NO_HANDLER),
            calls: Default::default(),
            ns: Default::default(),
            hops: Default::default(),
            hop_ns: Default::default(),
        }
    }
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

impl Probe {
    fn time_handler<R>(&self, which: Handler, f: impl FnOnce() -> R) -> R {
        self.current.set(which as usize);
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.current.set(NO_HANDLER);
        bump(&self.calls[which as usize], 1);
        bump(&self.ns[which as usize], ns);
        out
    }

    /// Raw (uncorrected) totals gathered so far.
    pub fn totals(&self) -> ProbeTotals {
        ProbeTotals {
            calls: self.calls.each_ref().map(Cell::get),
            ns: self.ns.each_ref().map(Cell::get),
            hops: self.hops.each_ref().map(Cell::get),
            hop_ns: self.hop_ns.each_ref().map(Cell::get),
        }
    }
}

/// A snapshot of a [`Probe`]'s raw counters; indices 0/1/2 are
/// `on_start`/`on_message`/`on_timer`, hop index 3 is "no handler".
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeTotals {
    /// Handler calls per handler.
    pub calls: [u64; 3],
    /// Raw handler nanoseconds per handler.
    pub ns: [u64; 3],
    /// Hop calls per handler on the stack.
    pub hops: [u64; 4],
    /// Raw hop nanoseconds per handler on the stack.
    pub hop_ns: [u64; 4],
}

/// Layer times corrected for the cost of the timer reads themselves.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// All handler calls.
    pub handler_calls: u64,
    /// Time inside handlers, raw (s).
    pub handler_raw_s: f64,
    /// Corrected time inside handlers (s).
    pub handler_s: f64,
    /// Corrected time inside `on_message` (s).
    pub on_message_s: f64,
    /// Corrected time inside `on_timer` (s).
    pub on_timer_s: f64,
    /// Corrected handler time minus the hops made inside handlers (s).
    pub self_s: f64,
    /// All `hop` calls.
    pub hop_calls: u64,
    /// Time inside `hop`, raw (s).
    pub hop_raw_s: f64,
    /// Corrected time inside `hop` (s).
    pub hop_s: f64,
    /// Time of the run outside every timed interval, less one timer read
    /// per interval (s): the dispatch loop and the scheduler.
    pub outside_s: f64,
}

impl ProbeTotals {
    /// Subtracts `timer_ns` per timed interval: each handler call and each
    /// hop pays one timer read inside its own interval, and a hop made
    /// inside a handler also pays its second read inside the handler's.
    /// `run_s` is the traced run's wall time, which every interval of the
    /// probe lies in.
    pub fn corrected(&self, timer_ns: f64, run_s: f64) -> LayerTimes {
        let s = |ns: f64| ns / 1e9;
        let hop = |i: usize| self.hop_ns[i] as f64 - self.hops[i] as f64 * timer_ns;
        // Handler time net of its own timer read and of the timer reads of
        // the hops nested in it.
        let handler =
            |i: usize| self.ns[i] as f64 - (self.calls[i] + self.hops[i]) as f64 * timer_ns;
        let handler_ns: f64 = (0..3).map(handler).sum();
        let handler_calls: u64 = self.calls.iter().sum();
        let handler_raw_ns = self.ns.iter().sum::<u64>() as f64;
        let outside_intervals = (handler_calls + self.hops[NO_HANDLER]) as f64;
        LayerTimes {
            handler_calls,
            handler_raw_s: s(handler_raw_ns),
            handler_s: s(handler_ns),
            on_message_s: s(handler(Handler::Message as usize)),
            on_timer_s: s(handler(Handler::Timer as usize)),
            self_s: s(handler_ns - (0..3).map(hop).sum::<f64>()),
            hop_calls: self.hops.iter().sum(),
            hop_raw_s: s(self.hop_ns.iter().sum::<u64>() as f64),
            hop_s: s((0..4).map(hop).sum()),
            outside_s: run_s
                - s(handler_raw_ns + self.hop_ns[NO_HANDLER] as f64)
                - s(outside_intervals * timer_ns),
        }
    }
}

/// A protocol whose handlers are timed into a shared [`Probe`].
pub struct Timed<P> {
    inner: P,
    probe: Rc<Probe>,
}

impl<P> Timed<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, probe: Rc<Probe>) -> Self {
        Timed { inner, probe }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        let inner = &mut self.inner;
        self.probe
            .time_handler(Handler::Start, || inner.on_start(ctx));
    }

    fn on_message(&mut self, from: usize, msg: P::Msg, ctx: &mut Ctx<'_, P::Msg>) {
        let inner = &mut self.inner;
        self.probe
            .time_handler(Handler::Message, || inner.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<'_, P::Msg>) {
        let inner = &mut self.inner;
        self.probe
            .time_handler(Handler::Timer, || inner.on_timer(timer, ctx));
    }
}

/// A link model whose `hop` is timed into a shared [`Probe`].
pub struct TimedLink {
    inner: Box<dyn LinkModel>,
    probe: Rc<Probe>,
}

impl TimedLink {
    /// Wraps `inner`.
    pub fn new(inner: impl Into<Box<dyn LinkModel>>, probe: Rc<Probe>) -> Self {
        TimedLink {
            inner: inner.into(),
            probe,
        }
    }
}

impl From<TimedLink> for Box<dyn LinkModel> {
    fn from(link: TimedLink) -> Self {
        Box::new(link)
    }
}

impl LinkModel for TimedLink {
    fn max_hop_delay(&self) -> u64 {
        self.inner.max_hop_delay()
    }

    fn hop(&self, from: usize, to: usize, now: SimTime, rng: &mut StdRng) -> HopOutcome {
        let t = Instant::now();
        let out = self.inner.hop(from, to, now, rng);
        let ns = t.elapsed().as_nanos() as u64;
        let on_stack = self.probe.current.get();
        bump(&self.probe.hops[on_stack], 1);
        bump(&self.probe.hop_ns[on_stack], ns);
        out
    }

    fn is_alive(&self, node: usize, time: SimTime) -> bool {
        self.inner.is_alive(node, time)
    }

    fn crashed_in_window(&self, node: usize, after: SimTime, upto: SimTime) -> bool {
        self.inner.crashed_in_window(node, after, upto)
    }

    fn is_deterministic(&self) -> bool {
        self.inner.is_deterministic()
    }

    fn flow_params(&self) -> Option<FlowParams> {
        self.inner.flow_params()
    }
}

/// The shortest measured empty timed interval (ns): the minimum over many
/// `Instant::now()` immediately followed by `elapsed()`. Every timed
/// interval costs at least this much more than the work it encloses, so
/// corrected layer times are never negative and are upper bounds.
pub fn timer_ns() -> f64 {
    (0..100_000)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t.elapsed()).as_nanos() as u64
        })
        .min()
        .unwrap_or(0) as f64
}
