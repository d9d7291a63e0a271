//! Optional observer layer: engine-level event traces.
//!
//! A [`TraceSink`] attached via `Simulator::set_trace` receives every
//! send/deliver/drop/timer event the engine processes. [`JsonlTrace`]
//! streams every event as one JSON object per line for offline analysis
//! (the `trace_summary` binary in `elink-experiments` renders such logs
//! as per-node tables). Wrap a sink in `Arc<Mutex<_>>` to keep a handle for
//! inspection after the simulator takes ownership.
//!
//! # Granularity contract: traces vs the cost book
//!
//! The trace layer and [`CostBook`](crate::CostBook) deliberately count at
//! **different granularities**, and both are correct:
//!
//! * the engine emits ONE [`TraceEvent::Send`] per *logical message* — a
//!   multi-hop unicast traces a single `Send` at the origin (and a single
//!   `Deliver` at the destination), never one per relay;
//! * the cost book bills ONE transmission per *hop* — the same unicast
//!   books `hops` packets, one for each radio that fired (§8.2 charges the
//!   transmitting side of every link).
//!
//! So on a 3-hop line, one unicast traces one `Send` and one `Deliver`
//! but `costs().kind(k).packets == 3`. Use traces to
//! reason about protocol-level message flow, the cost book to reason about
//! radio energy and the paper's message-cost metric; the engine test
//! `multi_hop_contract_trace_per_message_book_per_hop` pins both numbers.

use crate::engine::SimTime;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Why the engine dropped a message or timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The link model dropped the transmission (loss or partition).
    Loss,
    /// The destination (or a relay) was crashed.
    NodeDown,
    /// The owning protocol refused the work under overload (load-admission
    /// shed). Emitted via [`Ctx::trace_shed`](crate::Ctx::trace_shed) with
    /// `from == to`: no transmission was ever attempted, but the decision
    /// must be visible in the trace rather than silent.
    Shed,
}

/// One engine-level event.
///
/// Message events optionally carry the [`QueryId`](crate::QueryId) of the
/// in-flight query they belong to (set by the `*_tagged` send methods on
/// [`Ctx`](crate::Ctx)); untagged traffic — clustering, maintenance,
/// timers — leaves `query` as `None` and serializes exactly as before, so
/// pre-query traces keep parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A transmission left `from` towards `to` (multi-hop sends trace once).
    Send {
        /// Time the transmission started.
        time: SimTime,
        /// Originating node.
        from: usize,
        /// Destination node.
        to: usize,
        /// Query this message serves, if any.
        query: Option<u64>,
        /// Whether this is an ARQ retransmission of an earlier attempt.
        /// Retransmissions are *extra* events on top of the one-`Send`-per-
        /// logical-message contract and are flagged so analyzers (e.g.
        /// `trace_summary`) can separate protocol traffic from reliability
        /// overhead; unreliable runs never set this.
        retx: bool,
    },
    /// A message was handed to `to`'s protocol callback.
    Deliver {
        /// Delivery time.
        time: SimTime,
        /// Originating node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Query this message serves, if any.
        query: Option<u64>,
    },
    /// A message (or a dead node's timer, with `from == to`) was lost.
    Drop {
        /// Time the loss was decided.
        time: SimTime,
        /// Originating node.
        from: usize,
        /// Intended destination.
        to: usize,
        /// Why it was lost.
        reason: DropReason,
        /// Query this message served, if any.
        query: Option<u64>,
    },
    /// A timer fired.
    Timer {
        /// Firing time.
        time: SimTime,
        /// Node whose timer fired.
        node: usize,
        /// Timer id as passed to `Ctx::set_timer`.
        id: u64,
    },
}

/// Receives engine events. Implementations should be cheap: the engine calls
/// this on every event when a sink is attached.
pub trait TraceSink {
    /// Observes one event.
    fn record(&mut self, event: TraceEvent);
}

/// Shared-handle adapter: attach the `Arc<Mutex<T>>` to the simulator and
/// keep a clone for post-run inspection.
impl<T: TraceSink> TraceSink for Arc<Mutex<T>> {
    fn record(&mut self, event: TraceEvent) {
        // simlint: allow(no-panic-in-protocol): a poisoned mutex means a sibling thread already panicked; propagating preserves that original failure
        self.lock().expect("trace sink poisoned").record(event);
    }
}

/// Streams every event as one JSON object per line (JSON Lines) to any
/// [`Write`] target, for offline analysis or the `trace_summary` binary.
///
/// Line schema (`t` is simulated time):
///
/// ```text
/// {"t":0,"ev":"send","from":0,"to":3}
/// {"t":2,"ev":"deliver","from":0,"to":3}
/// {"t":3,"ev":"send","from":3,"to":5,"qid":12}
/// {"t":4,"ev":"drop","from":1,"to":2,"reason":"loss"}
/// {"t":5,"ev":"timer","node":1,"id":7}
/// {"t":9,"ev":"send","from":3,"to":5,"retx":1,"qid":12}
/// ```
///
/// The `qid` field appears only on query-tagged message events, and the
/// `retx` field only on ARQ retransmissions, so logs produced before query
/// tagging or reliable delivery existed keep the exact same shape.
///
/// Write failures never panic (the engine forbids panics in this crate);
/// they are tallied in [`write_errors`](Self::write_errors) and the sink
/// keeps accepting events.
///
/// # Example
///
/// Attach to a simulator through the shared-handle adapter and read the
/// log back after the run:
///
/// ```
/// use elink_netsim::{JsonlTrace, TraceEvent, TraceSink};
/// use std::sync::{Arc, Mutex};
///
/// let sink = Arc::new(Mutex::new(JsonlTrace::new(Vec::new())));
/// let mut handle = Arc::clone(&sink);
/// // A simulator would do this on every event: sim.set_trace(handle).
/// handle.record(TraceEvent::Send { time: 0, from: 0, to: 3, query: None, retx: false });
/// handle.record(TraceEvent::Send { time: 1, from: 3, to: 5, query: Some(12), retx: false });
/// handle.record(TraceEvent::Timer { time: 5, node: 1, id: 7 });
///
/// let log = sink.lock().unwrap().writer().clone();
/// let text = String::from_utf8(log).unwrap();
/// assert_eq!(
///     text,
///     "{\"t\":0,\"ev\":\"send\",\"from\":0,\"to\":3}\n\
///      {\"t\":1,\"ev\":\"send\",\"from\":3,\"to\":5,\"qid\":12}\n\
///      {\"t\":5,\"ev\":\"timer\",\"node\":1,\"id\":7}\n"
/// );
/// ```
#[derive(Debug)]
pub struct JsonlTrace<W: Write> {
    writer: W,
    lines: u64,
    write_errors: u64,
}

impl<W: Write> JsonlTrace<W> {
    /// A sink streaming to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlTrace {
            writer,
            lines: 0,
            write_errors: 0,
        }
    }

    /// Lines successfully written.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Events whose line could not be written (I/O error on the target).
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Borrows the underlying writer (e.g. to inspect an in-memory buffer).
    pub fn writer(&self) -> &W {
        &self.writer
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

/// Renders the optional query tag as a `,"qid":N` JSON fragment (empty when
/// absent, so untagged events serialize exactly as before this field existed).
fn qid_fragment(query: Option<u64>) -> String {
    match query {
        Some(q) => format!(",\"qid\":{q}"),
        None => String::new(),
    }
}

impl<W: Write> TraceSink for JsonlTrace<W> {
    fn record(&mut self, event: TraceEvent) {
        let line = match event {
            TraceEvent::Send {
                time,
                from,
                to,
                query,
                retx,
            } => {
                let retx = if retx { ",\"retx\":1" } else { "" };
                let qid = qid_fragment(query);
                format!("{{\"t\":{time},\"ev\":\"send\",\"from\":{from},\"to\":{to}{retx}{qid}}}\n")
            }
            TraceEvent::Deliver {
                time,
                from,
                to,
                query,
            } => {
                let qid = qid_fragment(query);
                format!("{{\"t\":{time},\"ev\":\"deliver\",\"from\":{from},\"to\":{to}{qid}}}\n")
            }
            TraceEvent::Drop {
                time,
                from,
                to,
                reason,
                query,
            } => {
                let reason = match reason {
                    DropReason::Loss => "loss",
                    DropReason::NodeDown => "node_down",
                    DropReason::Shed => "shed",
                };
                let qid = qid_fragment(query);
                format!(
                    "{{\"t\":{time},\"ev\":\"drop\",\"from\":{from},\"to\":{to},\"reason\":\"{reason}\"{qid}}}\n"
                )
            }
            TraceEvent::Timer { time, node, id } => {
                format!("{{\"t\":{time},\"ev\":\"timer\",\"node\":{node},\"id\":{id}}}\n")
            }
        };
        match self.writer.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(_) => self.write_errors += 1,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The engine tests' sink: every event, in order.
    #[derive(Debug, Default)]
    pub(crate) struct Collect(pub(crate) Vec<TraceEvent>);

    impl Collect {
        /// How many recorded events `pick` selects.
        pub(crate) fn count(&self, pick: impl Fn(&TraceEvent) -> bool) -> u64 {
            self.0.iter().filter(|e| pick(e)).count() as u64
        }
    }

    impl TraceSink for Collect {
        fn record(&mut self, event: TraceEvent) {
            self.0.push(event);
        }
    }

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::Timer {
            time: i,
            node: 0,
            id: i,
        }
    }

    #[test]
    fn arc_mutex_sink_shares_state() {
        let shared = Arc::new(Mutex::new(Collect::default()));
        let mut handle = Arc::clone(&shared);
        handle.record(ev(0));
        handle.record(ev(1));
        assert_eq!(shared.lock().unwrap().0, vec![ev(0), ev(1)]);
    }

    #[test]
    fn jsonl_trace_emits_one_line_per_event() {
        let mut sink = JsonlTrace::new(Vec::new());
        sink.record(TraceEvent::Send {
            time: 0,
            from: 0,
            to: 3,
            query: None,
            retx: false,
        });
        sink.record(TraceEvent::Deliver {
            time: 2,
            from: 0,
            to: 3,
            query: None,
        });
        sink.record(TraceEvent::Drop {
            time: 4,
            from: 1,
            to: 2,
            reason: DropReason::NodeDown,
            query: None,
        });
        sink.record(TraceEvent::Timer {
            time: 5,
            node: 1,
            id: 7,
        });
        assert_eq!(sink.lines(), 4);
        assert_eq!(sink.write_errors(), 0);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            text,
            "{\"t\":0,\"ev\":\"send\",\"from\":0,\"to\":3}\n\
             {\"t\":2,\"ev\":\"deliver\",\"from\":0,\"to\":3}\n\
             {\"t\":4,\"ev\":\"drop\",\"from\":1,\"to\":2,\"reason\":\"node_down\"}\n\
             {\"t\":5,\"ev\":\"timer\",\"node\":1,\"id\":7}\n"
        );
    }

    #[test]
    fn jsonl_trace_renders_shed_drops() {
        // The exact line shape `trace_summary`'s overload column parses:
        // a self-addressed drop with reason "shed" and the query tag.
        let mut sink = JsonlTrace::new(Vec::new());
        sink.record(TraceEvent::Drop {
            time: 9,
            from: 4,
            to: 4,
            reason: DropReason::Shed,
            query: Some(11),
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            text,
            "{\"t\":9,\"ev\":\"drop\",\"from\":4,\"to\":4,\"reason\":\"shed\",\"qid\":11}\n"
        );
    }

    #[test]
    fn jsonl_trace_tags_query_events_with_qid() {
        let mut sink = JsonlTrace::new(Vec::new());
        sink.record(TraceEvent::Send {
            time: 1,
            from: 4,
            to: 7,
            query: Some(42),
            retx: false,
        });
        sink.record(TraceEvent::Deliver {
            time: 3,
            from: 4,
            to: 7,
            query: Some(42),
        });
        sink.record(TraceEvent::Drop {
            time: 4,
            from: 7,
            to: 9,
            reason: DropReason::Loss,
            query: Some(42),
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            text,
            "{\"t\":1,\"ev\":\"send\",\"from\":4,\"to\":7,\"qid\":42}\n\
             {\"t\":3,\"ev\":\"deliver\",\"from\":4,\"to\":7,\"qid\":42}\n\
             {\"t\":4,\"ev\":\"drop\",\"from\":7,\"to\":9,\"reason\":\"loss\",\"qid\":42}\n"
        );
    }

    #[test]
    fn jsonl_trace_flags_retransmissions() {
        let mut sink = JsonlTrace::new(Vec::new());
        sink.record(TraceEvent::Send {
            time: 9,
            from: 3,
            to: 5,
            query: Some(12),
            retx: true,
        });
        sink.record(TraceEvent::Send {
            time: 11,
            from: 3,
            to: 5,
            query: None,
            retx: true,
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            text,
            "{\"t\":9,\"ev\":\"send\",\"from\":3,\"to\":5,\"retx\":1,\"qid\":12}\n\
             {\"t\":11,\"ev\":\"send\",\"from\":3,\"to\":5,\"retx\":1}\n"
        );
    }

    #[test]
    fn jsonl_trace_counts_write_errors_without_panicking() {
        /// A writer that always fails.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("broken pipe"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlTrace::new(Broken);
        sink.record(ev(0));
        sink.record(ev(1));
        assert_eq!(sink.lines(), 0);
        assert_eq!(sink.write_errors(), 2);
    }
}
