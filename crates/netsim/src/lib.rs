//! Deterministic discrete-event simulator for in-network protocols.
//!
//! The paper evaluates ELink on sensor networks (Crossbow Mica2 motes); all
//! of its metrics — message counts and logical running time — are functions
//! of the communication graph, the protocol logic and the per-hop link
//! behaviour, so a discrete-event simulator is a faithful substitute for the
//! hardware (see DESIGN.md, substitutions).
//!
//! # Layering
//!
//! ```text
//!                Protocol impls (ElinkNode, MaintNode, SfNode, ...)
//!                      │  on_start / on_message / on_timer
//!                      ▼
//!  ┌──────────────────────────────────────────────────────────────────┐
//!  │ engine   calendar-queue scheduler + run loop + dispatch; one     │
//!  │          transmission path (bill, fate, transmit, forward)       │
//!  │  ├ ctx      Ctx handle (send, unicast, broadcast_neighbors,      │
//!  │  │          timers, neighbors &[u32], metrics/phase_enter/exit)  │
//!  │  └ capture  model-checker seam (McEvent, Captured, snapshots)    │
//!  │ reliable ARQ sublayer: config, transfer/copy slabs, dedup, and   │
//!  │          every ARQ event behind one dispatch entry               │
//!  └────┬──────────────┬────────────────┬───────────────┬─────────────┘
//!       │ hop()/       │ record_tx/     │ every event   │ counters,
//!       │ is_alive()   │ record_rx      │               │ histograms,
//!       ▼              ▼                ▼               ▼ phase spans
//!  ┌──────────┐  ┌───────────┐   ┌─────────────┐  ┌─────────────┐
//!  │ link     │  │ stats     │   │ trace       │  │ metrics     │
//!  │ SyncLink │  │ CostBook  │   │ TraceSink   │  │ Metrics     │
//!  │ LossyLink│  │ ├ per-kind│   │ └ Jsonl     │  │ ├ Histogram │
//!  │ FairShare│  │ │ (§8.2)  │   │  (optional) │  │ └ PhaseStats│
//!  │ (+crash, │  │ └ per-node│   └─────────────┘  │  (sim-time  │
//!  │  loss,   │  │   tx/rx/  │                    │   only)     │
//!  │  partition)  │   energy  │                    └─────────────┘
//!  └──────────┘  └───────────┘
//! ```
//!
//! * [`engine`] owns the dispatch loop over the [`scheduler`]'s calendar
//!   queue. Protocols implement [`Protocol`] and interact through [`Ctx`]
//!   (its own child module, as is the model checker's capture seam,
//!   [`McEvent`]). Every radio transmission — a send, a unicast leg, an
//!   ARQ data copy or ack — takes one path: it is billed once and asks the
//!   link for its fate once (one [`LinkModel::hop`] call). Multi-hop
//!   [`Ctx::unicast`] walks the shortest path hop by hop.
//! * [`link`] decides per-hop fate: [`SyncLink`] (one tick per hop, §4)
//!   and [`LossyLink`] (bounded uniform delays, §5, plus drop probability,
//!   scheduled node crash/recover windows and partition masks) — both
//!   seeded and deterministic — and [`ScriptedLink`] for model-checker
//!   replay.
//! * [`flow`] is the contention-aware model: [`FairShareLink`]
//!   gives each directed link an integer capacity shared max-min-fairly
//!   across in-flight transfers. A link advertising
//!   [`link::FlowParams`] switches the engine from per-message `hop()`
//!   delays to a [`FlowTable`] of tentative-completion events —
//!   messages queue behind each other, [`Ctx::max_delivery_delay`]
//!   stretches with the backlog, and `net.queued_ms` /
//!   [`Simulator::link_utilization`] expose the congestion. See
//!   `docs/SUBSTRATE.md` for the substrate contract.
//! * [`stats`] is the unified accounting layer. [`CostBook`] records §8.2
//!   per-kind costs ("a message can transmit a single coefficient or a data
//!   value": `scalars × hops`, at least 1 per hop) plus per-node tx/rx
//!   tallies and an energy estimate. Analytic cost models (query planning,
//!   non-protocol baselines, §6 maintenance) record through the same API, so
//!   simulated and analytic bills merge and report identically.
//! * [`trace`] is an optional observer: a [`TraceSink`] receives every
//!   send/deliver/drop/timer event, e.g. for offline analysis
//!   ([`JsonlTrace`] streams JSON Lines). Traces count per *logical
//!   message*; `CostBook` bills per *hop* — see the [`trace`] module docs
//!   for the contract.
//! * [`reliable`] is the engine's optional ARQ sublayer
//!   ([`Simulator::enable_arq`]): its configuration and timing policy, its
//!   transfer and copy state, and the handling of every ARQ event —
//!   per-link ack/retransmit/dedup that makes `send`/`unicast` survive
//!   lossy links without any protocol changes, billed first-class through
//!   [`CostBook`] (`net.retx`/`net.ack` kinds).
//! * [`metrics`] is the deterministic observability registry: named
//!   counters, gauges, [`Histogram`]s (e.g. `net.unicast_hops`) and
//!   [`PhaseStats`] simulated-time phase envelopes, fed by the engine and
//!   by protocols via [`Ctx::metrics`]/[`Ctx::phase_enter`]. Entries are
//!   kept sorted by name and hold no wall-clock, so same-seed runs produce
//!   byte-identical registries.
//!
//! # Drop & crash semantics
//!
//! Transmissions are charged when the radio fires, not when the message
//! arrives: a hop the link drops, or a message that dies entering a crashed
//! relay, bills every hop it traversed and is never delivered. Nodes inside
//! a crash window receive nothing and their timers are lost (not deferred) —
//! protocol state freezes while down and resumes on recovery.

// Every public item must carry a doc comment (simlint pub-doc-coverage
// enforces the same invariant pre-rustdoc).
#![warn(missing_docs)]

pub mod canon;
/// Dispatch loop and transmission path; the `Ctx` handle and the capture seam.
pub mod engine;
/// Sorted-vector map and set (`FlatMap`, `FlatSet`).
pub mod flat;
/// Flow-level contention model: fair-shared link capacity (`FairShareLink`).
pub mod flow;
/// Per-hop link models: sync, bounded-delay lossy, scripted.
pub mod link;
/// Deterministic counters, gauges, histograms and phase spans.
pub mod metrics;
/// The ARQ sublayer: configuration, timing policy, state and event handling.
pub mod reliable;
/// The calendar-queue event scheduler, with O(1) cancellation.
pub mod scheduler;
/// Unified cost accounting (`CostBook`): per-kind and per-node bills.
pub mod stats;
/// Optional event-stream observers (the `TraceSink` trait, JSONL).
pub mod trace;

pub use canon::{canon_f64, fnv1a, Canonicalize};
pub use engine::{
    Captured, Ctx, FlowsSnapshot, McEvent, Protocol, QueryId, SimNetwork, SimTime, Simulator,
    TimerHandle,
};
pub use flat::{FlatMap, FlatSet};
pub use flow::{FairShareLink, FlowTable, LinkUtil};
pub use link::{FlowParams, HopOutcome, LinkModel, LossyLink, ScriptedLink, SyncLink};
pub use metrics::{Histogram, Metrics, PhaseGuard, PhaseStats};
pub use reliable::{ArqConfig, KIND_ACK, KIND_RETX};
pub use scheduler::{EventHandle, Scheduler};
pub use stats::{
    qid_kind, CostBook, KindStats, MessageStats, NodeStats, QID_SUB_CONTROL, QID_SUB_PUSH,
    QID_SUB_REPAIR,
};
pub use trace::{DropReason, JsonlTrace, TraceEvent, TraceSink};
