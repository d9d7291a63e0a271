//! Reliable delivery: configuration and timing policy of the engine's ARQ
//! sublayer.
//!
//! With [`Simulator::enable_arq`](crate::Simulator::enable_arq) every
//! `send`/`unicast` becomes a chain of *per-link* stop-and-wait transfers:
//! each hop is acknowledged by the receiving radio, retransmitted on a
//! deterministic timeout with exponential backoff plus seeded jitter, and
//! abandoned after a bounded number of retries. The ack that completes a
//! transfer cancels its armed timeout, so only real retransmissions fire:
//! a loss-free run dispatches no timeout at all and ends with its last
//! ack. Receivers deduplicate by
//! `(receiver, seq)`, where `seq` names the logical message along its whole
//! route, so a data copy whose ack was lost is re-acked but delivered to
//! the protocol (or relayed onward) exactly once. Hop-by-hop (rather than
//! end-to-end) recovery is what makes long unicast routes survive per-hop
//! loss: a route of `h` hops at drop probability `p` succeeds with
//! probability `(1 - p^(r+1))^h` instead of `((1-p)^h)`-per-attempt.
//!
//! # Accounting
//!
//! Reliability overhead is first-class in the [`CostBook`](crate::CostBook):
//! the *first* attempt of each link transfer is billed under the message's
//! own kind (exactly like an unreliable run), every retransmission under
//! [`KIND_RETX`], and every acknowledgment under [`KIND_ACK`]. The metrics
//! registry counts `net.retx` (retransmissions), `net.ack.dup` (duplicate
//! data deliveries that were re-acked) and `net.timeout` (link transfers
//! abandoned after the retry budget).
//!
//! # Determinism
//!
//! Every timing decision is a pure function of the [`ArqConfig`] and the
//! engine's seeded RNG (backoff jitter is drawn from the same stream as
//! link delays), so same-seed runs remain byte-identical — the
//! `chaos_report --check` contract.

/// Cost-book kind under which ARQ retransmissions are billed.
pub const KIND_RETX: &str = "net.retx";

/// Cost-book kind under which ARQ acknowledgments are billed.
pub const KIND_ACK: &str = "net.ack";

/// Retry/timeout policy of the ARQ sublayer.
///
/// The retransmission timeout of attempt `a` (0-based) over one link is
/// `(2 · max_hop_delay + rtt_slack) · 2^a` plus a jitter tick count drawn
/// uniformly from `[0, jitter_max]` out of the seeded simulation RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArqConfig {
    /// Slack ticks added to the round-trip estimate `2 · max_hop_delay`
    /// before backoff doubling (covers queueing at the receiver).
    pub rtt_slack: u64,
    /// Retransmissions allowed per link transfer (total transmissions =
    /// `max_retries + 1`); on exhaustion the transfer is dropped and
    /// `net.timeout` is incremented.
    pub max_retries: u32,
    /// Maximum jitter ticks added to each timeout (uniform in
    /// `[0, jitter_max]`, drawn from the seeded sim RNG; 0 disables the
    /// draw entirely so the RNG stream is untouched).
    pub jitter_max: u64,
}

impl Default for ArqConfig {
    fn default() -> Self {
        // 9 transmissions per link: at drop 0.25 a link transfer fails with
        // probability 0.25^9 ≈ 4e-6 — negligible for test-scale runs while
        // keeping the worst-case envelope finite.
        ArqConfig {
            rtt_slack: 4,
            max_retries: 8,
            jitter_max: 3,
        }
    }
}

impl ArqConfig {
    /// Retransmission timeout (without jitter) of 0-based `attempt` over a
    /// link whose worst one-way delay is `max_hop_delay`. Exponential
    /// backoff, shift-capped so the arithmetic never overflows.
    pub fn rto(&self, attempt: u32, max_hop_delay: u64) -> u64 {
        let base = 2 * max_hop_delay + self.rtt_slack;
        base.saturating_mul(1u64 << attempt.min(20))
    }

    /// Worst-case ticks from first transmission to delivery over one link:
    /// all allowed timeouts (with maximal jitter) elapse and the final
    /// transmission still makes it, taking the maximal hop delay.
    pub fn worst_case_link_delivery(&self, max_hop_delay: u64) -> u64 {
        let mut total = 0u64;
        for attempt in 0..self.max_retries {
            total = total.saturating_add(self.rto(attempt, max_hop_delay) + self.jitter_max);
        }
        total.saturating_add(max_hop_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rto_doubles_per_attempt() {
        let cfg = ArqConfig {
            rtt_slack: 4,
            max_retries: 3,
            jitter_max: 0,
        };
        assert_eq!(cfg.rto(0, 3), 10);
        assert_eq!(cfg.rto(1, 3), 20);
        assert_eq!(cfg.rto(2, 3), 40);
        // Shift cap: huge attempt numbers saturate instead of overflowing.
        assert!(cfg.rto(200, 3) >= cfg.rto(20, 3));
    }

    #[test]
    fn worst_case_covers_every_backoff_round() {
        let cfg = ArqConfig {
            rtt_slack: 4,
            max_retries: 3,
            jitter_max: 1,
        };
        // 10 + 20 + 40 timeouts, +1 jitter each, + final 3-tick flight.
        assert_eq!(cfg.worst_case_link_delivery(3), 10 + 20 + 40 + 3 + 3);
    }

    #[test]
    fn default_config_is_loss_resistant() {
        let cfg = ArqConfig::default();
        assert!(cfg.max_retries >= 6, "retry budget too small for drop 0.25");
        assert!(cfg.worst_case_link_delivery(1) < 10_000);
    }
}
