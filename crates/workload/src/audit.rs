//! The serving soundness catalog: the brute-force ground truth and the four
//! contracts a served answer, a standing view, a cached result and an M-tree
//! entry must keep, each written once.
//!
//! Range and path queries are exact because a δ-compact cluster lets a
//! query prune or include it whole (§7.2–7.3); the serving layer makes the
//! same promise over anchors and, under faults, promises honest partial
//! coverage instead. The model checker's serving predicates, the chaos
//! cells, the fault proptests and the bench reports all apply the checks
//! below; none of them re-encodes a contract.
//!
//! Answers are defined over **anchors**: the last synchronized feature of
//! every node, frozen at a crashed node. A check therefore needs the anchor
//! snapshot its answers were served over — the initial features for a
//! query-only schedule, the final anchors after a quiesced update stream.
//!
//! Each check returns `Err` naming the first breach it finds.

use crate::gen::Template;
use crate::protocol::{CompletedQuery, ServeNode};
use crate::subscribe::ClientSub;
use elink_metric::{Feature, Metric};
use elink_topology::NodeId;
use std::sync::Arc;

/// Float slop of the covering check: the protocol compares exact `f64`s,
/// the slop only forgives re-computation order.
const EPS: f64 = 1e-9;

/// Brute-force ground truth for a template over a fleet anchor snapshot:
/// range templates collect `d ≤ r`, path templates the strict unsafe set
/// `d < γ`. Ascending node ids.
pub fn expected_matches(
    template: &Template,
    anchors: &[Feature],
    metric: &dyn Metric,
) -> Vec<NodeId> {
    let (center, r, strict) = match template {
        Template::Range { center, r } => (center, *r, false),
        Template::Path { danger, gamma, .. } => (danger, *gamma, true),
    };
    anchors
        .iter()
        .enumerate()
        .filter(|(_, a)| {
            let d = metric.distance(center, a);
            if strict {
                d < r
            } else {
                d <= r
            }
        })
        .map(|(v, _)| v)
        .collect()
}

/// Every template's brute-force matches over one anchor snapshot, plus the
/// metric the covering check measures with.
pub struct Truth {
    /// `matches[t]`: [`expected_matches`] of template `t`, ascending.
    matches: Vec<Vec<NodeId>>,
    metric: Arc<dyn Metric>,
}

/// The first id of `ids` not in the ascending `truth`, if any.
fn outside(mut ids: impl Iterator<Item = NodeId>, truth: &[NodeId]) -> Option<NodeId> {
    ids.find(|m| truth.binary_search(m).is_err())
}

impl Truth {
    /// Computes each template's brute-force matches over `anchors` once.
    pub fn new(templates: &[Template], anchors: &[Feature], metric: Arc<dyn Metric>) -> Truth {
        let matches = templates
            .iter()
            .map(|t| expected_matches(t, anchors, metric.as_ref()))
            .collect();
        Truth { matches, metric }
    }

    /// Answer soundness and coverage honesty of one completed query: its
    /// matches are a subset of the truth; full coverage
    /// (`coverage_milli == 1000`) certifies they equal it; a shed answer is
    /// explicit — no matches, zero coverage.
    pub fn answer(&self, q: &CompletedQuery) -> Result<(), String> {
        if q.shed && (!q.matches.is_empty() || q.coverage_milli != 0) {
            return Err(format!(
                "query {}: shed answer carries {} match(es) at coverage {}",
                q.qid,
                q.matches.len(),
                q.coverage_milli
            ));
        }
        let truth = &self.matches[usize::from(q.template)];
        if let Some(m) = outside(q.matches.iter().copied(), truth) {
            return Err(format!("query {} reported non-matching node {m}", q.qid));
        }
        if q.coverage_milli == 1000 && q.matches != *truth {
            return Err(format!(
                "query {} claims full coverage but answered {:?}, truth {:?}",
                q.qid, q.matches, truth
            ));
        }
        Ok(())
    }

    /// View honesty of one standing subscription in an `n`-node fleet: an
    /// active view reporting full coverage (`covered == n`) equals the
    /// truth, any other active view is a subset of it. An ended
    /// subscription's view is no longer maintained and promises nothing.
    pub fn view(&self, sub: &ClientSub, n: u64) -> Result<(), String> {
        if !sub.active {
            return Ok(());
        }
        let truth = &self.matches[usize::from(sub.template)];
        if let Some(m) = outside(sub.view.iter().copied(), truth) {
            return Err(format!(
                "template {} view holds non-matching node {m}",
                sub.template
            ));
        }
        if sub.covered == n && sub.view != *truth {
            return Err(format!(
                "template {} view claims full coverage but holds {:?}, truth {:?}",
                sub.template, sub.view, truth
            ));
        }
        Ok(())
    }

    /// Cache exactness at one node: every cached template result is a
    /// subset of that template's truth.
    pub fn cache(&self, node: &ServeNode) -> Result<(), String> {
        for (t, truth) in (0u16..).zip(&self.matches) {
            let Some((cached, _)) = node.cached(t) else {
                continue;
            };
            if let Some(m) = outside(cached.iter(), truth) {
                return Err(format!(
                    "node {} cached non-matching node {m} for template {t}",
                    node.id()
                ));
            }
        }
        Ok(())
    }

    /// The M-tree covering invariant at one node: every plan entry
    /// satisfies `d(anchor, entry.feature) + entry.radius ≤ plan.radius` —
    /// the precondition of the Prune/IncludeAll shortcuts, which failover
    /// adoption must keep by inflating the successor's radius.
    pub fn covering(&self, node: &ServeNode) -> Result<(), String> {
        let plan = node.plan();
        for e in &plan.entries {
            let bound = self.metric.distance(node.anchor(), &e.feature) + e.radius;
            if bound > plan.radius + EPS {
                return Err(format!(
                    "node {}: child {} bound {bound} exceeds covering radius {}",
                    node.id(),
                    e.child,
                    plan.radius
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elink_metric::Absolute;

    /// Anchors 0, 10, 20, 30 and one range template `|x − 12| ≤ 9`:
    /// truth is {1, 2}.
    fn truth() -> Truth {
        let anchors: Vec<Feature> = [0.0, 10.0, 20.0, 30.0]
            .iter()
            .map(|&x| Feature::scalar(x))
            .collect();
        let templates = [Template::Range {
            center: Feature::scalar(12.0),
            r: 9.0,
        }];
        Truth::new(&templates, &anchors, Arc::new(Absolute))
    }

    fn answer(matches: Vec<NodeId>, coverage_milli: u16, shed: bool) -> CompletedQuery {
        CompletedQuery {
            qid: 7,
            template: 0,
            submitted: 1,
            finished: 9,
            matches,
            path: None,
            coverage_milli,
            shed,
        }
    }

    fn sub(view: Vec<NodeId>, covered: u64) -> ClientSub {
        let mut s = ClientSub::new(0);
        s.view = view;
        s.covered = covered;
        s
    }

    #[test]
    fn answer_matches_must_be_true_matches() {
        let t = truth();
        assert_eq!(t.answer(&answer(vec![2], 500, false)), Ok(()));
        let err = t.answer(&answer(vec![2, 3], 500, false)).unwrap_err();
        assert!(err.contains("non-matching node 3"), "{err}");
    }

    #[test]
    fn full_coverage_answer_must_equal_the_truth() {
        let t = truth();
        assert_eq!(t.answer(&answer(vec![1, 2], 1000, false)), Ok(()));
        let err = t.answer(&answer(vec![2], 1000, false)).unwrap_err();
        assert!(err.contains("claims full coverage"), "{err}");
    }

    #[test]
    fn shed_answer_must_be_empty() {
        let t = truth();
        assert_eq!(t.answer(&answer(vec![], 0, true)), Ok(()));
        let err = t.answer(&answer(vec![1], 0, true)).unwrap_err();
        assert!(err.contains("shed answer carries 1 match"), "{err}");
    }

    #[test]
    fn shed_answer_must_claim_zero_coverage() {
        let t = truth();
        let err = t.answer(&answer(vec![], 1000, true)).unwrap_err();
        assert!(err.contains("at coverage 1000"), "{err}");
    }

    #[test]
    fn full_coverage_view_must_equal_the_truth() {
        let t = truth();
        assert_eq!(t.view(&sub(vec![1, 2], 4), 4), Ok(()));
        let err = t.view(&sub(vec![1], 4), 4).unwrap_err();
        assert!(err.contains("claims full coverage"), "{err}");
        // The same view at partial coverage is an honest subset.
        assert_eq!(t.view(&sub(vec![1], 3), 4), Ok(()));
    }

    #[test]
    fn partial_view_must_hold_only_true_matches() {
        let t = truth();
        let err = t.view(&sub(vec![0, 1], 3), 4).unwrap_err();
        assert!(err.contains("non-matching node 0"), "{err}");
        // An ended subscription's view promises nothing.
        let mut ended = sub(vec![0, 1], 3);
        ended.active = false;
        assert_eq!(t.view(&ended, 4), Ok(()));
    }
}
