//! Differential test: `NodeSet` against a `BTreeSet<NodeId>` oracle,
//! driven by an LCG over ids that span several bitmap words.

use elink_topology::NodeId;
use elink_workload::{ClientSub, NodeSet, PushVerdict};
use std::collections::BTreeSet;

/// Ids are drawn from `0..IDS`: five 64-bit words.
const IDS: u64 = 300;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// An id, half the time from the first word only, so differences
    /// often shrink a set to fewer words.
    fn id(&mut self) -> NodeId {
        let r = self.next();
        let range = if r & 1 == 0 { 64 } else { IDS };
        ((r >> 1) % range) as NodeId
    }
}

fn assert_same(s: &NodeSet, o: &BTreeSet<NodeId>) {
    let want: Vec<NodeId> = o.iter().copied().collect();
    assert_eq!(s.iter().collect::<Vec<_>>(), want);
    assert_eq!(s.to_vec(), want);
    assert_eq!(*s, want);
    assert_eq!(s.len(), want.len());
    assert_eq!(s.is_empty(), want.is_empty());
    assert_eq!(format!("{s:?}"), format!("{want:?}"));
    assert_eq!(format!("{s:#?}"), format!("{want:#?}"));
    for v in 0..IDS as NodeId + 70 {
        assert_eq!(s.contains(v), o.contains(&v), "id {v}");
    }
    // The same members built fresh compare equal, whatever the history.
    assert_eq!(*s, NodeSet::from_ids(&want));
}

fn difference(a: &BTreeSet<NodeId>, b: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
    a.difference(b).copied().collect()
}

#[test]
fn bitmap_matches_btreeset() {
    const SETS: usize = 4;
    let mut sets: Vec<NodeSet> = vec![NodeSet::new(); SETS];
    let mut oracle: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); SETS];
    let mut rng = Lcg(42);
    for _ in 0..20_000 {
        let r = rng.next();
        let (i, j) = (
            (r % SETS as u64) as usize,
            ((r >> 2) % SETS as u64) as usize,
        );
        match (r >> 4) % 8 {
            0..=2 => {
                let v = rng.id();
                sets[i].insert(v);
                oracle[i].insert(v);
            }
            3 => {
                let other = sets[j].clone();
                sets[i].union(&other);
                let other = oracle[j].clone();
                oracle[i].extend(other);
            }
            4 => {
                // A push delta: adds and removes between an old and a new
                // view, applied to the old view's ascending vector by a
                // client applying the push.
                let (old, new) = (&sets[i], &sets[j]);
                let (adds, removes) = (new.difference(old), old.difference(new));
                assert_same(&adds, &difference(&oracle[j], &oracle[i]));
                assert_same(&removes, &difference(&oracle[i], &oracle[j]));
                let mut sub = ClientSub::new(0);
                sub.view = old.to_vec();
                let verdict = sub.apply_push(1, 0, false, &adds.to_vec(), &removes.to_vec(), 0);
                assert_eq!(verdict, PushVerdict::Applied);
                assert_eq!(sub.view, new.to_vec());
            }
            5 => {
                sets[i] = sets[i].difference(&sets[j]);
                oracle[i] = difference(&oracle[i], &oracle[j]);
            }
            6 => {
                let n = rng.next() % 12;
                let ids: Vec<NodeId> = (0..n).map(|_| rng.id()).collect();
                sets[i] = NodeSet::from_ids(&ids);
                oracle[i] = ids.into_iter().collect();
            }
            _ => {
                // Shrink to empty.
                sets[i] = sets[i].difference(&sets[i]);
                oracle[i].clear();
            }
        }
        assert_same(&sets[i], &oracle[i]);
        for a in 0..SETS {
            for b in 0..SETS {
                assert_eq!(sets[a] == sets[b], oracle[a] == oracle[b]);
            }
        }
    }
}

#[test]
fn shrunk_sets_equal_fresh_ones() {
    let wide = NodeSet::from_ids(&[5, 70, 250]);
    let high = NodeSet::from_ids(&[70, 250]);
    let narrow = wide.difference(&high);
    assert_eq!(narrow, NodeSet::from_ids(&[5]));
    assert_eq!(format!("{narrow:?}"), "[5]");
    let empty = wide.difference(&wide);
    assert_eq!(empty, NodeSet::new());
    assert!(empty.is_empty());
    assert_eq!(format!("{empty:?}"), "[]");
    let mut grown = empty.clone();
    grown.union(&narrow);
    assert_eq!(grown, narrow);
}
