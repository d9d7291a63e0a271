//! Differential tests: the flat, name- and id-keyed bookkeeping of
//! `Metrics`, `MessageStats` and the `CostBook` query ledger against
//! `BTreeMap` oracles, driven by an LCG.

use elink_netsim::flat::FlatMap;
use elink_netsim::{
    CostBook, Histogram, KindStats, MessageStats, Metrics, PhaseStats, QID_SUB_CONTROL,
    QID_SUB_PUSH, QID_SUB_REPAIR,
};
use std::collections::BTreeMap;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn leak(name: &str) -> &'static str {
    Box::leak(String::from(name).into_boxed_str())
}

/// Names to record under: literals, a literal that is a prefix of another,
/// and leaked copies whose content equals a literal at another address.
fn name_pool() -> Vec<&'static str> {
    vec![
        "net.retx",
        "net.retx.x",
        "net.ack",
        "wl.cache.hit",
        "a",
        "zz",
        leak("net.retx"),
        leak("net.ack"),
        leak("b"),
        leak("wl.cache.hit"),
    ]
}

#[derive(Default)]
struct Oracle<'a> {
    counters: BTreeMap<&'a str, u64>,
    gauges: BTreeMap<&'a str, i64>,
    histograms: BTreeMap<&'a str, Histogram>,
    phases: BTreeMap<&'a str, PhaseStats>,
    kinds: BTreeMap<&'a str, KindStats>,
}

fn stretch(p: &mut PhaseStats, first: u64, last: u64) {
    p.first_enter = p.first_enter.min(first);
    p.last_exit = p.last_exit.max(last);
}

impl<'a> Oracle<'a> {
    fn merge(&mut self, other: &Oracle<'a>) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.gauges {
            self.gauges.insert(k, v);
        }
        for (&k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
        for (&k, &p) in &other.phases {
            let mine = self
                .phases
                .entry(k)
                .or_insert(PhaseStats { entries: 0, ..p });
            mine.entries += p.entries;
            stretch(mine, p.first_enter, p.last_exit);
        }
        for (&k, &s) in &other.kinds {
            let mine = self.kinds.entry(k).or_default();
            mine.packets += s.packets;
            mine.cost += s.cost;
        }
    }
}

/// Applies one LCG-chosen operation to the registry, the stats and the
/// oracle alike.
fn step(
    rng: &mut Lcg,
    names: &[&'static str],
    m: &mut Metrics,
    s: &mut MessageStats,
    o: &mut Oracle<'static>,
) {
    let r = rng.next();
    let name = names[(r % names.len() as u64) as usize];
    let v = (r >> 8) % 1000;
    match (r >> 4) % 7 {
        0 => {
            m.add(name, v);
            *o.counters.entry(name).or_insert(0) += v;
        }
        1 => {
            m.declare_counter(name);
            o.counters.entry(name).or_insert(0);
        }
        2 => {
            m.set_gauge(name, v as i64 - 500);
            o.gauges.insert(name, v as i64 - 500);
        }
        3 => {
            m.observe(name, v);
            o.histograms.entry(name).or_default().record(v);
        }
        4 => {
            m.phase_enter(name, v);
            let p = o.phases.entry(name).or_insert(PhaseStats {
                entries: 0,
                first_enter: v,
                last_exit: v,
            });
            p.entries += 1;
            stretch(p, v, v);
        }
        5 => {
            m.phase_exit(name, v);
            let p = o.phases.entry(name).or_insert(PhaseStats {
                entries: 0,
                first_enter: v,
                last_exit: v,
            });
            stretch(p, v, v);
        }
        _ => {
            let (hops, scalars) = (v % 4, v % 7);
            s.record(name, hops, scalars);
            if hops > 0 {
                let k = o.kinds.entry(name).or_default();
                k.packets += hops;
                k.cost += hops * scalars.max(1);
            }
        }
    }
}

fn assert_matches(m: &Metrics, s: &MessageStats, o: &Oracle<'_>) {
    let counters: Vec<(&str, u64)> = m.counters().collect();
    let want: Vec<(&str, u64)> = o.counters.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(counters, want);
    let gauges: Vec<(&str, i64)> = m.gauges().collect();
    let want: Vec<(&str, i64)> = o.gauges.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(gauges, want);
    let hists: Vec<(&str, &Histogram)> = m.histograms().collect();
    let want: Vec<(&str, &Histogram)> = o.histograms.iter().map(|(&k, v)| (k, v)).collect();
    assert_eq!(hists, want);
    let phases: Vec<(&str, PhaseStats)> = m.phases().collect();
    let want: Vec<(&str, PhaseStats)> = o.phases.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(phases, want);
    let kinds: Vec<(&str, KindStats)> = s.iter().collect();
    let want: Vec<(&str, KindStats)> = o.kinds.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(kinds, want);
    // Point lookups, by the stored names and by a fresh non-static copy.
    for name in name_pool().into_iter().chain(["missing"]) {
        let owned = String::from(name);
        for key in [name, owned.as_str()] {
            assert_eq!(m.counter(key), o.counters.get(key).copied().unwrap_or(0));
            assert_eq!(m.gauge(key), o.gauges.get(key).copied());
            assert_eq!(m.histogram(key), o.histograms.get(key));
            assert_eq!(m.phase(key), o.phases.get(key));
            assert_eq!(s.kind(key), o.kinds.get(key).copied().unwrap_or_default());
        }
    }
}

#[test]
fn name_keyed_storage_matches_btreemap() {
    let names = name_pool();
    // The same content under the other address: literal <-> leaked copy.
    let swapped: Vec<&'static str> = names
        .iter()
        .map(|&n| {
            names
                .iter()
                .copied()
                .find(|&o| o == n && !std::ptr::eq(o, n))
                .unwrap_or(n)
        })
        .collect();
    let (mut m, mut s, mut o) = (Metrics::new(), MessageStats::new(), Oracle::default());
    let (mut m2, mut s2, mut o2) = (Metrics::new(), MessageStats::new(), Oracle::default());
    let (mut left, mut left_s, mut left_o) =
        (Metrics::new(), MessageStats::new(), Oracle::default());
    let (mut right, mut right_s, mut right_o) =
        (Metrics::new(), MessageStats::new(), Oracle::default());
    let (mut rng, mut rng2, mut rng3) = (Lcg(7), Lcg(7), Lcg(7));
    for i in 0..3000 {
        step(&mut rng, &names, &mut m, &mut s, &mut o);
        step(&mut rng2, &swapped, &mut m2, &mut s2, &mut o2);
        if i % 3 == 0 {
            step(&mut rng3, &names, &mut right, &mut right_s, &mut right_o);
        } else {
            step(&mut rng3, &swapped, &mut left, &mut left_s, &mut left_o);
        }
    }
    assert_matches(&m, &s, &o);
    // Equality is by content: the same bills under other addresses agree.
    assert_matches(&m2, &s2, &o);
    assert_eq!(m, m2);
    assert_eq!(s, s2);
    m2.add("zz", 1);
    s2.record(leak("a"), 1, 1);
    assert_ne!(m, m2);
    assert_ne!(s, s2);
    // Merging keeps the oracle's semantics: counters add, gauges take the
    // other's value, histograms merge, phase envelopes union.
    left.merge(&right);
    left_s.merge(&right_s);
    left_o.merge(&right_o);
    assert_matches(&left, &left_s, &left_o);
}

#[test]
fn query_ledger_matches_btreemap() {
    let mut rng = Lcg(11);
    let mut book = CostBook::new();
    let mut oracle: BTreeMap<u64, KindStats> = BTreeMap::new();
    let (mut left, mut right) = (CostBook::new(), CostBook::new());
    let mut qid = 0;
    let mut touched = Vec::new();
    for i in 0..5000 {
        let r = rng.next();
        // Runs of attributions to one query, then a switch to a one-shot id
        // or a standing-query id in one of the three namespaces.
        if r.is_multiple_of(4) {
            let payload = (r >> 4) % 300;
            qid = match (r >> 2) % 6 {
                0 => QID_SUB_PUSH | (payload % 16),
                1 => QID_SUB_REPAIR | (payload % 16),
                2 => QID_SUB_CONTROL | (payload % 16),
                _ => payload,
            };
            touched.push(qid);
        }
        let (hops, scalars) = ((r >> 12) % 4, (r >> 16) % 9);
        book.attribute_query(qid, hops, scalars);
        if i % 2 == 0 {
            left.attribute_query(qid, hops, scalars);
        } else {
            right.attribute_query(qid, hops, scalars);
        }
        if hops > 0 {
            let k = oracle.entry(qid).or_default();
            k.packets += hops;
            k.cost += hops * scalars.max(1);
        }
    }
    let got: Vec<(u64, KindStats)> = book.queries().collect();
    let want: Vec<(u64, KindStats)> = oracle.iter().map(|(&q, &k)| (q, k)).collect();
    assert_eq!(got, want);
    for q in touched
        .iter()
        .copied()
        .chain([299, 1 << 39, QID_SUB_PUSH | 99])
    {
        assert_eq!(book.query(q), oracle.get(&q).copied().unwrap_or_default());
    }
    let total: u64 = oracle.values().map(|k| k.cost).sum();
    assert_eq!(book.total_query_cost(), total);
    // Halves billed in another order merge back into an equal book.
    left.merge(&right);
    assert_eq!(left, book);
    assert_eq!(left.queries().collect::<Vec<_>>(), want);
    left.attribute_query(QID_SUB_CONTROL | (1 << 20), 1, 1);
    assert_ne!(left, book);
}

/// The per-query ledger against a `FlatMap` oracle over ids in all four
/// namespaces (dense payloads, the first payloads past the dense range) and
/// ids outside the scheme (two namespace bits, bits above 42, `u64::MAX`):
/// lookups, ascending iteration, totals, merges in either order, `==`.
#[test]
fn dense_query_ledger_matches_flatmap_oracle() {
    let mut pool = Vec::new();
    for ns in [0, QID_SUB_PUSH, QID_SUB_REPAIR, QID_SUB_CONTROL] {
        for payload in [
            0,
            1,
            2,
            7,
            63,
            64,
            1000,
            (1 << 20) - 1,
            1 << 20,
            (1 << 40) - 1,
        ] {
            pool.push(ns | payload);
        }
    }
    pool.extend([
        QID_SUB_PUSH | QID_SUB_REPAIR | 3,
        QID_SUB_REPAIR | QID_SUB_CONTROL,
        QID_SUB_PUSH | QID_SUB_REPAIR | QID_SUB_CONTROL | 5,
        (1 << 43) | 2,
        1 << 50,
        (1 << 63) | 1,
        u64::MAX,
    ]);
    let mut rng = Lcg(23);
    let mut books = [CostBook::new(), CostBook::new(), CostBook::new()];
    let mut whole = CostBook::new();
    let mut oracle: FlatMap<u64, KindStats> = FlatMap::new();
    for _ in 0..6000 {
        let r = rng.next();
        let qid = pool[(r as usize >> 3) % pool.len()];
        let (hops, scalars) = ((r >> 12) % 4, (r >> 16) % 9);
        books[r as usize % 3].attribute_query(qid, hops, scalars);
        whole.attribute_query(qid, hops, scalars);
        if hops > 0 {
            let k = oracle.or_insert_with(qid, KindStats::default);
            k.packets += hops;
            k.cost += hops * scalars.max(1);
        }
    }
    let want: Vec<(u64, KindStats)> = oracle.iter().map(|(&q, &k)| (q, k)).collect();
    assert_eq!(whole.queries().collect::<Vec<_>>(), want);
    for q in pool
        .iter()
        .copied()
        .chain([3, 1 << 41, QID_SUB_PUSH | 99, 6 << 40])
    {
        assert_eq!(whole.query(q), oracle.get(&q).copied().unwrap_or_default());
    }
    let total: u64 = oracle.values().map(|k| k.cost).sum();
    assert_eq!(whole.total_query_cost(), total);

    // Merged in two orders, the parts equal each other and the whole;
    // one more attribution anywhere makes a book differ.
    let [a, b, c] = books;
    let mut abc = a.clone();
    abc.merge(&b);
    abc.merge(&c);
    let mut cba = c.clone();
    cba.merge(&b);
    cba.merge(&a);
    assert_eq!(abc, cba);
    assert_eq!(abc, whole);
    assert_eq!(abc.queries().collect::<Vec<_>>(), want);
    for q in [5, QID_SUB_REPAIR | 2000, 1 << 20, u64::MAX - 1] {
        let mut more = abc.clone();
        more.attribute_query(q, 1, 1);
        assert_ne!(more, whole, "qid {q:#x}");
        more.attribute_query(q, 0, 1);
        assert_eq!(more.query(q).packets, whole.query(q).packets + 1);
    }
}
