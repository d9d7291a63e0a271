//! The one JSON writer behind every `BENCH_*` document.
//!
//! A document is a [`Json`](crate::json::Json) tree: objects built field by
//! field with [`Object::field`](crate::json::Object::field) (or
//! [`fields!`](crate::fields), keyed by struct field names), arrays on one
//! line or one element per line, and scalars converted with `From`.
//! [`Json::document`](crate::json::Json::document) renders it compactly (no
//! spaces), objects in the order their fields were added, so a document's
//! key order is the order its builder names them; a document that spans
//! lines ends with a newline.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer.
    Int(i128),
    /// A float printed with three decimals (`{:.3}`); a non-finite value
    /// prints `null`.
    Fixed3(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array; `rows` puts each element on its own line.
    Array {
        /// The elements, in order.
        items: Vec<Json>,
        /// One element per line instead of one line for the whole array.
        rows: bool,
    },
    /// An object.
    Object(Object),
}

/// A JSON object: its fields in the order they were added.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(Vec<(String, Json)>);

impl Object {
    /// An object with no fields.
    pub fn new() -> Object {
        Object::default()
    }

    /// Appends the field `key: value`.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Object {
        self.0.push((key.to_owned(), value.into()));
        self
    }
}

/// Appends one field per named struct field, keyed by the field's own name
/// so a key cannot drift from its value: `fields!(o, p; n, bytes)` is
/// `o.field("n", p.n).field("bytes", p.bytes)`.
#[macro_export]
macro_rules! fields {
    ($object:expr, $from:expr; $($field:ident),+ $(,)?) => {
        $object$(.field(stringify!($field), $from.$field))+
    };
}

impl Json {
    /// An array on one line.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array {
            items: items.into_iter().map(Into::into).collect(),
            rows: false,
        }
    }

    /// An array with each element on its own line.
    pub fn rows<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array {
            items: items.into_iter().map(Into::into).collect(),
            rows: true,
        }
    }

    /// The rendered document: a newline ends it when it spans lines.
    pub fn document(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        if out.contains('\n') {
            out.push('\n');
        }
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(&b.to_string()),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Fixed3(x) if x.is_finite() => out.push_str(&format!("{x:.3}")),
            Json::Fixed3(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Array { items, rows } => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if *rows {
                        out.push('\n');
                    }
                    item.write(out);
                }
                if *rows && !items.is_empty() {
                    out.push('\n');
                }
                out.push(']');
            }
            Json::Object(Object(fields)) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// `From` for each integer type a report holds; every one fits an `i128`.
macro_rules! from_int {
    ($($int:ty),+) => {$(
        impl From<$int> for Json {
            fn from(i: $int) -> Json {
                Json::Int(i as i128)
            }
        }
    )+};
}
from_int!(u64, i64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<Object> for Json {
    fn from(o: Object) -> Json {
        Json::Object(o)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    //! Each case but the last renders values read off a committed `BENCH_*`
    //! file, alone or through a report's renderer, and must reproduce it.

    use super::*;
    use crate::{ext_chaos, ext_workload, report, scale};
    use elink_workload::{ChaosReport, LatencySummary, SloReport, SubChaosCell, SubFaultSpec};

    /// Nested objects: the whole one-line `BENCH_workload.json`.
    #[test]
    fn nested_objects_reproduce_bench_workload() {
        let r = SloReport {
            n_nodes: 1024,
            n_clusters: 40,
            submitted: 120,
            done: 120,
            sim_ticks: 1110,
            latency: LatencySummary {
                count: 120,
                p50: 102,
                p90: 116,
                p99: 130,
                max: 136,
                mean_milli: 100_533,
            },
            throughput_milli: 108,
            cache_hits: 916,
            cache_misses: 5321,
            hit_rate_milli: 146,
            cache_evictions: 55,
            invalidations: 8,
            batch_riders: 26,
            total_msgs: 35_490,
            total_cost: 1_535_917,
            msgs_per_query_milli: 279_016,
            attributed_cost: 1_487_120,
            updates_recv: 40,
            updates_absorbed: 38,
            updates_sync: 2,
        };
        let committed = include_str!("../../../BENCH_workload.json");
        assert_eq!(ext_workload::json(&r).document(), committed);
    }

    /// `null`, bools and strings: the first two cells of `BENCH_mc.json`,
    /// one with no violation and one whose violation replayed.
    #[test]
    fn null_bools_and_strings_reproduce_bench_mc_cells() {
        let cell = |name: &str,
                    [explored, pruned, quiescent, depth]: [u64; 4],
                    violation: Option<&str>| {
            Object::new()
                .field("name", name)
                .field("explored", explored)
                .field("pruned", pruned)
                .field("quiescent", quiescent)
                .field("max_depth", depth)
                .field("exhaustive", true)
                .field("violation", violation)
                .field("expect_violation", violation.is_some())
                .field("replay_reproduced", violation.map(|_| true))
        };
        let cells = Json::array([
            cell("growth-3/fault-free", [44, 7, 1, 25], None),
            cell("growth-3/1-drop", [42, 14, 0, 6], Some("all-clustered")),
        ]);
        let doc = Json::from(
            Object::new()
                .field("schema", "elink-mc/v1")
                .field("cells", cells),
        );
        let head = doc.document().replace("}]}", "},");
        assert!(
            include_str!("../../../BENCH_mc.json").starts_with(&head),
            "{head}"
        );
    }

    /// Three-decimal floats and one-row-per-line arrays: the whole
    /// `BENCH_scale.json`, its closing newline included.
    #[test]
    fn fixed3_rows_reproduce_bench_scale() {
        let points = [
            (1024, 17, 257, 4130, 33040, 1223),
            (4096, 54, 637, 18483, 147864, 4471),
            (16384, 278, 1524, 95540, 764320, 17336),
            (65536, 581, 3553, 343225, 2745800, 67737),
        ]
        .map(
            |(n, clusters, sim_time, messages, bytes, peak_live_events)| scale::ScalePoint {
                n,
                clusters,
                sim_time,
                messages,
                bytes,
                msgs_per_node: messages as f64 / n as f64,
                bytes_per_node: bytes as f64 / n as f64,
                peak_live_events,
            },
        );
        let committed = include_str!("../../../BENCH_scale.json");
        assert_eq!(scale::json(&points).document(), committed);
    }

    /// An empty object in a row: `BENCH_elink.json`'s schema line and its
    /// last row (a microbench that records no phases).
    #[test]
    fn empty_object_reproduces_the_last_bench_elink_row() {
        let storm = report::BenchResult {
            bench: "substrate_unicast_storm",
            n: 64,
            sim_time: 4,
            messages: 256,
            bytes: 2048,
            metrics: elink_netsim::Metrics::new(),
        };
        let doc = report::json(&[storm]).document();
        let committed = include_str!("../../../BENCH_elink.json");
        let (first, last) = (committed.lines().next(), committed.lines().nth_back(1));
        assert_eq!(
            doc.lines().take(2).collect::<Vec<_>>(),
            [first, last].map(Option::unwrap)
        );
    }

    /// Compact arrays of objects: `BENCH_chaos.json`'s head and its last
    /// sub cell, whose capacity renders as a number.
    #[test]
    fn compact_arrays_reproduce_bench_chaos() {
        let sub_cell = SubChaosCell {
            fault: SubFaultSpec {
                drop_milli: 150,
                capacity: Some(64),
            },
            crash_at: 418,
            crashed_leader: 153,
            registered: 7,
            admitted: 9,
            active: 6,
            ended: 1,
            subset: 6,
            pushes: 75,
            repairs: 141,
            resyncs: 6,
            failovers: 1,
            queued_ms: 56,
            ..Default::default()
        };
        let report = ChaosReport {
            n_nodes: 192,
            n_queries: 60,
            seed: 42,
            sub_cells: vec![sub_cell],
            ..Default::default()
        };
        let doc = ext_chaos::json(&report).document();
        let (head, sub_cells) = doc.split_once("[],\"sub_cells\":[").expect("two arrays");
        let committed = include_str!("../../../BENCH_chaos.json");
        let rest = committed.strip_prefix(head).expect(head);
        assert!(rest.starts_with("[{"), "{rest}");
        let rest = committed.strip_suffix(sub_cells).expect(sub_cells);
        assert!(rest.ends_with(','), "{rest}");
    }

    /// Strings are escaped, an empty row array stays on one line and a
    /// non-finite float is `null`.
    #[test]
    fn escapes_empty_rows_and_non_finite_floats() {
        let doc = Object::new()
            .field("name", "a\"b\\c\n")
            .field("results", Json::rows(Vec::<Json>::new()))
            .field("ratio", Json::Fixed3(f64::NAN));
        assert_eq!(
            Json::from(doc).document(),
            r#"{"name":"a\"b\\c\u000a","results":[],"ratio":null}"#
        );
    }
}
