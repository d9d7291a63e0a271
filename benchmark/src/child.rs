//! The child process: one workload, one mode. It prints tab-separated
//! records on stdout for the parent to collect:
//!
//! ```text
//! metric   <name> <value> <unit>
//! summary  <name> <q1> <q3> <min> <n>
//! ops      <attempted> <failed>
//! digest   <hex>
//! info     <key> <value>
//! error    <text>
//! ```

use crate::probe::{timer_ns, LayerTimes};
use crate::stats::Summary;
use crate::workloads::{Input, Trial, Workload};
use std::time::Instant;

/// Trials measured even when `--seconds` runs out first.
const MIN_TRIALS: usize = 3;

/// What a child measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untimed trials for `--seconds`: end-to-end metrics.
    Timed,
    /// Alternating untimed and traced trials for `--seconds`: per-layer
    /// metrics.
    Traced,
    /// One untimed and one traced trial: the deterministic view.
    View,
}

impl Mode {
    /// Parses a mode name.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "timed" => Some(Mode::Timed),
            "traced" => Some(Mode::Traced),
            "view" => Some(Mode::View),
            _ => None,
        }
    }

    /// The mode's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Traced => "traced",
            Mode::View => "view",
        }
    }
}

/// Records a child prints.
#[derive(Default)]
struct Out {
    lines: Vec<String>,
    errors: usize,
}

impl Out {
    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        if !value.is_finite() {
            self.error(&format!("{name} is not a finite number"));
        }
        self.lines.push(format!("metric\t{name}\t{value}\t{unit}"));
    }

    fn summary(&mut self, name: &str, unit: &str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.metric(name, s.median, unit);
        self.lines.push(format!(
            "summary\t{name}\t{}\t{}\t{}\t{}",
            s.q1, s.q3, s.min, s.n
        ));
    }

    fn error(&mut self, text: &str) {
        self.errors += 1;
        self.lines.push(format!("error\t{text}"));
    }

    fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.lines.push(format!("info\t{key}\t{value}"));
    }

    /// The deterministic per-layer counts of a view.
    fn counts(&mut self, view: &crate::workloads::View) {
        for &(name, value) in &view.counts {
            self.metric(name, value, crate::catalog::unit(name).unwrap_or("count"));
        }
    }
}

/// Runs one child and prints its records. Returns whether every check
/// passed.
pub fn run(workload: Workload, seed: u64, seconds: f64, mode: Mode) -> bool {
    let input = Input::generate(workload, seed);
    // The warm-up trial is untimed and fully checked; every later trial
    // must reproduce its digest.
    let reference = input.trial(false, true);
    let mut out = Out::default();
    for e in &reference.view.errors {
        out.error(e);
    }
    out.lines
        .push(format!("digest\t{:016x}", reference.view.digest));
    match mode {
        Mode::Timed => timed(&input, &reference, seconds, &mut out),
        Mode::Traced => traced(&input, &reference, seconds, &mut out),
        Mode::View => view(&input, &reference, &mut out),
    }
    for line in &out.lines {
        println!("{line}");
    }
    out.errors == 0
}

/// Calls `next` until `seconds` have passed (at least [`MIN_TRIALS`]
/// times); each call runs trials and returns their digests, which must
/// equal the reference's. Returns the number of calls.
fn measure(
    seconds: f64,
    reference: &Trial,
    out: &mut Out,
    mut next: impl FnMut() -> Vec<u64>,
) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_TRIALS || start.elapsed().as_secs_f64() < seconds {
        for digest in next() {
            if digest != reference.view.digest {
                out.error(&format!(
                    "trial {} digest {digest:016x} differs from the warm-up's {:016x}",
                    n + 1,
                    reference.view.digest
                ));
                return n;
            }
        }
        n += 1;
    }
    n
}

fn ops(out: &mut Out, reference: &Trial, trials: usize) {
    let o = &reference.view.ops;
    out.lines.push(format!(
        "ops\t{}\t{}",
        o.attempted * trials as u64,
        o.failed * trials as u64
    ));
}

fn timed(input: &Input, reference: &Trial, seconds: f64, out: &mut Out) {
    let (mut setup, mut run) = (Vec::new(), Vec::new());
    let n = measure(seconds, reference, out, || {
        let t = input.trial(false, false);
        setup.push(t.setup_s);
        run.push(t.run_s);
        vec![t.view.digest]
    });
    out.info("trials", n);
    out.summary("run_s", "s", &run);
    out.summary("setup_s", "s", &setup);
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    for (name, value, unit) in reference.view.end_to_end() {
        out.metric(name, value, unit);
    }
    ops(out, reference, n);
}

fn traced(input: &Input, reference: &Trial, seconds: f64, out: &mut Out) {
    let timer = timer_ns();
    let mut untimed_run = Vec::new();
    let mut traced: Vec<Trial> = Vec::new();
    let n = measure(seconds, reference, out, || {
        let u = input.trial(false, false);
        let t = input.trial(true, false);
        let digests = vec![u.view.digest, t.view.digest];
        untimed_run.push(u.run_s);
        traced.push(t);
        digests
    });
    out.info("pairs", n);
    if traced.is_empty() {
        return;
    }
    let layers: Vec<LayerTimes> = traced
        .iter()
        .map(|t| {
            let l = t.layers.as_ref().expect("traced trial");
            l.times.corrected(timer, t.run_s - l.extract_s)
        })
        .collect();
    let median = |f: &dyn Fn(&Trial, &LayerTimes) -> f64| {
        let v: Vec<f64> = traced.iter().zip(&layers).map(|(t, l)| f(t, l)).collect();
        Summary::of(&v).median
    };
    let run_s = Summary::of(&untimed_run).median;
    let handler_s = median(&|_, l| l.handler_s);
    let hop_s = median(&|_, l| l.hop_s);
    let extract_s = median(&|t, _| t.layers.as_ref().map_or(0.0, |l| l.extract_s));
    let first = &layers[0];
    let events = reference
        .view
        .counts
        .iter()
        .find(|(k, _)| *k == "engine.events")
        .map_or(0.0, |c| c.1);
    let per = |total_s: f64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            total_s * 1e9 / calls as f64
        }
    };

    out.metric("engine.events_per_s", events / run_s, "1/s");
    out.metric("engine.ns_per_event", run_s * 1e9 / events, "ns");
    out.metric(
        "engine.outside_handlers_s",
        median(&|_, l| l.outside_s),
        "s",
    );
    out.metric("link.hop_calls", first.hop_calls as f64, "count");
    out.metric("link.hop_s", hop_s, "s");
    out.metric("link.ns_per_hop", per(hop_s, first.hop_calls), "ns");
    out.metric(
        "protocol.handler_calls",
        first.handler_calls as f64,
        "count",
    );
    out.metric("protocol.handler_s", handler_s, "s");
    out.metric("protocol.on_message_s", median(&|_, l| l.on_message_s), "s");
    out.metric("protocol.on_timer_s", median(&|_, l| l.on_timer_s), "s");
    out.metric(
        "protocol.ns_per_call",
        per(handler_s, first.handler_calls),
        "ns",
    );
    out.metric("protocol.self_s", median(&|_, l| l.self_s), "s");
    out.metric("clustering.extract_s", extract_s, "s");
    out.counts(&reference.view);
    for (name, unit) in crate::catalog::PER_LAYER {
        if !name.starts_with("setup.") {
            continue;
        }
        let v = median(&|t, _| {
            let setup = &t.layers.as_ref().expect("traced trial").setup;
            setup.iter().find(|(k, _)| *k == name).map_or(0.0, |s| s.1)
        });
        out.metric(name, v, unit);
    }
    out.metric("trace.timer_ns", timer, "ns");
    let traced_run: Vec<f64> = traced.iter().map(|t| t.run_s).collect();
    out.metric(
        "trace.overhead_ratio",
        Summary::of(&traced_run).median / run_s,
        "ratio",
    );
    // Raw (uncorrected) layer times, for comparison with the corrected
    // ones above.
    out.info("raw.protocol.handler_s", median(&|_, l| l.handler_raw_s));
    out.info("raw.link.hop_s", median(&|_, l| l.hop_raw_s));
    out.info("raw.traced_run_s", Summary::of(&traced_run).median);
    out.info("untimed_run_s", run_s);
    ops(out, reference, n);
}

fn view(input: &Input, reference: &Trial, out: &mut Out) {
    let traced = input.trial(true, true);
    for e in &traced.view.errors {
        out.error(e);
    }
    if traced.view.digest != reference.view.digest {
        out.error(&format!(
            "traced digest {:016x} differs from the untimed {:016x}",
            traced.view.digest, reference.view.digest
        ));
    }
    for (name, value, unit) in reference.view.end_to_end() {
        out.metric(name, value, unit);
    }
    out.counts(&reference.view);
    let times = traced.layers.expect("traced trial").times;
    out.metric(
        "link.hop_calls",
        times.hops.iter().sum::<u64>() as f64,
        "count",
    );
    let calls = times.calls.iter().sum::<u64>() as f64;
    out.metric("protocol.handler_calls", calls, "count");
    ops(out, reference, 1);
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
