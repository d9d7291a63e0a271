//! Command line of the benchmark. `run` measures the workloads, each in a
//! child process of its own, one at a time; `run --check` compares each
//! workload's deterministic view across two processes. See `README.md`.

use elink_benchmark::catalog::{END_TO_END, PER_LAYER};
use elink_benchmark::child::{self, Mode};
use elink_benchmark::workloads::{Workload, DEFAULT_SEED};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: elink-benchmark run [--seed S] [--workload W] [--seconds T] \
[--trace 0|1] [--out FILE] [--check]";

/// Seconds each child measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 2.0;

/// Parsed command-line flags.
struct Args {
    seed: u64,
    workload: Option<Workload>,
    seconds: f64,
    /// `None` runs both the untimed and the traced child.
    trace: Option<bool>,
    out: Option<String>,
    check: bool,
    mode: Option<Mode>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: DEFAULT_SEED,
        workload: None,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
        check: false,
        mode: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--check" {
            a.check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--workload" => a.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => a.out = Some(value.clone()),
            "--mode" => a.mode = Some(Mode::parse(value).ok_or_else(bad)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let a = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (cmd.as_str(), a.workload, a.mode) {
        ("run", _, _) if a.check => check(&a),
        ("run", _, _) => run(&a),
        ("child", Some(w), Some(mode)) => {
            if child::run(w, a.seed, a.seconds, mode) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// What one child reported.
#[derive(Default)]
struct ChildOut {
    metrics: Vec<(String, f64, String)>,
    /// `(name, [q1, q3, min], n)` of host timings.
    summaries: Vec<(String, [f64; 3], usize)>,
    attempted: u64,
    failed: u64,
    digest: String,
    info: Vec<(String, String)>,
    errors: Vec<String>,
    stdout: String,
}

impl ChildOut {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Runs one child process to completion and collects its records.
fn spawn(w: Workload, seed: u64, seconds: f64, mode: Mode) -> ChildOut {
    let mut c = ChildOut::default();
    let output = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["child", "--workload", w.name(), "--mode", mode.name()])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
    });
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            c.errors
                .push(format!("cannot start the {} child: {e}", mode.name()));
            return c;
        }
    };
    c.stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    for line in c.stdout.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let num = |i: usize| {
            f.get(i)
                .and_then(|s| s.parse::<f64>().ok())
                .unwrap_or(f64::NAN)
        };
        match f[..] {
            ["metric", name, _, unit] => c.metrics.push((name.into(), num(2), unit.into())),
            ["summary", name, _, _, _, n] => c.summaries.push((
                name.into(),
                [num(2), num(3), num(4)],
                n.parse().unwrap_or(0),
            )),
            ["ops", attempted, failed] => {
                c.attempted = attempted.parse().unwrap_or(0);
                c.failed = failed.parse().unwrap_or(0);
            }
            ["digest", d] => c.digest = d.into(),
            ["info", key, value] => c.info.push((key.into(), value.into())),
            ["error", text] => c.errors.push(text.into()),
            _ => c.errors.push(format!("unreadable child record: {line}")),
        }
    }
    if !output.status.success() {
        c.errors.push(format!(
            "the {} child exited with {}",
            mode.name(),
            output.status
        ));
    }
    c
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const RUSTC: &str = env!("BENCH_RUSTC_VERSION");

fn workloads(a: &Args) -> Vec<Workload> {
    a.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

fn print_child(label: &str, c: &ChildOut) {
    let info: Vec<String> = c.info.iter().map(|(k, v)| format!("{k} {v}")).collect();
    println!("  -- {label}: {}", info.join(", "));
    for (name, value, unit) in &c.metrics {
        let spread = c
            .summaries
            .iter()
            .find(|s| &s.0 == name)
            .map(|(_, [q1, q3, min], n)| format!("   q1 {q1} q3 {q3} min {min} n {n}"))
            .unwrap_or_default();
        println!("  {name:<28} {value:>20} {unit}{spread}");
    }
    for e in &c.errors {
        println!("  ERROR {e}");
    }
}

/// Escapes a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::new();
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One workload's children.
struct Measured {
    workload: Workload,
    timed: Option<ChildOut>,
    traced: Option<ChildOut>,
}

impl Measured {
    fn children(&self) -> impl Iterator<Item = &ChildOut> {
        self.timed.iter().chain(self.traced.iter())
    }

    /// Catalogued metrics this workload reports, in catalog order.
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let pick = |c: &Option<ChildOut>, list: &[(&'static str, &'static str)]| {
            c.iter()
                .flat_map(|c| {
                    list.iter()
                        .filter_map(|&(n, u)| c.metric(n).map(|v| (n, v, u)))
                })
                .collect::<Vec<_>>()
        };
        let mut out = pick(&self.timed, &END_TO_END);
        out.extend(pick(&self.traced, &PER_LAYER));
        out
    }

    fn expected_metrics(&self) -> usize {
        self.timed.as_ref().map_or(0, |_| END_TO_END.len())
            + self.traced.as_ref().map_or(0, |_| PER_LAYER.len())
    }
}

fn run(a: &Args) -> ExitCode {
    println!(
        "# elink benchmark: seed {}, {} s per child, nproc {}, {RUSTC}",
        a.seed,
        a.seconds,
        nproc()
    );
    let mut all = Vec::new();
    for w in workloads(a) {
        println!("== {}", w.name());
        let timed = (a.trace != Some(true)).then(|| spawn(w, a.seed, a.seconds, Mode::Timed));
        if let Some(c) = &timed {
            print_child("end to end (untimed child)", c);
        }
        let traced = (a.trace != Some(false)).then(|| spawn(w, a.seed, a.seconds, Mode::Traced));
        if let Some(c) = &traced {
            print_child("per layer (traced child)", c);
        }
        all.push(Measured {
            workload: w,
            timed,
            traced,
        });
    }
    let single = all.len() == 1;
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for m in &all {
        let found = m.metrics();
        correct &= found.len() == m.expected_metrics();
        // Ops are counted once per workload: from the untimed child when
        // there is one.
        if let Some(c) = m.timed.as_ref().or(m.traced.as_ref()) {
            attempted += c.attempted;
            failed += c.failed;
        }
        for c in m.children() {
            correct &= c.errors.is_empty();
        }
        for (name, value, unit) in found {
            let key = if single {
                name.to_string()
            } else {
                format!("{}.{name}", m.workload.name())
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    if attempted == 0 {
        // No child reported its ops: count the run as one failed op.
        (attempted, failed) = (1, 1);
    }
    if let Some(path) = &a.out {
        if let Err(e) = std::fs::write(path, document(a, &all)) {
            eprintln!("cannot write {path}: {e}");
            correct = false;
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--out` document: every metric with its spread, plus the host.
fn document(a: &Args, all: &[Measured]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n\"schema\": \"elink-benchmark/v1\",\n\"seed\": {},\n\"seconds_per_child\": {},\n\"nproc\": {},\n\"rustc\": \"{}\",\n\"workloads\": [",
        a.seed,
        a.seconds,
        nproc(),
        esc(RUSTC)
    );
    for (i, m) in all.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n{{\"name\": \"{}\"",
            if i > 0 { "," } else { "" },
            m.workload.name()
        );
        // Every child of a workload reports the same warm-up digest.
        if let Some(c) = m.children().find(|c| !c.digest.is_empty()) {
            let _ = write!(s, ", \"digest\": \"{}\"", c.digest);
        }
        for c in m.children() {
            for (k, v) in &c.info {
                let _ = write!(s, ", \"{}\": \"{}\"", esc(k), esc(v));
            }
        }
        let errors: Vec<String> = m
            .children()
            .flat_map(|c| c.errors.iter().map(|e| format!("\"{}\"", esc(e))))
            .collect();
        let _ = write!(s, ", \"errors\": [{}], \"metrics\": {{", errors.join(", "));
        let mut first = true;
        for c in m.children() {
            for (name, value, unit) in &c.metrics {
                let _ = write!(
                    s,
                    "{}\n  \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"",
                    if first { "" } else { "," }
                );
                first = false;
                if let Some((_, [q1, q3, min], n)) = c.summaries.iter().find(|x| &x.0 == name) {
                    let _ = write!(
                        s,
                        ", \"q1\": {q1}, \"q3\": {q3}, \"min\": {min}, \"n\": {n}"
                    );
                }
                s.push('}');
            }
        }
        s.push_str("}}");
    }
    s.push_str("\n]\n}\n");
    s
}

/// `--check`: each workload's deterministic view, computed in two
/// separate processes, must be byte-identical, and inside each process
/// the traced trial's digest must equal the untimed one's.
fn check(a: &Args) -> ExitCode {
    println!("# elink benchmark --check: seed {}", a.seed);
    let mut ok = true;
    for w in workloads(a) {
        let first = spawn(w, a.seed, 0.0, Mode::View);
        let second = spawn(w, a.seed, 0.0, Mode::View);
        let same = first.stdout == second.stdout;
        let clean = first.errors.is_empty() && second.errors.is_empty();
        let verdict = match (same, clean) {
            (true, true) => "identical across processes; traced digest = untimed digest",
            (false, _) => "DIFFERS between two processes",
            (true, false) => "FAILED its checks",
        };
        println!("{:<16} digest {}  {verdict}", w.name(), first.digest);
        for e in first.errors.iter().chain(&second.errors) {
            println!("  ERROR {e}");
        }
        if !same {
            for (x, y) in first.stdout.lines().zip(second.stdout.lines()) {
                if x != y {
                    println!("  first:  {x}\n  second: {y}");
                }
            }
        }
        ok &= same && clean;
    }
    println!("check: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
