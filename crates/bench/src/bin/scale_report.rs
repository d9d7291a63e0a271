//! Runs the 1k→64k scaling bench and writes `BENCH_scale.json`.
//!
//! ```text
//! scale_report [--check] [--out PATH]
//! ```
//!
//! * `--check` — run the sweep twice and fail (exit 1) unless the
//!   deterministic views (everything except `wall_ms`) are byte-identical.
//! * `--out PATH` — where to write the report (default `BENCH_scale.json`).

use elink_bench::scale::{run_scale, scale_deterministic_json, scale_report_json, FULL_SIDES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut out_path = String::from("BENCH_scale.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => check = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out_path = p.clone(),
                    None => {
                        eprintln!("--out requires a path");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: scale_report [--check] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let points = run_scale(&FULL_SIDES);
    for p in &points {
        println!(
            "n={:<6} clusters={:<5} msgs/node={:<8.2} bytes/node={:<9.2} peak_events={:<7} wall={}ms",
            p.n, p.clusters, p.msgs_per_node, p.bytes_per_node, p.peak_live_events, p.wall_ms
        );
    }

    if check {
        eprintln!("--check: re-running the sweep to verify determinism...");
        let again = run_scale(&FULL_SIDES);
        let a = scale_deterministic_json(&points);
        let b = scale_deterministic_json(&again);
        if a != b {
            eprintln!("DETERMINISM FAILURE: scale metrics differ across same-seed runs");
            for (la, lb) in a.lines().zip(b.lines()) {
                if la != lb {
                    eprintln!("  run 1: {la}");
                    eprintln!("  run 2: {lb}");
                }
            }
            std::process::exit(1);
        }
        eprintln!("--check: deterministic views byte-identical across two runs");
    }

    let json = scale_report_json(&points);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("could not write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
