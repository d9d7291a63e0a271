//! Cluster an arbitrary sensor deployment from a CSV file.
//!
//! ```sh
//! cargo run --release -p elink-experiments --bin cluster_csv -- \
//!     deployment.csv <radio_range> <delta> [out.csv]
//! ```
//!
//! Input rows: `x,y,f1[,f2,…]` (optional header). Output rows:
//! `node,cluster,root,x,y` to `out.csv` (or stdout). `radio_range` and
//! `delta` must be finite and positive; otherwise the binary prints the
//! usage line and exits 2.

use elink_experiments::csv_io::{cluster_deployment, parse_deployment, render_assignment};

const USAGE: &str = "usage: cluster_csv <input.csv> <radio_range> <delta> [out.csv]";

/// Parses an argument that must be a finite number > 0, or exits 2.
fn positive(name: &str, arg: &str) -> f64 {
    match arg.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => x,
        _ => {
            eprintln!("{name} must be a finite number > 0, got {arg:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 4 {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let radio = positive("radio_range", &args[2]);
    let delta = positive("delta", &args[3]);
    let text = match std::fs::read_to_string(&args[1]) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args[1]);
            std::process::exit(1);
        }
    };
    let dep = match parse_deployment(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };
    let (clustering, stats, topology) = cluster_deployment(&dep, radio, delta);
    eprintln!(
        "{} sensors, {} edges, {} clusters, {} message units",
        topology.n(),
        topology.graph().edge_count(),
        clustering.cluster_count(),
        stats.total_cost()
    );
    let rendered = render_assignment(&clustering, &dep);
    match args.get(4) {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
}
