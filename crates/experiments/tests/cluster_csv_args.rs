//! `cluster_csv` answers a bad `radio_range` or `delta` with its usage line
//! and exit code 2, not a panic.

use std::process::{Command, Output};

#[test]
fn non_positive_or_non_finite_numbers_exit_2() {
    let input = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cluster_csv_args.csv");
    std::fs::write(&input, "x,y,temp\n0,0,10\n1,0,10.5\n2,0,30\n").unwrap();
    let run = |radio_range: &str, delta: &str| -> Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_cluster_csv"));
        cmd.arg(&input).args([radio_range, delta]).output().unwrap()
    };
    let bad = [
        ("1.5", "0"),
        ("1.5", "NaN"),
        ("1.5", "-2"),
        ("1.5", "inf"),
        ("0", "2"),
        ("nan", "2"),
    ];
    for (radio_range, delta) in bad {
        let out = run(radio_range, delta);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{radio_range} {delta}: {stderr}"
        );
        assert!(stderr.contains("usage: cluster_csv"), "{stderr}");
    }
    assert!(run("1.5", "2").status.success());
}
