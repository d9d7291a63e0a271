//! The Ext-MC table in EXPERIMENTS.md says what the committed
//! `BENCH_mc.json` says. `ci.sh` byte-compares a regenerated report with the
//! committed one, so a change that moves the checker's counts must update
//! both.

#[test]
fn ext_mc_table_matches_the_committed_report() {
    let experiments = include_str!("../../../EXPERIMENTS.md");
    let cells: Vec<&str> = include_str!("../../../BENCH_mc.json")
        .split("{\"name\":\"")
        .skip(1)
        .collect();
    assert!(!cells.is_empty(), "BENCH_mc.json has no cells");
    for cell in cells {
        let name = &cell[..cell.find('"').unwrap()];
        // The count after `"key":` in the cell's flat JSON object.
        let count = |key: &str| -> String {
            let at = cell.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            cell[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect()
        };
        let counts = ["explored", "pruned", "quiescent", "max_depth"].map(count);
        // | cell | faults | explored | pruned | quiescent | depth | verdict |
        let prefix = format!("| {name} |");
        let rows: Vec<Vec<&str>> = experiments
            .lines()
            .filter(|line| line.starts_with(&prefix))
            .map(|line| line.split('|').map(str::trim).collect())
            .collect();
        assert_eq!(rows.len(), 1, "EXPERIMENTS.md needs one `{prefix}` row");
        assert_eq!(rows[0][3..7], counts, "EXPERIMENTS.md row for {name}");
    }
}
