//! CSV import/export for clustering arbitrary sensor deployments — the
//! downstream-user entry point (`--bin cluster_csv`).
//!
//! Input format: one row per sensor, `x,y,f1[,f2,…]` (position plus feature
//! coefficients; a header row is detected and skipped). The communication
//! graph is unit-disk with a caller-supplied radio range. Output: one row
//! per sensor, `node,cluster,root,x,y`.

use crate::common::ScenarioBuilder;
use elink_core::Clustering;
use elink_metric::{Euclidean, Feature};
use elink_netsim::CostBook;
use elink_topology::topo::unit_disk_graph;
use elink_topology::{Point, Rect, Topology};
use std::sync::Arc;

/// A parsed deployment: positions plus per-node features.
#[derive(Debug, Clone)]
pub struct CsvDeployment {
    /// Sensor positions.
    pub positions: Vec<Point>,
    /// Sensor features (uniform dimension).
    pub features: Vec<Feature>,
}

/// Errors from CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A row had fewer than 3 columns.
    TooFewColumns {
        /// 1-based row number.
        row: usize,
    },
    /// A cell failed to parse as a finite number.
    BadNumber {
        /// 1-based row number.
        row: usize,
        /// 0-based column.
        col: usize,
    },
    /// Rows have inconsistent feature dimensions.
    RaggedFeatures {
        /// 1-based row number.
        row: usize,
    },
    /// No data rows.
    Empty,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::TooFewColumns { row } => {
                write!(f, "row {row}: need at least x,y,f1")
            }
            CsvError::BadNumber { row, col } => {
                write!(f, "row {row}, column {col}: not a finite number")
            }
            CsvError::RaggedFeatures { row } => {
                write!(f, "row {row}: feature dimension differs from first row")
            }
            CsvError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Parses deployment CSV text. A first row whose cells are not all numeric
/// is treated as a header and skipped; `NaN` and infinities are rejected
/// wherever they appear.
pub fn parse_deployment(text: &str) -> Result<CsvDeployment, CsvError> {
    let mut positions = Vec::new();
    let mut features: Vec<Feature> = Vec::new();
    let mut dim: Option<usize> = None;
    for (idx, line) in text.lines().enumerate() {
        let row = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        if cells.len() < 3 {
            return Err(CsvError::TooFewColumns { row });
        }
        let parsed: Result<Vec<f64>, usize> = cells
            .iter()
            .enumerate()
            .map(|(c, s)| s.parse::<f64>().map_err(|_| c))
            .collect();
        match parsed {
            Err(col) => {
                // Non-numeric first row = header; elsewhere it is an error.
                if positions.is_empty() && idx == 0 {
                    continue;
                }
                return Err(CsvError::BadNumber { row, col });
            }
            Ok(nums) => {
                if let Some(col) = nums.iter().position(|x| !x.is_finite()) {
                    return Err(CsvError::BadNumber { row, col });
                }
                let f = nums[2..].to_vec();
                match dim {
                    None => dim = Some(f.len()),
                    Some(d) if d != f.len() => {
                        return Err(CsvError::RaggedFeatures { row });
                    }
                    _ => {}
                }
                positions.push(Point::new(nums[0], nums[1]));
                features.push(Feature::new(f));
            }
        }
    }
    if positions.is_empty() {
        return Err(CsvError::Empty);
    }
    Ok(CsvDeployment {
        positions,
        features,
    })
}

/// Builds a unit-disk topology over the deployment; the extent is the
/// bounding box padded by one radio range.
pub fn deployment_topology(dep: &CsvDeployment, radio_range: f64) -> Topology {
    let graph = unit_disk_graph(&dep.positions, radio_range);
    let (mut lo_x, mut lo_y, mut hi_x, mut hi_y) = (
        f64::INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
    );
    for p in &dep.positions {
        lo_x = lo_x.min(p.x);
        lo_y = lo_y.min(p.y);
        hi_x = hi_x.max(p.x);
        hi_y = hi_y.max(p.y);
    }
    let pad = radio_range.max(1e-9);
    Topology::from_parts(
        dep.positions.clone(),
        graph,
        Rect::new(lo_x - pad, lo_y - pad, hi_x + pad, hi_y + pad),
    )
}

/// Clusters a parsed deployment with implicit ELink under the Euclidean
/// metric. Returns the clustering and its message statistics.
pub fn cluster_deployment(
    dep: &CsvDeployment,
    radio_range: f64,
    delta: f64,
) -> (Clustering, CostBook, Topology) {
    let topology = deployment_topology(dep, radio_range);
    let scenario =
        ScenarioBuilder::new(topology.clone(), dep.features.clone(), Arc::new(Euclidean))
            .delta(delta)
            .build();
    let outcome = scenario.run_implicit();
    (outcome.clustering, outcome.costs, topology)
}

/// Renders the assignment CSV (`node,cluster,root,x,y`).
pub fn render_assignment(clustering: &Clustering, dep: &CsvDeployment) -> String {
    let mut out = String::from("node,cluster,root,x,y\n");
    for v in 0..clustering.n() {
        let p = dep.positions[v];
        out.push_str(&format!(
            "{v},{},{},{},{}\n",
            clustering.cluster_of(v),
            clustering.root_of(v),
            p.x,
            p.y
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "x,y,temp\n0,0,10\n1,0,10.5\n2,0,11\n3,0,30\n4,0,30.5\n";

    #[test]
    fn parses_with_header() {
        let dep = parse_deployment(SAMPLE).unwrap();
        assert_eq!(dep.positions.len(), 5);
        assert_eq!(dep.features[3].components(), &[30.0]);
    }

    #[test]
    fn parses_without_header_and_comments() {
        let dep = parse_deployment("# comment\n0,0,1,2\n1,0,3,4\n").unwrap();
        assert_eq!(dep.positions.len(), 2);
        assert_eq!(dep.features[0].dim(), 2);
    }

    #[test]
    fn rejects_ragged_and_bad_rows() {
        assert_eq!(
            parse_deployment("0,0,1\n1,0,1,2\n").unwrap_err(),
            CsvError::RaggedFeatures { row: 2 }
        );
        assert_eq!(
            parse_deployment("0,0\n").unwrap_err(),
            CsvError::TooFewColumns { row: 1 }
        );
        assert_eq!(
            parse_deployment("0,0,1\n1,zz,2\n").unwrap_err(),
            CsvError::BadNumber { row: 2, col: 1 }
        );
        assert_eq!(
            parse_deployment("# nothing\n").unwrap_err(),
            CsvError::Empty
        );
        // Non-finite positions and features are bad numbers, not headers.
        for (text, row, col) in [
            ("0,0,1\nNaN,0,1\n", 2, 0),
            ("0,0,1\n1,inf,1\n", 2, 1),
            ("0,0,1\n1,0,inf\n", 2, 2),
            ("0,-infinity,1\n", 1, 1),
        ] {
            let err = parse_deployment(text).unwrap_err();
            assert_eq!(err, CsvError::BadNumber { row, col }, "{text:?}");
        }
    }

    #[test]
    fn end_to_end_two_zones() {
        let dep = parse_deployment(SAMPLE).unwrap();
        let (clustering, stats, topology) = cluster_deployment(&dep, 1.5, 2.0);
        assert_eq!(clustering.cluster_count(), 2);
        assert!(stats.total_cost() > 0);
        elink_core::validate_delta_clustering(
            &clustering,
            &topology,
            &dep.features,
            &Euclidean,
            2.0,
        )
        .unwrap();
        let rendered = render_assignment(&clustering, &dep);
        assert!(rendered.starts_with("node,cluster,root,x,y\n"));
        assert_eq!(rendered.lines().count(), 6);
    }
}
