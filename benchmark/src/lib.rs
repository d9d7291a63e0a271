//! Standalone benchmark of the ELink reproduction: four workloads, host-time
//! and cost-model end-to-end metrics, and per-layer times measured from
//! outside the program through its public seams. See `README.md`.

pub mod catalog;
pub mod child;
pub mod probe;
pub mod stats;
pub mod workloads;
