//! End-to-end serving benchmark for tsss.
//!
//! One command starts an in-process `tsss_server::Server` on a corpus
//! generated from the seed and drives it over two keep-alive connections
//! as a closed loop (each connection waits for its reply before sending
//! the next request). Every answer is checked against the library; the
//! last stdout line is the JSON result. With `--trace 1` a separate traced
//! run splits the same traffic by layer.
//!
//! ```text
//! python3 perfbench/run.py --workload probe-paper --seed 1 --seconds 10 --trace 0
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! The workloads, metrics and the layer → end-to-end map are recorded in
//! `BENCHMARK.json` at the repository root.

#![forbid(unsafe_code)]

pub mod client;
pub mod layers;
pub mod oracle;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
