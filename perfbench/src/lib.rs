//! End-to-end benchmark of `ringdeployd`.
//!
//! One command drives an in-process daemon (`Server::bind` with
//! `DaemonConfig::default()`) with closed-loop clients built on the public
//! `ringdeploy_service::Client` over persistent loopback connections,
//! checks every answer against pinned outcomes, and prints the end-to-end
//! metrics of `BENCHMARK.json` — or, traced, the per-layer split. See
//! `README.md` in this directory.

pub mod drive;
pub mod layers;
pub mod pinned;
pub mod plan;
pub mod report;
pub mod rng;
pub mod run;
pub mod stats;
