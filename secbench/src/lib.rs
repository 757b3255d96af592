//! End-to-end wire benchmark of the SEC serving stack, with a traced
//! per-layer replay.
//!
//! One run sets up a (6, 3) Basic-SEC [`SecCluster`](sec_engine::SecCluster)
//! behind a one-worker [`sec_net::Server`] on loopback, drives one workload
//! from a single load thread over at most two connections, checks every
//! reply byte for byte, and prints its metrics. See `README.md` beside this
//! crate for the workloads, the metrics and what each layer metric should
//! move.

#![warn(missing_docs)]

pub mod alloc;
pub mod check;
pub mod gen;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod run;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod wire;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
