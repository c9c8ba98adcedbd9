//! End-to-end and per-layer benchmark of the cfva reproduction of
//! Valero et al. (ISCA 1992).
//!
//! Three workloads ([`stream::Workload`]): the paper's stride-family
//! sweep through `BatchRunner` sessions, repeat (cache-hit) traffic
//! over the `cfva-wire` TCP front door, and cold mixed traffic over the
//! same door. Each run sets up several times, measures whole rounds of
//! a seeded stream in a closed loop for a given time, checks every
//! answer against the benchmark's own reference, and prints one JSON
//! line. See `README.md` beside this crate.

pub mod check;
pub mod layers;
pub mod measure;
pub mod reference;
pub mod run;
pub mod stream;
