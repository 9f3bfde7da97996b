//! Closed-loop loopback-TCP benchmark of the hefv serving stack.
//!
//! One process starts the default server in-process and drives one
//! workload against it over loopback; see `README.md` in this directory
//! for the workloads, the metrics and the layer → metric → workload map.

pub mod adapter;
pub mod load;
pub mod probes;
pub mod run;
pub mod stats;
pub mod verify;
pub mod workload;
