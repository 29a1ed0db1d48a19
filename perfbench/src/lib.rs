//! The Dvé reproduction's benchmark: four workloads, each loading one
//! layer group of the system, measured end to end untraced and split by
//! layer in a separate traced run. See README.md.

pub mod campaign;
pub mod hostspeed;
pub mod metrics;
pub mod openloop;
pub mod provenance;
pub mod service;
pub mod sim;
pub mod span;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 4] = [
    "fig6-matrix",
    "chaos-replay",
    "service-open",
    "campaign-strat",
];
