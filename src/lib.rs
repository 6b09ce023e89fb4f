//! Umbrella crate for the AlphaSort reproduction suite.
//!
//! Re-exports the workspace crates under stable module names so examples and
//! integration tests can use one dependency:
//!
//! * [`dmgen`] — Datamation workload generator & validator
//! * [`iosim`] — simulated disks, controllers, async IO engine
//! * [`stripefs`] — software file striping layer
//! * [`cachesim`] — trace-driven cache hierarchy simulator
//! * [`sort`] — the AlphaSort algorithms and external-sort drivers
//! * [`perfmodel`] — 1993 price catalog, analytic phase model, metrics
//! * [`netsort`] — distributed shared-nothing sort over the local pipeline
//! * [`obs`] — tracing + metrics (spans, Figure 7 report, Chrome traces)
//! * [`sortd`] — sort-as-a-service daemon: job manifests, admission control
//!
//! and holds the one thing the five binaries share: [`cli`], their command
//! line (flag tables, `--gen`, `--verify`, trace/metrics artifacts and the
//! `--scratch-dir` volume).

pub mod cli;

pub use alphasort_cachesim as cachesim;
pub use alphasort_core as sort;
pub use alphasort_dmgen as dmgen;
pub use alphasort_iosim as iosim;
pub use alphasort_netsort as netsort;
pub use alphasort_obs as obs;
pub use alphasort_perfmodel as perfmodel;
pub use alphasort_sortd as sortd;
pub use alphasort_stripefs as stripefs;
