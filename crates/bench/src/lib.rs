//! # rtdvs-bench
//!
//! Experiment harness regenerating every table and figure of the RT-DVS
//! paper's evaluation (§3.2 and §4.3), and the one writer and gate of the
//! repository's committed artifacts. The `figures` binary writes every
//! paper number at one committed scale ([`Scale::committed`]) with
//! `figures run`, and `figures check` regenerates each of them and
//! requires it exactly ([`Artifact::diff`] for `BENCH_paper_figures.json`,
//! [`diff_results_file`] for `results/`). Integration tests reuse the
//! drivers with smaller sample counts to assert the paper's qualitative
//! results (orderings, crossovers, bounds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod chart;
pub mod figures;
pub mod ops;
pub mod runner;
pub mod soak;
pub mod sweep;
pub mod taskfile;
pub mod tenants;

pub use artifact::{
    check_layout, Artifact, ArtifactError, BenchArtifact, BenchGrid, BenchPoint, BenchSeries, Json,
};
pub use campaign::{
    campaign_smoke_config, cell_findings, known_violating_campaign, materialize, policy_by_name,
    replay_repro, run_campaign, shrink_plan, CampaignArtifact, CampaignCell, CampaignConfig,
    CampaignSchedules, ChaosPlan, Dim, ReproArtifact, ReproViolation, Window,
};
pub use chart::render_normalized_chart;
pub use figures::*;
pub use ops::{run_ops, OpsArtifact, OpsPanel, OpsRow};
pub use runner::{run_sweep_threads, RunnerStats, SweepRun};
pub use soak::{run_soak, soak_violations, Soak};
pub use sweep::{run_sweep, Sweep, SweepConfig, SweepRow};
pub use tenants::{
    run_tenants, tenants_smoke_config, TenantOutcome, TenantSpec, TenantsArtifact, TenantsConfig,
};
