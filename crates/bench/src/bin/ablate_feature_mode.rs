//! Ablation: which feature values enter the training rows.
//!
//! Compares [`FeatureMode::PerSample`], [`FeatureMode::DefaultClock`] and
//! the default [`FeatureMode::Both`] — the design choice DESIGN.md calls
//! out: per-sample rows give the network feature-space coverage while
//! default-clock rows anchor the online regime.

use dvfs_core::dataset::{Dataset, FeatureMode};
use dvfs_core::models::PowerTimeModels;
use telemetry::GpuBackend;

fn main() {
    let lab = bench::build_lab();
    let spec = lab.ga100.spec().clone();

    println!("== Ablation: training feature mode ==");
    println!(
        "{:<14} {:>8} {:>18} {:>17}",
        "mode", "rows", "power app acc(%)", "time app acc(%)"
    );
    for (name, mode) in [
        ("per-sample", FeatureMode::PerSample),
        ("default-clock", FeatureMode::DefaultClock),
        ("both", FeatureMode::Both),
    ] {
        let ds = Dataset::from_samples_with(&spec, &lab.pipeline.samples, mode)
            .expect("campaign covers the default clock");
        let models = PowerTimeModels::train(&ds);
        let (p_acc, t_acc) = bench::mean_app_accuracy(&lab, &models);
        println!(
            "{:<14} {:>8} {:>18.1} {:>17.1}",
            name,
            ds.len(),
            p_acc,
            t_acc
        );
    }
}
