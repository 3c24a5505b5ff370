//! Experiment harness shared by the `run_all` reproduction binary, the
//! ablation binaries and the Criterion benches.
//!
//! `run_all` regenerates the paper's tables and figures: it builds one
//! [`dvfs_core::experiments::Lab`], runs the requested drivers, prints
//! the rendered rows/series, and (when `DVFS_RESULTS_DIR` is set) writes
//! each JSON report next to it.

use dvfs_core::experiments::Lab;
use dvfs_core::models::{PowerTimeModels, PredictEngines};
use nn::metrics::accuracy_from_mape;
use serde::Serialize;
use telemetry::GpuBackend;

/// Builds the Lab for a harness binary. `DVFS_QUICK=1` subsamples the
/// training grid (stride 4) for fast smoke runs; the default is the
/// paper's full 61-state campaign.
pub fn build_lab() -> Lab {
    let quick = std::env::var("DVFS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    if quick {
        obs::log!(Info, "[harness] DVFS_QUICK=1: subsampled training grid");
        Lab::with_stride(4)
    } else {
        obs::log!(
            Info,
            "[harness] building full paper lab (21 benchmarks x 61 states x 3 runs)..."
        );
        Lab::paper()
    }
}

/// Prints a rendered report and optionally persists the JSON payload.
pub fn emit<T: Serialize>(name: &str, rendered: &str, report: &T) {
    println!("{rendered}");
    if let Ok(dir) = std::env::var("DVFS_RESULTS_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.json"));
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match serde_json::to_string_pretty(report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    obs::log!(Error, "[harness] failed to write {}: {e}", path.display());
                } else {
                    obs::log!(Info, "[harness] wrote {}", path.display());
                }
            }
            Err(e) => obs::log!(Error, "[harness] failed to serialize {name}: {e}"),
        }
    }
}

/// Mean per-application prediction accuracy (%) of `models` over the
/// lab's applications against their measured GA100 profiles, as
/// `(power, normalized time)`. Each application is one batched f64
/// engine sweep over its measured frequencies.
pub fn mean_app_accuracy(lab: &Lab, models: &PowerTimeModels) -> (f64, f64) {
    let spec = lab.ga100.spec();
    let engines = PredictEngines::compile(models, nn::Precision::F64);
    let (mut power_acc, mut time_acc) = (0.0, 0.0);
    for app in &lab.apps {
        let measured = &lab.measured_ga100[&app.name];
        let (fp, dram) = app.activities(spec, spec.max_core_mhz);
        let freqs = &measured.frequencies;
        let power = engines.predict_power_w_batch(spec, fp, dram, freqs);
        let time = engines.predict_time_ratio_batch(spec, fp, dram, freqs);
        let t_max = *time.last().expect("non-empty sweep");
        let time_norm: Vec<f64> = time.iter().map(|&t| t / t_max).collect();
        power_acc += accuracy_from_mape(&power, &measured.power_w);
        time_acc += accuracy_from_mape(&time_norm, &measured.normalized_time());
    }
    let n = lab.apps.len() as f64;
    (power_acc / n, time_acc / n)
}
