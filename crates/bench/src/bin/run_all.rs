//! Regenerates the paper's tables and figures in one pass, reusing a
//! single trained lab. This is the reproduction entry point:
//!
//! ```text
//! cargo run --release -p bench --bin run_all                  # all 18 drivers
//! cargo run --release -p bench --bin run_all -- fig7_power_prediction table3_accuracy
//! ```
//!
//! Positional arguments name the drivers to run (in the order given);
//! with none, every driver runs in the table's order. An unknown name
//! exits with status 2 and lists the valid names.

use dvfs_core::experiments::*;

/// Runs one report under its `figure/<name>` span and emits it.
type Driver = fn(&Lab);

macro_rules! drivers {
    ($($name:literal => $module:ident),* $(,)?) => {
        [$(($name, (|lab: &Lab| {
            let report = {
                obs::span!(concat!("figure/", $name));
                $module::run(lab)
            };
            bench::emit($name, &report.render(), &report);
        }) as Driver)),*]
    };
}

/// Every report driver, in the full pass's order.
const DRIVERS: [(&str, Driver); 18] = drivers![
    "table1_specs" => table1,
    "table2_apps" => table2,
    "fig2_methodology" => fig2,
    "fig1_motivation" => fig1,
    "fig3_feature_mi" => fig3,
    "fig4_dvfs_invariance" => fig4,
    "fig5_input_invariance" => fig5,
    "fig6_training_loss" => fig6,
    "fig7_power_prediction" => fig7,
    "fig8_time_prediction" => fig8,
    "fig9_optimal_selection" => fig9,
    "fig10_savings" => fig10,
    "fig11_ml_comparison" => fig11,
    "table3_accuracy" => table3,
    "table4_frequencies" => table4,
    "table5_savings" => table5,
    "table6_thresholds" => table6,
    "training_fit" => training_fit,
];

fn main() {
    let mut selected = Vec::new();
    for name in std::env::args().skip(1) {
        let Some(&driver) = DRIVERS.iter().find(|(n, _)| *n == name) else {
            let valid: Vec<&str> = DRIVERS.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "run_all: unknown driver `{name}`; valid names: {}",
                valid.join(", ")
            );
            std::process::exit(2);
        };
        selected.push(driver);
    }
    if selected.is_empty() {
        selected = DRIVERS.to_vec();
    }

    let t0 = std::time::Instant::now();
    let lab = bench::build_lab();
    obs::log!(
        Info,
        "[run_all] lab ready in {:.1}s",
        t0.elapsed().as_secs_f64()
    );

    // Each figure runs under its own span, so `DVFS_LOG=debug` plus the
    // span table gives a per-figure timing breakdown of the full pass.
    for (name, driver) in selected {
        driver(&lab);
        if let Some(stat) = obs::span::stat(&format!("figure/{name}")) {
            obs::log!(
                Debug,
                "[run_all] {} took {}",
                name,
                obs::fmt_ns(stat.total_ns as f64)
            );
        }
    }

    obs::log!(Info, "[run_all] total {:.1}s", t0.elapsed().as_secs_f64());
}
