//! The `offline-repro` workload: the paper's offline phase and every
//! `run_all` report driver, run in a child process per iteration so that
//! set-up time starts at process start and peak memory is the child's.
//!
//! A child builds `Lab::paper()` (campaign, dataset, both trainings, the
//! evaluation sweep), runs the 18 drivers in `run_all`'s order, digests
//! the trained weights and every report with timing fields removed, and
//! prints one line of JSON. The parent checks the digests against
//! `offline_digests.txt` beside this crate.

use crate::stats::{self, canonical_digest};
use crate::{Args, Ctx, Outcome};
use dvfs_core::experiments::{self as ex, Lab};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// First argument that makes the benchmark binary act as the child.
pub const CHILD_ARG: &str = "offline-child";
/// Reproductions per run; set-up and driver times are their medians.
const ITERATIONS: usize = 3;
/// The expected digests, one `name digest` pair per line.
const DIGESTS: &str = "perfbench/offline_digests.txt";

type Driver = fn(&Lab) -> String;

macro_rules! drivers {
    ($($name:literal => $module:ident),* $(,)?) => {
        [$(($name, (|lab: &Lab| {
            serde_json::to_string(&ex::$module::run(lab)).expect("report serializes")
        }) as Driver)),*]
    };
}

/// The `run_all` drivers, in `run_all`'s order.
fn all_drivers() -> [(&'static str, Driver); 18] {
    drivers![
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
    ]
}

/// The child: one reproduction. Prints its measurements as the last line
/// of stdout. `argv` is `[trace-path or "-"]`.
pub fn child_main(argv: &[String]) -> i32 {
    let t0 = Instant::now();
    let trace_path = argv
        .first()
        .filter(|p| p.as_str() != "-")
        .map(PathBuf::from);
    if trace_path.is_some() {
        obs::trace::set_enabled(true);
    }
    let span = |name: &str, start_ns: u64| {
        obs::trace::complete(obs::trace::intern(name), start_ns, &[]);
    };
    let lab_t0 = obs::trace::now_ns();
    let lab = Lab::paper();
    span("setup.lab", lab_t0);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut digests = vec![(
        "weights".to_string(),
        canonical_digest(&lab.pipeline.models.to_json()).expect("models JSON parses"),
    )];
    let mut driver_s = Vec::new();
    let t_exp = Instant::now();
    for (name, driver) in all_drivers() {
        let d0 = Instant::now();
        let d0_ns = obs::trace::now_ns();
        let report = driver(&lab);
        span(&format!("driver.{name}"), d0_ns);
        driver_s.push((name, d0.elapsed().as_secs_f64()));
        digests.push((
            name.to_string(),
            canonical_digest(&report).expect("report parses"),
        ));
    }
    let experiments_s = t_exp.elapsed().as_secs_f64();

    let reg = obs::global();
    let models = &lab.pipeline.models;
    let evaluate_s =
        obs::span::stat("lab/evaluation").map_or(f64::NAN, |s| s.total_ns as f64 / 1e9);
    let layers: Vec<(&str, f64)> = vec![
        (
            "telemetry.campaign_s",
            reg.gauge("pipeline.campaign_s").get(),
        ),
        ("telemetry.samples", lab.pipeline.samples.len() as f64),
        ("dataset.build_s", reg.gauge("pipeline.dataset_s").get()),
        ("dataset.rows", lab.pipeline.dataset.len() as f64),
        ("models.train_power_s", models.power_history.train_seconds),
        ("models.train_time_s", models.time_history.train_seconds),
        (
            "nn.epochs",
            (models.power_history.train_loss.len() + models.time_history.train_loss.len()) as f64,
        ),
        ("experiments.evaluate_s", evaluate_s),
    ];
    if let Some(path) = &trace_path {
        obs::trace::set_enabled(false);
        if let Err(e) = obs::trace::write_chrome_trace(path) {
            eprintln!("offline child: trace: {e}");
        }
    }
    let rss = crate::host::vm_hwm_mb("/proc/self/status").unwrap_or(f64::NAN);
    let obj = |pairs: Vec<String>| format!("{{{}}}", pairs.join(","));
    let num = |(k, v): (&str, f64)| format!("{}:{}", crate::host::json_str(k), crate::json_num(v));
    println!(
        "{}",
        obj(vec![
            format!("\"setup_s\":{}", crate::json_num(setup_s)),
            format!("\"experiments_s\":{}", crate::json_num(experiments_s)),
            format!("\"peak_rss_mb\":{}", crate::json_num(rss)),
            format!(
                "\"drivers\":{}",
                obj(driver_s.into_iter().map(num).collect())
            ),
            format!("\"layers\":{}", obj(layers.into_iter().map(num).collect())),
            format!(
                "\"digests\":{}",
                obj(digests
                    .iter()
                    .map(|(k, d)| format!("{}:\"{d:016x}\"", crate::host::json_str(k)))
                    .collect())
            ),
        ])
    );
    0
}

/// One child's report, plus the wall time the parent saw.
struct Child {
    wall_s: f64,
    doc: Value,
}

impl Child {
    fn num(&self, path: &[&str]) -> f64 {
        path.iter()
            .try_fold(&self.doc, |v, k| v.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    }
}

fn spawn_child(trace: Option<&Path>) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t0 = Instant::now();
    let out = Command::new(exe)
        .arg(CHILD_ARG)
        .arg(trace.map_or("-".into(), |p| p.display().to_string()))
        .env("DVFS_LOG", "warn")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("offline child: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("offline child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("offline child printed nothing")?;
    let doc = serde_json::from_str(last).map_err(|e| format!("offline child output: {e}"))?;
    Ok(Child { wall_s, doc })
}

/// The expected digests stored with the benchmark.
fn expected_digests() -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(DIGESTS).map_err(|e| format!("{DIGESTS}: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.trim().to_string()))
        })
        .collect())
}

/// Digests of one child that differ from the expected ones (a missing
/// digest on either side counts as a difference).
fn digest_mismatches(child: &Child, expected: &[(String, String)]) -> Vec<String> {
    let got = child
        .doc
        .get("digests")
        .and_then(Value::as_object)
        .map(<[_]>::to_vec)
        .unwrap_or_default();
    let mut bad: Vec<String> = expected
        .iter()
        .filter(|(k, v)| {
            got.iter()
                .find(|(gk, _)| gk == k)
                .and_then(|(_, gv)| gv.as_str())
                != Some(v.as_str())
        })
        .map(|(k, _)| k.clone())
        .collect();
    bad.extend(
        got.iter()
            .filter(|(gk, _)| !expected.iter().any(|(k, _)| k == gk))
            .map(|(gk, _)| gk.clone()),
    );
    bad
}

/// Shows that the canonicalizer sees one altered report field: the
/// reports stay equal to themselves and differ after one number moves.
fn self_test() -> bool {
    let a = r#"{"rows":[{"app":"LAMMPS","power_accuracy":95.7,"train_seconds":1.5}]}"#;
    let b = r#"{"rows":[{"app":"LAMMPS","power_accuracy":95.8,"train_seconds":1.5}]}"#;
    let c = r#"{"rows":[{"app":"LAMMPS","power_accuracy":95.7,"train_seconds":9.0}]}"#;
    canonical_digest(a) != canonical_digest(b) && canonical_digest(a) == canonical_digest(c)
}

pub fn run(ctx: &Ctx, args: &Args) -> Result<Outcome, String> {
    if std::env::var_os("PERFBENCH_BLESS").is_some() {
        return bless();
    }
    let expected = expected_digests()?;
    let trace_path = args
        .trace
        .then(|| ctx.work.join("trace-offline-repro.json"));
    let mut children = Vec::new();
    let mut problems = Vec::new();
    for i in 0..ITERATIONS {
        // Only the first traced child records the timeline.
        let child = spawn_child(trace_path.as_deref().filter(|_| i == 0))?;
        let bad = digest_mismatches(&child, &expected);
        if !bad.is_empty() {
            problems.push(format!(
                "iteration {i}: digests differ for {}",
                bad.join(", ")
            ));
        }
        children.push(child);
    }
    if !self_test() {
        problems.push("self-test: an altered report field went unnoticed".to_string());
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let attempted = (ITERATIONS * expected.len()) as u64;
    let failed = children
        .iter()
        .map(|c| digest_mismatches(c, &expected).len() as u64)
        .sum::<u64>()
        .min(attempted);
    let mut outcome = Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: Vec::new(),
        config: vec![
            ("iterations".into(), ITERATIONS.to_string()),
            (
                "threads".into(),
                std::thread::available_parallelism()
                    .map_or(0, usize::from)
                    .to_string(),
            ),
        ],
    };
    let med =
        |f: &dyn Fn(&Child) -> f64| stats::median(&children.iter().map(f).collect::<Vec<_>>());
    let walls: Vec<f64> = children.iter().map(|c| c.wall_s * 1e6).collect();
    if args.trace {
        for name in [
            "telemetry.campaign_s",
            "telemetry.samples",
            "dataset.build_s",
            "dataset.rows",
            "models.train_power_s",
            "models.train_time_s",
            "nn.epochs",
            "experiments.evaluate_s",
        ] {
            let unit = if name.ends_with("_s") { "s" } else { "count" };
            outcome.metric(name, med(&|c| c.num(&["layers", name])), unit);
        }
        let epochs = med(&|c| c.num(&["layers", "nn.epochs"]));
        let train = med(&|c| {
            c.num(&["layers", "models.train_power_s"]) + c.num(&["layers", "models.train_time_s"])
        });
        outcome.metric("nn.epoch_ms", train * 1e3 / epochs, "ms");
        let named = [
            ("experiments.fig5_s", "fig5_input_invariance"),
            ("experiments.fig11_s", "fig11_ml_comparison"),
            ("experiments.fig3_s", "fig3_feature_mi"),
            ("experiments.training_fit_s", "training_fit"),
        ];
        for (metric, driver) in named {
            outcome.metric(metric, med(&|c| c.num(&["drivers", driver])), "s");
        }
        let rest = med(&|c| {
            let all = c.num(&["experiments_s"]);
            all - named
                .iter()
                .map(|(_, d)| c.num(&["drivers", d]))
                .sum::<f64>()
        });
        outcome.metric("experiments.rest_s", rest, "s");
        // The first child recorded the timeline, the others did not.
        let traced = children[0].num(&["experiments_s"]);
        let untraced = stats::median(
            &children[1..]
                .iter()
                .map(|c| c.num(&["experiments_s"]))
                .collect::<Vec<_>>(),
        );
        outcome.metric(
            "trace.overhead_ratio",
            (traced - untraced) / untraced,
            "ratio",
        );
        if let Some(p) = &trace_path {
            eprintln!("trace written to {}", p.display());
        }
        crate::layers::fill_idle(&mut outcome);
        return Ok(outcome);
    }
    outcome.metric(
        "throughput_rps",
        children.len() as f64 / children.iter().map(|c| c.wall_s).sum::<f64>(),
        "1/s",
    );
    outcome.metric("latency_p50_us", stats::percentile(&walls, 0.5), "us");
    outcome.metric(
        "ok_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
        "ratio",
    );
    outcome.metric("setup_s", med(&|c| c.num(&["setup_s"])), "s");
    outcome.metric("experiments_s", med(&|c| c.num(&["experiments_s"])), "s");
    outcome.metric("peak_rss_mb", med(&|c| c.num(&["peak_rss_mb"])), "MiB");
    Ok(outcome)
}

/// Writes the digests of one fresh reproduction as the expected ones.
/// Run only when the reproduction's outputs are meant to change.
fn bless() -> Result<Outcome, String> {
    let child = spawn_child(None)?;
    let digests = child
        .doc
        .get("digests")
        .and_then(Value::as_object)
        .ok_or("offline child reported no digests")?;
    let mut text = String::from(
        "# Expected offline-repro digests: FNV-1a 64 of each report's JSON with\n\
         # every `*_seconds` field removed, and of the trained weights.\n\
         # Regenerate with PERFBENCH_BLESS=1 only when outputs are meant to change.\n",
    );
    for (k, v) in digests {
        text.push_str(&format!("{k} {}\n", v.as_str().unwrap_or("")));
    }
    std::fs::write(DIGESTS, text).map_err(|e| format!("{DIGESTS}: {e}"))?;
    Err(format!(
        "wrote {DIGESTS}; rerun without PERFBENCH_BLESS to measure"
    ))
}
