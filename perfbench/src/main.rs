//! The repository benchmark: drives the released `dvfs serve` binary and
//! the offline reproduction from outside, checks their outputs, and
//! prints every metric by name and unit. See `NOTES.md` beside this
//! crate for the workloads, the metrics and what each one should move.
//!
//! ```text
//! bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//! bash perfbench/run.sh compare A.json B.json
//! bash perfbench/run.sh spread .bench_work/results/*.json
//! ```
//!
//! The last line of standard output is the result object; a run whose
//! output check failed reports `"correct": false`.

mod host;
mod layers;
mod offline;
mod serve;
mod stats;
mod sys;
mod wire;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Scratch space inside the checkout: models, journals, traces, results.
pub const WORK_DIR: &str = ".bench_work";

/// One measured value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The active configuration (precision, workers, rates), as JSON
    /// object members.
    pub config: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    host::json_str(m.name),
                    json_num(m.value),
                    host::json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit Rust prints (non-finite as null).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Command-line arguments of a measuring run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The program binaries and scratch paths a run uses.
pub struct Ctx {
    pub dvfs: PathBuf,
    pub work: PathBuf,
}

impl Ctx {
    fn from_env() -> Result<Self, String> {
        let dvfs = PathBuf::from(
            std::env::var("PERFBENCH_DVFS")
                .map_err(|_| "PERFBENCH_DVFS is not set (use run.sh)")?,
        );
        if !dvfs.is_file() {
            return Err(format!("no dvfs binary at {}", dvfs.display()));
        }
        let work = PathBuf::from(WORK_DIR);
        std::fs::create_dir_all(&work).map_err(|e| format!("{WORK_DIR}: {e}"))?;
        Ok(Self { dvfs, work })
    }

    /// The trained models file the serve workloads load, made once per
    /// `dvfs` binary with `dvfs train` (training is deterministic, so the
    /// file is a pure function of the binary) and reused after that.
    pub fn models(&self) -> Result<PathBuf, String> {
        let bin = std::fs::read(&self.dvfs).map_err(|e| format!("read dvfs: {e}"))?;
        let path = self
            .work
            .join(format!("models-{:016x}.json", stats::fnv1a(&bin)));
        if path.is_file() {
            return Ok(path);
        }
        let tmp = self.work.join(format!("models-{}.tmp", std::process::id()));
        let out = std::process::Command::new(&self.dvfs)
            .arg("train")
            .arg("--out")
            .arg(&tmp)
            .env("DVFS_LOG", "warn")
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("dvfs train: {e}"))?;
        if !out.success() {
            return Err(format!("dvfs train exited with {out}"));
        }
        std::fs::rename(&tmp, &path).map_err(|e| format!("models: {e}"))?;
        Ok(path)
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = Ctx::from_env()?;
    let spec = match args.workload.as_str() {
        "serve-hot" => serve::HOT,
        "serve-cold" => serve::COLD,
        "offline-repro" => return offline::run(&ctx, args),
        other => return Err(format!("unknown workload `{other}`")),
    };
    if args.trace {
        layers::run(&ctx, &spec, args)
    } else {
        run_serve(&ctx, &spec, args)
    }
}

/// Spawns made per serve run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 15;

/// A daemon measured for set-up: spawned [`SETUP_SPAWNS`] times, the
/// last one kept running.
pub struct Started {
    pub daemon: serve::Daemon,
    pub setups_s: Vec<f64>,
    pub models_json: String,
    pub precision: nn::Precision,
    pub version: u64,
    pub workers: usize,
}

/// Spawns the daemon `spawns` times, keeping the last; with `journal` it
/// runs with `--journal-dir` inside the work directory.
pub fn start_daemon(ctx: &Ctx, spawns: usize, journal: bool) -> Result<Started, String> {
    let models = ctx.models()?;
    let models_json = std::fs::read_to_string(&models).map_err(|e| format!("models: {e}"))?;
    let journal = journal.then(|| ctx.work.join(format!("journal-{}", std::process::id())));
    let mut setups_s = Vec::new();
    let mut kept = None;
    for i in 0..spawns {
        let (daemon, s) = serve::Daemon::spawn(&ctx.dvfs, &models, journal.clone())
            .map_err(|e| format!("spawn dvfs serve: {e}"))?;
        setups_s.push(s);
        if i + 1 < spawns {
            daemon.stop().map_err(|e| format!("stop dvfs serve: {e}"))?;
        } else {
            kept = Some(daemon);
        }
    }
    let daemon = kept.expect("at least one spawn");
    let stats = daemon
        .call(&dvfs_core::serve::Request::stats())
        .map_err(|e| format!("stats: {e}"))?;
    let precision_name = stats
        .server
        .as_ref()
        .map(|s| s.precision.clone())
        .ok_or("stats frame has no server section")?;
    let precision = nn::Precision::parse(&precision_name)
        .ok_or(format!("unknown precision `{precision_name}`"))?;
    let workers = daemon.workers();
    Ok(Started {
        daemon,
        setups_s,
        models_json,
        precision,
        version: stats.version as u64,
        workers,
    })
}

/// Server-side counters read through the `stats` and `scrape` frames.
pub struct Counters {
    pub lookups: f64,
    pub hits: f64,
    pub misses: f64,
    pub evictions: f64,
    pub prom: obs::prom::ParsedProm,
}

impl Counters {
    pub fn read(daemon: &serve::Daemon) -> Result<Self, String> {
        use dvfs_core::serve::Request;
        let stats = daemon
            .call(&Request::stats())
            .map_err(|e| format!("stats: {e}"))?;
        let cache = stats.stats.ok_or("stats frame has no cache section")?;
        let text = daemon
            .call(&Request::scrape())
            .map_err(|e| format!("scrape: {e}"))?
            .text
            .ok_or("scrape frame has no text")?;
        let prom = obs::prom::parse(&text)?;
        Ok(Self {
            lookups: cache.lookups,
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            prom,
        })
    }

    /// A counter from the scrape, by its registry name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.prom
            .counters
            .get(&obs::prom::sanitize_name(name))
            .copied()
            .unwrap_or(0)
    }
}

/// Everything one serve run saw: the three load phases and the checks.
pub struct ServeRun {
    pub started: Started,
    pub warm: serve::PhaseResult,
    pub closed: serve::PhaseResult,
    /// Ok replies per second in each closed-loop window, all rounds.
    pub closed_rates: Vec<f64>,
    /// Open-loop round trips (µs) by latency window, all rounds.
    pub open_windows: Vec<Vec<f64>>,
    pub open: serve::PhaseResult,
    pub before: Counters,
    pub after: Counters,
    pub peak_rss_mb: f64,
    pub checked: u64,
    pub wrong: u64,
    pub problems: Vec<String>,
}

impl ServeRun {
    pub fn attempted(&self) -> u64 {
        self.warm.attempted + self.closed.attempted + self.open.attempted
    }

    pub fn failed(&self) -> u64 {
        self.warm.failed + self.closed.failed + self.open.failed + self.wrong
    }
}

/// The closed and open phase lengths of a run: half each.
pub fn phase_lengths(args: &Args) -> (std::time::Duration, std::time::Duration) {
    let half = std::time::Duration::from_secs_f64(args.seconds / 2.0);
    (half, half)
}

/// Closed-loop throughput windows, seconds.
const RATE_WINDOW_S: f64 = 0.25;
/// Rounds of each loop, each on fresh connections.
pub const ROUNDS: u64 = 20;
/// Daemons an untraced serve run spreads its rounds over, one after
/// another. Now and then one daemon serves slower than its siblings for
/// its whole life (a p50 of 85 µs where the daemon beside it, driven in
/// alternate rounds, gave 58 µs); spread over four, such a daemon holds a
/// quarter of the windows, which the interquartile means trim.
const DAEMONS: u64 = 4;
/// Fewest samples an open-loop window needs; its median then has far
/// more than ten samples beyond it.
const WINDOW_SAMPLES: usize = 200;

/// The open-loop latency window for a rate: at least 100 ms, and
/// long enough to hold [`WINDOW_SAMPLES`] requests.
pub fn latency_window_s(rate: f64) -> f64 {
    (WINDOW_SAMPLES as f64 * 1.05 / rate).max(0.1)
}

/// Warm-up, then the given `rounds` of open and closed loop against a
/// started daemon, then the output checks. The daemon is left running.
pub fn drive(
    started: Started,
    spec: &serve::ServeSpec,
    args: &Args,
    rounds: std::ops::Range<u64>,
) -> Result<ServeRun, String> {
    let reference = wire::Reference::new(&started.models_json, started.precision, started.version)?;
    let mut checks = serve::make_checks(spec, &reference, args.seed);
    let addr = started.daemon.addr.clone();
    let (closed_len, open_len) = phase_lengths(args);
    // Open loop before closed loop: the warm-up and the open loop are
    // fixed request counts, so the open loop always meets the cache in
    // the same state; the time-bounded closed loop comes last.
    let warm = serve::closed_loop(
        &addr,
        spec,
        args.seed,
        10,
        std::time::Duration::from_secs(60),
        spec.warmup,
        &mut checks,
    );
    let before = Counters::read(&started.daemon)?;
    // The loops alternate in rounds, each on fresh connections (fresh
    // handler threads in the daemon): a slow spell of the host or one
    // unlucky thread placement moves some rounds' windows, and the
    // interquartile means over all windows stay put.
    let window = latency_window_s(spec.open_rate);
    let (open_round, closed_round) = (open_len / ROUNDS as u32, closed_len / ROUNDS as u32);
    let mut open = serve::PhaseResult::default();
    let mut open_windows = Vec::new();
    let mut closed = serve::PhaseResult::default();
    let mut closed_rates = Vec::new();
    for round in rounds {
        let r = serve::open_loop(
            &addr,
            spec,
            args.seed,
            30 + 2 * round,
            open_round,
            &mut checks,
        );
        open_windows.extend(stats::windows(
            &r.at_s,
            &r.latency_us,
            window,
            open_round.as_secs_f64(),
        ));
        open.merge(r);
        let r = serve::closed_loop(
            &addr,
            spec,
            args.seed,
            20 + 2 * round,
            closed_round,
            u64::MAX,
            &mut checks,
        );
        closed_rates.extend(
            stats::windows(&r.at_s, &r.at_s, RATE_WINDOW_S, closed_round.as_secs_f64())
                .iter()
                .map(|w| w.len() as f64 / RATE_WINDOW_S),
        );
        closed.merge(r);
    }
    let after = Counters::read(&started.daemon)?;
    let peak_rss_mb = started.daemon.peak_rss_mb().unwrap_or(f64::NAN);
    let mut problems = Vec::new();
    for (name, p) in [("warm-up", &warm), ("closed", &closed), ("open", &open)] {
        if let Some(e) = &p.first_error {
            problems.push(format!("{name} phase: {e}"));
        }
    }
    let mut run = ServeRun {
        started,
        warm,
        closed,
        closed_rates,
        open_windows,
        open,
        before,
        after,
        peak_rss_mb,
        checked: 0,
        wrong: 0,
        problems,
    };
    let (checked, wrong) = serve::finish_checks(&mut checks, &reference);
    run.checked = checked;
    run.wrong = wrong;
    if wrong > 0 {
        run.problems.push(format!(
            "{wrong} of {checked} distinct replies differ from the reference"
        ));
    }
    // Counter agreement: the daemon's ledger must match the generator's.
    let c = &run.after;
    if c.lookups != c.hits + c.misses {
        run.problems.push(format!(
            "cache lookups {} != hits {} + misses {}",
            c.lookups, c.hits, c.misses
        ));
    }
    let served = c.counter("serve.requests");
    if served != run.attempted() {
        run.problems.push(format!(
            "serve.requests {served} != {} requests attempted",
            run.attempted()
        ));
    }
    if c.counter("serve.errors") != 0 {
        run.problems
            .push(format!("serve.errors = {}", c.counter("serve.errors")));
    }
    if !self_test(&reference) {
        run.problems
            .push("self-test: a flipped reply byte went unnoticed".to_string());
    }
    Ok(run)
}

/// Shows that each check kind catches one flipped byte in a real reply.
fn self_test(reference: &wire::Reference) -> bool {
    let good = reference.reply(0, true);
    let mut bad = good.clone();
    let at = good.len() / 2;
    bad[at] ^= 0x01;
    let mut exact = wire::Check::Exact([((0, true), good.clone())].into_iter().collect());
    let mut sample = wire::Check::Sample {
        every: 1,
        salt: 0,
        kept: Vec::new(),
    };
    let exact_ok = exact.observe(0, true, 0, &good) && !exact.observe(0, true, 1, &bad);
    sample.observe(0, true, 0, &bad);
    let sample_ok = sample.finish(reference) == (1, 1);
    exact_ok && sample_ok
}

fn run_serve(ctx: &Ctx, spec: &serve::ServeSpec, args: &Args) -> Result<Outcome, String> {
    let first = start_daemon(ctx, SETUP_SPAWNS, false)?;
    let setup_s = stats::median(&first.setups_s);
    let mut config = run_config(&first, spec);
    let t_work = Instant::now();
    let mut next = Some(first);
    let (mut attempted, mut failed, mut checked) = (0, 0, 0);
    let mut problems = Vec::new();
    let (mut open_windows, mut closed_rates) = (Vec::new(), Vec::new());
    let (mut latency, mut peak_rss_mb) = (Vec::new(), Vec::new());
    for d in 0..DAEMONS {
        let started = match next.take() {
            Some(started) => started,
            None => start_daemon(ctx, 1, false)?,
        };
        // On an error the daemon is dropped, which kills it.
        let run = drive(
            started,
            spec,
            args,
            d * ROUNDS / DAEMONS..(d + 1) * ROUNDS / DAEMONS,
        )?;
        attempted += run.attempted();
        failed += run.failed();
        checked += run.checked;
        problems.extend(run.problems.iter().map(|p| format!("daemon {d}: {p}")));
        open_windows.extend(run.open_windows);
        closed_rates.extend(run.closed_rates);
        latency.extend(run.open.latency_us);
        peak_rss_mb.push(run.peak_rss_mb);
        run.started
            .daemon
            .stop()
            .map_err(|e| format!("stop dvfs serve: {e}"))?;
    }
    let experiments_s = t_work.elapsed().as_secs_f64();
    let mut outcome = Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: Vec::new(),
        config: Vec::new(),
    };
    // Interquartile means over windows: one stall moves one window, not
    // the result.
    let window = latency_window_s(spec.open_rate);
    let p50 = stats::window_percentile(&open_windows, 0.5, WINDOW_SAMPLES);
    let throughput = if closed_rates.is_empty() {
        f64::NAN
    } else {
        stats::interquartile_mean(&closed_rates)
    };
    let mut sorted = latency;
    sorted.sort_by(f64::total_cmp);
    if let Some((q, v, n)) = stats::supported_tail(&sorted) {
        eprintln!(
            "open loop: interquartile mean of {} {window:.2} s windows' p50 {p50:.1} µs; whole phase p50 {:.1} µs, \
             highest supported tail p{} = {v:.1} µs over {n} samples",
            open_windows.len(),
            stats::percentile_sorted(&sorted, 0.5),
            q * 100.0
        );
    }
    eprintln!(
        "closed loop: interquartile mean of {} {RATE_WINDOW_S} s windows {throughput:.0} req/s",
        closed_rates.len()
    );
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    config.push(("daemons".into(), DAEMONS.to_string()));
    config.push(("open_samples".into(), sorted.len().to_string()));
    config.push(("checked_replies".into(), checked.to_string()));
    outcome.metric("throughput_rps", throughput, "1/s");
    outcome.metric("latency_p50_us", p50, "us");
    outcome.metric(
        "ok_ratio",
        (outcome.attempted - outcome.failed.min(outcome.attempted)) as f64
            / outcome.attempted.max(1) as f64,
        "ratio",
    );
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("experiments_s", experiments_s, "s");
    outcome.metric("peak_rss_mb", stats::median(&peak_rss_mb), "MiB");
    outcome.config = config;
    Ok(outcome)
}

/// The daemon's active configuration, as the stamp records it.
pub fn run_config(started: &Started, spec: &serve::ServeSpec) -> Vec<(String, String)> {
    vec![
        ("precision".into(), host::json_str(started.precision.name())),
        ("workers".into(), started.workers.to_string()),
        ("cache_capacity".into(), serve::CACHE_CAPACITY.to_string()),
        ("connections".into(), serve::CONNECTIONS.to_string()),
        ("depth".into(), serve::DEPTH.to_string()),
        ("open_rate_rps".into(), json_num(spec.open_rate)),
    ]
}

/// Writes the stamped result next to the other results of this checkout
/// and returns the stamp line printed before the result.
fn stamp(args: &Args, outcome: &Outcome) -> String {
    let config: Vec<String> = outcome
        .config
        .iter()
        .map(|(k, v)| format!("{}:{v}", host::json_str(k)))
        .collect();
    let stamped = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{},\"config\":{{{}}},\"result\":{}}}",
        host::json_str(&args.workload),
        args.seed,
        args.trace,
        host::Host::probe().to_json(),
        config.join(","),
        outcome.to_json()
    );
    let dir = Path::new(WORK_DIR).join("results");
    let _ = std::fs::create_dir_all(&dir);
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&file, &stamped) {
        eprintln!("could not write {}: {e}", file.display());
    }
    stamped
}

/// A stamped result file as written by [`stamp`].
struct Stamped {
    path: PathBuf,
    doc: serde_json::Value,
    host: host::Host,
}

impl Stamped {
    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let host = doc
            .get("host")
            .and_then(host::Host::from_json)
            .ok_or(format!("{} carries no host stamp", path.display()))?;
        Ok(Self {
            path: path.to_path_buf(),
            doc,
            host,
        })
    }

    fn workload(&self) -> String {
        let name = self
            .doc
            .get("workload")
            .and_then(|w| w.as_str())
            .unwrap_or("?");
        let traced = self.doc.get("trace").and_then(|t| t.as_bool()) == Some(true);
        format!("{name}{}", if traced { " (traced)" } else { "" })
    }

    /// `(name, value, unit)` of every metric.
    fn metrics(&self) -> Vec<(String, f64, String)> {
        self.doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.as_object())
            .unwrap_or_default()
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN),
                    m.get("unit")
                        .and_then(|u| u.as_str())
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    }
}

/// Loads stamped results and refuses a set measured on different hosts:
/// such results are not comparable, so neither passing nor failing them
/// would mean anything.
fn load_same_host(paths: &[String]) -> Result<Vec<Stamped>, String> {
    let all = paths
        .iter()
        .map(|p| Stamped::load(Path::new(p)))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(first) = all.first() {
        if let Some(other) = all.iter().find(|s| !s.host.same_machine(&first.host)) {
            return Err(format!(
                "refusing to compare results from different hosts:\n  {}: {}\n  {}: {}",
                first.path.display(),
                first.host.to_json(),
                other.path.display(),
                other.host.to_json()
            ));
        }
    }
    Ok(all)
}

/// `compare A B`: each metric's change from A to B.
fn compare(paths: &[String]) -> Result<(), String> {
    let [a, b] = &load_same_host(paths)?[..] else {
        return Err("compare takes two result files".to_string());
    };
    let theirs = b.metrics();
    for (name, x, unit) in a.metrics() {
        if let Some((_, y, _)) = theirs.iter().find(|(n, _, _)| *n == name) {
            println!(
                "{name:<32} {x:>16.6} -> {y:>16.6} {unit:<6} ({:+.2}%)",
                (y - x) / x * 100.0
            );
        }
    }
    Ok(())
}

/// `spread FILES…`: per workload and metric, the median, the quartiles
/// and the spread (interquartile range over the median) of many runs.
fn spread(paths: &[String]) -> Result<(), String> {
    let all = load_same_host(paths)?;
    let mut groups: Vec<(String, Vec<&Stamped>)> = Vec::new();
    for s in &all {
        match groups.iter_mut().find(|(w, _)| *w == s.workload()) {
            Some((_, runs)) => runs.push(s),
            None => groups.push((s.workload(), vec![s])),
        }
    }
    for (workload, runs) in groups {
        println!("{workload}: {} run(s)", runs.len());
        for (name, _, unit) in runs[0].metrics() {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics().into_iter().find(|(n, _, _)| *n == name))
                .map(|(_, v, _)| v)
                .collect();
            if values.len() < 2 {
                continue;
            }
            let med = stats::median(&values);
            let (q1, q3) = stats::quartiles(&values);
            println!(
                "  {name:<32} median {med:>16.6} {unit:<6} quartiles {q1:.6} .. {q3:.6}  spread {:.4}",
                (q3 - q1) / med
            );
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(offline::CHILD_ARG) {
        std::process::exit(offline::child_main(&argv[1..]));
    }
    let tool = match argv.first().map(String::as_str) {
        Some("compare") => Some(compare as fn(&[String]) -> Result<(), String>),
        Some("spread") => Some(spread as fn(&[String]) -> Result<(), String>),
        _ => None,
    };
    if let Some(tool) = tool {
        if let Err(e) = tool(&argv[1..]) {
            eprintln!("perfbench {}: {e}", argv[0]);
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", stamp(&args, &outcome));
            println!("{}", outcome.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
