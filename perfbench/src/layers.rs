//! The traced run of a serve workload: per-layer numbers.
//!
//! It drives the daemon with the same phases as an untraced run (for the
//! server's own counters and histograms, read through `stats` and
//! `scrape`, and for the client round trip), then replays the workload's
//! generated requests in process through each layer's public functions,
//! with spans recorded here, around those calls. The spans go to a Chrome
//! trace through `obs::trace`; a ledger of count, total and self time
//! per layer goes to stderr; the per-layer metrics are the result.
//!
//! Self time: every layer span here is a leaf except the predictor's,
//! whose `nn` forward passes are timed separately on the same inputs and
//! subtracted. `unattributed_ns` is the client's median open-loop round
//! trip minus the sum of per-request layer self times.

use crate::serve::{ServeSpec, CACHE_CAPACITY, DEPTH};
use crate::stats::{self, KeyDist, KeyStream};
use crate::{wire, Args, Ctx, Outcome, ServeRun};
use dvfs_core::cache::{CacheHandle, CacheKey, ShardedProfileCache};
use dvfs_core::objective::select_optimal;
use dvfs_core::predictor::{PredictedProfile, Predictor};
use dvfs_core::serve::framing::{write_frames_vectored, FrameReader, DEFAULT_MAX_FRAME};
use dvfs_core::serve::journal::{profile_digest, ChosenClock, DecisionView};
use dvfs_core::serve::protocol::{fast, parse_objective};
use dvfs_core::serve::{Dispatcher, ReplyTable, Request};
use dvfs_core::{ModelSnapshot, ModelStore, PowerTimeModels, SnapshotMeta};
use gpu_model::{DvfsGrid, MetricSample};
use std::collections::{BTreeMap, HashMap};
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::GpuBackend;

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer the workload leaves idle reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("framing.read_ns_per_frame", "ns"),
    ("framing.write_ns_per_burst", "ns"),
    ("protocol.parse_ns", "ns"),
    ("protocol.fast_fallback_ratio", "ratio"),
    ("protocol.write_ns", "ns"),
    ("protocol.reply_bytes", "bytes"),
    ("dispatch.queue_wait_ns", "ns"),
    ("dispatch.batch_len", "count"),
    ("serve.batch_len", "count"),
    ("reply.wait_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_miss", "ratio"),
    ("cache.hit_ns", "ns"),
    ("cache.lookups", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("predictor.hit_ns", "ns"),
    ("predictor.miss_ns", "ns"),
    ("predictor.miss_self_ns", "ns"),
    ("nn.forward_power_ns", "ns"),
    ("nn.forward_time_ns", "ns"),
    ("nn.flops_per_miss", "flop"),
    ("nn.bytes_per_miss", "bytes"),
    ("objective.select_ns", "ns"),
    ("journal.encode_ns", "ns"),
    ("journal.record_bytes", "bytes"),
    ("journal.drop_ratio", "ratio"),
    ("journal.disk_bytes_per_decision", "bytes"),
    ("snapshot.build_s", "s"),
    ("models.from_json_s", "s"),
    ("snapshot.load_ns", "ns"),
    ("serve.request_p50_ns", "ns"),
    ("serve.request_p99_ns", "ns"),
    ("serve.request_mean_ns", "ns"),
    ("serve.errors", "count"),
    ("layers.self_ns_per_request", "ns"),
    ("client.rtt_p50_ns", "ns"),
    ("client.rtt_p99_us", "us"),
    ("unattributed_ns", "ns"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("telemetry.campaign_s", "s"),
    ("telemetry.samples", "count"),
    ("dataset.build_s", "s"),
    ("dataset.rows", "count"),
    ("models.train_power_s", "s"),
    ("models.train_time_s", "s"),
    ("nn.epoch_ms", "ms"),
    ("nn.epochs", "count"),
    ("experiments.evaluate_s", "s"),
    ("experiments.fig5_s", "s"),
    ("experiments.fig11_s", "s"),
    ("experiments.fig3_s", "s"),
    ("experiments.training_fit_s", "s"),
    ("experiments.rest_s", "s"),
];

/// Puts the metrics in [`PER_LAYER`] order and reports every layer the
/// workload left idle as 0.
pub fn fill_idle(outcome: &mut Outcome) {
    let mut measured: BTreeMap<&str, f64> = outcome
        .metrics
        .drain(..)
        .map(|m| (m.name, m.value))
        .collect();
    for &(name, unit) in PER_LAYER {
        let value = measured.remove(name).unwrap_or(0.0);
        outcome.metric(name, value, unit);
    }
    assert!(
        measured.is_empty(),
        "unlisted per-layer metrics: {measured:?}"
    );
}

/// Replayed requests per workload: enough for steady means, small
/// enough that the cold replay (about a quarter millisecond per miss)
/// stays near a second.
fn replay_len(spec: &ServeSpec) -> usize {
    match spec.keys {
        k if k <= 64 => 64_000,
        k if k <= 20_000 => 16_000,
        _ => 4_000,
    }
}

/// The daemon's per-worker fragment cache bound (it clears when full).
const FRAGMENTS_MAX: usize = 8192;

/// Count, total time and self time of one layer.
#[derive(Default, Clone, Copy)]
struct Row {
    count: u64,
    total_ns: f64,
    self_ns: f64,
}

/// Per-layer totals plus the spans sent to the trace.
#[derive(Default)]
struct Ledger {
    rows: BTreeMap<&'static str, Row>,
}

impl Ledger {
    /// Books one leaf span (self time = total time).
    fn leaf(&mut self, layer: &'static str, start_ns: u64, ns: f64, n: u64) {
        self.book(layer, ns, ns, n);
        if obs::trace::enabled() {
            obs::trace::complete(obs::trace::intern(layer), start_ns, &[]);
        }
    }

    fn book(&mut self, layer: &'static str, total_ns: f64, self_ns: f64, n: u64) {
        let row = self.rows.entry(layer).or_default();
        row.count += n;
        row.total_ns += total_ns;
        row.self_ns += self_ns;
    }

    fn merge(&mut self, other: Ledger) {
        for (k, r) in other.rows {
            self.book(k, r.total_ns, r.self_ns, r.count);
        }
    }

    /// Mean time per counted item.
    fn per(&self, layer: &str) -> f64 {
        self.rows
            .get(layer)
            .filter(|r| r.count > 0)
            .map_or(0.0, |r| r.total_ns / r.count as f64)
    }

    fn self_total(&self, layer: &str) -> f64 {
        self.rows.get(layer).map_or(0.0, |r| r.self_ns)
    }
}

/// Times `f` and returns its result plus (start stamp, elapsed ns).
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64, f64) {
    let start_ns = obs::trace::now_ns();
    let t = Instant::now();
    let out = f();
    (out, start_ns, t.elapsed().as_nanos() as f64)
}

/// One request handed from the reading thread to the worker thread.
struct Job {
    req: Request,
    pushed: Instant,
    generation: u64,
    index: usize,
}

/// The in-process stand-in for the daemon's layers.
struct Rig {
    snapshot: Arc<ModelSnapshot>,
    cache: ShardedProfileCache,
    freqs: Vec<f64>,
}

/// What the worker side measured.
#[derive(Default)]
struct WorkerOut {
    ledger: Ledger,
    misses: u64,
    miss_ns: f64,
    batches: u64,
    batch_items: u64,
    reply_bytes: u64,
    record_bytes: u64,
    records: u64,
    /// Quantized activities of every miss, for the `nn` re-timing.
    miss_inputs: Vec<(f64, f64)>,
}

/// Replays `requests` through the layers. With `traced` false it does
/// the same work with no timing, to measure what the timing costs.
/// Returns the ledger parts and the wall time.
fn replay(rig: &Rig, requests: &[(usize, bool)], traced: bool) -> (Ledger, WorkerOut, f64) {
    let frames: Vec<Vec<u8>> = requests.iter().map(|&(k, s)| wire::frame(k, s)).collect();
    let dispatch: Dispatcher<Job> = Dispatcher::new(1);
    let table = Arc::new(ReplyTable::new());
    let done = std::sync::atomic::AtomicBool::new(false);
    let last_fill = std::sync::Mutex::new(Instant::now());
    let t0 = Instant::now();
    let (main, worker) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| worker_side(rig, &dispatch, &table, &done, &last_fill, traced));
        let mut ledger = Ledger::default();
        let mut wire_bytes = Vec::new();
        let mut reader = FrameReader::new();
        let mut replies: Vec<Vec<u8>> = Vec::new();
        let mut sink: Vec<u8> = Vec::new();
        let mut fallbacks = 0u64;
        for burst in frames.chunks(DEPTH) {
            // The client's pipelined burst, as it arrives on the socket.
            wire_bytes.clear();
            let payloads: Vec<&[u8]> = burst.iter().map(Vec::as_slice).collect();
            write_frames_vectored(&mut wire_bytes, &payloads).expect("write to Vec");
            let n = burst.len();
            let mut jobs = Vec::with_capacity(n);
            let mut cursor = Cursor::new(&wire_bytes[..]);
            let ((), start, ns) = timed(|| {
                reader.fill(&mut cursor).expect("burst fits one read");
            });
            let mut read_ns = ns;
            let mut read_start = start;
            for index in 0..n {
                let (frame, s, ns) = timed(|| {
                    reader
                        .next_frame(DEFAULT_MAX_FRAME)
                        .expect("frame within limit")
                        .expect("whole frame buffered")
                        .to_vec()
                });
                read_ns += ns;
                read_start = read_start.min(s);
                let (req, start, ns) = timed(|| fast::parse_request(&frame));
                let req = match req {
                    Some(req) => req,
                    None => {
                        fallbacks += 1;
                        serde_json::from_str(std::str::from_utf8(&frame).expect("utf-8"))
                            .expect("request parses")
                    }
                };
                if traced {
                    ledger.leaf("protocol.parse", start, ns, 1);
                }
                jobs.push((req, index));
            }
            if traced {
                ledger.leaf("framing.read", read_start, read_ns, n as u64);
            }
            let generation = table.begin(n);
            let pushed = Instant::now();
            dispatch.push_batch(jobs.into_iter().map(|(req, index)| Job {
                req,
                pushed,
                generation,
                index,
            }));
            assert!(
                table.wait_collect(generation, &mut replies, Duration::from_secs(30)),
                "replay worker answered"
            );
            if traced {
                let collected = Instant::now();
                let filled = *last_fill.lock().expect("fill stamp lock");
                let wait = collected.saturating_duration_since(filled).as_nanos() as f64;
                let start = obs::trace::now_ns().saturating_sub(wait as u64);
                ledger.leaf("reply.wait", start, wait, n as u64);
            }
            sink.clear();
            let spans: Vec<&[u8]> = replies[..n].iter().map(Vec::as_slice).collect();
            let ((), start, ns) = timed(|| {
                write_frames_vectored(&mut sink, &spans).expect("write to Vec");
            });
            if traced {
                ledger.leaf("framing.write", start, ns, 1);
            }
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        dispatch.wake_all();
        let worker = worker.join().expect("replay worker panicked");
        ledger.book("protocol.fallback", 0.0, 0.0, fallbacks);
        (ledger, worker)
    });
    (main, worker, t0.elapsed().as_nanos() as f64)
}

fn worker_side(
    rig: &Rig,
    dispatch: &Dispatcher<Job>,
    table: &ReplyTable,
    done: &std::sync::atomic::AtomicBool,
    last_fill: &std::sync::Mutex<Instant>,
    traced: bool,
) -> WorkerOut {
    let snap = &rig.snapshot;
    let predictor = Predictor::with_engines(&snap.models, &snap.engines, snap.spec.clone());
    let mut out = WorkerOut::default();
    let mut batch: Vec<Job> = Vec::new();
    let mut scratch: Vec<u8> = Vec::new();
    let mut jbuf: Vec<u8> = Vec::new();
    // The daemon answers from serialized fragments keyed by the cache
    // key and the exact exec time, built with the protocol's public
    // writers; the replay composes replies the same way.
    let mut prefix = fast::RESPONSE_OK_HEAD.to_vec();
    fast::write_f64(&mut prefix, snap.version as f64);
    prefix.extend_from_slice(fast::RESPONSE_PROFILE_HEAD);
    let mut fragments: HashMap<(CacheKey, u64), (PredictedProfile, Vec<u8>)> = HashMap::new();
    loop {
        dispatch.pop_batch_into(0, 32, Duration::from_millis(1), &mut batch);
        let popped = Instant::now();
        if batch.is_empty() {
            if done.load(std::sync::atomic::Ordering::Acquire) {
                return out;
            }
            continue;
        }
        out.batches += 1;
        out.batch_items += batch.len() as u64;
        for job in batch.drain(..) {
            if traced {
                let wait = popped.saturating_duration_since(job.pushed).as_nanos() as f64;
                let start = obs::trace::now_ns().saturating_sub(wait as u64);
                out.ledger.leaf("dispatch.queue_wait", start, wait, 1);
            }
            let reference = wire::sample_for(&job.req, snap.spec.max_core_mhz);
            let key = (
                rig.cache.key(
                    &snap.spec,
                    reference.fp_active(),
                    reference.dram_active,
                    &rig.freqs,
                ),
                reference.exec_time.to_bits(),
            );
            if !fragments.contains_key(&key) {
                let misses_before = rig.cache.stats().misses;
                let (mut profiles, start, ns) = timed(|| {
                    predictor.predict_batch_cached(
                        &rig.cache,
                        std::slice::from_ref(&reference),
                        &rig.freqs,
                    )
                });
                let profile = profiles.pop().expect("one profile per request");
                if rig.cache.stats().misses > misses_before {
                    out.misses += 1;
                    out.miss_ns += ns;
                    out.miss_inputs.push((
                        rig.cache.quantize(reference.fp_active()),
                        rig.cache.quantize(reference.dram_active),
                    ));
                }
                if traced {
                    // Self time is booked after the nn re-timing.
                    out.ledger.book("predictor", ns, 0.0, 1);
                    obs::trace::complete(obs::trace::intern("predictor"), start, &[]);
                }
                let (tail, start, ns) = timed(|| {
                    let mut tail = Vec::new();
                    fast::write_profile_tail(&mut tail, &profile);
                    tail
                });
                if traced {
                    out.ledger.leaf("protocol.write", start, ns, 0);
                }
                if fragments.len() >= FRAGMENTS_MAX {
                    fragments.clear();
                }
                fragments.insert(key, (profile, tail));
            }
            let (profile, tail) = &fragments[&key];
            let selection = if job.req.cmd == "select" {
                let objective = parse_objective(job.req.objective.as_deref().unwrap_or(""))
                    .expect("valid objective");
                let (sel, start, ns) = timed(|| {
                    select_optimal(
                        &profile.frequencies,
                        &profile.energy_j,
                        &profile.time_s,
                        objective,
                        job.req.threshold,
                    )
                });
                if traced {
                    out.ledger.leaf("objective.select", start, ns, 1);
                }
                Some(sel)
            } else {
                None
            };
            let max_idx = profile.max_freq_index();
            let decided = selection.as_ref().map_or(max_idx, |s| s.index);
            let view = DecisionView {
                version: snap.version,
                req_id: out.batch_items,
                select: selection.is_some(),
                hit: true,
                workload: job.req.workload.as_deref().unwrap_or(""),
                fp_active: job.req.fp_active.unwrap_or(0.0),
                dram_active: job.req.dram_active.unwrap_or(0.0),
                exec_time: job.req.exec_time.unwrap_or(0.0),
                objective: job.req.objective.as_deref(),
                threshold: job.req.threshold,
                cache_key: key.0.shard_hash(),
                profile_digest: profile_digest(profile),
                chosen: selection.as_ref().map(|s| ChosenClock {
                    index: s.index as u32,
                    frequency_mhz: s.frequency_mhz,
                }),
                predicted_time_s: profile.time_s[decided],
                predicted_energy_j: profile.energy_j[decided],
                baseline_energy_j: profile.energy_j[max_idx],
            };
            let ((), start, ns) = timed(|| view.encode(&mut jbuf));
            if traced {
                out.ledger.leaf("journal.encode", start, ns, 1);
            }
            out.records += 1;
            out.record_bytes += jbuf.len() as u64;
            let ((), start, ns) = timed(|| {
                scratch.clear();
                scratch.extend_from_slice(&prefix);
                fast::write_json_str(&mut scratch, job.req.workload.as_deref().unwrap_or(""));
                scratch.extend_from_slice(tail);
                scratch.extend_from_slice(fast::RESPONSE_SELECTION_HEAD);
                match &selection {
                    Some(s) => fast::write_selection(&mut scratch, s),
                    None => scratch.extend_from_slice(b"null"),
                }
                scratch.extend_from_slice(fast::RESPONSE_TAIL);
            });
            if traced {
                out.ledger.leaf("protocol.write", start, ns, 1);
            }
            out.reply_bytes += scratch.len() as u64;
            table.fill(job.generation, job.index, &mut scratch);
            *last_fill.lock().expect("fill stamp lock") = Instant::now();
        }
    }
}

/// Mean ns of the two networks' forward passes over each miss's inputs:
/// the power sweep, and the time sweep plus its single-row pass at the
/// default clock.
fn nn_times(snap: &ModelSnapshot, freqs: &[f64], inputs: &[(f64, f64)]) -> (f64, f64) {
    if inputs.is_empty() {
        return (0.0, 0.0);
    }
    let (mut power, mut time) = (0.0, 0.0);
    for &(fp, dram) in inputs {
        let (p, _, ns) = timed(|| {
            snap.engines
                .predict_power_w_batch(&snap.spec, fp, dram, freqs)
        });
        std::hint::black_box(p);
        power += ns;
        let (t, _, ns) = timed(|| {
            (
                snap.engines
                    .predict_time_ratio_batch(&snap.spec, fp, dram, freqs),
                snap.engines
                    .predict_time_ratio(&snap.spec, fp, dram, snap.spec.max_core_mhz),
            )
        });
        std::hint::black_box(t);
        time += ns;
    }
    let n = inputs.len() as f64;
    (power / n, time / n)
}

/// Floating-point operations and bytes of one miss, computed from the
/// networks' tensor sizes (not measured): per row, two flops per weight
/// plus one per bias; bytes are the weights and biases read once per
/// pass plus each row's input features and output, at the precision's
/// element size.
fn miss_cost(models: &PowerTimeModels, rows: usize, precision: nn::Precision) -> (f64, f64) {
    let elem = match precision {
        nn::Precision::F64 => 8.0,
        nn::Precision::F32 => 4.0,
        nn::Precision::Bf16 => 2.0,
    };
    let cost = |net: &nn::Network, rows: usize| {
        let (mut flops, mut params) = (0.0, 0.0);
        for layer in net.layers() {
            let w = (layer.in_dim() * layer.out_dim()) as f64;
            let b = layer.out_dim() as f64;
            flops += rows as f64 * (2.0 * w + b);
            params += w + b;
        }
        let io = rows as f64 * (net.in_dim() + net.out_dim()) as f64;
        (flops, (params + io) * elem)
    };
    let (pf, pb) = cost(&models.power, rows);
    let (tf, tb) = cost(&models.time, rows);
    let (sf, sb) = cost(&models.time, 1);
    (pf + tf + sf, pb + tb + sb)
}

/// Upper bucket bound of the `q` quantile of a scraped histogram.
fn hist_quantile(h: &obs::prom::ParsedHistogram, q: f64) -> f64 {
    let target = (q * h.count as f64).ceil() as u64;
    h.buckets
        .iter()
        .find(|&&(_, cum)| cum >= target.max(1))
        .map_or(f64::NAN, |&(le, _)| le)
}

fn hist_of<'a>(
    prom: &'a obs::prom::ParsedProm,
    name: &str,
) -> Option<&'a obs::prom::ParsedHistogram> {
    prom.histograms.get(&obs::prom::sanitize_name(name))
}

fn hist_mean(h: Option<&obs::prom::ParsedHistogram>) -> f64 {
    h.filter(|h| h.count > 0)
        .map_or(0.0, |h| h.sum / h.count as f64)
}

fn median_of<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

pub fn run(ctx: &Ctx, spec: &ServeSpec, args: &Args) -> Result<Outcome, String> {
    // The traced run journals every decision, so the journal layer is
    // measured on every serve workload; untraced runs do not journal.
    let started = crate::start_daemon(ctx, 1, true)?;
    let precision = started.precision;
    let models_json = started.models_json.clone();
    let config = crate::run_config(&started, spec);
    let run = crate::drive(started, spec, args, 0..crate::ROUNDS)?;
    let mut outcome = Outcome {
        correct: run.problems.is_empty(),
        attempted: run.attempted(),
        failed: run.failed(),
        metrics: Vec::new(),
        config,
    };
    for p in &run.problems {
        eprintln!("check failed: {p}");
    }
    let (before, after) = (&run.before, &run.after);
    let d = |f: fn(&crate::Counters) -> f64| f(after) - f(before);
    let (lookups, hits, misses, evictions) = (
        d(|c| c.lookups),
        d(|c| c.hits),
        d(|c| c.misses),
        d(|c| c.evictions),
    );
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    outcome.metric("cache.lookups", lookups, "count");
    outcome.metric("cache.hits", hits, "count");
    outcome.metric("cache.misses", misses, "count");
    outcome.metric("cache.evictions", evictions, "count");
    outcome.metric("cache.hit_ratio", ratio(hits, lookups), "ratio");
    outcome.metric(
        "cache.evictions_per_miss",
        ratio(evictions, misses),
        "ratio",
    );
    let after_prom = after.prom.clone();
    let hist = |name: &str| hist_of(&after_prom, name);
    if let Some(h) = hist("serve.request_ns") {
        outcome.metric("serve.request_p50_ns", hist_quantile(h, 0.5), "ns");
        outcome.metric("serve.request_p99_ns", hist_quantile(h, 0.99), "ns");
    }
    let request_mean_ns = hist_mean(hist("serve.request_ns"));
    outcome.metric("serve.request_mean_ns", request_mean_ns, "ns");
    outcome.metric(
        "serve.batch_len",
        hist_mean(hist("serve.batch_len")),
        "count",
    );
    outcome.metric(
        "serve.errors",
        after.counter("serve.errors") as f64,
        "count",
    );
    let appended = after.counter("journal.appended") as f64;
    let dropped = after.counter("journal.dropped") as f64;
    outcome.metric(
        "journal.drop_ratio",
        ratio(dropped, appended + dropped),
        "ratio",
    );
    outcome.metric(
        "journal.disk_bytes_per_decision",
        ratio(after.counter("journal.bytes") as f64, appended),
        "bytes",
    );
    let mut late = run.open.late_us.clone();
    late.sort_by(f64::total_cmp);
    if !late.is_empty() {
        outcome.metric(
            "gen.late_p99_us",
            stats::percentile_sorted(&late, 0.99),
            "us",
        );
    }
    let rtt_ns = if run.open.latency_us.is_empty() {
        f64::NAN
    } else {
        stats::percentile(&run.open.latency_us, 0.5) * 1e3
    };
    outcome.metric("client.rtt_p50_ns", rtt_ns, "ns");
    if !run.open.latency_us.is_empty() {
        let p99 = stats::percentile(&run.open.latency_us, 0.99);
        outcome.metric("client.rtt_p99_us", p99, "us");
    }
    let ServeRun { started, .. } = run;
    started
        .daemon
        .stop()
        .map_err(|e| format!("stop dvfs serve: {e}"))?;

    // Set-up layers, in process.
    let from_json_s = median_of(5, || {
        PowerTimeModels::from_json(&models_json).expect("models parse")
    });
    let models = PowerTimeModels::from_json(&models_json).map_err(|e| e.to_string())?;
    let spec_dev = telemetry::SimulatorBackend::ga100().spec().clone();
    let build_s = median_of(5, || {
        ModelSnapshot::with_precision(
            models.clone(),
            spec_dev.clone(),
            SnapshotMeta::default(),
            precision,
        )
    });
    let store = ModelStore::new(ModelSnapshot::with_precision(
        models.clone(),
        spec_dev.clone(),
        SnapshotMeta::default(),
        precision,
    ));
    const LOADS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..LOADS {
        std::hint::black_box(store.load());
    }
    let load_ns = t.elapsed().as_nanos() as f64 / f64::from(LOADS);
    outcome.metric("models.from_json_s", from_json_s, "s");
    outcome.metric("snapshot.build_s", build_s, "s");
    outcome.metric("snapshot.load_ns", load_ns, "ns");

    // The request-path layers, replayed in process.
    let dist = KeyDist::new(spec.keys, spec.zipf);
    let mut keys = KeyStream::new(args.seed, 40, spec.select_every);
    let n = replay_len(spec);
    let warm: Vec<(usize, bool)> = (0..n / 4).map(|_| keys.next(&dist)).collect();
    let measured: Vec<(usize, bool)> = (0..n).map(|_| keys.next(&dist)).collect();
    let shards = std::thread::available_parallelism()
        .map_or(2, usize::from)
        .next_power_of_two();
    let rig = |snapshot: Arc<ModelSnapshot>| Rig {
        freqs: DvfsGrid::for_spec(&snapshot.spec).used(),
        snapshot,
        cache: ShardedProfileCache::new(CACHE_CAPACITY, shards),
    };
    let plain = rig(store.load());
    replay(&plain, &warm, false);
    let (_, _, untraced_ns) = replay(&plain, &measured, false);
    let traced_rig = rig(store.load());
    replay(&traced_rig, &warm, false);
    let trace_path = ctx.work.join(format!("trace-{}.json", args.workload));
    obs::trace::set_enabled(true);
    let (mut ledger, mut worker, traced_ns) = replay(&traced_rig, &measured, true);
    obs::trace::set_enabled(false);
    outcome.metric(
        "trace.overhead_ratio",
        (traced_ns - untraced_ns) / untraced_ns,
        "ratio",
    );

    let (power_ns, time_ns) =
        nn_times(&traced_rig.snapshot, &traced_rig.freqs, &worker.miss_inputs);
    let miss_ns = ratio(worker.miss_ns, worker.misses as f64);
    let rows = traced_rig.freqs.len();
    let (flops, bytes) = miss_cost(&traced_rig.snapshot.models, rows, precision);
    let requests = measured.len() as f64;
    let selects = measured.iter().filter(|r| r.1).count() as f64;
    let fallbacks = ledger.rows.get("protocol.fallback").map_or(0, |r| r.count);
    ledger.merge(std::mem::take(&mut worker.ledger));
    // The predictor's self time is its span minus the `nn` passes inside
    // it, re-timed above; it can read slightly below zero when the
    // predictor's own work is smaller than the re-timing's noise.
    if let Some(row) = ledger.rows.get_mut("predictor") {
        row.self_ns = row.total_ns - worker.misses as f64 * (power_ns + time_ns);
    }
    ledger.book(
        "nn.forward_power",
        worker.misses as f64 * power_ns,
        worker.misses as f64 * power_ns,
        worker.misses,
    );
    ledger.book(
        "nn.forward_time",
        worker.misses as f64 * time_ns,
        worker.misses as f64 * time_ns,
        worker.misses,
    );

    // Hits: one cache lookup alone, and a whole all-hit batch through
    // the cached predictor at the daemon's observed batch size.
    let snap = &traced_rig.snapshot;
    let batch_len = (hist_mean(hist_of(&after_prom, "serve.batch_len")).round() as usize).max(1);
    let hot_refs: Vec<MetricSample> = measured
        .iter()
        .take(batch_len)
        .map(|&(k, s)| wire::sample_for(&wire::request(k, s), snap.spec.max_core_mhz))
        .collect();
    let predictor = Predictor::with_engines(&snap.models, &snap.engines, snap.spec.clone());
    predictor.predict_batch_cached(&traced_rig.cache, &hot_refs, &traced_rig.freqs);
    const HIT_ROUNDS: u32 = 2_000;
    let t = Instant::now();
    for _ in 0..HIT_ROUNDS {
        std::hint::black_box(predictor.predict_batch_cached(
            &traced_rig.cache,
            &hot_refs,
            &traced_rig.freqs,
        ));
    }
    let hit_ns = t.elapsed().as_nanos() as f64 / f64::from(HIT_ROUNDS) / hot_refs.len() as f64;
    let r0 = &hot_refs[0];
    let key = traced_rig.cache.key(
        &snap.spec,
        r0.fp_active(),
        r0.dram_active,
        &traced_rig.freqs,
    );
    let t = Instant::now();
    for _ in 0..HIT_ROUNDS {
        std::hint::black_box(
            traced_rig
                .cache
                .get_or_insert_with(key, || unreachable!("the key is cached")),
        );
    }
    let cache_hit_ns = t.elapsed().as_nanos() as f64 / f64::from(HIT_ROUNDS);

    outcome.metric(
        "framing.read_ns_per_frame",
        ledger.per("framing.read"),
        "ns",
    );
    outcome.metric(
        "framing.write_ns_per_burst",
        ledger.per("framing.write"),
        "ns",
    );
    outcome.metric("protocol.parse_ns", ledger.per("protocol.parse"), "ns");
    outcome.metric(
        "protocol.fast_fallback_ratio",
        fallbacks as f64 / requests,
        "ratio",
    );
    outcome.metric("protocol.write_ns", ledger.per("protocol.write"), "ns");
    outcome.metric(
        "protocol.reply_bytes",
        worker.reply_bytes as f64 / requests,
        "bytes",
    );
    outcome.metric(
        "dispatch.queue_wait_ns",
        ledger.per("dispatch.queue_wait"),
        "ns",
    );
    outcome.metric(
        "dispatch.batch_len",
        ratio(worker.batch_items as f64, worker.batches as f64),
        "count",
    );
    outcome.metric("reply.wait_ns", ledger.per("reply.wait"), "ns");
    outcome.metric("cache.hit_ns", cache_hit_ns, "ns");
    outcome.metric("predictor.hit_ns", hit_ns, "ns");
    outcome.metric("predictor.miss_ns", miss_ns, "ns");
    if worker.misses > 0 {
        outcome.metric("predictor.miss_self_ns", miss_ns - power_ns - time_ns, "ns");
        outcome.metric("nn.forward_power_ns", power_ns, "ns");
        outcome.metric("nn.forward_time_ns", time_ns, "ns");
        outcome.metric("nn.flops_per_miss", flops, "flop");
        outcome.metric("nn.bytes_per_miss", bytes, "bytes");
    }
    if selects > 0.0 {
        outcome.metric("objective.select_ns", ledger.per("objective.select"), "ns");
    }
    outcome.metric("journal.encode_ns", ledger.per("journal.encode"), "ns");
    outcome.metric(
        "journal.record_bytes",
        ratio(worker.record_bytes as f64, worker.records as f64),
        "bytes",
    );
    let layers = [
        "framing.read",
        "protocol.parse",
        "dispatch.queue_wait",
        "predictor",
        "nn.forward_power",
        "nn.forward_time",
        "objective.select",
        "journal.encode",
        "protocol.write",
        "reply.wait",
        "framing.write",
    ];
    let self_sum: f64 = layers.iter().map(|l| ledger.self_total(l)).sum();
    let self_per_request = self_sum / requests;
    outcome.metric("layers.self_ns_per_request", self_per_request, "ns");
    outcome.metric("unattributed_ns", rtt_ns - self_per_request, "ns");

    // The ledger, for the reader of the log.
    eprintln!(
        "layer ledger ({requests} replayed requests, {} cache misses):",
        worker.misses
    );
    eprintln!(
        "  {:<20} {:>9} {:>12} {:>12} {:>12} {:>9}",
        "layer", "count", "total ms", "self ms", "self ns/req", "of Σself"
    );
    for l in layers {
        let r = ledger.rows.get(l).copied().unwrap_or_default();
        eprintln!(
            "  {:<20} {:>9} {:>12.3} {:>12.3} {:>12.1} {:>8.1}%",
            l,
            r.count,
            r.total_ns / 1e6,
            r.self_ns / 1e6,
            r.self_ns / requests,
            100.0 * ratio(r.self_ns, self_sum)
        );
    }
    eprintln!("  Σ layer self time per request      {self_per_request:>10.1} ns (base: {requests} requests)");
    eprintln!("  server serve.request_ns mean       {request_mean_ns:>10.1} ns (scrape)");
    eprintln!("  client open-loop round trip p50    {rtt_ns:>10.1} ns");
    eprintln!(
        "  unattributed (client − Σ self)     {:>10.1} ns",
        rtt_ns - self_per_request
    );
    eprintln!(
        "  tracing overhead                   {:>+10.2}% of replay wall time ({:.1} ms traced vs {:.1} ms untraced)",
        100.0 * (traced_ns - untraced_ns) / untraced_ns,
        traced_ns / 1e6,
        untraced_ns / 1e6
    );
    match obs::trace::write_chrome_trace(&trace_path) {
        Ok(s) => eprintln!(
            "trace written to {} ({} events kept, {} dropped by the ring)",
            trace_path.display(),
            s.retained,
            s.dropped
        ),
        Err(e) => eprintln!("trace: {e}"),
    }
    fill_idle(&mut outcome);
    Ok(outcome)
}
