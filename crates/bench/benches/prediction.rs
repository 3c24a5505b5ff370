//! Criterion benches for the online prediction phase: scalar per-frequency
//! forward passes vs the batched sweep vs the cache-aware path, each over
//! the full 61-state GA100 DVFS grid (the headline comparison for the
//! batch-first online phase).

use criterion::{criterion_group, criterion_main, Criterion};
use dvfs_core::cache::ProfileCache;
use dvfs_core::dataset::Dataset;
use dvfs_core::models::{PowerTimeModels, PredictEngines};
use dvfs_core::predictor::{PredictedProfile, Predictor};
use gpu_model::{DeviceSpec, DvfsGrid, MetricSample, NoiseModel, SignatureBuilder};
use nn::activation::Activation;
use nn::network::NetworkBuilder;
use nn::{reference, Precision, Workspace};
use std::hint::black_box;
use tensor::Matrix;

/// A small but representative training campaign: enough coverage that the
/// trained networks behave like the real ones, cheap enough that the bench
/// binary starts in seconds.
fn trained_models(spec: &DeviceSpec) -> PowerTimeModels {
    let nm = NoiseModel::default_bench();
    let sigs = [
        SignatureBuilder::new("c1")
            .flops(2e13)
            .bytes(2e11)
            .kappa_compute(0.9)
            .build(),
        SignatureBuilder::new("m1")
            .flops(2e11)
            .bytes(2e13)
            .kappa_memory(0.85)
            .build(),
        SignatureBuilder::new("x1").flops(8e12).bytes(3e12).build(),
        SignatureBuilder::new("x2")
            .flops(4e12)
            .bytes(8e11)
            .kappa_compute(0.5)
            .build(),
    ];
    let grid = DvfsGrid::for_spec(spec);
    let mut samples = Vec::new();
    for sig in &sigs {
        for &f in grid.used().iter().step_by(4) {
            samples.push(gpu_model::sample::measure(spec, sig, f, 0, &nm));
        }
        samples.push(gpu_model::sample::measure(
            spec,
            sig,
            spec.max_core_mhz,
            0,
            &nm,
        ));
    }
    PowerTimeModels::train(&Dataset::from_samples(spec, &samples).unwrap())
}

fn reference_sample(spec: &DeviceSpec) -> MetricSample {
    let sig = SignatureBuilder::new("unseen")
        .flops(1.5e13)
        .bytes(1.0e12)
        .build();
    gpu_model::sample::measure(spec, &sig, spec.max_core_mhz, 0, &NoiseModel::none())
}

/// The pre-batching online phase: two scalar forward passes per frequency
/// (2F single-row network evaluations for an F-state sweep).
fn scalar_profile(
    engines: &PredictEngines,
    spec: &DeviceSpec,
    reference: &MetricSample,
    freqs: &[f64],
) -> PredictedProfile {
    let fp = reference.fp_active();
    let dram = reference.dram_active;
    let ratio_at_max = engines.predict_time_ratio(spec, fp, dram, spec.max_core_mhz);
    let anchor = reference.exec_time / ratio_at_max.max(1e-9);
    let power_w: Vec<f64> = freqs
        .iter()
        .map(|&f| engines.predict_power_w_batch(spec, fp, dram, &[f])[0])
        .collect();
    let time_s: Vec<f64> = freqs
        .iter()
        .map(|&f| anchor * engines.predict_time_ratio_batch(spec, fp, dram, &[f])[0])
        .collect();
    PredictedProfile::new(reference.workload.clone(), freqs.to_vec(), power_w, time_s)
}

fn bench_prediction(c: &mut Criterion) {
    let spec = DeviceSpec::ga100();
    let models = trained_models(&spec);
    let engines = PredictEngines::compile(&models, Precision::F64);
    let predictor = Predictor::new(&models, spec.clone());
    let freqs = DvfsGrid::for_spec(&spec).used();
    assert_eq!(freqs.len(), 61);
    let reference = reference_sample(&spec);

    let mut group = c.benchmark_group("predict_61_states");
    group.bench_function("scalar_loop", |b| {
        b.iter(|| scalar_profile(&engines, &spec, black_box(&reference), black_box(&freqs)))
    });
    group.bench_function("batched", |b| {
        b.iter(|| predictor.predict_from_reference(black_box(&reference), black_box(&freqs)))
    });
    let cache = ProfileCache::new(16);
    // Warm the single entry so the steady-state (hit) path is measured.
    let _ = predictor.predict_from_reference_cached(&cache, &reference, &freqs);
    group.bench_function("cached_hit", |b| {
        b.iter(|| {
            predictor.predict_from_reference_cached(
                &cache,
                black_box(&reference),
                black_box(&freqs),
            )
        })
    });
    group.finish();
}

/// Before/after guard for the zero-allocation inference path: a raw
/// paper-topology network evaluated over a 61-row feature matrix (one
/// DVFS sweep) through the preserved allocating reference, the
/// workspace-backed `predict`, a caller-held `predict_into` workspace,
/// and the single-row `predict_one` vector path. All four produce
/// bitwise-identical numbers.
fn bench_nn_forward(c: &mut Criterion) {
    let net = NetworkBuilder::new(3)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .hidden(64, Activation::Selu)
        .output(1, Activation::Linear)
        .seed(21)
        .build();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(13);
    let x = tensor::init::uniform(61, 3, 0.0, 1.0, &mut rng);
    let rows: Vec<Vec<f64>> = x.rows_iter().map(|r| r.to_vec()).collect();

    let mut group = c.benchmark_group("nn_forward_61_states");
    group.bench_function("reference_alloc", |b| {
        b.iter(|| reference::predict(&net, black_box(&x)))
    });
    group.bench_function("workspace_predict", |b| {
        b.iter(|| net.predict(black_box(&x)))
    });
    let mut ws = Workspace::for_network(&net, x.rows());
    group.bench_function("predict_into", |b| {
        b.iter(|| {
            let out: &Matrix = net.predict_into(black_box(&x), &mut ws);
            out.as_slice()[0]
        })
    });
    group.bench_function("predict_one_x61", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for row in &rows {
                acc += net.predict_one(black_box(row))[0];
            }
            acc
        })
    });
    // The batch-fused engines: one packed GEMM per layer over all 61
    // rows, f32 lanes (engine_f32) or bf16-truncated weights with f32
    // accumulation (engine_bf16) — the serving fast path.
    let engine_f32 = nn::InferenceEngine::compile(&net, nn::Precision::F32);
    let engine_bf16 = nn::InferenceEngine::compile(&net, nn::Precision::Bf16);
    let mut out = Vec::new();
    group.bench_function("engine_f32", |b| {
        b.iter(|| {
            engine_f32.predict_into(black_box(&x), &mut out);
            out[0]
        })
    });
    group.bench_function("engine_bf16", |b| {
        b.iter(|| {
            engine_bf16.predict_into(black_box(&x), &mut out);
            out[0]
        })
    });
    group.bench_function("engine_one_x61", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for row in &rows {
                engine_f32.predict_one_into(black_box(row), &mut out);
                acc += out[0];
            }
            acc
        })
    });
    group.finish();
}

/// Guards the self-instrumentation budget: the cached-hit request path adds
/// one `Instant` pair plus one histogram record, which must stay well under
/// 10% of the ~1 µs cached lookup it wraps (i.e. double-digit nanoseconds).
fn bench_obs_overhead(c: &mut Criterion) {
    let hist = obs::global().histogram("bench.overhead_ns");
    let mut group = c.benchmark_group("obs_overhead");
    group.bench_function("instant_pair_plus_record", |b| {
        b.iter(|| {
            let t0 = std::time::Instant::now();
            hist.record_duration(black_box(t0.elapsed()));
        })
    });
    group.bench_function("counter_inc", |b| {
        let requests = obs::global().counter("bench.requests");
        b.iter(|| requests.inc())
    });
    group.bench_function("span_enter_exit", |b| {
        b.iter(|| obs::span::Span::enter(black_box("bench-span")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_prediction,
    bench_nn_forward,
    bench_obs_overhead
);
criterion_main!(benches);
