//! What goes over the wire: the per-key request frames the generator
//! sends, and the in-process reference every reply is checked against.

use dvfs_core::cache::ProfileCache;
use dvfs_core::objective::select_optimal;
use dvfs_core::predictor::Predictor;
use dvfs_core::serve::protocol::{fast, parse_objective};
use dvfs_core::serve::{Request, Response};
use dvfs_core::{ModelSnapshot, PowerTimeModels, SnapshotMeta};
use gpu_model::{DvfsGrid, MetricSample};
use std::collections::HashMap;
use telemetry::GpuBackend;

/// The objective and threshold every `select` request carries.
pub const OBJECTIVE: &str = "edp";
pub const THRESHOLD: f64 = 0.05;

/// The synthetic profile of key `key`: activities in `[0.03, 0.96]` and
/// a default-clock time in `[0.5, 10)` s, hashed from the key so that
/// distinct keys land in unrelated cache buckets.
pub fn key_features(key: usize) -> (f64, f64, f64) {
    let mut rng = crate::stats::SplitMix::new(0x5EED_F00D ^ key as u64);
    let fp = 0.03 + 0.93 * rng.next_f64();
    let dram = 0.03 + 0.93 * rng.next_f64();
    let exec = 0.5 + 9.5 * rng.next_f64();
    (fp, dram, exec)
}

/// The workload name key `key`'s replies echo.
pub fn workload_name(key: usize) -> String {
    format!("wl-{key}")
}

/// The request a `(key, select)` pair stands for.
pub fn request(key: usize, select: bool) -> Request {
    let (fp, dram, exec) = key_features(key);
    let name = workload_name(key);
    if select {
        Request::select(&name, fp, dram, exec, OBJECTIVE, Some(THRESHOLD))
    } else {
        Request::predict(&name, fp, dram, exec)
    }
}

/// The request's frame payload, serialized the way every client of the
/// protocol does.
pub fn frame(key: usize, select: bool) -> Vec<u8> {
    serde_json::to_string(&request(key, select))
        .expect("request serializes")
        .into_bytes()
}

/// Request payloads, built once per `(key, select)` and reused.
#[derive(Default)]
pub struct Frames {
    table: HashMap<(usize, bool), Vec<u8>>,
}

impl Frames {
    pub fn get(&mut self, key: usize, select: bool) -> &[u8] {
        self.table
            .entry((key, select))
            .or_insert_with(|| frame(key, select))
    }

    /// A payload [`Frames::get`] already built.
    pub fn peek(&self, key: usize, select: bool) -> &[u8] {
        &self.table[&(key, select)]
    }
}

/// The in-process answer to a request: the same models file bound the
/// way the daemon binds it (snapshot engines at the server's active
/// precision, the default device, the used DVFS grid), and a cache that
/// never evicts. Cached entries are computed from bucket-centre
/// activities, so the answer does not depend on request order.
pub struct Reference {
    snapshot: ModelSnapshot,
    cache: ProfileCache,
    freqs: Vec<f64>,
    version: u64,
}

impl Reference {
    pub fn new(models_json: &str, precision: nn::Precision, version: u64) -> Result<Self, String> {
        let models = PowerTimeModels::from_json(models_json).map_err(|e| e.to_string())?;
        let spec = telemetry::SimulatorBackend::ga100().spec().clone();
        let freqs = DvfsGrid::for_spec(&spec).used();
        let snapshot =
            ModelSnapshot::with_precision(models, spec, SnapshotMeta::default(), precision);
        if snapshot.precision() != precision {
            return Err(format!(
                "reference engines compiled as {} instead of {}",
                snapshot.precision().name(),
                precision.name()
            ));
        }
        Ok(Self {
            snapshot,
            cache: ProfileCache::new(usize::MAX / 2),
            freqs,
            version,
        })
    }

    /// The exact reply bytes the daemon must send for `(key, select)`.
    pub fn reply(&self, key: usize, select: bool) -> Vec<u8> {
        let req = request(key, select);
        let predictor = Predictor::with_engines(
            &self.snapshot.models,
            &self.snapshot.engines,
            self.snapshot.spec.clone(),
        );
        let reference = sample_for(&req, self.snapshot.spec.max_core_mhz);
        let profile = predictor.predict_from_reference_cached(&self.cache, &reference, &self.freqs);
        let selection = select.then(|| {
            select_optimal(
                &profile.frequencies,
                &profile.energy_j,
                &profile.time_s,
                parse_objective(OBJECTIVE).expect("known objective"),
                Some(THRESHOLD),
            )
        });
        let mut resp = Response::ok(self.version);
        resp.profile = Some(profile);
        resp.selection = selection;
        let mut out = Vec::with_capacity(4608);
        assert!(fast::write_response(&mut out, &resp), "hot shape");
        out
    }
}

/// The default-clock profiling sample a predict/select request stands
/// for: the fields the online phase reads, the rest zero.
pub fn sample_for(req: &Request, max_core_mhz: f64) -> MetricSample {
    MetricSample {
        workload: req.workload.clone().unwrap_or_default(),
        run: 0,
        fp64_active: req.fp_active.unwrap_or(0.0),
        fp32_active: 0.0,
        sm_app_clock: max_core_mhz,
        dram_active: req.dram_active.unwrap_or(0.0),
        gr_engine_active: 0.0,
        gpu_utilization: 0.0,
        power_usage: 0.0,
        sm_active: 0.0,
        sm_occupancy: 0.0,
        pcie_tx_bytes: 0.0,
        pcie_rx_bytes: 0.0,
        exec_time: req.exec_time.unwrap_or(0.0),
    }
}

/// How a phase checks reply bodies against the reference.
pub enum Check {
    /// Every reply compared byte for byte with a precomputed answer
    /// (small key populations).
    Exact(HashMap<(usize, bool), Vec<u8>>),
    /// One reply in `every` (chosen by a seeded hash of its sequence
    /// number) kept whole and checked after the phase.
    Sample {
        every: u64,
        salt: u64,
        kept: Vec<(usize, bool, Vec<u8>)>,
    },
}

impl Check {
    /// Judges one ok reply's body as it arrives. Returns false when the
    /// body is already known to be wrong.
    pub fn observe(&mut self, key: usize, select: bool, seq: u64, body: &[u8]) -> bool {
        match self {
            Check::Exact(expected) => expected.get(&(key, select)).is_some_and(|e| e == body),
            Check::Sample { every, salt, kept } => {
                let mut h = crate::stats::SplitMix::new(*salt ^ seq);
                if h.next_u64().is_multiple_of(*every) {
                    kept.push((key, select, body.to_vec()));
                }
                true
            }
        }
    }

    /// Checks what [`Check::observe`] deferred against the reference.
    /// Returns `(checked, wrong)` counts of distinct replies.
    pub fn finish(&mut self, reference: &Reference) -> (u64, u64) {
        match self {
            Check::Exact(expected) => (expected.len() as u64, 0),
            Check::Sample { kept, .. } => {
                let wrong = kept
                    .iter()
                    .filter(|(key, select, body)| reference.reply(*key, *select) != *body)
                    .count();
                (kept.len() as u64, wrong as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_features_are_valid_and_mostly_distinct_buckets() {
        let mut buckets = std::collections::HashSet::new();
        for key in 0..20_000 {
            let (fp, dram, exec) = key_features(key);
            assert!((0.03..0.96).contains(&fp) && (0.03..0.96).contains(&dram));
            assert!((0.5..10.0).contains(&exec));
            buckets.insert(((fp * 1e3).round() as i64, (dram * 1e3).round() as i64));
        }
        assert!(buckets.len() > 19_700, "{}", buckets.len());
    }

    #[test]
    fn frames_are_canonical_for_the_fast_parser() {
        for (key, select) in [(0, false), (1, true), (999_999, false)] {
            let f = frame(key, select);
            assert_eq!(fast::parse_request(&f), Some(request(key, select)));
        }
    }

    #[test]
    fn one_flipped_reply_byte_is_caught() {
        let body: Vec<u8> = b"{\"ok\":true,\"profile\":[1,2,3]}".repeat(100);
        let mut flipped = body.clone();
        flipped[1234] ^= 0x01;
        let mut exact = Check::Exact(HashMap::from([((3, false), body.clone())]));
        assert!(exact.observe(3, false, 0, &body));
        assert!(!exact.observe(3, false, 1, &flipped));
    }
}
