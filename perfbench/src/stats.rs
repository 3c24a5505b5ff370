//! Order statistics, the seeded key stream and the report digest the
//! benchmark reports with. Everything here is a pure function of its
//! arguments, so it is unit-tested below.

use serde_json::Value;

/// Median of `xs` (the mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Interquartile mean of `xs`: the mean of the values left after the
/// lowest and the highest quarter are dropped (`n / 4` values at each
/// end, so at least one value always remains). Like the median it
/// ignores a few stalled windows; it averages the whole middle half
/// instead of taking one value from it, so it varies less from run to
/// run when the windows spread widely.
///
/// # Panics
/// Panics on an empty slice.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "interquartile mean of no samples");
    let s = sorted(xs);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(xs, n=4)` (its default "exclusive" method).
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let s = sorted(xs);
    let ld = s.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `xs`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    percentile_sorted(&s, q)
}

/// [`percentile`] over samples already sorted ascending.
pub fn percentile_sorted(s: &[f64], q: f64) -> f64 {
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The percentile ladder the tail is chosen from, highest first.
const LADDER: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// The highest percentile of [`LADDER`] that leaves at least ten samples
/// beyond it, as `(q, value, sample count)`; `None` with fewer than 20
/// samples, where not even the median has ten beyond it.
pub fn supported_tail(s: &[f64]) -> Option<(f64, f64, usize)> {
    let n = s.len();
    LADDER
        .iter()
        .find(|&&q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
        .map(|&q| (q, percentile_sorted(s, q), n))
}

/// Groups `values` into consecutive windows of `window` seconds by their
/// time stamps `at` (seconds), keeping only the windows that lie wholly
/// inside `[0, span)`.
pub fn windows(at: &[f64], values: &[f64], window: f64, span: f64) -> Vec<Vec<f64>> {
    let full = (span / window).floor() as usize;
    let mut out = vec![Vec::new(); full];
    for (&t, &v) in at.iter().zip(values) {
        let w = (t / window).floor();
        if w >= 0.0 && (w as usize) < full {
            out[w as usize].push(v);
        }
    }
    out
}

/// The interquartile mean over `windows` of each window's `q`
/// percentile; windows with fewer than `min_samples` samples are
/// skipped.
pub fn window_percentile(windows: &[Vec<f64>], q: f64, min_samples: usize) -> f64 {
    let per: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() >= min_samples.max(1))
        .map(|w| percentile(w, q))
        .collect();
    if per.is_empty() {
        f64::NAN
    } else {
        interquartile_mean(&per)
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: the benchmark's only random source. Every stream is a
/// pure function of its seed, so a seed names one input exactly.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Key popularity: zipf(s) over `keys` ranks (s = 0 is uniform).
pub struct KeyDist {
    keys: usize,
    /// Cumulative weights; empty for the uniform case, which needs none.
    cdf: Vec<f64>,
}

impl KeyDist {
    pub fn new(keys: usize, s: f64) -> Self {
        assert!(keys > 0, "a key population needs one key");
        if s == 0.0 {
            return Self {
                keys,
                cdf: Vec::new(),
            };
        }
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=keys)
            .map(|rank| {
                total += (rank as f64).powf(-s);
                total
            })
            .collect();
        for w in &mut cdf {
            *w /= total;
        }
        Self { keys, cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_f64();
        if self.cdf.is_empty() {
            ((u * self.keys as f64) as usize).min(self.keys - 1)
        } else {
            self.cdf.partition_point(|&c| c < u).min(self.keys - 1)
        }
    }
}

/// One connection's request stream: `(key, is_select)` per sequence
/// number, a pure function of `(seed, stream)`.
pub struct KeyStream {
    rng: SplitMix,
    seq: u64,
    select_every: u64,
}

impl KeyStream {
    pub fn new(seed: u64, stream: u64, select_every: u64) -> Self {
        let mut mix = SplitMix::new(seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(stream + 1));
        Self {
            rng: SplitMix::new(mix.next_u64()),
            seq: 0,
            select_every,
        }
    }

    pub fn next(&mut self, dist: &KeyDist) -> (usize, bool) {
        let key = dist.sample(&mut self.rng);
        let select = self.select_every > 0 && self.seq % self.select_every == self.select_every - 1;
        self.seq += 1;
        (key, select)
    }
}

/// FNV-1a 64 over bytes: the digest behind the offline output check.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Whether an object key names a timing field. Wall times differ run to
/// run; everything else a report holds is deterministic.
fn is_timing_key(key: &str) -> bool {
    key.ends_with("_seconds")
}

/// Drops every timing field (`*_seconds`, at any depth) and keeps the
/// rest of `value` unchanged.
pub fn strip_timing(value: &Value) -> Value {
    match value {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| !is_timing_key(k))
                .map(|(k, v)| (k.clone(), strip_timing(v)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

/// The digest of one JSON document with its timing fields removed.
pub fn canonical_digest(json: &str) -> Result<u64, String> {
    let value: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let canonical = serde_json::to_string(&strip_timing(&value)).map_err(|e| e.to_string())?;
    Ok(fnv1a(canonical.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[1.0, 3.0, 2.0]), 2.0);
        // 8 values: the two lowest and the two highest are dropped.
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 4.0, 5.0, 6.0, 7.0, 0.0, 90.0]),
            5.5
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn windowed_statistics_take_interquartile_means_over_full_windows() {
        // Ten samples per second for 4 s, then 100 in the partial fifth
        // window, which is dropped.
        let mut at: Vec<f64> = (0..40).map(|i| i as f64 / 10.0).collect();
        at.extend((0..100).map(|i| 4.0 + i as f64 / 1000.0));
        let vals: Vec<f64> = at
            .iter()
            .map(|&t| if t < 1.0 { 100.0 } else { 1.0 })
            .collect();
        let w = windows(&at, &vals, 1.0, 4.5);
        assert_eq!(w.iter().map(Vec::len).collect::<Vec<_>>(), [10, 10, 10, 10]);
        // One slow window in four does not move the interquartile mean
        // of window p99s.
        assert_eq!(window_percentile(&w, 0.99, 5), 1.0);
        assert!(window_percentile(&w, 0.99, 11).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let s = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert!(supported_tail(&s(19)).is_none());
        assert_eq!(supported_tail(&s(20)), Some((0.5, 10.0, 20)));
        assert_eq!(supported_tail(&s(999)).map(|t| t.0), Some(0.9));
        assert_eq!(supported_tail(&s(1000)), Some((0.99, 990.0, 1000)));
        assert_eq!(supported_tail(&s(10_000)).map(|t| t.0), Some(0.999));
        assert_eq!(supported_tail(&s(100_000)).map(|t| t.0), Some(0.9999));
    }

    #[test]
    fn key_stream_is_a_pure_function_of_the_seed() {
        let dist = KeyDist::new(20_000, 1.0);
        let take = |seed, stream| {
            let mut ks = KeyStream::new(seed, stream, 2);
            (0..1000).map(|_| ks.next(&dist)).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(8, 0));
        assert_ne!(take(7, 0), take(7, 1));
        // Every second request is a select.
        assert!(take(7, 0)
            .iter()
            .enumerate()
            .all(|(i, &(_, sel))| sel == (i % 2 == 1)));
    }

    #[test]
    fn zipf_skews_and_uniform_spreads() {
        let mut rng = SplitMix::new(1);
        let zipf = KeyDist::new(64, 1.0);
        let top = (0..10_000).filter(|_| zipf.sample(&mut rng) == 0).count();
        // Rank 1 carries 1/H(64) ≈ 21% of the mass.
        assert!((1800..2400).contains(&top), "{top}");
        let uniform = KeyDist::new(1_000_000, 0.0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let k = uniform.sample(&mut rng);
            assert!(k < 1_000_000);
            seen.insert(k);
        }
        assert!(seen.len() > 9_900);
    }

    #[test]
    fn canonicalizer_drops_only_timing_fields() {
        let a = r#"{"a":1,"train_seconds":2.5,"nested":[{"x_seconds":1,"seconds":3,"y":"s"}]}"#;
        let b = r#"{"a":1,"train_seconds":9.75,"nested":[{"x_seconds":4,"seconds":3,"y":"s"}]}"#;
        assert_eq!(canonical_digest(a), canonical_digest(b));
        let stripped = strip_timing(&serde_json::from_str(a).unwrap());
        assert_eq!(
            serde_json::to_string(&stripped).unwrap(),
            r#"{"a":1,"nested":[{"seconds":3,"y":"s"}]}"#
        );
        // Any other field change moves the digest.
        let c = r#"{"a":2,"train_seconds":2.5,"nested":[{"x_seconds":1,"seconds":3,"y":"s"}]}"#;
        let d = r#"{"a":1,"train_seconds":2.5,"nested":[{"x_seconds":1,"seconds":4,"y":"s"}]}"#;
        assert_ne!(canonical_digest(a), canonical_digest(c));
        assert_ne!(canonical_digest(a), canonical_digest(d));
    }
}
