//! Small shared helpers: sample accumulators, percentiles, process memory,
//! result digests and the git revision of the checkout.

use std::collections::BTreeMap;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Named sample lists, filled while a run executes and reduced into
/// metrics at its end. Samples pushed with an op id are also kept per op.
#[derive(Default)]
pub struct Acc {
    map: BTreeMap<&'static str, Vec<f64>>,
    per_op: BTreeMap<(&'static str, usize), Vec<f64>>,
}

impl Acc {
    pub fn push(&mut self, key: &'static str, v: f64) {
        self.map.entry(key).or_default().push(v);
    }

    /// Pushes a sample of op `id` (one query of the round, one epoch of
    /// the pass, one store's restart).
    pub fn push_op(&mut self, key: &'static str, id: usize, v: f64) {
        self.push(key, v);
        self.per_op.entry((key, id)).or_default().push(v);
    }

    /// Geometric mean over ops of each op's median: the typical latency of
    /// a mix of ops whose costs differ by orders of magnitude, steadier
    /// than the median of the pooled samples, which jumps between ops.
    pub fn gm_p50(&self, key: &str) -> f64 {
        let logs: Vec<f64> = self
            .per_op
            .range((key, 0)..=(key, usize::MAX))
            .map(|(_, v)| percentile(v, 0.5).max(f64::MIN_POSITIVE).ln())
            .collect();
        if logs.is_empty() {
            0.0
        } else {
            (logs.iter().sum::<f64>() / logs.len() as f64).exp()
        }
    }

    pub fn get(&self, key: &str) -> &[f64] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn p50(&self, key: &str) -> f64 {
        percentile(self.get(key), 0.5)
    }

    pub fn p99(&self, key: &str) -> f64 {
        percentile(self.get(key), 0.99)
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.get(key).iter().sum()
    }

    pub fn count(&self, key: &str) -> usize {
        self.get(key).len()
    }

    pub fn mean(&self, key: &str) -> f64 {
        ratio(self.sum(key), self.count(key) as f64)
    }

    pub fn max(&self, key: &str) -> f64 {
        self.get(key).iter().copied().fold(0.0, f64::max)
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer the run never
/// reached reports 0 for its ratios).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reads one `kB` field of `/proc/self/status`, in MiB (0 where absent).
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Process high-water resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Current resident set size (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// Order-insensitive FNV-1a digest of rendered rows.
pub fn digest(rows: &[Vec<String>]) -> u64 {
    let mut sorted: Vec<&Vec<String>> = rows.iter().collect();
    sorted.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for row in sorted {
        for cell in row {
            eat(cell.as_bytes());
            eat(&[0x1f]);
        }
        eat(&[0x1e]);
    }
    h
}

/// The commit the checkout was built from, read from `.git` in the working
/// directory without running git; "unknown" outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A fixed unit of CPU and allocator work that uses none of the program's
/// code: sort 64k pseudo-random keys, then format and hash 32k small
/// strings. Returns its wall time (ms).
///
/// Of the kernels tried on the build host (also a hash-map build and
/// probe, a freshly mapped 4 MiB buffer, a pointer chase over 8 MiB and a
/// pure ALU loop), these two tracked the program's slow-downs best:
/// divided by them, the query-15x medians of six 30-s runs spread by 5-7%
/// instead of 22-25%.
pub fn reference_kernel() -> f64 {
    let t = std::time::Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys: Vec<u64> = (0..65_536)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let names: Vec<String> =
        keys.iter().step_by(2).map(|k| format!("/proc/{}/fd/{}", k % 65_536, k % 97)).collect();
    std::hint::black_box(digest(&[names]));
    t.elapsed().as_secs_f64() * 1e3
}

/// Wall time of [`reference_kernel`] on the 2-vCPU build host when its
/// shared cores are quiet (the fast end of 400 runs). It only fixes the
/// scale of calibrated times; any constant gives the same ratios.
pub const NOMINAL_REF_MS: f64 = 6.0;

/// The host's speed over a stretch of work relative to its quiet speed,
/// from the reference kernel timed just before and just after it. The
/// faster of the two is taken: a kernel run that a burst of contention
/// hits reads slow, and the two runs seldom both get hit.
pub fn host_speed(ref_before_ms: f64, ref_after_ms: f64) -> f64 {
    NOMINAL_REF_MS / ref_before_ms.min(ref_after_ms)
}

/// [`reference_kernel`] on `threads` threads at once; the wall time until
/// all are done (ms). Run on as many threads as the engine's pool, it also
/// sees contention on the cores an engine op fans out to, which the
/// one-thread kernel misses.
pub fn pool_kernel(threads: usize) -> f64 {
    let t = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(reference_kernel);
        }
        reference_kernel();
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// The samples of a timed loop, as measured (`raw`) and calibrated to the
/// host's quiet speed (`cal`).
///
/// The build host shares its cores, and its speed swings by up to 1.7x
/// from one second to the next. So the loop is cut into stretches of at
/// most a few hundred milliseconds, the kernels are timed between them,
/// and each stretch's samples are multiplied by its [`host_speed`]. Ops
/// that go through the engine's executor fan out over its pool and are
/// calibrated by [`pool_kernel`]; recoveries track the one-thread
/// [`reference_kernel`] best. (Same-seed query-15x runs: 8-9% spread of
/// the query medians with the one-thread kernel, 3-4% with the pool
/// kernel; 4% for recovery with the one-thread kernel, 7% with the pool
/// kernel.) The kernels share no code with the program: a change to the
/// program moves calibrated times by the same share as raw ones.
pub struct Timings {
    pub raw: Acc,
    pub cal: Acc,
    /// One (one-thread, pool) speed pair per stretch.
    pub speeds: Vec<(f64, f64)>,
    threads: usize,
    /// The (one-thread, pool) kernel times at the end of the last stretch.
    last_ref_ms: (f64, f64),
    /// The current stretch's samples: key, op id, ms, and whether the op
    /// is calibrated by the one-thread kernel.
    pending: Vec<(&'static str, usize, f64, bool)>,
}

impl Timings {
    /// Starts the first stretch of a loop whose engine uses `threads`
    /// pool threads.
    pub fn start(threads: usize) -> Self {
        let threads = threads.max(1);
        Timings {
            raw: Acc::default(),
            cal: Acc::default(),
            speeds: Vec::new(),
            threads,
            last_ref_ms: (reference_kernel(), pool_kernel(threads)),
            pending: Vec::new(),
        }
    }

    /// Adds a latency sample (ms) of engine op `id` to the current stretch.
    pub fn push_op(&mut self, key: &'static str, id: usize, ms: f64) {
        self.raw.push_op(key, id, ms);
        self.pending.push((key, id, ms, false));
    }

    /// Adds a recovery's latency sample (ms) to the current stretch.
    pub fn push_recovery(&mut self, key: &'static str, id: usize, ms: f64) {
        self.raw.push_op(key, id, ms);
        self.pending.push((key, id, ms, true));
    }

    /// Ends the current stretch: times the kernels and calibrates the
    /// stretch's samples. The loop ends every stretch it starts.
    pub fn end_stretch(&mut self) {
        let (one, pool) = (reference_kernel(), pool_kernel(self.threads));
        let speed = (host_speed(self.last_ref_ms.0, one), host_speed(self.last_ref_ms.1, pool));
        self.last_ref_ms = (one, pool);
        self.speeds.push(speed);
        for (key, id, ms, one_thread) in self.pending.drain(..) {
            self.cal.push_op(key, id, ms * if one_thread { speed.0 } else { speed.1 });
        }
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn geometric_mean_of_per_op_medians() {
        let mut acc = Acc::default();
        for v in [1.0, 1.0, 9.0] {
            acc.push_op("t", 0, v);
        }
        for v in [100.0, 100.0] {
            acc.push_op("t", 1, v);
        }
        acc.push_op("u", 0, 5.0);
        assert!((acc.gm_p50("t") - 10.0).abs() < 1e-9);
        assert_eq!(acc.count("t"), 5);
        assert_eq!(acc.gm_p50("missing"), 0.0);
    }

    #[test]
    fn each_stretch_is_scaled_by_its_own_speed() {
        let mut t = Timings::start(2);
        t.push_op("x", 0, 2.0);
        t.end_stretch();
        t.push_op("x", 0, 3.0);
        t.push_recovery("r", 1, 4.0);
        t.end_stretch();
        assert_eq!(t.speeds.len(), 2);
        assert_eq!(t.raw.get("x"), [2.0, 3.0]);
        assert_eq!(t.cal.get("x"), [2.0 * t.speeds[0].1, 3.0 * t.speeds[1].1]);
        assert_eq!(t.cal.get("r"), [4.0 * t.speeds[1].0]);
        assert!(t
            .speeds
            .iter()
            .all(|(a, b)| a.is_finite() && *a > 0.0 && b.is_finite() && *b > 0.0));
    }

    #[test]
    fn digest_ignores_row_order() {
        let a = vec![vec!["x".to_string()], vec!["y".to_string()]];
        let b = vec![vec!["y".to_string()], vec!["x".to_string()]];
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&a[..1]));
    }
}
