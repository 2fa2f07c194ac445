//! Measurement primitives: percentiles and quartiles, process CPU time and
//! resident-set readings from `/proc/self`, and the digest the result
//! checks use.

use std::time::Duration;

/// `p`-th percentile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them — the driver computes spreads with
/// that function, so `compare` must agree with it. One value has no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// User + system CPU time of this process, all threads, in milliseconds.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let mut fields = rest.split(' ');
    let utime: f64 = fields.nth(11).and_then(|f| f.parse().ok()).expect("utime");
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    (utime + stime) * 10.0
}

/// A `kB` field of `/proc/self/status` in MiB (`VmHWM` is the peak resident
/// set of the process so far).
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("kB value");
    kb / 1024.0
}

/// FNV-1a over bytes. The result checks use a hash of the benchmark's own
/// so that the digests under `expected/` do not move when the program's
/// hash functions are optimized.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Spearman rank correlation of paired samples (average ranks for ties);
/// 0 when fewer than two pairs or one side is constant.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
        let mut r = vec![0.0; v.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &idx[i..=j] {
                r[k] = avg;
            }
            i = j + 1;
        }
        r
    }
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let mean = (n as f64 + 1.0) / 2.0;
    let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
    for i in 0..n {
        cov += (rx[i] - mean) * (ry[i] - mean);
        vx += (rx[i] - mean).powi(2);
        vy += (ry[i] - mean).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 75.0), 7.0);
    }

    #[test]
    fn spearman_of_monotone_and_reversed() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(spearman(&x, &[10.0, 20.0, 30.0, 40.0]), 1.0);
        assert_eq!(spearman(&x, &[4.0, 3.0, 2.0, 1.0]), -1.0);
        assert_eq!(spearman(&x, &[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(status_mb("VmHWM:") > 0.0);
        assert!(process_cpu_ms() >= 0.0);
    }
}
