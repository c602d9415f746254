//! Small numeric and process helpers shared by the workloads.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile `q` in `[0, 1]` of `xs`, interpolating linearly between
/// neighbouring order statistics (so it moves continuously with the data);
/// 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// FNV-1a, 64 bit — the hash `tests/data/flat_qasm_fnv.txt` pins QASM with.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs `setup` `reps` times and returns the median time in seconds. Every
/// product stays alive until all repetitions have run, so each repetition
/// allocates fresh memory, as a cold start would.
pub fn setup_seconds<T>(reps: usize, mut setup: impl FnMut() -> T) -> f64 {
    let mut times = Vec::with_capacity(reps);
    let mut made = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let (out, dt) = timed(&mut setup);
        times.push(dt);
        made.push(out);
    }
    println!(
        "setup reps={} median_s={:.6} min_s={:.6} max_s={:.6}",
        times.len(),
        median(&times),
        quantile(&times, 0.0),
        quantile(&times, 1.0)
    );
    median(&times)
}

/// Returns freed heap memory to the operating system (glibc's
/// `malloc_trim`) and resets the peak resident set size (`VmHWM`) to the
/// current one, where `/proc/self/clear_refs` allows it, so a later
/// [`peak_rss_mib`] covers only live data and what ran in between.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` has no preconditions; it only hands free
        // heap pages back to the operating system and never touches memory
        // that is still allocated.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0);
        assert_eq!(
            quantile(&[4.0, 1.0, 2.0, 3.0], 0.5),
            median(&[4.0, 1.0, 2.0, 3.0])
        );
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
