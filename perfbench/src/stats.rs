//! Small helpers: percentiles, the simulated-output digest, process
//! memory and the machine fingerprint.

use std::time::Instant;

/// Nearest-rank `q`-quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Host milliseconds between consecutive clock marks.
pub fn chunk_ms(marks: &[Instant]) -> Vec<f64> {
    marks.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3).collect()
}

/// The median time of each chunk over identical passes, for as many
/// chunks as the shortest pass has.
pub fn median_per_chunk(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| quantile(&mut passes.iter().map(|p| p[i]).collect::<Vec<_>>(), 0.5))
        .collect()
}

/// 64-bit FNV-1a over `text`.
///
/// The digest of a simulated result is taken over its `Debug` rendering,
/// which names every field (floats print in shortest round-trip form),
/// so any change to any simulated counter changes the digest.
pub fn digest(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, `rustc -V` and the CPU model string.
pub fn fingerprint() -> (usize, String, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (nproc, rustc, cpu)
}
