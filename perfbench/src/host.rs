//! Host record and resident-memory probes (Linux `/proc`).

use std::fmt::Write as _;

/// Cores the benchmark may use: every thread count derives from this.
pub fn cores() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn status_kb(pid: &str, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process, MB.
pub fn self_peak_rss_mb() -> f64 {
    status_kb("self", "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Sum of the peak resident sets of this process's live children, MB.
/// Call it while the children still run (they leave no record after).
pub fn children_peak_rss_mb() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut total = 0.0;
    for task in tasks.flatten() {
        let Ok(kids) = std::fs::read_to_string(task.path().join("children")) else {
            continue;
        };
        for pid in kids.split_whitespace() {
            total += status_kb(pid, "VmHWM:").unwrap_or(0.0) / 1024.0;
        }
    }
    total
}

/// The host record printed before the result line, as one JSON object.
pub fn record_json(workload: &str, seed: u64, extra: &[(&str, f64)]) -> String {
    let mut j = format!(
        "{{\"host\": {{\"cores\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\"}}, \"workload\": \"{workload}\", \"seed\": {seed}",
        cores(),
        cpu_model().replace('"', "'"),
        env!("PERFBENCH_RUSTC").replace('"', "'"),
    );
    for (k, v) in extra {
        let _ = write!(j, ", \"{k}\": {v}");
    }
    j.push('}');
    j
}
