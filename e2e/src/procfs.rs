//! Process accounting read from `/proc/self`: peak resident set, CPU
//! time, involuntary context switches. Linux only; elsewhere every read
//! fails and the run is reported incorrect rather than given invented
//! numbers.

use std::fs;

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status_field(&status, "VmHWM:")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// User + system CPU seconds of this process so far, all threads, live
/// and exited. Kernel ticks are 10 ms (`USER_HZ` is 100 on Linux).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so the 12th and 13th after ") ".
    let rest = stat.rsplit_once(") ").map(|(_, rest)| rest).unwrap_or("");
    let ticks: Vec<u64> = rest
        .split_ascii_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    match ticks[..] {
        [utime, stime] => Ok((utime + stime) as f64 / 100.0),
        _ => Err("cannot parse /proc/self/stat".to_string()),
    }
}

/// Involuntary context switches summed over the threads alive now.
/// Taken at both ends of a window whose threads live throughout; threads
/// that exit in between (the repair pool's) are not counted.
pub fn involuntary_switches() -> Result<u64, String> {
    let mut total = 0;
    for task in fs::read_dir("/proc/self/task").map_err(|e| e.to_string())? {
        let path = task.map_err(|e| e.to_string())?.path().join("status");
        // A thread may exit between the listing and the read.
        if let Ok(status) = fs::read_to_string(path) {
            total += status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    Ok(total)
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb().unwrap() > 0.5);
        assert!(cpu_seconds().unwrap() >= 0.0);
        involuntary_switches().unwrap();
        assert_eq!(
            status_field("VmHWM:\t  1234 kB\nx: 1", "VmHWM:"),
            Some(1234)
        );
    }
}
