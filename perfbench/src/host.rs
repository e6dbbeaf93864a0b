//! Process-level readings from `/proc`: CPU time and peak memory.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// CPU seconds `[user, system, reaped children's user, their system]`.
pub fn cpu_split() -> [f64; 4] {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name is parenthesized and may hold spaces: fields are
    // counted from the last ')'. After it come state (field 3), ...,
    // utime (14), stime (15), cutime (16), cstime (17).
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let mut out = [0.0; 4];
    for (o, f) in out.iter_mut().zip(&fields[11..15]) {
        *o = f.parse::<f64>().expect("numeric CPU time field") / USER_HZ;
    }
    out
}

/// User + system CPU seconds of this process, plus those of every child
/// it has reaped.
pub fn cpu_seconds() -> f64 {
    cpu_split().iter().sum()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Total size in bytes of the regular files under `dir` (recursive).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
