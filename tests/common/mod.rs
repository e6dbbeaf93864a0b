//! Plumbing shared by the wall-clock integration tests.

/// Serializes the tests of one test binary. Every caller deploys on the
/// wall-clock thread engine (some additionally fork OS processes); running
/// them concurrently oversubscribes the CPU far enough that keep-alives go
/// stale spuriously and throughput gates measure each other, not the
/// protocol.
pub fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Scratch directory for a durable-store run, clean at entry.
pub fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("borealis-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reads every node store's `last_recovery.marker` under `root`.
pub fn recovery_markers(root: &std::path::Path) -> Vec<String> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        return found;
    };
    for e in entries.flatten() {
        if let Ok(s) = std::fs::read_to_string(e.path().join("last_recovery.marker")) {
            found.push(s.trim().to_string());
        }
    }
    found
}
