//! Records the compiler version and a source digest for the host
//! fingerprint of every result.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // The checkout the benchmark runs in need not be a git repository, so
    // the revision is a digest of the measured program's sources.
    println!("cargo:rerun-if-changed=../crates");
    let revision = tree_digest(Path::new("../crates"));
    println!("cargo:rustc-env=PERFBENCH_REVISION=src-{revision:016x}");
}

/// FNV-1a over every file path and its bytes under `dir`, in sorted order.
fn tree_digest(dir: &Path) -> u64 {
    let mut files = Vec::new();
    collect(dir, &mut files);
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}
