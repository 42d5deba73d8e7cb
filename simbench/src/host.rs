//! The host fingerprint printed with every result, so that a comparison
//! across hosts can be refused instead of misread, and the process's peak
//! resident memory.

use crate::suite::fnv1a;
use std::fs;
use std::path::{Path, PathBuf};

/// Root of the checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `nproc`, CPU model, compiler, commit and a digest of the simulator's
/// sources, on one line.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={} src=fnv64:{:016x}",
        env!("SIMBENCH_RUSTC"),
        commit().unwrap_or_else(|| "none".to_string()),
        source_digest()
    )
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn commit() -> Option<String> {
    let git = repo_root().join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(r)) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
}

/// FNV-1a over the simulator's sources (`crates/**/*.rs`, every
/// `Cargo.toml`, the root manifest and lock file) in path order: equal
/// digests mean the same simulator code, with or without git.
fn source_digest() -> u64 {
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        if let Ok(body) = fs::read(&f) {
            bytes.extend(
                f.strip_prefix(&root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            bytes.extend(body);
        }
    }
    fnv1a(&bytes)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml") {
            out.push(p);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn rss_peak_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
