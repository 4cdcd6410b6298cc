//! What the benchmark reads about its host: process CPU time and peak
//! memory from `/proc`, and the machine fingerprint printed with every
//! result so numbers from different machines are never compared.

use std::path::Path;
use std::process::Command;

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, fixed at 100
/// per second by the kernel ABI.
const TICKS_PER_S: f64 = 100.0;

fn proc_file(pid: Option<u32>, file: &str) -> String {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    };
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// User + system CPU seconds consumed so far by process `pid` (this
/// process when `None`), all of its threads included.
pub fn cpu_s(pid: Option<u32>) -> f64 {
    let stat = proc_file(pid, "stat");
    // The command name (field 2) may contain spaces; fields after it are
    // space-separated, with utime and stime the 12th and 13th.
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set size of process `pid` (this process when `None`), MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let status = proc_file(pid, "status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a 64 over the bytes of every file under `roots` (skipping build
/// output), in sorted path order: identifies the measured source when the
/// tree is not a git checkout.
fn source_digest(roots: &[&str]) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && !name.to_string_lossy().starts_with('.') {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in roots {
        let p = Path::new(root);
        if p.is_dir() {
            walk(p, &mut files);
        } else if p.is_file() {
            files.push(p.to_path_buf());
        }
    }
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    h.0
}

/// The fingerprint line: CPU count and model, compiler, and the revision
/// of the measured source (git commit when available, plus a digest of
/// the source files).
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let rev = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let source = source_digest(&["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src"]);
    let esc = adaphet_metrics::json_escape;
    format!(
        "{{\"fingerprint\": {{\"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\", \"source_fnv64\": \"{source:016x}\"}}}}",
        nproc(),
        esc(&cpu),
        esc(&rustc),
        esc(&rev)
    )
}

/// Incremental FNV-1a 64 hasher (also the digest of checked outputs).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// Fold the exact bits of each value in.
    pub fn f64s<'a>(&mut self, values: impl IntoIterator<Item = &'a f64>) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        let spin: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0);
        assert!(cpu_s(None) >= 0.0);
        assert!(peak_rss_mb(None) > 0.0);
    }

    #[test]
    fn fnv_digest_sees_every_bit() {
        let mut a = Fnv::default();
        a.f64s(&[1.0, 2.0]);
        let mut b = Fnv::default();
        b.f64s(&[1.0, f64::from_bits(2.0f64.to_bits() ^ 1)]);
        assert_ne!(a.0, b.0);
    }
}
