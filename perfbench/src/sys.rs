//! Process accounting from `/proc` and the host tags attached to every
//! result.

use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 on every Linux architecture the benchmark targets).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid` ("self" for
/// this process), including threads that have already exited.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or_else(|| format!("{path}: no ')'"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime 14 and stime 15 (1-based).
    let tick = |i: usize| -> Result<f64, String> {
        fields.get(i).and_then(|v| v.parse::<f64>().ok()).ok_or_else(|| format!("{path}: field"))
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB (10^6 bytes).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).lines().next().map(str::to_string))?
}

/// FNV-1a over the repository's sources (crate sources and manifests), so
/// a result identifies the code it measured even where no git metadata
/// exists.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files =
        vec![Path::new("Cargo.toml").to_path_buf(), Path::new("Cargo.lock").to_path_buf()];
    for d in ["crates", "src", "vendor", "perfbench/src"] {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", crate::stats::fnv1a(&bytes))
}

/// The host tags as a JSON object: CPU count, cpuset, CPU model, rustc
/// version, git commit (when the checkout is a git repository), a source
/// digest, and whatever the workload adds (`extra`, pre-rendered
/// `"key":value` pairs).
pub fn host_json(extra: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let cpuset = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or("unknown", str::trim)
        .to_string();
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a checkout of its own: a copy of the tree that
    // is not a repository must not report an enclosing repository's HEAD.
    let commit = if Path::new(".git").exists() {
        first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
    } else {
        "none".into()
    };
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\":{nproc},\"cpuset\":\"{}\",\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"git_commit\":\"{}\",\"source_digest\":\"{}\",{extra}}}",
        esc(&cpuset),
        esc(&model),
        esc(&rustc),
        esc(&commit),
        source_digest()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_accounting_reads() {
        let before = cpu_seconds("self").unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(x > 0);
        assert!(cpu_seconds("self").unwrap() >= before);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
