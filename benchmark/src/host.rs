//! The `host` block stamped on every result the benchmark writes.

use std::path::Path;
use std::process::Command;

use lira_core::telemetry::json::Json;

fn command_line(dir: &Path, program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Logical cores, CPU model, `rustc -V`, the commit (with a dirty flag)
/// of the checkout at `root`, the cargo profile and the transport. A
/// checkout that is not a git repository reports `commit: "unknown"`.
pub fn host_json(root: &Path) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line(root, "rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line(root, "git", &["rev-parse", "HEAD"]);
    let dirty = command_line(root, "git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Json::Obj(vec![
        ("logical_cores".into(), Json::UInt(cores)),
        ("cpu_model".into(), Json::Str(cpu_model)),
        ("rustc".into(), Json::Str(rustc)),
        (
            "commit".into(),
            Json::Str(commit.unwrap_or_else(|| "unknown".into())),
        ),
        ("dirty".into(), dirty.map_or(Json::Null, Json::Bool)),
        (
            "profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "transport".into(),
            Json::Str(
                "loopback TCP, one connection; generator and server share this host's cores".into(),
            ),
        ),
    ])
}
