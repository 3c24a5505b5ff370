//! The host and configuration stamp every result carries, so results
//! from different machines are never compared as if they were alike.

use std::process::Command;

/// Where a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_commit: String,
}

impl Host {
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            cpu_model,
            kernel,
            rustc: command_line("rustc", &["--version"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The fields that make two hosts comparable: the same core count,
    /// CPU model and kernel. The toolchain and commit are part of the
    /// stamp but are what a comparison is usually about.
    pub fn same_machine(&self, other: &Host) -> bool {
        self.nproc == other.nproc
            && self.cpu_model == other.cpu_model
            && self.kernel == other.kernel
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"kernel\":{},\"rustc\":{},\"git_commit\":{}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.kernel),
            json_str(&self.rustc),
            json_str(&self.git_commit)
        )
    }

    pub fn from_json(value: &serde_json::Value) -> Option<Self> {
        let s = |k: &str| value.get(k).and_then(|v| v.as_str()).map(str::to_string);
        Some(Self {
            nproc: value.get("nproc")?.as_f64()? as usize,
            cpu_model: s("cpu_model")?,
            kernel: s("kernel")?,
            rustc: s("rustc")?,
            git_commit: s("git_commit")?,
        })
    }
}

/// The first line a command prints, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::Str(s.to_string())).expect("string serializes")
}

/// Peak resident set size (VmHWM) from a `/proc/<pid>/status` file, MiB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
