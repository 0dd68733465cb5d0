//! The host fingerprint recorded with every result document: numbers
//! from different hosts, toolchains or commits are not comparable.

use crate::json::quote;
use std::process::Command;

/// Where a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Cores available to this process.
    pub cores: usize,
    /// CPU model name from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, or `unknown`
    /// outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Probes the running host.
    #[must_use]
    pub fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The fingerprint as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.cores,
            quote(&self.cpu),
            quote(&self.rustc),
            quote(&self.commit)
        )
    }
}

/// First line of a command's standard output, or `unknown` if it
/// cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
