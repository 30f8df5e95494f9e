//! What a result depends on besides the code: machine, toolchain, build
//! and server settings. Every result and trace file records it.

use crate::child;
use sqlnf_obs::json::JsonValue;
use std::path::Path;
use std::process::{Command, Stdio};

fn command_line(program: &str, args: &[&str], cwd_ceiling: bool) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    if cwd_ceiling {
        // Never let git find a repository above the working directory.
        if let Some(parent) = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(Path::to_path_buf))
        {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The filesystem type `path` lives on, from the longest matching mount
/// point in `/proc/self/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// The fingerprint of this run as JSON fields.
pub fn fields(seed: u64, work_dir: &Path) -> Vec<(String, JsonValue)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let s = |v: &str| JsonValue::Str(v.to_owned());
    vec![
        ("nproc".into(), JsonValue::Int(nproc as i128)),
        ("rustc".into(), s(&command_line("rustc", &["-V"], false))),
        (
            "profile".into(),
            s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("obs_enabled".into(), JsonValue::Bool(sqlnf_obs::ENABLED)),
        (
            "git_rev".into(),
            s(&command_line("git", &["rev-parse", "HEAD"], true)),
        ),
        ("seed".into(), JsonValue::Int(seed.into())),
        (
            "fsync".into(),
            s(&format!("{:?}", child::FSYNC).to_lowercase()),
        ),
        (
            "wal_shards".into(),
            JsonValue::Int(child::WAL_SHARDS as i128),
        ),
        (
            "server_workers".into(),
            JsonValue::Int(child::WORKERS as i128),
        ),
        ("mine_threads".into(), JsonValue::Int(1)),
        ("work_dir_fs".into(), s(&filesystem_of(work_dir))),
    ]
}
