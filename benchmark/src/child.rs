//! The server child process: this binary re-executed in the server
//! role, running `sqlnf_serve::Server` with the configuration that
//! `sqlnf serve --workers 2 [--wal-dir D]` builds.

use sqlnf_serve::{FsyncMode, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Argument that selects the server role.
pub const SERVE_ROLE: &str = "--serve-child";

/// Session workers of the server child, as `sqlnf serve --workers 2`.
pub const WORKERS: usize = 2;

/// WAL shards of the server child (the `sqlnf serve` default).
pub const WAL_SHARDS: usize = 1;

/// Fsync discipline of the server child (the `sqlnf serve` default).
pub const FSYNC: FsyncMode = FsyncMode::Batch;

fn config(wal_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        wal_dir,
        wal_shards: WAL_SHARDS,
        commit_window: Duration::ZERO,
        fsync: FSYNC,
        ..ServeConfig::default()
    }
}

/// Entry point of the server role: starts the server, prints its
/// address, and exits when its standard input closes — which happens
/// when the parent stops it or dies, so no server outlives a run.
pub fn serve_main(args: &[String]) -> ! {
    let wal_dir = args
        .windows(2)
        .find(|w| w[0] == "--wal-dir")
        .map(|w| PathBuf::from(&w[1]));
    let server = match Server::start(config(wal_dir)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("server child: cannot start: {e}");
            std::process::exit(2);
        }
    };
    println!("addr {}", server.local_addr());
    let _ = std::io::stdout().flush();
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    std::process::exit(0);
}

/// A running server child. Dropping it stops the process and waits for
/// it, then removes its WAL directory.
#[derive(Debug)]
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
    wal_dir: Option<PathBuf>,
}

impl ServerChild {
    /// Starts a server child, with a WAL in `wal_dir` (created fresh)
    /// or without durability, with every thread pinned to `cpu` if one
    /// is given. Mining in the child runs serially, the shipped
    /// default: `SQLNF_MINE_THREADS` is removed from its environment.
    pub fn spawn(wal_dir: Option<&Path>, cpu: Option<usize>) -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg(SERVE_ROLE)
            .env_remove("SQLNF_MINE_THREADS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = wal_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            cmd.arg("--wal-dir").arg(dir);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("addr ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                // The server has started its threads before it prints
                // its address; any it starts later inherit the pinning.
                let server = ServerChild {
                    child,
                    stdin,
                    addr,
                    wal_dir: wal_dir.map(Path::to_path_buf),
                };
                if let Some(cpu) = cpu {
                    crate::speed::pin_process(server.pid(), cpu)?;
                }
                Ok(server)
            }
            (read, _) => {
                drop(stdin);
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "server child did not report an address: {read:?} {line:?}"
                ))
            }
        }
    }

    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn stop_and_wait(&mut self) {
        self.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(dir) = self.wal_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.stop_and_wait();
    }
}

/// Peak resident memory of a process in MiB (`VmHWM`).
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}
