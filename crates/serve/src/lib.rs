//! # sqlnf-serve
//!
//! A concurrent, constraint-enforcing TCP server over the sqlnf
//! engine — the paper's run-time claim (§1, §7) as a long-lived
//! service: sessions speak the SQL dialect of `sqlnf_model::sql`
//! (`CREATE TABLE` with possible/certain keys and FDs, `INSERT`), and
//! every statement is admitted or refused *locally* through the
//! engine's incremental constraint indexes. Service verbs expose the
//! reasoner and miner over the same connection (`MINE`, `CLOSURE`,
//! `NORMALIZE`), and an append-only WAL with periodic snapshots makes
//! admitted statements durable (see DESIGN.md §8 for the protocol
//! grammar, locking discipline and WAL format).
//!
//! The crate is std-only: `std::net` sockets, `std::thread` workers,
//! no external dependencies.
//!
//! ```no_run
//! use sqlnf_serve::{Client, ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client
//!     .expect_ok("CREATE TABLE t (a INT NOT NULL, CONSTRAINT k CERTAIN KEY (a));")
//!     .unwrap();
//! client.expect_ok("INSERT INTO t VALUES (1);").unwrap();
//! assert!(!client.request("INSERT INTO t VALUES (1);").unwrap().ok);
//! client.quit().unwrap();
//! server.shutdown().unwrap();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod commit;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod store;
pub mod wal;
pub mod watch;

pub use client::{Client, ClientError, StreamItem};
pub use commit::FsyncMode;
pub use metrics::{parse_exposition, Sample, SlowEntry, Stage};
pub use protocol::{Reply, Request};
pub use server::{ServeConfig, Server};
pub use store::{ServeError, Store, StoreOptions};
pub use wal::Wal;
pub use watch::{
    table_facts, table_facts_with, Subscription, WatchEvent, WatchHub, DEFAULT_WATCH_QUEUE,
    WATCH_MAX_LHS,
};

#[cfg(test)]
mod test_dir {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fresh, empty directory under the system temp dir, unique per
    /// call (process id plus a counter), so tests on parallel threads
    /// never open, fault or delete each other's WAL.
    pub(crate) fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sqlnf_{tag}_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
