//! Loading generated tables into a server over the wire.

use sqlnf_model::prelude::*;
use sqlnf_serve::Client;

/// Rows per multi-row `INSERT` when loading a table.
const ROWS_PER_INSERT: usize = 1000;

/// Statements per pipelined burst when loading.
const LOAD_BURST: usize = 8;

/// The DDL and the multi-row `INSERT`s that load `table` under `name`
/// with no declared constraints.
pub fn load_script(name: &str, table: &Table) -> Vec<String> {
    let schema = TableSchema::new(name, table.schema().column_names().to_vec(), &[]);
    std::iter::once(render_create_table(&schema, &Sigma::new()))
        .chain(
            table
                .rows()
                .chunks(ROWS_PER_INSERT)
                .map(|rows| render_insert(name, rows)),
        )
        .collect()
}

/// Sends `stmts` in pipelined bursts of `burst`; every one must be
/// admitted.
pub fn send_all(client: &mut Client, stmts: &[String], burst: usize) -> Result<(), String> {
    for chunk in stmts.chunks(burst.max(1)) {
        let replies = client.send_batch(chunk).map_err(|e| format!("load: {e}"))?;
        if let Some(r) = replies.iter().find(|r| !r.ok) {
            return Err(format!("load refused: {}", r.message));
        }
    }
    Ok(())
}

/// Loads a script produced by [`load_script`].
pub fn load(client: &mut Client, script: &[String]) -> Result<(), String> {
    send_all(client, script, LOAD_BURST)
}

/// Connects a client to a server child.
pub fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}
