//! # excess-server — a line-delimited query server over snapshot sessions
//!
//! A deliberately thin wire layer on top of `excess-db`'s session
//! machinery ([`excess_db::VersionedDb`] / [`excess_db::Session`]): one
//! TCP connection is one snapshot-isolated session, one request is one
//! line of EXCESS surface text, one response is one line of JSON.
//!
//! * Bare lines are read-only programs (`range of` declarations and
//!   `retrieve` statements) executed against the session's pinned
//!   generation.  Results are canonicalized (references rewritten to
//!   `(@obj, @val)` trees) before serialization, so responses carry no
//!   process-local OIDs.
//! * `.commit <program>` routes a write through the database's single
//!   committer thread and re-pins the session to the generation it
//!   published (read-your-writes).
//! * Dot-commands expose the observability surface: `.telemetry` (the
//!   session's one metrics registry and its flight recorder), `.memo`,
//!   `.generation`, `.refresh`, `.server`, `.close`.
//!
//! The protocol is line-delimited both ways; embedded `\n` escapes in a
//! request are expanded before parsing, so multi-line programs fit on
//! one wire line.  All JSON is hand-rolled via `excess_core::json` —
//! the workspace has no serialization dependency.
//!
//! ```no_run
//! use excess_db::{Database, VersionedDb};
//!
//! let mut db = Database::new();
//! db.execute("define type Dept: (dname: char, budget: int4)").unwrap();
//! db.execute("create DS : {Dept}").unwrap();
//! let handle = excess_server::serve(VersionedDb::new(db), "127.0.0.1:0").unwrap();
//! let mut client = excess_server::Client::connect(handle.addr()).unwrap();
//! let reply = client.request("retrieve (DS.dname)").unwrap();
//! assert!(reply.starts_with("{\"ok\":true"));
//! let vdb = handle.shutdown();
//! vdb.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::{respond, Response};
pub use server::{serve, ServerHandle};
