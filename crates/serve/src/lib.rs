//! `tpq-serve` — a long-running tree-pattern-query minimization service.
//!
//! This crate turns the one-shot minimization pipeline of [`tpq_core`]
//! into a resident server: a TCP listener speaking a newline-delimited
//! JSON protocol (one request line in, one response line out; see
//! [`proto`]), multiplexing every connection onto a shared
//! [`TaskPool`](tpq_base::TaskPool) of minimization workers. The socket
//! side is a single-threaded epoll reactor ([`reactor`]) —
//! edge-triggered nonblocking I/O, request pipelining, bounded write
//! queues with backpressure. The reactor needs epoll, so serving is
//! Linux-only: elsewhere the crate builds, and [`Server::run`] fails with
//! `ErrorKind::Unsupported`.
//!
//! Because minimal tree pattern queries are unique up to isomorphism
//! (Theorem 5.1 of *Minimization of Tree Pattern Queries*), answers are
//! memoizable: the server routes all requests with the same constraint
//! set and strategy to one process-wide [`BatchMinimizer`] engine
//! ([`tpq_core::shared_engine_for_text`], keyed first by the constraint
//! text, so a repeated schema is not parsed again; a new one is parsed
//! and closed on a pool worker), and a hot query is
//! answered from the canonical-pattern cache on the reactor thread,
//! without re-running the chase or waiting for a pool worker.
//!
//! Robustness properties, each covered by an integration test:
//!
//! * a panic while parsing, minimizing or rendering one request answers
//!   *that* request with `{"error":{"kind":"panic",…}}` and affects
//!   nothing else;
//! * per-request deadlines and step budgets ([`tpq_base::Guard`]) trip as
//!   `kind: "budget"` errors, again per-request;
//! * oversized or malformed lines are answered with `bad-request`;
//! * shutdown (SIGTERM / ctrl-c / the `SHUTDOWN` verb /
//!   [`ServeHandle::shutdown`]) stops accepting, drains in-flight
//!   requests — flushing every already-buffered line with a typed
//!   `overloaded` error rather than dropping it — and joins the pool;
//! * a bounded admission queue sheds excess *requests* (typed
//!   `overloaded` errors carrying a `retry_after_ms` hint) before they
//!   consume pool slots, distinct from the accept-time connection gate;
//! * the cache layers can be snapshotted on drain and restored at the
//!   next boot ([`snapshot`]), so a restarted server answers its hot
//!   queries from the memo immediately instead of re-minimizing;
//! * [`client`] implements the matching retry discipline: exponential
//!   backoff with deterministic jitter, honoring the server's
//!   `retry_after_ms` hints, retrying only `overloaded` / `injected`
//!   failures under a propagated deadline.
//!
//! # Example
//!
//! Start a server on an ephemeral port and round-trip one request:
//!
//! ```
//! use std::io::{BufRead, BufReader, Write};
//! use tpq_serve::{ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServeConfig::default()
//! }).unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = server.handle();
//! let thread = std::thread::spawn(move || server.run().unwrap());
//!
//! let mut conn = std::net::TcpStream::connect(addr).unwrap();
//! writeln!(conn, r#"{{"query": "Book*[/Title][/Publisher]", "constraints": "Book -> Publisher"}}"#)
//!     .unwrap();
//! let mut line = String::new();
//! BufReader::new(conn.try_clone().unwrap()).read_line(&mut line).unwrap();
//! assert!(line.contains("\"minimized\""));
//!
//! handle.shutdown();
//! let summary = thread.join().unwrap();
//! assert_eq!(summary.requests_ok, 1);
//! ```
//!
//! [`BatchMinimizer`]: tpq_core::BatchMinimizer

#![warn(missing_docs)]
// Off Linux there is no reactor to call the request path.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

pub mod client;
pub mod proto;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
pub mod signal;
pub mod snapshot;
pub mod top;

pub use client::{Client, ClientError, QueryOutcome, RetryPolicy};
pub use proto::{ProtoError, Request, Syntax, DEFAULT_MAX_LINE_BYTES};
pub use server::{global_types, RestoreStatus, ServeConfig, ServeHandle, ServeSummary, Server};
pub use snapshot::{restore_snapshot, write_snapshot, RestoreError, SnapshotStats};
pub use top::TopConfig;
