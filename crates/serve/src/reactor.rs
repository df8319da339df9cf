//! The epoll event loop behind `tpq serve` (Linux-only).
//!
//! One thread owns every socket. An edge-triggered
//! [`Epoll`] instance multiplexes the listener, an
//! [`EventFd`] wakeup, and one nonblocking stream
//! per connection. An admitted request whose line is at most 4 KiB is
//! *prepared* here: its line is parsed, its engine found by the
//! constraint-text probe, and its query text probed against the engine's
//! query-text front, all without the process-wide interner. A front hit
//! is answered at once. On a front miss, a request that finds the
//! interner free has its query parsed, keyed and probed against the
//! memo, and a memo hit (or a typed error) is answered on this thread
//! too. Neither minimization nor a constraint parse or closure
//! ever runs here: memo misses, constraint texts the engine table does
//! not know, longer lines and lines that meet a busy interner go to the
//! shared [`TaskPool`](tpq_base::TaskPool) with
//! [`spawn`](tpq_base::TaskPool::spawn), and finished responses re-enter
//! the loop through a completion queue plus an eventfd signal, so pool
//! workers never touch a socket.
//!
//! ```text
//!                         ┌───────────────────────────┐
//!   clients ──connect──▶  │       epoll_wait          │ ◀── eventfd ──┐
//!              accept     │  (listener, conns, wake)  │               │
//!                         └─────┬──────────────┬──────┘               │
//!                    readable   │              │ writable             │
//!                         ┌─────▼─────┐  ┌─────▼─────┐        ┌───────┴──────┐
//!                         │ per-conn  │  │ write     │        │ completion   │
//!                         │ line FSM  │  │ queues    │        │ queue (Mutex)│
//!                         └─────┬─────┘  └───────────┘        └───────▲──────┘
//!   verbs, front and memo hits, │ memo misses, new schema texts,      │
//!     early errors answered here│ long lines, a busy interner         │
//!                         ┌─────▼─────────────────────────────────────┴──┐
//!                         │        TaskPool (minimization workers)       │
//!                         └──────────────────────────────────────────────┘
//! ```
//!
//! Per-connection state machine properties:
//!
//! * **Pipelining** — every responding line gets a sequence number at
//!   parse time; completions land in a per-connection `BTreeMap` and are
//!   promoted to the write queue strictly in sequence, so responses come
//!   back in request order even when pool workers finish out of order.
//!   Blank lines answer nothing and therefore take no sequence number.
//! * **Backpressure** — a connection whose write queue crosses
//!   the high-water mark stops having its input processed (and read) until
//!   the queue drains below the low-water mark; the stall is counted
//!   (`serve.backpressure.stalls`) and never blocks other connections.
//! * **Bounded accept** — the `max_conns` gate and the `queue_depth`
//!   admission check (with its `retry_after_ms` sheds) live in
//!   [`crate::server`].
//! * **Drain** — shutdown (verb, handle, or signal) stops the accept
//!   path, answers every buffered complete line with a typed
//!   `overloaded` drain error, flushes outstanding completions bounded
//!   by `drain_ms`, and only then joins the pool.
//!
//! Observability: `serve.epoll.wakeups` counts loop iterations,
//! `serve.epoll.ready` is a value histogram of ready events per wakeup,
//! `serve.backpressure.stalls` counts high-water pauses, and
//! `serve.accept.errors` counts failed accepts (retried every tick); see
//! `docs/OBSERVABILITY.md`.

use crate::proto::ProtoError;
use crate::server::{
    admission_check, dispatch_verb, drain_shed_error, finalize, maybe_dump_flight, record_flight,
    refuse_connection, start_request, Dispatch, FlightDraft, Flow, ServeSummary, ServerState,
};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tpq_base::fd::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use tpq_base::Json;

/// Idle `epoll_wait` timeout: how often the loop re-checks the shutdown
/// flag with no I/O happening.
const POLL_MS: i32 = 25;
/// Event token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Event token of the completion-queue eventfd.
const TOKEN_WAKEUP: u64 = 1;
/// Connection slot `s` registers with token `TOKEN_BASE + s`.
const TOKEN_BASE: u64 = 2;
/// Write-queue high-water mark: a connection holding this many unsent
/// bytes is paused (stops being read) until it drains.
const HIGH_WATER: usize = 256 * 1024;
/// Write-queue low-water mark: a paused connection resumes below this.
const LOW_WATER: usize = 64 * 1024;
/// Ready-event buffer handed to each `epoll_wait`.
const EVENTS_PER_WAIT: usize = 1024;

/// A finished response traveling from a pool worker back to the reactor.
struct Completion {
    slot: usize,
    /// Slot generation at submit time; a mismatch at delivery means the
    /// connection died and the slot was reused — the response is dropped.
    gen: u64,
    /// Position in the connection's response order.
    seq: u64,
    bytes: Vec<u8>,
    /// Flight-record draft finalized at delivery time, when the response
    /// size and the connection's backpressure state are both known.
    draft: FlightDraft,
}

/// The worker-facing half of the reactor: a locked completion queue and
/// the eventfd that wakes `epoll_wait` when something lands in it.
struct Shared {
    completions: Mutex<Vec<Completion>>,
    wake: EventFd,
}

impl Shared {
    /// Deliver one completed response and wake the loop.
    fn push(&self, completion: Completion) {
        self.completions.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).push(completion);
        self.wake.signal();
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    started: Instant,
    /// Bytes read but not yet framed into lines.
    read_buf: Vec<u8>,
    /// Rendered responses awaiting the socket, in final order.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written to the socket.
    written: usize,
    /// Next sequence number to assign to a responding line.
    next_seq: u64,
    /// Sequence number the write queue is waiting on.
    next_write: u64,
    /// Out-of-order completions parked until their turn.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Requests handed to the pool and not yet completed.
    outstanding: usize,
    /// An edge-triggered read readiness we deferred (paused, or batch
    /// limit) and must act on before waiting for another edge.
    read_ready: bool,
    /// Write queue over high water: input processing is suspended.
    paused: bool,
    /// Peer closed its write half; close once everything is answered.
    saw_eof: bool,
    /// Close as soon as outstanding work and the write queue drain.
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            started: Instant::now(),
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            next_seq: 0,
            next_write: 0,
            pending: BTreeMap::new(),
            outstanding: 0,
            read_ready: false,
            paused: false,
            saw_eof: false,
            close_after_flush: false,
        }
    }

    /// Claim the next position in the response order.
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Park a completed response, then promote everything now in order
    /// onto the write queue.
    fn enqueue(&mut self, seq: u64, bytes: Vec<u8>) {
        self.pending.insert(seq, bytes);
        while let Some(bytes) = self.pending.remove(&self.next_write) {
            self.write_buf.extend_from_slice(&bytes);
            self.next_write += 1;
        }
    }

    /// Unsent bytes currently queued.
    fn queued_bytes(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// Write queued bytes until done or the socket would block. A fatal
    /// socket error comes back as `Err` and closes the connection.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
        } else if self.written > LOW_WATER {
            // Reclaim the flushed prefix so a long-lived slow reader
            // does not pin an ever-growing buffer.
            self.write_buf.drain(..self.written);
            self.written = 0;
        }
        Ok(())
    }
}

/// One JSON response framed for the wire: compact JSON plus a newline.
fn response_line(json: &Json) -> Vec<u8> {
    let mut bytes = json.to_string_compact().into_bytes();
    bytes.push(b'\n');
    bytes
}

/// The event loop proper: slot table, epoll instance, shared state.
struct Reactor {
    epoll: Epoll,
    shared: Arc<Shared>,
    state: Arc<ServerState>,
    slots: Vec<Option<Conn>>,
    /// Generation per slot, bumped on close so stale completions (and
    /// stale ready events) for a reused slot are recognized and dropped.
    gens: Vec<u64>,
    free: Vec<usize>,
    /// The last accept failed (say `EMFILE`) with connections possibly
    /// still queued; the edge-triggered listener will not report them
    /// again, so every loop tick retries.
    accept_stalled: bool,
}

/// Serve on `listener` until shutdown, then drain and summarize. Called
/// by [`crate::server::Server::run`]; the protocol semantics (verbs,
/// admission, tracing, counters) live in [`crate::server`].
pub(crate) fn run(listener: TcpListener, state: Arc<ServerState>) -> std::io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let wake = EventFd::new()?;
    epoll.add(listener.as_raw_fd(), EPOLLIN | EPOLLET, TOKEN_LISTENER)?;
    epoll.add(wake.raw(), EPOLLIN | EPOLLET, TOKEN_WAKEUP)?;
    let mut reactor = Reactor {
        epoll,
        shared: Arc::new(Shared { completions: Mutex::new(Vec::new()), wake }),
        state,
        slots: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        accept_stalled: false,
    };
    let mut events = vec![EpollEvent::default(); EVENTS_PER_WAIT];
    while !reactor.state.shutdown_requested() {
        if reactor.state.config.handle_signals && crate::signal::take_usr1() {
            maybe_dump_flight(&reactor.state, "SIGUSR1");
        }
        let n = reactor.epoll.wait(&mut events, POLL_MS)?;
        tpq_obs::incr("serve.epoll.wakeups", 1);
        if n > 0 {
            tpq_obs::record_value("serve.epoll.ready", n as u64);
        }
        let mut listener_ready = false;
        for event in &events[..n] {
            match event.token() {
                TOKEN_LISTENER => listener_ready = true,
                TOKEN_WAKEUP => reactor.deliver_completions(),
                token => reactor.conn_event((token - TOKEN_BASE) as usize, event.events()),
            }
        }
        // Accept after this tick's closes, which may have freed the
        // descriptors a stalled accept was waiting for.
        if listener_ready || reactor.accept_stalled {
            reactor.accept_ready(&listener);
        }
    }
    drop(listener); // refuse new connections from here on
    reactor.drain();
    Ok(finalize(&reactor.state))
}

impl Reactor {
    /// Accept until the listener would block (edge-triggered contract),
    /// refusing connections over the `max_conns` gate. Freshly accepted
    /// sockets are blocking (Linux does not inherit `O_NONBLOCK`), which
    /// is exactly what [`refuse_connection`]'s timed write needs. Any
    /// other accept error (`EMFILE`, `ENFILE`, `ENOBUFS`, …) leaves the
    /// backlog queued without a new edge, so it is counted in
    /// `serve.accept.errors` and the accept is retried on the next tick.
    fn accept_ready(&mut self, listener: &TcpListener) {
        self.accept_stalled = false;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.state.active.load(Ordering::Acquire) >= self.state.config.max_conns {
                        refuse_connection(&self.state, stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.state.active.fetch_add(1, Ordering::AcqRel);
                    self.state.accepted.fetch_add(1, Ordering::Relaxed);
                    tpq_obs::incr("serve.conn.accepted", 1);
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.slots.push(None);
                        self.gens.push(0);
                        self.slots.len() - 1
                    });
                    let fd = stream.as_raw_fd();
                    self.slots[slot] = Some(Conn::new(stream));
                    // ADD counts as an edge, so data that arrived before
                    // registration is reported by the next wait.
                    let registered = self.epoll.add(
                        fd,
                        EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                        TOKEN_BASE + slot as u64,
                    );
                    if registered.is_err() {
                        self.close_conn(slot);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    tpq_obs::incr("serve.accept.errors", 1);
                    self.accept_stalled = true;
                    break;
                }
            }
        }
    }

    /// Drain the eventfd and route every queued completion to its
    /// connection (unless the connection died first).
    fn deliver_completions(&mut self) {
        self.shared.wake.drain();
        let completions = std::mem::take(
            &mut *self.shared.completions.lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        for completion in completions {
            if self.gens.get(completion.slot).copied() != Some(completion.gen) {
                // Connection closed; slot possibly reused. The request
                // still ran, so it still belongs in the flight recorder.
                record_flight(&self.state, completion.draft, completion.bytes.len() as u64, false);
                continue;
            }
            let Some(conn) = self.slots[completion.slot].as_mut() else {
                continue;
            };
            conn.outstanding -= 1;
            record_flight(
                &self.state,
                completion.draft,
                completion.bytes.len() as u64,
                conn.paused,
            );
            conn.enqueue(completion.seq, completion.bytes);
            self.pump(completion.slot);
        }
    }

    /// React to readiness on one connection.
    fn conn_event(&mut self, slot: usize, mask: u32) {
        if self.slots.get(slot).is_none_or(|c| c.is_none()) {
            return; // stale event for a closed slot
        }
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(slot);
            return;
        }
        if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
            let conn = self.slots[slot].as_mut().expect("checked above");
            if conn.paused {
                conn.read_ready = true; // act on the edge once resumed
            } else if self.read_conn(slot).is_err() {
                self.close_conn(slot);
                return;
            }
        }
        self.pump(slot);
    }

    /// Read until the socket would block, EOF, or the per-pass batch cap
    /// (the edge is remembered in `read_ready` when the cap stops us, so
    /// edge-triggered readiness is never lost).
    fn read_conn(&mut self, slot: usize) -> Result<(), ()> {
        let batch_cap = self.state.config.max_line_bytes.max(64 * 1024);
        let Some(conn) = self.slots[slot].as_mut() else {
            return Ok(());
        };
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if conn.read_buf.len() > batch_cap {
                conn.read_ready = true;
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.saw_eof = true;
                    break;
                }
                Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }

    /// The per-connection engine: process buffered lines, flush, resume
    /// from backpressure, re-read deferred edges — until nothing moves —
    /// then close if the connection is finished.
    fn pump(&mut self, slot: usize) {
        loop {
            self.process_lines(slot);
            let Some(conn) = self.slots[slot].as_mut() else {
                return;
            };
            if conn.flush().is_err() {
                self.close_conn(slot);
                return;
            }
            let conn = self.slots[slot].as_mut().expect("flush keeps the slot");
            if conn.paused && conn.queued_bytes() <= LOW_WATER {
                conn.paused = false;
                continue; // paused-over lines may now process
            }
            if !conn.paused && conn.read_ready && !conn.close_after_flush && !conn.saw_eof {
                conn.read_ready = false;
                if self.read_conn(slot).is_err() {
                    self.close_conn(slot);
                    return;
                }
                continue;
            }
            break;
        }
        let Some(conn) = self.slots[slot].as_mut() else {
            return;
        };
        if conn.saw_eof && !conn.paused {
            // All complete lines are processed (the loop above ran to a
            // standstill); whatever remains was never a finished request.
            conn.close_after_flush = true;
        }
        self.maybe_close(slot);
    }

    /// Frame and dispatch every complete line in the read buffer,
    /// stopping at backpressure, close, or shutdown.
    fn process_lines(&mut self, slot: usize) {
        let state = Arc::clone(&self.state);
        let shared = Arc::clone(&self.shared);
        let gen = self.gens[slot];
        let Some(conn) = self.slots[slot].as_mut() else {
            return;
        };
        loop {
            if conn.paused || conn.close_after_flush {
                return;
            }
            if conn.queued_bytes() >= HIGH_WATER {
                conn.paused = true;
                tpq_obs::incr("serve.backpressure.stalls", 1);
                return;
            }
            let Some(newline) = conn.read_buf.iter().position(|&b| b == b'\n') else {
                break;
            };
            let line: Vec<u8> = conn.read_buf.drain(..=newline).collect();
            let Ok(text) = std::str::from_utf8(&line[..line.len() - 1]) else {
                let e = ProtoError::bad_request("request line is not valid UTF-8");
                let seq = conn.take_seq();
                conn.enqueue(seq, response_line(&e.to_json()));
                conn.close_after_flush = true;
                return;
            };
            let text = text.trim();
            match dispatch_verb(&state, text) {
                Some(Flow::Skip) => {} // blank line: no response, no seq
                Some(Flow::Respond(json)) => {
                    let seq = conn.take_seq();
                    conn.enqueue(seq, response_line(&json));
                }
                Some(Flow::Raw(raw)) => {
                    let seq = conn.take_seq();
                    conn.enqueue(seq, raw.into_bytes());
                }
                Some(Flow::Shutdown(json)) => {
                    let seq = conn.take_seq();
                    conn.enqueue(seq, response_line(&json));
                    state.shutdown.store(true, Ordering::Release);
                    // The post-line shutdown check below flushes the
                    // rest of the buffer with typed drain errors.
                }
                None => {
                    let t0 = Instant::now();
                    let n_prev = state.inflight.fetch_add(1, Ordering::AcqRel);
                    if let Some(shed) = admission_check(&state, n_prev) {
                        state.inflight.fetch_sub(1, Ordering::AcqRel);
                        state.requests_failed.fetch_add(1, Ordering::Relaxed);
                        tpq_obs::incr("serve.request.error", 1);
                        let bytes = response_line(&shed.to_json());
                        record_flight(
                            &state,
                            FlightDraft::shed(text.len(), &shed, t0),
                            bytes.len() as u64,
                            false,
                        );
                        let seq = conn.take_seq();
                        conn.enqueue(seq, bytes);
                    } else {
                        let seq = conn.take_seq();
                        match start_request(&state, text, t0) {
                            Dispatch::Answered(json, draft) => {
                                state.inflight.fetch_sub(1, Ordering::AcqRel);
                                let bytes = response_line(&json);
                                record_flight(&state, draft, bytes.len() as u64, conn.paused);
                                conn.enqueue(seq, bytes);
                            }
                            Dispatch::Pool(job) => {
                                let worker_state = Arc::clone(&state);
                                let worker_shared = Arc::clone(&shared);
                                let spawned = state.pool.spawn(move || {
                                    let (json, draft) = job.run(&worker_state);
                                    worker_state.inflight.fetch_sub(1, Ordering::AcqRel);
                                    worker_shared.push(Completion {
                                        slot,
                                        gen,
                                        seq,
                                        bytes: response_line(&json),
                                        draft,
                                    });
                                });
                                match spawned {
                                    Ok(()) => conn.outstanding += 1,
                                    Err(e) => {
                                        // Pool gone (shutdown race): answer here.
                                        state.inflight.fetch_sub(1, Ordering::AcqRel);
                                        state.requests_failed.fetch_add(1, Ordering::Relaxed);
                                        tpq_obs::incr("serve.request.error", 1);
                                        let proto = ProtoError::from_error(&e);
                                        let bytes = response_line(&proto.to_json());
                                        record_flight(
                                            &state,
                                            FlightDraft::shed(text.len(), &proto, t0),
                                            bytes.len() as u64,
                                            false,
                                        );
                                        conn.enqueue(seq, bytes);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if state.shutdown_requested() {
                flush_buffered_as_drain(&state, conn);
                conn.close_after_flush = true;
                return;
            }
        }
        // Refuse to buffer a line past the cap — framing is gone, close.
        if conn.read_buf.len() > state.config.max_line_bytes {
            state.requests_failed.fetch_add(1, Ordering::Relaxed);
            tpq_obs::incr("serve.request.error", 1);
            let e = ProtoError::bad_request(format!(
                "request line exceeds {} bytes",
                state.config.max_line_bytes
            ));
            let seq = conn.take_seq();
            conn.enqueue(seq, response_line(&e.to_json()));
            conn.read_buf.clear();
            conn.close_after_flush = true;
        }
    }

    /// Close the connection once it has nothing left to say: no pool
    /// work outstanding, no parked completions, write queue flushed.
    fn maybe_close(&mut self, slot: usize) {
        let Some(conn) = self.slots[slot].as_ref() else {
            return;
        };
        if conn.close_after_flush
            && conn.outstanding == 0
            && conn.pending.is_empty()
            && conn.queued_bytes() == 0
        {
            self.close_conn(slot);
        }
    }

    /// Tear down one connection: record its lifetime, free the slot,
    /// bump the generation so in-flight completions are dropped.
    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.slots[slot].take() else {
            return;
        };
        tpq_obs::record_duration("serve.conn", conn.started.elapsed());
        self.state.active.fetch_sub(1, Ordering::AcqRel);
        self.gens[slot] += 1;
        self.free.push(slot);
        // Dropping the stream closes the fd, which deregisters it.
    }

    /// Connections still open.
    fn open_conns(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_some()).count()
    }

    /// The drain phase: answer buffered lines with typed drain errors,
    /// keep the loop alive just long enough to flush outstanding
    /// completions and write queues (bounded by `drain_ms`), then force
    /// whatever is left.
    fn drain(&mut self) {
        let state = Arc::clone(&self.state);
        for slot in 0..self.slots.len() {
            if let Some(conn) = self.slots[slot].as_mut() {
                flush_buffered_as_drain(&state, conn);
                conn.close_after_flush = true;
                if conn.flush().is_err() {
                    self.close_conn(slot);
                    continue;
                }
                self.maybe_close(slot);
            }
        }
        let deadline = Instant::now() + Duration::from_millis(self.state.config.drain_ms);
        let mut events = vec![EpollEvent::default(); EVENTS_PER_WAIT];
        while self.open_conns() > 0 && Instant::now() < deadline {
            let n = match self.epoll.wait(&mut events, POLL_MS) {
                Ok(n) => n,
                Err(_) => break,
            };
            for event in &events[..n] {
                match event.token() {
                    TOKEN_LISTENER => {} // already closed
                    TOKEN_WAKEUP => self.deliver_completions(),
                    token => self.conn_event((token - TOKEN_BASE) as usize, event.events()),
                }
            }
        }
        for slot in 0..self.slots.len() {
            if self.slots[slot].is_some() {
                self.close_conn(slot); // drain deadline expired
            }
        }
    }
}

/// The drain flush: every complete line still buffered gets a typed
/// `overloaded` drain error (in order, via the normal sequence machinery)
/// instead of vanishing. A trailing partial line was never a request the
/// client finished sending, so it closes unanswered.
fn flush_buffered_as_drain(state: &ServerState, conn: &mut Conn) {
    while let Some(newline) = conn.read_buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = conn.read_buf.drain(..=newline).collect();
        let is_request = match std::str::from_utf8(&line[..line.len() - 1]) {
            Ok(text) => !text.trim().is_empty(),
            Err(_) => true, // garbage still deserves a response line
        };
        if !is_request {
            continue;
        }
        let e = drain_shed_error(state, line.len() - 1);
        let seq = conn.take_seq();
        conn.enqueue(seq, response_line(&e.to_json()));
    }
}
