//! Driving a live `tpq serve` process: boot, closed-loop clients, flight
//! record drains, shutdown.

use crate::inputs::ServeInputs;
use crate::sys::{Exit, Proc};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use tpq_base::Json;

/// One newline-framed protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connect with Nagle off (one write per request, no delayed-ACK
    /// stalls) and pay the first round trip, which includes the server's
    /// accept, with an unmeasured `PING`.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn { reader: BufReader::new(stream.try_clone()?), writer: stream };
        let pong = conn.call(b"PING\n")?;
        if !pong.contains("true") {
            return Err(std::io::Error::other(format!("unexpected PING reply: {pong}")));
        }
        Ok(conn)
    }

    /// Send one framed line (ending in `\n`) and read one reply line.
    pub fn call(&mut self, line: &[u8]) -> std::io::Result<String> {
        self.writer.write_all(line)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        Ok(reply)
    }

    /// Send a multi-line verb and read reply lines up to `# EOF`.
    fn call_multi(&mut self, line: &[u8]) -> std::io::Result<Vec<String>> {
        self.writer.write_all(line)?;
        let mut lines = Vec::new();
        loop {
            let mut reply = String::new();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::other("server closed mid-reply"));
            }
            if reply.trim_end() == "# EOF" {
                return Ok(lines);
            }
            lines.push(reply);
        }
    }
}

/// A running `tpq serve` child.
pub struct Server {
    proc: Proc,
    addr: SocketAddr,
    control: Conn,
    // Held open so the server's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start `tpq serve` at its defaults on an ephemeral loopback port and
    /// return it with its set-up time: spawn until the first `PING` reply.
    pub fn boot(tpq: &Path) -> Result<(Server, Duration), String> {
        let t0 = Instant::now();
        let mut proc = Proc::spawn(
            Command::new(tpq)
                .args(["serve", "--addr", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null()),
        )
        .map_err(|e| format!("cannot start tpq serve: {e}"))?;
        let mut stdout = BufReader::new(proc.stdout().expect("stdout is piped"));
        let addr = loop {
            let mut line = String::new();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("tpq serve exited before listening".into()),
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr.parse().map_err(|e| format!("bad listen address {addr}: {e}"))?;
            }
        };
        let control = Conn::open(addr).map_err(|e| format!("cannot reach tpq serve: {e}"))?;
        let setup = t0.elapsed();
        Ok((Server { proc, addr, control, _stdout: stdout }, setup))
    }

    /// A fresh client connection (already past its first round trip).
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr).map_err(|e| format!("cannot connect to tpq serve: {e}"))
    }

    /// Drain the flight recorder's newest `n` records.
    pub fn timeline(&mut self, n: usize) -> Result<Vec<Json>, String> {
        let lines = self
            .control
            .call_multi(format!("TIMELINE {n}\n").as_bytes())
            .map_err(|e| format!("TIMELINE failed: {e}"))?;
        lines
            .iter()
            .map(|l| Json::parse(l).map_err(|e| format!("bad flight record: {e}")))
            .collect()
    }

    /// Ask the server to drain and exit; return its exit and usage.
    pub fn shutdown(mut self) -> Result<Exit, String> {
        self.control.call(b"SHUTDOWN\n").map_err(|e| format!("SHUTDOWN failed: {e}"))?;
        drop(self.control);
        self.proc.wait().map_err(|e| format!("cannot reap tpq serve: {e}"))
    }
}

/// The request line (with its newline) for every pool entry.
pub fn request_lines(inputs: &ServeInputs) -> Vec<Vec<u8>> {
    inputs
        .pool
        .iter()
        .map(|q| {
            let mut line = Json::object(vec![
                ("query", Json::Str(q.clone())),
                ("constraints", Json::Str(inputs.constraints.clone())),
            ])
            .to_string_compact()
            .into_bytes();
            line.push(b'\n');
            line
        })
        .collect()
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Index of the request in the stream.
    pub index: usize,
    /// Client-side round trip.
    pub rtt: Duration,
    /// The raw response line.
    pub text: String,
}

/// Send requests `range` of the stream in a closed loop: each request
/// goes down its routed connection, and each connection sends its next
/// request only after the previous reply arrived. Returns the replies in
/// stream order, or the first I/O error.
pub fn drive(
    conns: &mut [Conn],
    lines: &[Vec<u8>],
    inputs: &ServeInputs,
    range: std::ops::Range<usize>,
) -> Result<Vec<Reply>, String> {
    let per_conn: Vec<Vec<usize>> = (0..conns.len())
        .map(|c| {
            range
                .clone()
                .filter(|&i| inputs.route[inputs.requests[i] as usize] as usize == c)
                .collect()
        })
        .collect();
    let results: Vec<std::io::Result<Vec<Reply>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&per_conn)
            .map(|(conn, mine)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(mine.len());
                    for &index in mine {
                        let line = &lines[inputs.requests[index] as usize];
                        let t = Instant::now();
                        let text = conn.call(line)?;
                        out.push(Reply { index, rtt: t.elapsed(), text });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut replies = Vec::with_capacity(range.len());
    for r in results {
        replies.extend(r.map_err(|e| format!("request failed: {e}"))?);
    }
    replies.sort_by_key(|r| r.index);
    Ok(replies)
}

/// The parts of a successful response the benchmark checks.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The minimized query text.
    pub minimized: String,
    /// Server-side time (`stats.micros`).
    pub server_us: f64,
    /// Whether the memo answered.
    pub cache_hit: bool,
}

/// Parse a response line; `None` for an error response or a malformed
/// line.
pub fn parse_answer(text: &str) -> Option<Answer> {
    let json = Json::parse(text).ok()?;
    let stats = json.get("stats")?;
    Some(Answer {
        minimized: json.get("minimized")?.as_str()?.to_owned(),
        server_us: stats.get("micros")?.as_f64()?,
        cache_hit: stats.get("cache_hit")?.as_bool()?,
    })
}
