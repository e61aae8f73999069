//! The load generator's side of the wire: one NDJSON request per line
//! over loopback TCP, timed from the write to the parsed reply.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::util::Counts;
use crate::Outcome;

use tsvr_serve::{decode_response, encode_request, Envelope, Request, Response};

/// A reply that never arrives within this long counts as a failure.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One timed request.
pub struct Reply {
    /// The raw reply line, newline stripped.
    pub line: String,
    pub resp: Response,
    /// Write to parsed reply.
    pub rtt_ns: u64,
    /// Time spent parsing the reply (inside `rtt_ns`).
    pub parse_ns: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Sends one request and waits for its reply. Transport failures,
    /// timeouts and unparseable replies are errors; a typed error reply
    /// is returned as `Response::Error` for the caller to count.
    pub fn call(&mut self, req: Request) -> Result<(String, Reply), String> {
        let line = encode_request(&Envelope::new(req));
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(&line);
        framed.push('\n');
        let started = Instant::now();
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => return Err("connection closed by server".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        let read_at = Instant::now();
        let trimmed = buf.trim_end_matches(['\r', '\n']);
        let resp = decode_response(trimmed).map_err(|e| format!("bad reply: {e}"))?;
        let done = Instant::now();
        Ok((
            line,
            Reply {
                line: trimmed.to_string(),
                resp,
                rtt_ns: (done - started).as_nanos() as u64,
                parse_ns: (done - read_at).as_nanos() as u64,
            },
        ))
    }
}

/// Every request op the workloads send, in a fixed order for metric
/// naming.
pub const OPS: [&str; 5] = ["open", "page", "feedback", "close", "query"];

pub fn op_index(op: &str) -> usize {
    OPS.iter().position(|o| *o == op).expect("known op")
}

/// Client-observed samples of one workload run, per op.
#[derive(Default, Clone)]
pub struct RttLog {
    /// `(op index, rtt in ms)` for every successful request.
    pub rtt: Vec<(usize, f64)>,
    /// When each of those requests completed.
    pub done: Vec<Instant>,
    /// Per traced request: `(op index, rtt, client parse, server
    /// decode, handle, encode)`, all in nanoseconds.
    pub traced: Vec<(usize, [u64; 5])>,
}

impl RttLog {
    pub fn extend(&mut self, other: RttLog) {
        self.rtt.extend(other.rtt);
        self.done.extend(other.done);
        self.traced.extend(other.traced);
    }

    pub fn record(&mut self, op: usize, rtt_ns: u64) {
        self.rtt.push((op, rtt_ns as f64 / 1e6));
        self.done.push(Instant::now());
    }

    /// Completions per second over a phase that started at `start`.
    pub fn rate(&self, start: Instant, wall_s: f64) -> f64 {
        let done_s: Vec<f64> = self
            .done
            .iter()
            .map(|t| (*t - start).as_secs_f64())
            .collect();
        crate::util::windowed_rate(&done_s, wall_s)
    }

    pub fn all_ms(&self) -> Vec<f64> {
        self.rtt.iter().map(|r| r.1).collect()
    }

    pub fn op_ms(&self, op: &str) -> Vec<f64> {
        let i = op_index(op);
        self.rtt.iter().filter(|r| r.0 == i).map(|r| r.1).collect()
    }
}

/// What one client of a closed loop measured, plus a workload-specific
/// extra.
#[derive(Default)]
pub struct ClientLog<X> {
    pub log: RttLog,
    pub counts: Counts,
    pub out: Outcome,
    pub extra: X,
}

/// A closed-loop phase, merged over its clients.
pub struct Phase<X> {
    pub log: RttLog,
    pub counts: Counts,
    pub out: Outcome,
    pub wall_s: f64,
    /// Completions per second (see [`crate::util::windowed_rate`]).
    pub rate: f64,
    pub extras: Vec<X>,
}

impl<X> Phase<X> {
    /// Closed-loop wall time per completed request.
    pub fn wall_per_request(&self) -> f64 {
        self.wall_s / self.log.rtt.len().max(1) as f64
    }
}

/// Runs `client(t, started)` on `clients` threads — each sends its next
/// request only after the previous reply — and merges what they
/// measured.
pub fn closed_loop<X: Send>(
    clients: usize,
    client: impl Fn(usize, Instant) -> ClientLog<X> + Sync,
) -> Phase<X> {
    let started = Instant::now();
    let logs: Vec<ClientLog<X>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let client = &client;
                s.spawn(move || client(t, started))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut phase = Phase {
        log: RttLog::default(),
        counts: Counts::default(),
        out: Outcome::default(),
        wall_s,
        rate: 0.0,
        extras: Vec::new(),
    };
    for c in logs {
        phase.log.extend(c.log);
        phase.counts.add(c.counts);
        phase.out.absorb(c.out);
        phase.extras.push(c.extra);
    }
    phase.rate = phase.log.rate(started, wall_s);
    phase
}

/// Span names per op (spans need static names).
pub fn rtt_span(op: usize) -> &'static str {
    [
        "serve.rtt.open",
        "serve.rtt.page",
        "serve.rtt.feedback",
        "serve.rtt.close",
        "serve.rtt.query",
    ][op]
}

pub fn handle_span(op: usize) -> &'static str {
    [
        "serve.handle.open",
        "serve.handle.page",
        "serve.handle.feedback",
        "serve.handle.close",
        "serve.handle.query",
    ][op]
}

/// The serve-layer breakdown of traced requests. For every request the
/// twin measurements are subtracted from the client RTT; what remains
/// is transport: socket I/O, accept, queueing and locks inside the
/// server, none of which is visible from outside.
pub fn serve_layers(log: &RttLog, layers: &mut crate::util::Metrics) -> f64 {
    use crate::util::median;
    let us = |ns: u64| ns as f64 / 1e3;
    let decode: Vec<f64> = log.traced.iter().map(|(_, t)| us(t[1] + t[2])).collect();
    let encode: Vec<f64> = log.traced.iter().map(|(_, t)| us(t[4])).collect();
    layers.set("serve.decode_us", median(&decode), "us");
    layers.set("serve.encode_us", median(&encode), "us");
    let transport = |t: &[u64; 5]| t[0].saturating_sub(t[1] + t[2] + t[3] + t[4]);
    for (i, op) in OPS.iter().enumerate() {
        let of_op = log.traced.iter().filter(|(o, _)| *o == i);
        let handle: Vec<f64> = of_op.clone().map(|(_, t)| t[3] as f64 / 1e6).collect();
        let rest: Vec<f64> = of_op.map(|(_, t)| transport(t) as f64 / 1e6).collect();
        layers.set(&format!("serve.handle_ms.{op}"), median(&handle), "ms");
        layers.set(&format!("serve.transport_ms.{op}"), median(&rest), "ms");
    }
    let rtt: u64 = log.traced.iter().map(|(_, t)| t[0]).sum();
    let covered: u64 = log
        .traced
        .iter()
        .map(|(_, t)| t[1] + t[2] + t[3] + t[4] + transport(t))
        .sum();
    covered as f64 / rtt.max(1) as f64
}
