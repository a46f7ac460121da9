//! The load generator: one thread and one TCP connection per
//! [`ConnPlan`], each frame written with a single `write` on a
//! `TCP_NODELAY` socket, every reply checked against its golden.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sigserve::protocol::PhaseTimings;
use sigserve::{decode_response, encode_response, Response};

use crate::stats::Sample;
use crate::workload::{ConnPlan, Frame, Plan};

const CACHE_MISS: &str = "\"cache\":\"miss\"";
const CACHE_HIT: &str = "\"cache\":\"hit\"";

/// A client connection speaking newline-delimited frames.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// Bytes of `inbuf` already handed out as lines.
    consumed: usize,
    /// Bytes of `inbuf` past `consumed` known to hold no terminator.
    scanned: usize,
    chunk: Vec<u8>,
    out: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle's algorithm off, so a frame is never held back
    /// waiting for the previous one's ACK.
    ///
    /// # Errors
    ///
    /// Propagates connect and socket-option failures.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Reads wake at least this often to check their deadline.
        stream.set_read_timeout(Some(Duration::from_millis(200)))?;
        Ok(Self {
            stream,
            inbuf: Vec::with_capacity(1 << 17),
            consumed: 0,
            scanned: 0,
            chunk: vec![0; 1 << 16],
            out: Vec::with_capacity(1 << 12),
        })
    }

    /// Sends `{"id":<id><tail>` plus the terminator in one write.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(&mut self, id: u64, tail: &str) -> io::Result<()> {
        self.out.clear();
        write!(self.out, "{{\"id\":{id}")?;
        self.out.extend_from_slice(tail.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out)
    }

    /// Reads the next reply line (terminator stripped), failing with
    /// `TimedOut` at `deadline`.
    ///
    /// # Errors
    ///
    /// `TimedOut` at the deadline, `UnexpectedEof` when the daemon closes
    /// the connection, `InvalidData` for non-UTF-8 replies, or the socket
    /// error.
    pub fn recv(&mut self, deadline: Instant) -> io::Result<String> {
        loop {
            if let Some(pos) = self.inbuf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + pos;
                let line = std::str::from_utf8(&self.inbuf[self.consumed..end])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
                    .to_string();
                self.consumed = end + 1;
                self.scanned = self.consumed;
                return Ok(line);
            }
            self.scanned = self.inbuf.len();
            if self.consumed > 0 {
                self.inbuf.drain(..self.consumed);
                self.scanned -= self.consumed;
                self.consumed = 0;
            }
            if Instant::now() >= deadline {
                return Err(io::ErrorKind::TimedOut.into());
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&self.chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Checks one reply against its golden (the reference reply after the id
/// digits, cache echo normalized to `hit`). A traced reply is decoded, its
/// `timings` removed and returned, and the rest re-encoded and compared.
///
/// # Errors
///
/// Describes the mismatch, error frame or undecodable reply.
pub fn check(
    reply: &str,
    id: u64,
    golden: &str,
    traced: bool,
) -> Result<Option<PhaseTimings>, String> {
    if traced {
        let mut response = decode_response(reply).map_err(|e| format!("undecodable reply: {e}"))?;
        let timings = strip_timings(&mut response);
        check(&encode_response(&response), id, golden, false)?;
        return Ok(timings);
    }
    let body = reply
        .strip_prefix("{\"id\":")
        .ok_or_else(|| describe(reply))?;
    let digits = body
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(body.len());
    if body[..digits].parse::<u64>() != Ok(id) {
        return Err(format!("reply for another id (want {id}): {}", clip(reply)));
    }
    let body = &body[digits..];
    if body == golden
        || (body.contains(CACHE_MISS) && body.replace(CACHE_MISS, CACHE_HIT) == golden)
    {
        Ok(None)
    } else {
        Err(describe(reply))
    }
}

fn describe(reply: &str) -> String {
    if reply.contains("\"ok\":false") {
        format!("error reply: {}", clip(reply))
    } else {
        format!("golden mismatch: {}", clip(reply))
    }
}

fn clip(s: &str) -> &str {
    let mut end = s.len().min(240);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Removes the per-request phase breakdown from a reply, returning it.
pub fn strip_timings(response: &mut Response) -> Option<PhaseTimings> {
    match response {
        Response::Sim { result, .. } | Response::Session { result, .. } => result.timings.take(),
        _ => None,
    }
}

/// One traced frame: the client's round trip plus the daemon's phases.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Client round trip in ms.
    pub rtt_ms: f64,
    /// The daemon's phase breakdown.
    pub phases: PhaseTimings,
}

/// Measurement settings of one generator run.
#[derive(Debug, Clone, Copy)]
pub struct DriveOpts {
    /// Traffic before the measured window (caches fill, not recorded).
    pub warmup: Duration,
    /// Length of the measured window.
    pub measure: Duration,
    /// Replies carry `timings` (traced run).
    pub traced: bool,
    /// Longest wait for one reply before it counts as failed.
    pub timeout: Duration,
}

/// What a generator run observed.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Frames sent and answered inside the window.
    pub samples: Vec<Sample>,
    /// Traced run: one entry per in-window frame.
    pub timings: Vec<Traced>,
    /// Frames sent (warm-up, window and drain alike).
    pub attempted: u64,
    /// Frames that failed: error frames, rejects, timeouts, mismatches.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one failed frame.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Adds another tally's counts and samples.
    pub fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.timings.extend(other.timings);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Sends one frame and checks its reply, untimed (set-up, session opens,
/// compare requests).
///
/// # Errors
///
/// Describes the socket failure, timeout or failed check.
pub fn exchange(
    conn: &mut Conn,
    id: u64,
    frame: &Frame,
    goldens: &[String],
    timeout: Duration,
    traced: bool,
) -> Result<String, String> {
    conn.send(id, &frame.tail)
        .map_err(|e| format!("send: {e}"))?;
    let reply = conn
        .recv(Instant::now() + timeout)
        .map_err(|e| format!("recv: {e}"))?;
    check(&reply, id, &goldens[frame.expect], traced)?;
    Ok(reply)
}

/// Runs the plan's traffic against `addr` on one thread per connection:
/// warm-up, then the measured window, then a drain of frames still in
/// flight (checked, not timed).
#[must_use]
pub fn drive(addr: &str, plan: &Plan, goldens: &[String], opts: &DriveOpts) -> Tally {
    let begin = Instant::now();
    let start = begin + opts.warmup;
    let end = start + opts.measure;
    let window = crate::workload::WINDOW;
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let threads: Vec<_> = plan
            .conns
            .iter()
            .map(|conn| {
                scope.spawn(move || run_conn(addr, conn, goldens, window, opts, start, end))
            })
            .collect();
        for t in threads {
            total.merge(t.join().expect("generator thread panicked"));
        }
    });
    total
}

fn run_conn(
    addr: &str,
    plan: &ConnPlan,
    goldens: &[String],
    window: usize,
    opts: &DriveOpts,
    start: Instant,
    end: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(format!("connect: {e}"));
            return tally;
        }
    };
    let mut next_id = 1u64;
    for open in &plan.opens {
        tally.attempted += 1;
        let opened = exchange(&mut conn, next_id, open, goldens, opts.timeout, opts.traced);
        next_id += 1;
        if let Err(e) = opened {
            tally.fail(format!("session.open: {e}"));
            return tally;
        }
    }
    let n = plan.frames.len();
    let mut inflight: VecDeque<(u64, usize, Instant)> = VecDeque::with_capacity(window);
    let mut k = 0usize;
    loop {
        while inflight.len() < window && Instant::now() < end {
            let now = Instant::now();
            tally.attempted += 1;
            if let Err(e) = conn.send(next_id, &plan.frames[k % n].tail) {
                tally.fail(format!("send: {e}"));
                return tally;
            }
            inflight.push_back((next_id, k % n, now));
            next_id += 1;
            k += 1;
        }
        let Some((id, idx, sent)) = inflight.pop_front() else {
            break;
        };
        let frame = &plan.frames[idx];
        let reply = match conn.recv(Instant::now() + opts.timeout) {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("recv: {e}"));
                for _ in &inflight {
                    tally.fail("abandoned after a failed read".to_string());
                }
                return tally;
            }
        };
        let done = Instant::now();
        match check(&reply, id, &goldens[frame.expect], opts.traced) {
            Ok(timings) if sent >= start && done <= end => {
                let rtt_ms = (done - sent).as_secs_f64() * 1e3;
                tally.samples.push(Sample {
                    done_s: (done - start).as_secs_f64(),
                    latency_ms: rtt_ms,
                    sims: frame.sims,
                });
                if let Some(phases) = timings {
                    tally.timings.push(Traced { rtt_ms, phases });
                }
            }
            Ok(_) => {}
            Err(e) => tally.fail(e),
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{goldens, Workload, MODELS};
    use sigserve::{serve_tcp, Service, ServiceConfig};
    use std::net::TcpListener;
    use std::sync::Arc;

    /// A daemon served from this process on a free port, with the `ci`
    /// models trained under the test binary's target directory.
    fn in_process_daemon() -> (String, Arc<Service>, std::thread::JoinHandle<()>) {
        let exe = std::env::current_exe().expect("test binary path");
        let models = exe
            .parent()
            .expect("deps dir")
            .join("servebench-test-models");
        let service = Service::new(ServiceConfig {
            workers: 2,
            models_dir: models,
            ..ServiceConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let serving = Arc::clone(&service);
        let server = std::thread::spawn(move || serve_tcp(&serving, listener).expect("serve"));
        (addr, service, server)
    }

    fn shutdown(addr: &str, server: std::thread::JoinHandle<()>) {
        let mut conn = Conn::connect(addr).expect("connect");
        conn.send(1, ",\"op\":\"shutdown\"}").expect("send");
        conn.recv(Instant::now() + Duration::from_secs(30))
            .expect("ack");
        server.join().expect("server thread");
    }

    #[test]
    fn live_daemon_passes_the_gate_and_a_planted_wrong_golden_fails_it() {
        let (addr, service, server) = in_process_daemon();
        let set = service
            .registry()
            .get_or_load(MODELS, "nor-only")
            .expect("ci models");
        let plan = Plan::new(Workload::SmallInline, 11, false);
        let good = goldens(&plan.expects, &set, 2).expect("goldens");
        let opts = DriveOpts {
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(500),
            traced: false,
            timeout: Duration::from_secs(30),
        };

        // A warm c17 round trip, one frame in flight: far below the 40 ms
        // a Nagle / delayed-ACK stall would cost.
        let mut conn = Conn::connect(&addr).expect("connect");
        let frame = &plan.conns[0].frames[0];
        let mut rtts: Vec<f64> = (1..=50)
            .map(|id| {
                let t0 = Instant::now();
                exchange(&mut conn, id, frame, &good, opts.timeout, false).expect("correct reply");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        rtts.sort_by(f64::total_cmp);
        assert!(rtts[25] < 10.0, "warm c17 round trip p50 {} ms", rtts[25]);

        let ok = drive(&addr, &plan, &good, &opts);
        assert_eq!(ok.failed, 0, "{:?}", ok.first_failure);
        assert!(!ok.samples.is_empty());

        let mut planted = good.clone();
        let wrong = &mut planted[plan.conns[0].frames[0].expect];
        *wrong = wrong.replacen("\"toggles\":[0.", "\"toggles\":[1.", 1);
        assert_ne!(
            *wrong, good[plan.conns[0].frames[0].expect],
            "golden was changed"
        );
        let bad = drive(&addr, &plan, &planted, &opts);
        assert!(bad.failed > 0, "a wrong golden must fail the run");
        assert!(bad
            .first_failure
            .unwrap_or_default()
            .contains("golden mismatch"));
        shutdown(&addr, server);
    }

    #[test]
    fn check_normalizes_only_the_cache_echo() {
        let golden = ",\"ok\":true,\"reply\":\"sim\",\"result\":{\"cache\":\"hit\",\"x\":1}}";
        let hit = format!("{{\"id\":12{golden}");
        assert_eq!(check(&hit, 12, golden, false), Ok(None));
        let miss = hit.replace(CACHE_HIT, CACHE_MISS);
        assert_eq!(check(&miss, 12, golden, false), Ok(None));
        assert!(check(&hit, 13, golden, false)
            .unwrap_err()
            .contains("another id"));
        let wrong = hit.replace("\"x\":1", "\"x\":2");
        assert!(check(&wrong, 12, golden, false)
            .unwrap_err()
            .contains("mismatch"));
        let error =
            "{\"id\":12,\"ok\":false,\"error\":{\"kind\":\"overloaded\",\"message\":\"full\"}}";
        assert!(check(error, 12, golden, false)
            .unwrap_err()
            .contains("error reply"));
    }
}
