//! Drives a `dvfs serve` process from outside: spawns it, sends the
//! workload's seeded request stream in a closed and an open loop, checks
//! every reply, and reads the daemon's own counters back.
//!
//! Load comes from this one process: two connections, one thread each.
//! The closed loop keeps a burst of [`DEPTH`] requests in flight per
//! connection. The open loop sends on a fixed schedule at the
//! workload's rate and times every request from the instant it was
//! due, so a stall is charged to every request queued behind it.

use crate::stats::{KeyDist, KeyStream};
use crate::wire::{self, Check, Frames, Reference};
use dvfs_core::serve::framing::{write_frames_vectored, FrameReader, DEFAULT_MAX_FRAME};
use dvfs_core::serve::protocol::fast;
use dvfs_core::serve::{Client, Request, Response};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Connections, each driven by its own thread.
pub const CONNECTIONS: usize = 2;
/// Requests each closed-loop connection keeps in flight.
pub const DEPTH: usize = 8;
/// The cache capacity every serve workload pins (today's default): it
/// defines the hit ratios the workloads are built around.
pub const CACHE_CAPACITY: usize = 4096;
/// A reply slower than this counts as a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// How a workload checks reply bodies.
#[derive(Debug, Clone, Copy)]
pub enum CheckKind {
    Exact,
    Sample(u64),
}

/// One serve workload: the traffic mix and how it is checked.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub keys: usize,
    pub zipf: f64,
    pub select_every: u64,
    /// Aggregate open-loop arrival rate, requests per second.
    pub open_rate: f64,
    /// Requests of the untimed closed-loop warm-up. A count, not a time,
    /// so every run starts its measured phases from the same cache fill.
    pub warmup: u64,
    pub check: CheckKind,
}

pub const HOT: ServeSpec = ServeSpec {
    keys: 64,
    zipf: 1.0,
    select_every: 8,
    open_rate: 20_000.0,
    warmup: 20_000,
    check: CheckKind::Exact,
};

pub const COLD: ServeSpec = ServeSpec {
    keys: 1_000_000,
    zipf: 0.0,
    select_every: 8,
    open_rate: 600.0,
    warmup: 6_000,
    check: CheckKind::Sample(64),
};

/// A running daemon.
pub struct Daemon {
    child: Child,
    pub addr: String,
    pub journal_dir: Option<PathBuf>,
}

impl Daemon {
    /// Spawns `dvfs serve` and waits for its `listening on` line. Returns
    /// the daemon and the time from spawn to that line.
    pub fn spawn(bin: &Path, models: &Path, journal: Option<PathBuf>) -> io::Result<(Self, f64)> {
        if let Some(dir) = &journal {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--models")
            .arg(models)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--capacity", &CACHE_CAPACITY.to_string()])
            .env("DVFS_LOG", "warn")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = &journal {
            cmd.arg("--journal-dir").arg(dir);
        }
        let t0 = Instant::now();
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = std::sync::mpsc::channel();
        // The reader thread ends when the daemon closes its stdout.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let deadline = t0 + Duration::from_secs(60);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        let setup = t0.elapsed().as_secs_f64();
                        let addr = addr.trim().to_string();
                        return Ok((
                            Daemon {
                                child,
                                addr,
                                journal_dir: journal,
                            },
                            setup,
                        ));
                    }
                }
                Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::other("dvfs serve did not report its address"));
                }
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (VmHWM) of the daemon, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::host::vm_hwm_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Worker threads the daemon runs, counted by thread name.
    pub fn workers(&self) -> usize {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.pid())) else {
            return 0;
        };
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("serve-worker"))
            .count()
    }

    /// One control call on a fresh connection.
    pub fn call(&self, req: &Request) -> io::Result<Response> {
        let mut client = Client::connect(&self.addr)?;
        client.stream_mut().set_read_timeout(Some(REPLY_TIMEOUT))?;
        client
            .call(req)
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// Sends `shutdown`, waits for the process to exit (killing it after
    /// 30 s), and removes its journal directory.
    pub fn stop(mut self) -> io::Result<()> {
        let asked = self.call(&Request::shutdown()).is_ok();
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break Some(status);
            }
            if !asked || Instant::now() > deadline {
                let _ = self.child.kill();
                self.child.wait()?;
                break None;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        if let Some(dir) = &self.journal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(io::Error::other(format!("dvfs serve exited with {s}"))),
            None => Err(io::Error::other("dvfs serve had to be killed")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on an error path: never leave a daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one phase saw, summed over connections.
#[derive(Default)]
pub struct PhaseResult {
    /// Requests sent.
    pub attempted: u64,
    /// Error replies, wrong or out-of-order replies, transport failures
    /// and timeouts (a request lost to a broken connection counts here).
    pub failed: u64,
    /// Round trips of ok replies, µs: from send (closed loop) or from
    /// the due instant (open loop).
    pub latency_us: Vec<f64>,
    /// When each latency sample was taken, seconds after the phase
    /// start: the reply's arrival (closed loop) or the request's due
    /// instant (open loop).
    pub at_s: Vec<f64>,
    /// How late each open-loop send ran against its schedule, µs.
    pub late_us: Vec<f64>,
    /// First failure seen, for the log.
    pub first_error: Option<String>,
}

impl PhaseResult {
    pub fn merge(&mut self, other: PhaseResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency_us.extend(other.latency_us);
        self.at_s.extend(other.at_s);
        self.late_us.extend(other.late_us);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Per-connection state shared by both loops.
struct Conn<'a> {
    stream: TcpStream,
    reader: FrameReader,
    frames: Frames,
    check: &'a mut Check,
    result: PhaseResult,
}

impl<'a> Conn<'a> {
    fn open(addr: &str, check: &'a mut Check) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            frames: Frames::default(),
            check,
            result: PhaseResult::default(),
        })
    }

    /// Judges one reply against the request it must answer: an ok reply
    /// echoing the request's workload (so in order), with a body the
    /// check accepts.
    fn judge(&mut self, key: usize, select: bool, seq: u64, body: &[u8]) -> bool {
        let good = match fast::scan_reply(body) {
            Some((true, Some(name))) if name == wire::workload_name(key) => {
                self.check.observe(key, select, seq, body)
            }
            _ => false,
        };
        if !good {
            self.result.failed += 1;
            if self.result.first_error.is_none() {
                let text = String::from_utf8_lossy(&body[..body.len().min(160)]).into_owned();
                self.result.first_error = Some(format!(
                    "wrong reply for key {key} (select {select}): {text}"
                ));
            }
        }
        good
    }

    fn fail_pending(&mut self, pending: u64, err: String) {
        self.result.failed += pending;
        self.result.first_error.get_or_insert(err);
    }

    /// Blocks until the next whole reply frame has arrived.
    fn read_reply(&mut self) -> io::Result<Vec<u8>> {
        self.reader
            .read_frame(&mut self.stream, DEFAULT_MAX_FRAME)
            .map_err(|e| io::Error::other(e.to_string()))
    }
}

/// Runs both connections' loops on their own threads from one common
/// start and sums what they saw.
fn run_connections<F>(addr: &str, checks: &mut [Check], body: F) -> PhaseResult
where
    F: Fn(&mut Conn<'_>, usize, Instant) + Sync,
{
    let start = Instant::now() + Duration::from_millis(20);
    let mut total = PhaseResult::default();
    let results: Vec<PhaseResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = checks
            .iter_mut()
            .enumerate()
            .map(|(c, check)| {
                let body = &body;
                scope.spawn(move || match Conn::open(addr, check) {
                    Ok(mut conn) => {
                        body(&mut conn, c, start);
                        conn.result
                    }
                    Err(e) => PhaseResult {
                        attempted: 1,
                        failed: 1,
                        first_error: Some(format!("connect: {e}")),
                        ..PhaseResult::default()
                    },
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    for r in results {
        total.merge(r);
    }
    total
}

/// Closed loop: each connection sends a burst of [`DEPTH`] requests in
/// one write, reads their replies in order, and repeats until `length`
/// has passed or it has sent `max_requests` (split across connections).
/// `stream_base` picks the seeded key streams.
pub fn closed_loop(
    addr: &str,
    spec: &ServeSpec,
    seed: u64,
    stream_base: u64,
    length: Duration,
    max_requests: u64,
    checks: &mut [Check],
) -> PhaseResult {
    let per_conn = max_requests.div_ceil(CONNECTIONS as u64);
    let dist = KeyDist::new(spec.keys, spec.zipf);
    run_connections(addr, checks, |conn, c, start| {
        let mut keys = KeyStream::new(seed, stream_base + c as u64, spec.select_every);
        sleep_until(start);
        let deadline = start + length;
        let mut burst: Vec<(usize, bool)> = Vec::with_capacity(DEPTH);
        let mut seq = 0u64;
        while Instant::now() < deadline && seq < per_conn {
            burst.clear();
            burst.extend((0..DEPTH).map(|_| keys.next(&dist)));
            for &(key, select) in &burst {
                conn.frames.get(key, select);
            }
            let payloads: Vec<&[u8]> = burst
                .iter()
                .map(|&(key, select)| conn.frames.peek(key, select))
                .collect();
            let sent = Instant::now();
            conn.result.attempted += burst.len() as u64;
            if let Err(e) = write_frames_vectored(&mut conn.stream, &payloads) {
                conn.fail_pending(burst.len() as u64, format!("send: {e}"));
                return;
            }
            for (i, &(key, select)) in burst.iter().enumerate() {
                match conn.read_reply() {
                    Ok(body) => {
                        if conn.judge(key, select, seq, &body) {
                            let now = Instant::now();
                            conn.result
                                .latency_us
                                .push((now - sent).as_secs_f64() * 1e6);
                            conn.result.at_s.push((now - start).as_secs_f64());
                        }
                    }
                    Err(e) => {
                        conn.fail_pending((burst.len() - i) as u64, format!("receive: {e}"));
                        return;
                    }
                }
                seq += 1;
            }
        }
    })
}

/// Open loop: requests leave on a fixed schedule at `spec.open_rate`
/// (the two connections interleave), whatever the replies do; each
/// round trip is timed from the instant its request was due.
pub fn open_loop(
    addr: &str,
    spec: &ServeSpec,
    seed: u64,
    stream_base: u64,
    length: Duration,
    checks: &mut [Check],
) -> PhaseResult {
    let dist = KeyDist::new(spec.keys, spec.zipf);
    let per_conn = (spec.open_rate * length.as_secs_f64() / CONNECTIONS as f64).round() as u64;
    let gap = Duration::from_secs_f64(CONNECTIONS as f64 / spec.open_rate);
    run_connections(addr, checks, |conn, c, start| {
        crate::sys::tight_timer_slack();
        let mut keys = KeyStream::new(seed, stream_base + c as u64, spec.select_every);
        // Connections are offset by half a gap so arrivals interleave.
        let first_due = start + gap.mul_f64(c as f64 / CONNECTIONS as f64);
        let due = |i: u64| first_due + gap.mul_f64(i as f64);
        let mut pending: VecDeque<(Instant, usize, bool, u64)> = VecDeque::new();
        let mut batch: Vec<(usize, bool)> = Vec::new();
        let mut next = 0u64;
        let mut last_progress = Instant::now();
        while next < per_conn || !pending.is_empty() {
            let now = Instant::now();
            // Send everything that has come due, in one write.
            batch.clear();
            let first = next;
            while next < per_conn && due(next) <= now {
                batch.push(keys.next(&dist));
                next += 1;
            }
            if !batch.is_empty() {
                for &(key, select) in &batch {
                    conn.frames.get(key, select);
                }
                let payloads: Vec<&[u8]> = batch
                    .iter()
                    .map(|&(key, select)| conn.frames.peek(key, select))
                    .collect();
                let sent = Instant::now();
                conn.result.attempted += batch.len() as u64;
                if let Err(e) = write_frames_vectored(&mut conn.stream, &payloads) {
                    let lost = batch.len() as u64 + pending.len() as u64;
                    conn.fail_pending(lost, format!("send: {e}"));
                    return;
                }
                for (i, &(key, select)) in batch.iter().enumerate() {
                    let seq = first + i as u64;
                    let d = due(seq);
                    conn.result
                        .late_us
                        .push(sent.saturating_duration_since(d).as_secs_f64() * 1e6);
                    pending.push_back((d, key, select, seq));
                }
            }
            // Wait for a reply or the next due instant, whichever is first.
            let wait = if next < per_conn {
                due(next).saturating_duration_since(Instant::now())
            } else {
                Duration::from_millis(50)
            };
            if pending.is_empty() {
                if !wait.is_zero() {
                    sleep_until(Instant::now() + wait);
                }
                continue;
            }
            if !crate::sys::wait_readable(&conn.stream, wait) {
                if last_progress.elapsed() > REPLY_TIMEOUT {
                    let lost = pending.len() as u64;
                    conn.fail_pending(lost, "reply timed out".to_string());
                    return;
                }
                continue;
            }
            match conn.reader.fill(&mut conn.stream) {
                Ok(_) => {}
                Err(e) => {
                    let lost = pending.len() as u64 + (per_conn - next);
                    conn.result.attempted += per_conn - next;
                    conn.fail_pending(lost, format!("receive: {e}"));
                    return;
                }
            }
            let arrived = Instant::now();
            loop {
                let body = match conn.reader.next_frame(DEFAULT_MAX_FRAME) {
                    Ok(Some(body)) => body.to_vec(),
                    Ok(None) => break,
                    Err(e) => {
                        let lost = pending.len() as u64;
                        conn.fail_pending(lost, format!("receive: {e}"));
                        return;
                    }
                };
                let Some((d, key, select, seq)) = pending.pop_front() else {
                    conn.fail_pending(1, "reply to no request".to_string());
                    return;
                };
                if conn.judge(key, select, seq, &body) {
                    conn.result
                        .latency_us
                        .push(arrived.saturating_duration_since(d).as_secs_f64() * 1e6);
                    conn.result
                        .at_s
                        .push(d.saturating_duration_since(start).as_secs_f64());
                }
                last_progress = arrived;
            }
        }
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The checks one phase needs, one per connection.
pub fn make_checks(spec: &ServeSpec, reference: &Reference, seed: u64) -> Vec<Check> {
    (0..CONNECTIONS)
        .map(|c| match spec.check {
            CheckKind::Exact => Check::Exact(
                (0..spec.keys)
                    .flat_map(|k| [(k, false), (k, true)])
                    .map(|(k, s)| ((k, s), reference.reply(k, s)))
                    .collect(),
            ),
            CheckKind::Sample(every) => Check::Sample {
                every,
                salt: seed.wrapping_mul(31).wrapping_add(c as u64),
                kept: Vec::new(),
            },
        })
        .collect()
}

/// Checks what the phases deferred against the reference. Returns
/// `(distinct replies checked, wrong)`.
pub fn finish_checks(checks: &mut [Check], reference: &Reference) -> (u64, u64) {
    checks
        .iter_mut()
        .map(|c| c.finish(reference))
        .fold((0, 0), |(c, w), (dc, dw)| (c + dc, w + dw))
}
