//! The wire load generator: one thread, at most [`CONNECTIONS`] sockets, every
//! reply parsed with `sec_net::proto` and checked against the op's
//! expected bytes.
//!
//! * Closed loop: each connection keeps `pipeline` requests outstanding;
//!   latency runs from the write that carried the request to the read that
//!   carried its reply.
//! * Open loop: requests are due on a Poisson schedule and are sent when
//!   due whatever is outstanding. Latency runs from the *due* time, so a
//!   stall in the server or in the generator is charged to every request
//!   it delays, and the generator's own lateness is recorded separately.
//!
//! Objects are pinned to connections in the open loop (`object %
//! CONNECTIONS`) so an object's APPENDs and GETs are served in order.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::time::{Duration, Instant};

use sec_engine::{ClusterMetrics, SecCluster};
use sec_net::proto::{self, ParsedReply, Reply};
use sec_net::sys::{Interest, Poller};

use crate::gen::{Class, Expect, Op, OpGen, Spec, CONNECTIONS};
use crate::procfs::{self, ThreadCounters};
use crate::stats::FAILED_NS;

/// With requests outstanding and no reply for this long, the outstanding
/// requests are counted as timed out and the run ends.
const STALL_TIMEOUT: Duration = Duration::from_secs(10);
/// Failure descriptions kept for the report.
const MAX_FAILURE_NOTES: usize = 8;
/// Length of the windows the phase is cut into for windowed medians.
pub const WINDOW: Duration = Duration::from_millis(200);

/// Latency samples kept per class: room is reserved up front for this
/// many ops per second of phase (at most [`MAX_SAMPLES`]), so the vectors
/// never reallocate and only the samples written become resident.
const SAMPLES_PER_SECOND: f64 = 2e6;
/// Upper bound on the samples reserved per class.
const MAX_SAMPLES: usize = 1 << 26;

/// What completed within one [`WINDOW`] of the phase.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Where the window's samples start in [`WireReport::latency_ns`], per
    /// class; they end where the next window's start.
    pub start: [usize; 3],
    /// Verified ops.
    pub ops: u64,
    /// Version bytes carried by verified replies.
    pub payload_bytes: u64,
    /// CPU time the hypervisor took from the virtual machine during the window, ms
    /// summed over CPUs (`/proc/stat` steal; 10 ms resolution).
    pub steal_ms: f64,
}

/// Successfully served ops, counted per object and target version.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// `get[object][version - 1]`.
    pub get: Vec<Vec<u64>>,
    /// `prefix[object][version - 1]`.
    pub prefix: Vec<Vec<u64>>,
}

impl Tally {
    fn count(&mut self, op: &Op) {
        let table = match op.class {
            Class::Get => &mut self.get,
            Class::Prefix => &mut self.prefix,
            Class::Append => return,
        };
        if table.len() <= op.object {
            table.resize(op.object + 1, Vec::new());
        }
        let row = &mut table[op.object];
        if row.len() < op.version {
            row.resize(op.version, 0);
        }
        row[op.version - 1] += 1;
    }
}

/// What one timed wire phase measured.
#[derive(Debug, Default)]
pub struct WireReport {
    /// Requests sent.
    pub attempted: u64,
    /// `-ERR`, wrong, short or malformed replies, timeouts and requests
    /// lost with a dropped connection.
    pub failed: u64,
    /// The first few failures, described.
    pub failure_notes: Vec<String>,
    /// Latency samples in nanoseconds per [`Class`], in completion order;
    /// failed ops read [`FAILED_NS`].
    pub latency_ns: [Vec<u32>; 3],
    /// Completions by [`WINDOW`] since the phase started; windows past
    /// the phase's length hold the drain of outstanding requests.
    pub windows: Vec<Window>,
    /// Open loop: how late each request was sent after it was due, ns.
    pub late_ns: Vec<u32>,
    /// First send to last reply.
    pub elapsed: Duration,
    /// Versions carried by verified replies.
    pub versions_returned: u64,
    /// Version bytes carried by verified replies.
    pub payload_bytes: u64,
    /// Bytes the server wrote, as received by the load generator.
    pub bytes_received: u64,
    /// `recv` and `send` calls the load generator made.
    pub socket_calls: u64,
    /// Verified GETs and PREFIXes by target.
    pub served: Tally,
    /// The load thread's counters over the phase.
    pub load: ThreadCounters,
    /// The server worker thread's counters over the phase.
    pub server: ThreadCounters,
    /// Cluster metrics drained when the phase started (population and
    /// warm-up I/O).
    pub cluster_before: Option<ClusterMetrics>,
    /// Cluster metrics when the phase ended (I/O of the phase alone).
    pub cluster_after: Option<ClusterMetrics>,
}

impl WireReport {
    /// Verified ops.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// The samples of window `w` in class `class`.
    pub fn window_samples(&mut self, w: usize, class: usize) -> &mut [u32] {
        let start = self.windows[w].start[class];
        let end = self
            .windows
            .get(w + 1)
            .map_or(self.latency_ns[class].len(), |next| next.start[class]);
        &mut self.latency_ns[class][start..end]
    }

    /// The index of the window holding time `at`, opening windows up to
    /// it. Times only grow, so samples land in their window's range.
    fn window(&mut self, at: Duration) -> usize {
        let w = (at.as_nanos() as u64 / WINDOW.as_nanos() as u64) as usize;
        while self.windows.len() <= w {
            let start = [0, 1, 2].map(|c| self.latency_ns[c].len());
            self.windows.push(Window {
                start,
                ..Window::default()
            });
        }
        w
    }

    fn record(&mut self, class: Class, at: Duration, latency_ns: u32) -> &mut Window {
        let w = self.window(at);
        self.latency_ns[class as usize].push(latency_ns);
        &mut self.windows[w]
    }

    fn fail(&mut self, op: &Op, at: Duration, why: impl FnOnce() -> String) {
        self.failed += 1;
        self.record(op.class, at, FAILED_NS);
        if self.failure_notes.len() < MAX_FAILURE_NOTES {
            self.failure_notes.push(format!(
                "op {} ({:?} v{}): {}",
                op.seq,
                op.class,
                op.version,
                why()
            ));
        }
    }
}

struct InFlight {
    op: Op,
    /// Due time (open loop) or send time (closed loop).
    start: Instant,
    /// Wire length of the expected reply.
    reply_len: usize,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    inflight: VecDeque<InFlight>,
    open: bool,
    interest: Interest,
}

impl Conn {
    fn push(&mut self, mut op: Op, start: Instant) {
        op.encode(&mut self.wbuf);
        // The generator keeps the bytes for later GETs; the load generator
        // needs only the expected reply.
        op.payload = None;
        let reply_len = op.expect.wire_len();
        self.inflight.push_back(InFlight { op, start, reply_len });
    }

    /// Writes until the buffer is empty or the socket is full.
    fn flush(&mut self, calls: &mut u64) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            *calls += 1;
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Reads until the socket is drained; `Ok(false)` on end of stream.
    fn fill(&mut self, scratch: &mut [u8], calls: &mut u64, bytes: &mut u64) -> io::Result<bool> {
        loop {
            *calls += 1;
            match self.stream.read(scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    *bytes += n as u64;
                    self.rbuf.extend_from_slice(&scratch[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Checks a reply against its expectation, returning the verified version
/// bytes it carried.
pub(crate) fn check(reply: &Reply, expect: &Expect) -> Result<u64, String> {
    match (reply, expect) {
        (Reply::Bulk(got), Expect::Bulk(want)) if got == want.as_ref() => Ok(got.len() as u64),
        (Reply::Array(got), Expect::Array(want))
            if got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g == w.as_ref()) =>
        {
            Ok(got.iter().map(|v| v.len() as u64).sum())
        }
        (Reply::Int(got), Expect::Int(want)) if got == want => Ok(0),
        (Reply::Error(message), _) => Err(format!("-ERR {message}")),
        (Reply::Bulk(got), _) => Err(format!("wrong bulk of {} bytes", got.len())),
        (Reply::Array(got), _) => Err(format!("wrong array of {} items", got.len())),
        (other, _) => Err(format!("unexpected reply {other:?}")),
    }
}

fn nanos(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(FAILED_NS - 1)
}

/// Runs one timed phase of `duration` against the server at the other end
/// of `streams`, generating ops from `gen`. `server_dir` is the `/proc`
/// directory of the server's worker thread. The cluster's I/O counters are
/// drained when the phase starts.
///
/// # Errors
///
/// Fails when a socket cannot be configured or `/proc` cannot be read;
/// request failures are counted in the report, not returned.
pub fn drive(
    streams: Vec<TcpStream>,
    gen: &mut OpGen,
    spec: &Spec,
    duration: Duration,
    cluster: &SecCluster,
    server_dir: &Path,
) -> io::Result<WireReport> {
    let mut poller = Poller::new()?;
    let mut conns = Vec::with_capacity(streams.len());
    for (token, stream) in streams.into_iter().enumerate() {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        poller.register(stream.as_raw_fd(), token as u64, Interest::READ)?;
        conns.push(Conn {
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            wbuf: Vec::with_capacity(1 << 12),
            wpos: 0,
            inflight: VecDeque::new(),
            open: true,
            interest: Interest::READ,
        });
    }
    let mut report = WireReport::default();
    let reserve = ((duration.as_secs_f64() * SAMPLES_PER_SECOND) as usize).min(MAX_SAMPLES);
    for samples in &mut report.latency_ns {
        samples.reserve_exact(reserve);
    }
    let mut scratch = vec![0u8; 1 << 16];
    let mut events = Vec::new();
    let load_dir = procfs::current_thread_dir()?;
    // One CPU each for the server worker and the load thread. Unpinned, the
    // scheduler wakes the server on the CPU where the open loop's generator
    // spins, and commit_mix's p90 rises about tenfold. The server's CPU is
    // kept out of idle: between open-loop arrivals the worker sleeps, and
    // on a virtual machine waking an idle vCPU added about 10 µs to the
    // median and 30 µs to the p90, varying with the host's load.
    let mut awake = None;
    if let (Some(server_tid), [server_cpu, load_cpu, ..]) =
        (procfs::tid_of(server_dir), procfs::allowed_cpus()?.as_slice())
    {
        if procfs::pin_thread(server_tid, *server_cpu) {
            procfs::pin_thread(0, *load_cpu);
            awake = Some(procfs::KeepAwake::start(*server_cpu));
        }
    }

    report.cluster_before = Some(cluster.reset_metrics());
    let server_before = procfs::read_thread(server_dir)?;
    let load_before = procfs::read_thread(&load_dir)?;
    let start = Instant::now();
    let stop_at = start + duration;
    let mut next_due = gen.next_gap().map(|gap| start + Duration::from_secs_f64(gap));
    let open_loop = next_due.is_some();
    let mut last_reply = start;
    let mut last_progress = start;
    let mut steal_at_boundary = procfs::steal_ms()?.iter().sum::<f64>();
    let mut next_boundary = start + WINDOW;

    loop {
        let now = Instant::now();
        if now >= next_boundary {
            let steal = procfs::steal_ms()?.iter().sum::<f64>();
            let w = report.window(next_boundary - start - WINDOW);
            report.windows[w].steal_ms = steal - steal_at_boundary;
            steal_at_boundary = steal;
            next_boundary += WINDOW;
        }
        if open_loop {
            while let Some(due) = next_due {
                if due > now {
                    break;
                }
                if due >= stop_at {
                    next_due = None;
                    break;
                }
                let op = gen.next_op();
                let conn = &mut conns[op.object % CONNECTIONS];
                report.late_ns.push(nanos(now - due));
                report.attempted += 1;
                if conn.open {
                    conn.push(op, due);
                } else {
                    report.fail(&op, now - start, || "connection closed".into());
                }
                let gap = gen.next_gap().expect("open loop");
                next_due = Some(due + Duration::from_secs_f64(gap));
            }
        } else if now < stop_at {
            for conn in conns.iter_mut().filter(|c| c.open) {
                while conn.inflight.len() < spec.pipeline {
                    report.attempted += 1;
                    conn.push(gen.next_op(), now);
                }
            }
        }
        for (token, conn) in conns.iter_mut().enumerate() {
            if !conn.open {
                continue;
            }
            if let Err(e) = conn.flush(&mut report.socket_calls) {
                drop_conn(
                    &mut report,
                    &mut poller,
                    conn,
                    now - start,
                    &format!("write failed: {e}"),
                );
                continue;
            }
            let want = if conn.wbuf.is_empty() {
                Interest::READ
            } else {
                Interest::READ_WRITE
            };
            if want != conn.interest {
                poller.modify(conn.stream.as_raw_fd(), token as u64, want)?;
                conn.interest = want;
            }
        }

        let outstanding: usize = conns.iter().map(|c| c.inflight.len()).sum();
        let issuing = if open_loop {
            next_due.is_some()
        } else {
            now < stop_at && conns.iter().any(|c| c.open)
        };
        if !issuing && outstanding == 0 {
            break;
        }
        if outstanding > 0 && now.duration_since(last_progress) > STALL_TIMEOUT {
            for conn in conns.iter_mut().filter(|c| c.open) {
                drop_conn(&mut report, &mut poller, conn, now - start, "timed out");
            }
            break;
        }

        // Sleep in the reactor while the next arrival is more than 2 ms
        // away; closer than that, poll without blocking so requests leave
        // on time.
        let timeout_ms = match next_due {
            Some(due) => {
                let gap = due.saturating_duration_since(now);
                if gap > Duration::from_millis(2) {
                    (gap.as_millis() - 1).min(100) as i32
                } else {
                    0
                }
            }
            None => 10,
        };
        poller.wait(&mut events, timeout_ms)?;
        for event in &events {
            let Some(conn) = conns.get_mut(event.token as usize) else {
                continue;
            };
            if !conn.open || !event.readable {
                continue;
            }
            let filled = conn.fill(&mut scratch, &mut report.socket_calls, &mut report.bytes_received);
            let arrived = Instant::now();
            let at = arrived - start;
            let alive = match filled {
                Ok(alive) => alive,
                Err(e) => {
                    drop_conn(&mut report, &mut poller, conn, at, &format!("read failed: {e}"));
                    continue;
                }
            };
            let mut pos = 0;
            let mut poisoned = None;
            while pos < conn.rbuf.len() {
                let Some(front) = conn.inflight.front() else {
                    poisoned = Some("reply without a request".to_string());
                    break;
                };
                // Parse only once the whole expected reply is here (or the
                // reply is of another kind, such as an error): re-parsing a
                // partial PREFIX array after every read would cost the
                // generator more than the server.
                let ready = &conn.rbuf[pos..];
                if ready.len() < front.reply_len && ready[0] == front.op.expect.marker() {
                    break;
                }
                match proto::parse_reply(ready) {
                    ParsedReply::Complete { reply, consumed } => {
                        pos += consumed;
                        let flight = conn.inflight.pop_front().expect("checked above");
                        match check(&reply, &flight.op.expect) {
                            Ok(bytes) => {
                                report.versions_returned += flight.op.versions_returned();
                                report.payload_bytes += bytes;
                                report.served.count(&flight.op);
                                let latency = nanos(arrived - flight.start);
                                let window = report.record(flight.op.class, at, latency);
                                window.ops += 1;
                                window.payload_bytes += bytes;
                            }
                            Err(why) => report.fail(&flight.op, at, || why),
                        }
                        last_reply = arrived;
                        last_progress = arrived;
                    }
                    ParsedReply::Incomplete => break,
                    ParsedReply::Malformed { reason } => {
                        poisoned = Some(format!("malformed reply: {reason}"));
                        break;
                    }
                }
            }
            conn.rbuf.drain(..pos);
            if let Some(why) = poisoned {
                drop_conn(&mut report, &mut poller, conn, at, &why);
            } else if !alive {
                drop_conn(&mut report, &mut poller, conn, at, "connection dropped");
            }
        }
    }

    if let Some(awake) = awake {
        awake.stop()?;
    }
    report.elapsed = last_reply.duration_since(start);
    report.server = procfs::read_thread(server_dir)?.since(server_before);
    report.load = procfs::read_thread(&load_dir)?.since(load_before);
    report.cluster_after = Some(cluster.metrics_snapshot());
    Ok(report)
}

/// Closes a connection, failing everything still outstanding on it.
fn drop_conn(report: &mut WireReport, poller: &mut Poller, conn: &mut Conn, at: Duration, why: &str) {
    conn.open = false;
    let _ = poller.deregister(conn.stream.as_raw_fd());
    for flight in conn.inflight.drain(..) {
        report.fail(&flight.op, at, || why.to_string());
    }
}
