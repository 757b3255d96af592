//! A sequential single-connection replay with exact counts, for checking
//! that the benchmark's deterministic costs repeat from run to run.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sec_net::proto::{self, ParsedReply};

use crate::alloc::thread_allocs;
use crate::gen::{Dataset, Op, OpGen, Workload};
use crate::setup;
use crate::wire::check;

/// What one sequential replay counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Ops replayed.
    pub ops: u64,
    /// Ops whose reply was wrong.
    pub failed: u64,
    /// Allocations the client thread made while sending, receiving and
    /// checking.
    pub client_allocs: u64,
    /// Bytes those allocations requested.
    pub client_alloc_bytes: u64,
    /// `send` calls the client made.
    pub sends: u64,
    /// Block reads the cluster served.
    pub block_reads: u64,
    /// Blocks the cluster wrote.
    pub block_writes: u64,
}

/// Serves the first `ops` ops of `workload`'s sequence for `seed`, one at a
/// time over one connection, on a freshly populated cluster.
///
/// Each reply is read to its expected length and parsed once, so the
/// client's allocations do not depend on how the kernel splits the reply
/// into segments; receive calls do, and are not counted.
///
/// # Errors
///
/// Fails on set-up or socket errors, including a reply shorter than
/// expected (the read times out).
pub fn sequential(workload: Workload, seed: u64, ops: usize) -> io::Result<Counts> {
    let data = Dataset::generate(workload, seed);
    let (serving, _) = setup::start(&data)?;
    let mut stream = TcpStream::connect(serving.server.local_addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut gen = OpGen::new(workload, seed);
    let sequence: Vec<Op> = (0..ops).map(|_| gen.next_op()).collect();
    let longest = sequence.iter().map(|op| op.expect.wire_len()).max().unwrap_or(0);
    let mut request = Vec::with_capacity(1 << 16);
    let mut reply = vec![0u8; longest];
    let mut counts = Counts::default();

    serving.cluster.reset_metrics();
    let before = thread_allocs();
    for op in &sequence {
        let len = op.expect.wire_len();
        request.clear();
        op.encode(&mut request);
        let mut sent = 0;
        while sent < request.len() {
            counts.sends += 1;
            match stream.write(&request[sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        stream.read_exact(&mut reply[..len])?;
        let ok = match proto::parse_reply(&reply[..len]) {
            ParsedReply::Complete { reply, consumed } => {
                consumed == len && check(&reply, &op.expect).is_ok()
            }
            _ => false,
        };
        counts.ops += 1;
        counts.failed += u64::from(!ok);
    }
    let allocs = thread_allocs().since(before);
    counts.client_allocs = allocs.allocs;
    counts.client_alloc_bytes = allocs.bytes;
    let metrics = serving.cluster.metrics_snapshot();
    counts.block_reads = metrics.io.symbol_reads;
    counts.block_writes = metrics.io.symbol_writes;
    drop(stream);
    serving.server.shutdown()?;
    Ok(counts)
}
