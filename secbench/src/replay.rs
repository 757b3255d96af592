//! The traced replay: a sample of the workload's op sequence served
//! in-process through the same public calls the server makes, with a span
//! around each call and a replay of the same read one layer further down
//! under every engine span.
//!
//! Per window of requests (request id = op sequence number):
//!
//! ```text
//! loadgen.encode                      the client's request frames
//! server.dispatch                     the server's dispatch loop, replicated
//! ├─ proto.parse                      one per op
//! ├─ engine.get_batch                 a run of GETs (even windows)
//! ├─ engine.get                       one GET (odd windows)
//! │  └─ versioning.retrieve           uncached reads only; reference archive
//! │     ├─ store.read                 per touched entry: its planned blocks
//! │     ├─ erasure.decode | erasure.recover_sparse
//! │     │  └─ gf.mul_add              kernel alone, at the call's shape
//! │     └─ gf.xor                     per delta applied
//! ├─ engine.prefix
//! │  └─ versioning.retrieve_prefix    same children
//! ├─ engine.append
//! │  ├─ versioning.append
//! │  │  └─ erasure.encode
//! │  │     └─ gf.mul_add
//! │  └─ store.write                   the new entry's blocks
//! └─ proto.encode                     one per op
//! loadgen.check                       reply verification
//! ```
//!
//! A child that replays a lower layer runs after the call above it has
//! returned, inside that call's span, so the parent's self time is the
//! parent call alone. `versioning.retrieve*` walks the reference archive
//! through `sec_versioning::walk` with the benchmark's own per-entry decode,
//! so its self time is the walk without reading or decoding;
//! `versioning.append` and
//! the `erasure.*` calls include the work of the layers they call
//! internally.

use std::hint::black_box;
use std::sync::Arc;

use sec_erasure::read_plan::{plan_read, DecodeMethod};
use sec_erasure::{ByteCodec, ByteShards};
use sec_gf::bulk8::MulTable;
use sec_gf::{active_kernel, GaloisField, Gf256, Kernel};
use sec_net::proto::{self, Command, Parsed};
use sec_store::node::{StorageNode, SymbolKey};
use sec_versioning::walk::{decode_planned, read_target, trim_object, walk_prefix, walk_version};
use sec_versioning::{ByteVersionedArchive, EncodingStrategy, StoredPayload, VersioningError};

use crate::gen::{Dataset, Expect, Op, OpGen, Workload, K, N};
use crate::setup;
use crate::trace::Tracer;

/// What the replay counted besides its spans.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Ops replayed.
    pub ops: u64,
    /// Ops whose result differed from the expected reply.
    pub failed: u64,
    /// The first failure, described.
    pub failure_note: Option<String>,
    /// GETs replayed (both paths).
    pub gets: u64,
    /// Block reads the engine reported for GETs.
    pub get_block_reads: u64,
    /// Block reads the layout model predicts for the same GETs uncached.
    pub get_model_reads: u64,
    /// Exact cache hits, nearest-base hits and deltas applied by the
    /// engine during the replay.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub base_hits: u64,
    /// See `cache_hits`.
    pub deltas_applied: u64,
    /// Stored entries touched by `versioning.retrieve`.
    pub entries_retrieved: u64,
    /// Delta entries decoded by the replayed walks.
    pub deltas_read: u64,
    /// Delta entries among them served on the `2γ` sparse path.
    pub deltas_sparse: u64,
    /// Ops per class.
    pub class_ops: [u64; 3],
}

/// A `GF(2^8)` kernel replay at a given shape, on scratch buffers.
struct GfReplay {
    kernel: Kernel,
    table: MulTable,
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl GfReplay {
    fn new(object_len: usize) -> Self {
        let len = object_len.div_ceil(K) * K;
        Self {
            kernel: active_kernel(),
            table: MulTable::new(Gf256::from_u64(0x8E)),
            src: (0..len).map(|i| (i * 31 + 7) as u8).collect(),
            dst: vec![0; len],
        }
    }

    /// `calls` multiply-accumulates of `len` bytes each.
    fn mul_add(&mut self, tr: &mut Tracer, request: u64, calls: usize, len: usize) {
        let span = tr.enter("gf.mul_add", request);
        for _ in 0..calls {
            self.kernel
                .mul_add_slice(&self.table, &self.src[..len], &mut self.dst[..len])
                .expect("the active kernel is supported");
        }
        black_box(&mut self.dst);
        tr.set_work(span, (calls * len) as u64);
        tr.exit(span);
    }

    /// One XOR of `len` bytes.
    fn xor(&mut self, tr: &mut Tracer, request: u64, len: usize) {
        let span = tr.enter("gf.xor", request);
        self.kernel
            .xor_slice(&self.src[..len], &mut self.dst[..len])
            .expect("the active kernel is supported");
        black_box(&mut self.dst);
        tr.set_work(span, len as u64);
        tr.exit(span);
    }
}

/// Everything one replay needs below the engine.
struct Lower<'a> {
    codec: ByteCodec,
    live: &'a [usize],
    /// Per object, `n` storage nodes holding every block of its reference
    /// archive, keyed like the engine's.
    nodes: Vec<Vec<StorageNode<Vec<u8>>>>,
    gf: GfReplay,
    object_len: usize,
}

impl Lower<'_> {
    /// Reads one stored entry the way the engine does — its planned
    /// blocks gathered from the object's nodes in a `store.read` span, then
    /// decoded in an `erasure.*` span with a kernel replay under it; a delta
    /// is followed by an XOR replay of the walk's accumulate step.
    #[allow(clippy::too_many_arguments)]
    fn decode_entry(
        &mut self,
        tr: &mut Tracer,
        report: &mut ReplayReport,
        request: u64,
        object: usize,
        entry: usize,
        payload: StoredPayload,
        shard_len: usize,
    ) -> Result<(usize, ByteShards), VersioningError> {
        let Some(target) = read_target(payload) else {
            return Ok((0, ByteShards::zeroed(K, shard_len)));
        };
        let plan = plan_read(self.codec.code(), self.live, target)?;
        let sparse = plan.method == DecodeMethod::SparseRecovery;
        let read = tr.enter("store.read", request);
        let nodes = &self.nodes[object];
        let shares: Vec<(usize, &[u8])> = plan
            .nodes
            .iter()
            .map(|&i| {
                let key = SymbolKey { entry, position: i };
                nodes[i].touch(key);
                let block = nodes[i].peek_stored(key).expect("every block is stored");
                (i, block.as_slice())
            })
            .collect();
        tr.set_work(read, (shares.len() * shard_len) as u64);
        tr.exit(read);
        let span = tr.enter(
            if sparse {
                "erasure.recover_sparse"
            } else {
                "erasure.decode"
            },
            request,
        );
        let decoded = decode_planned(&self.codec, plan.method, target, &shares)?;
        self.gf.mul_add(tr, request, shares.len() * K, shard_len);
        tr.exit(span);
        if let StoredPayload::Delta { .. } = payload {
            report.deltas_read += 1;
            report.deltas_sparse += u64::from(sparse);
            self.gf.xor(tr, request, K * shard_len);
        }
        Ok((plan.io_reads, decoded))
    }

    fn retrieve(
        &mut self,
        tr: &mut Tracer,
        report: &mut ReplayReport,
        request: u64,
        object: usize,
        archive: &ByteVersionedArchive,
        version: usize,
    ) -> Result<Vec<u8>, VersioningError> {
        let span = tr.enter("versioning.retrieve", request);
        let entries = archive.stored_entries();
        let out = walk_version(
            EncodingStrategy::BasicSec,
            entries.len(),
            |i| entries[i].payload,
            version,
            |i| {
                let (payload, shard_len) = (entries[i].payload, entries[i].shards.shard_len());
                self.decode_entry(tr, report, request, object, i, payload, shard_len)
            },
        );
        let data = out.map(|o| {
            report.entries_retrieved += o.entries_read as u64;
            trim_object(&o.shards, self.object_len)
        });
        tr.exit(span);
        data
    }

    fn retrieve_prefix(
        &mut self,
        tr: &mut Tracer,
        report: &mut ReplayReport,
        request: u64,
        object: usize,
        archive: &ByteVersionedArchive,
        version: usize,
    ) -> Result<Vec<Vec<u8>>, VersioningError> {
        let span = tr.enter("versioning.retrieve_prefix", request);
        let entries = archive.stored_entries();
        let out = walk_prefix(
            EncodingStrategy::BasicSec,
            entries.len(),
            |i| entries[i].payload,
            version,
            self.object_len,
            |i| {
                let (payload, shard_len) = (entries[i].payload, entries[i].shards.shard_len());
                self.decode_entry(tr, report, request, object, i, payload, shard_len)
            },
        );
        tr.exit(span);
        out.map(|o| o.versions)
    }

    fn append(
        &mut self,
        tr: &mut Tracer,
        request: u64,
        object: usize,
        archive: &mut ByteVersionedArchive,
        payload: &[u8],
    ) -> Result<(), VersioningError> {
        let span = tr.enter("versioning.append", request);
        let appended = archive.append_version(payload).map(drop);
        let encode = tr.enter("erasure.encode", request);
        let data = ByteShards::from_flat(payload, K);
        black_box(self.codec.encode_blocks(&data)?);
        self.gf.mul_add(tr, request, N * K, data.shard_len());
        tr.exit(encode);
        tr.exit(span);
        appended?;
        let entries = archive.stored_entries();
        let (entry, stored) = (entries.len() - 1, entries[entries.len() - 1]);
        let write = tr.enter("store.write", request);
        for (position, node) in self.nodes[object].iter_mut().enumerate() {
            node.put(
                SymbolKey { entry, position },
                stored.shards.shard(position).to_vec(),
            );
        }
        tr.set_work(write, stored.shards.total_len() as u64);
        tr.exit(write);
        Ok(())
    }
}

/// One engine result, ready to encode.
enum Served {
    Bulk(Arc<Vec<u8>>),
    Array(Vec<Vec<u8>>),
    Int(u64),
    Error(String),
}

fn matches(served: &Served, expect: &Expect) -> bool {
    match (served, expect) {
        (Served::Bulk(got), Expect::Bulk(want)) => got == want,
        (Served::Array(got), Expect::Array(want)) => {
            got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g == w.as_ref())
        }
        (Served::Int(got), Expect::Int(want)) => got == want,
        _ => false,
    }
}

fn note_failure(report: &mut ReplayReport, op: &Op, why: &str) {
    report.failed += 1;
    if report.failure_note.is_none() {
        report.failure_note = Some(format!(
            "replayed op {} ({:?} v{}): {why}",
            op.seq, op.class, op.version
        ));
    }
}

/// Replays the first `ops` ops of `workload`'s sequence for `seed` on a
/// freshly populated cluster, in windows of the workload's pipeline depth.
///
/// # Errors
///
/// Fails when the cluster or reference archives cannot be built.
pub fn run(workload: Workload, seed: u64, ops: usize, tr: &mut Tracer) -> std::io::Result<ReplayReport> {
    let data = Dataset::generate(workload, seed);
    let spec = data.spec;
    let cluster = setup::populate(&data)?;
    let mut archives = setup::reference_archives(&data, &cluster)?;
    let model = setup::archive_config().io_model();
    let model_reads = |archive: &ByteVersionedArchive, version: usize| {
        model.version_reads_for_layout(EncodingStrategy::BasicSec, &setup::layout(archive), version)
            as u64
    };
    let live = setup::live_nodes(&data);
    let nodes = archives
        .iter()
        .map(|archive| {
            let mut nodes: Vec<StorageNode<Vec<u8>>> = (0..N).map(StorageNode::new).collect();
            for (entry, stored) in archive.stored_entries().iter().enumerate() {
                for (position, node) in nodes.iter_mut().enumerate() {
                    node.put(
                        SymbolKey { entry, position },
                        stored.shards.shard(position).to_vec(),
                    );
                }
            }
            nodes
        })
        .collect();
    let mut lower = Lower {
        codec: cluster.codec().clone(),
        live: &live,
        nodes,
        gf: GfReplay::new(spec.object_len),
        object_len: spec.object_len,
    };
    let mut gen = OpGen::new(workload, seed);
    let sequence: Vec<Op> = (0..ops).map(|_| gen.next_op()).collect();
    let mut report = ReplayReport::default();
    let before = cluster.metrics_snapshot();
    let mut request = Vec::new();
    let mut wbuf = Vec::new();
    let mut served: Vec<Served> = Vec::with_capacity(spec.pipeline);
    let mut batch = Vec::with_capacity(spec.pipeline);

    for (w, window) in sequence.chunks(spec.pipeline).enumerate() {
        let first = window[0].seq;
        let encode = tr.enter("loadgen.encode", first);
        request.clear();
        for op in window {
            op.encode(&mut request);
        }
        tr.exit(encode);
        wbuf.clear();
        served.clear();
        let root = tr.enter("server.dispatch", first);

        let mut commands: Vec<Command<'_>> = Vec::with_capacity(window.len());
        let mut pos = 0;
        for op in window {
            let span = tr.enter("proto.parse", op.seq);
            let parsed = proto::parse_command(&request[pos..]);
            tr.exit(span);
            match parsed {
                Parsed::Complete { command, consumed } => {
                    commands.push(command);
                    pos += consumed;
                }
                _ => panic!("the benchmark's own request frames always parse"),
            }
        }

        // Dispatch like the server: runs of GETs together, anything else
        // alone. Even windows take the batch path, odd ones the single-GET
        // path with a replay of the read below it.
        let batch_path = w % 2 == 0;
        let mut i = 0;
        while i < window.len() {
            let op = &window[i];
            match (commands[i], batch_path) {
                (Command::Get { .. }, true) => {
                    let mut end = i;
                    batch.clear();
                    while let Some(Command::Get { object, version }) = commands.get(end).copied() {
                        batch.push((object, version));
                        end += 1;
                    }
                    let span = tr.enter("engine.get_batch", op.seq);
                    let results = cluster.get_batch(&batch);
                    tr.exit(span);
                    tr.set_work(span, batch.len() as u64);
                    for (o, result) in window[i..end].iter().zip(results) {
                        report.gets += 1;
                        report.get_model_reads += model_reads(&archives[o.object], o.version);
                        served.push(match result {
                            Ok(r) => {
                                report.get_block_reads += r.io_reads as u64;
                                Served::Bulk(r.data)
                            }
                            Err(e) => Served::Error(e.to_string()),
                        });
                    }
                    i = end;
                    continue;
                }
                (Command::Get { object, version }, false) => {
                    let span = tr.enter("engine.get", op.seq);
                    let result = cluster.get_version(object, version);
                    let out = match result {
                        Ok(r) => {
                            report.get_block_reads += r.io_reads as u64;
                            // Only a read that went to the nodes for its
                            // whole chain is replayed below; a cache hit did
                            // no lower-layer work.
                            if !r.cached {
                                match lower.retrieve(
                                    tr,
                                    &mut report,
                                    op.seq,
                                    op.object,
                                    &archives[op.object],
                                    version,
                                ) {
                                    Ok(bytes) if bytes == *r.data => {}
                                    Ok(_) => note_failure(&mut report, op, "reference walk disagrees"),
                                    Err(e) => note_failure(&mut report, op, &e.to_string()),
                                }
                            }
                            Served::Bulk(r.data)
                        }
                        Err(e) => Served::Error(e.to_string()),
                    };
                    tr.exit(span);
                    report.gets += 1;
                    report.get_model_reads += model_reads(&archives[op.object], version);
                    served.push(out);
                }
                (Command::Prefix { object, version }, _) => {
                    let span = tr.enter("engine.prefix", op.seq);
                    let out = match cluster.get_prefix(object, version) {
                        Ok(p) => {
                            match lower.retrieve_prefix(
                                tr,
                                &mut report,
                                op.seq,
                                op.object,
                                &archives[op.object],
                                version,
                            ) {
                                Ok(versions) if versions == p.versions => {}
                                Ok(_) => note_failure(&mut report, op, "reference prefix disagrees"),
                                Err(e) => note_failure(&mut report, op, &e.to_string()),
                            }
                            Served::Array(p.versions)
                        }
                        Err(e) => Served::Error(e.to_string()),
                    };
                    tr.exit(span);
                    served.push(out);
                }
                (Command::Append { object, payload }, _) => {
                    let span = tr.enter("engine.append", op.seq);
                    let out = match cluster.append_version(object, payload) {
                        Ok(id) => {
                            if let Err(e) =
                                lower.append(tr, op.seq, op.object, &mut archives[op.object], payload)
                            {
                                note_failure(&mut report, op, &e.to_string());
                            }
                            Served::Int(id.0 as u64)
                        }
                        Err(e) => Served::Error(e.to_string()),
                    };
                    tr.exit(span);
                    served.push(out);
                }
                (other, _) => panic!("the benchmark never sends {other:?}"),
            }
            i += 1;
        }

        for (op, out) in window.iter().zip(&served) {
            let span = tr.enter("proto.encode", op.seq);
            match out {
                Served::Bulk(data) => proto::write_bulk(&mut wbuf, data),
                Served::Array(versions) => {
                    proto::write_array_header(&mut wbuf, versions.len());
                    for v in versions {
                        proto::write_bulk(&mut wbuf, v);
                    }
                }
                Served::Int(v) => proto::write_int(&mut wbuf, *v),
                Served::Error(message) => proto::write_error(&mut wbuf, message),
            }
            tr.exit(span);
        }
        tr.exit(root);
        black_box(&wbuf);

        let check = tr.enter("loadgen.check", first);
        for (op, out) in window.iter().zip(&served) {
            report.ops += 1;
            report.class_ops[op.class as usize] += 1;
            if !matches(out, &op.expect) {
                let why = match out {
                    Served::Error(message) => message.as_str(),
                    _ => "wrong result",
                };
                note_failure(&mut report, op, why);
            }
        }
        tr.exit(check);
    }

    let after = cluster.metrics_snapshot();
    report.cache_hits = after.cache.hits - before.cache.hits;
    report.base_hits = after.cache.base_hits - before.cache.base_hits;
    report.deltas_applied = after.deltas_applied - before.deltas_applied;
    Ok(report)
}
