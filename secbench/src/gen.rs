//! Seeded workload generation: object histories in the paper's sparsity
//! regime and the op sequence each workload sends.
//!
//! Everything here is a pure function of the workload and the seed. The
//! server only ever sees the generated bytes; the expected reply of every op
//! travels with it so the load generator can check each reply byte for byte.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sec_engine::ObjectId;
use sec_net::proto::{self, Command};
use sec_workload::{ArrivalProcess, SparsityPmf, ZipfPmf};

/// Code length `n` of the (6, 3) Cauchy code every workload uses.
pub const N: usize = 6;
/// Code dimension `k`.
pub const K: usize = 3;
/// Cluster shards.
pub const SHARDS: usize = 4;
/// Anchor checkpoint after this many consecutive deltas.
pub const CHECKPOINT_SPACING: usize = 8;
/// Connections the single load thread drives.
pub const CONNECTIONS: usize = 2;
/// Exponent of every Zipf draw (objects and version recency).
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Offered load of `commit_mix`, requests per second.
///
/// The engine keeps every appended version (about 20 KB resident per
/// 4 KiB APPEND), so the rate is bounded by memory, not by the server: at
/// 6000 requests/s a 10 s run appends about 12k versions and stays near
/// 250 MB, while the one server worker is busy about a fifth of the time
/// on a 2-core x86-64 host. Mean interarrival gaps stay below ~200 µs, so
/// the server's CPU rarely has to be woken from a long idle.
pub const COMMIT_MIX_RATE: f64 = 6_000.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pipelined GETs whose working set fits the delta cache.
    HotGet,
    /// Pipelined GETs and full-chain PREFIXes with the cache off and one
    /// node of every shard failed.
    ColdArchive,
    /// Open-loop APPENDs of sparse versions beside read-after-write GETs.
    CommitMix,
}

/// Which requests a workload sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// GETs only, versions Zipf by recency.
    HotGets,
    /// One PREFIX of the full chain per `prefix_one_in` requests on
    /// average; the other requests GET a version drawn uniformly.
    Archive {
        /// Mean requests per PREFIX.
        prefix_one_in: u64,
    },
    /// APPENDs with probability `append_share`; the rest GET one of the
    /// `recent` newest versions, Zipf by recency.
    Commit {
        /// Probability that a request is an APPEND.
        append_share: f64,
        /// Window of newest versions a GET targets.
        recent: usize,
    },
}

/// Sizes and traffic shape of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Objects in the cluster.
    pub objects: usize,
    /// Versions of every object before the timed phase.
    pub versions: usize,
    /// Bytes per version.
    pub object_len: usize,
    /// Delta-cache capacity of every object (0 disables the cache).
    pub cache_capacity: usize,
    /// Outstanding requests per connection in the closed loop (1 for the
    /// open loop).
    pub pipeline: usize,
    /// Poisson arrival rate of the open loop; `None` runs a closed loop.
    pub open_loop_rate: Option<f64>,
    /// Fail node 0 of every shard before timing.
    pub fail_node_zero: bool,
    /// GET every version once before timing so the cache holds them all.
    pub warm_cache: bool,
    /// Request mix.
    pub mix: Mix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::HotGet, Workload::ColdArchive, Workload::CommitMix];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotGet => "hot_get",
            Workload::ColdArchive => "cold_archive",
            Workload::CommitMix => "commit_mix",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's sizes and mix.
    pub fn spec(self) -> Spec {
        match self {
            // 256 objects × 16 versions of 768 B with a 16-version cache per
            // object: the whole working set is cached after warm-up.
            Workload::HotGet => Spec {
                objects: 256,
                versions: 16,
                object_len: 768,
                cache_capacity: 16,
                pipeline: 16,
                open_loop_rate: None,
                fail_node_zero: false,
                warm_cache: true,
                mix: Mix::HotGets,
            },
            // 32 objects × 64 versions of 12 KiB (3 × 4 KiB shards), cache
            // off: every request decodes from the nodes.
            Workload::ColdArchive => Spec {
                objects: 32,
                versions: 64,
                object_len: 12 * 1024,
                cache_capacity: 0,
                pipeline: 4,
                open_loop_rate: None,
                fail_node_zero: true,
                warm_cache: false,
                mix: Mix::Archive { prefix_one_in: 64 },
            },
            Workload::CommitMix => Spec {
                objects: 64,
                versions: 8,
                object_len: 4096,
                cache_capacity: 16,
                pipeline: 1,
                open_loop_rate: Some(COMMIT_MIX_RATE),
                fail_node_zero: false,
                warm_cache: false,
                mix: Mix::Commit {
                    append_share: 0.2,
                    recent: 16,
                },
            },
        }
    }
}

/// SplitMix64 of `seed` and a stream tag: independent, reproducible RNG
/// streams per object and per purpose.
fn stream(seed: u64, tag: u64) -> StdRng {
    let mut rng = StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // One draw decorrelates neighbouring tags.
    let first = rng.next_u64();
    StdRng::seed_from_u64(first)
}

/// The two sparsity models the paper evaluates; versions alternate between
/// them.
#[derive(Debug, Clone)]
struct Sparsity {
    exponential: SparsityPmf,
    poisson: SparsityPmf,
}

impl Sparsity {
    fn new() -> Self {
        Self {
            exponential: SparsityPmf::truncated_exponential(1.0, K).expect("valid PMF"),
            poisson: SparsityPmf::truncated_poisson(1.2, K).expect("valid PMF"),
        }
    }
}

/// One object's generated history: its newest versions and the RNG that
/// draws its next edit.
#[derive(Debug, Clone)]
pub struct ObjectModel {
    /// The object's wire id.
    pub id: ObjectId,
    versions: usize,
    /// The newest versions, oldest first (at most `keep`).
    recent: VecDeque<Arc<Vec<u8>>>,
    keep: usize,
    rng: StdRng,
    /// Realized sparsity of every delta generated so far, indexed by γ.
    pub gamma_counts: [u64; K + 1],
}

impl ObjectModel {
    fn new(id: ObjectId, object_len: usize, keep: usize, mut rng: StdRng) -> Self {
        let mut first = vec![0u8; object_len];
        for chunk in first.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
        }
        let mut recent = VecDeque::with_capacity(keep);
        recent.push_back(Arc::new(first));
        Self {
            id,
            versions: 1,
            recent,
            keep,
            rng,
            gamma_counts: [0; K + 1],
        }
    }

    /// Versions generated so far.
    pub fn versions(&self) -> usize {
        self.versions
    }

    /// Version `v` (1-based), if it is among the retained newest versions.
    pub fn version(&self, v: usize) -> Option<&Arc<Vec<u8>>> {
        let back = self.versions.checked_sub(v)?;
        let idx = self.recent.len().checked_sub(1 + back)?;
        self.recent.get(idx)
    }

    /// Generates the next version: the latest with `γ` distinct blocks
    /// edited, `γ` drawn alternately from the truncated-exponential and
    /// truncated-Poisson PMFs.
    fn advance(&mut self, sparsity: &Sparsity) -> Arc<Vec<u8>> {
        let pmf = if self.versions % 2 == 1 {
            &sparsity.exponential
        } else {
            &sparsity.poisson
        };
        let gamma = pmf.sample(&mut self.rng);
        let latest = self
            .recent
            .back()
            .expect("a model always holds its first version");
        let mut next = Vec::clone(latest);
        let object_len = next.len();
        let shard_len = object_len.div_ceil(K);
        let mut blocks: [usize; K] = std::array::from_fn(|i| i);
        for i in 0..gamma {
            let j = self.rng.gen_range(i..K);
            blocks.swap(i, j);
        }
        for &block in &blocks[..gamma] {
            // Every byte of the run is XORed with a non-zero value, so the
            // block really changes and the stored delta is exactly γ-sparse.
            let lo = block * shard_len;
            let hi = ((block + 1) * shard_len).min(object_len);
            let run = self.rng.gen_range(1..=16usize).min(hi - lo);
            let at = self.rng.gen_range(lo..=hi - run);
            for byte in &mut next[at..at + run] {
                *byte ^= self.rng.gen_range(1..=255u8);
            }
        }
        self.gamma_counts[gamma] += 1;
        let next = Arc::new(next);
        if self.recent.len() == self.keep {
            self.recent.pop_front();
        }
        self.recent.push_back(Arc::clone(&next));
        self.versions += 1;
        next
    }
}

/// Every object's history, generated from the seed.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The workload's sizes and mix.
    pub spec: Spec,
    /// One model per object.
    pub objects: Vec<ObjectModel>,
    sparsity: Sparsity,
}

impl Dataset {
    /// Generates the pre-populated histories of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let spec = workload.spec();
        let sparsity = Sparsity::new();
        // Static workloads keep every version for verification; the commit
        // mix keeps only the window its GETs target.
        let keep = match spec.mix {
            Mix::Commit { recent, .. } => recent.max(spec.versions),
            _ => spec.versions,
        };
        let objects = (0..spec.objects)
            .map(|i| {
                let id = ObjectId(stream(seed, 0x1D00 + i as u64).next_u64());
                let mut model =
                    ObjectModel::new(id, spec.object_len, keep, stream(seed, 0xDA7A_0000 + i as u64));
                for _ in 1..spec.versions {
                    model.advance(&sparsity);
                }
                model
            })
            .collect();
        Self {
            spec,
            objects,
            sparsity,
        }
    }

    /// The full initial history of object `o`, oldest first.
    pub fn history(&self, o: usize) -> Vec<Arc<Vec<u8>>> {
        self.objects[o].recent.iter().cloned().collect()
    }

    /// Realized sparsity histogram over every generated delta, indexed by γ.
    pub fn gamma_histogram(&self) -> [u64; K + 1] {
        let mut total = [0u64; K + 1];
        for model in &self.objects {
            for (t, c) in total.iter_mut().zip(model.gamma_counts) {
                *t += c;
            }
        }
        total
    }
}

/// Request kind, also the latency class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `GET <obj> <ver>`.
    Get = 0,
    /// `PREFIX <obj> <ver>`.
    Prefix = 1,
    /// `APPEND <obj> <len>`.
    Append = 2,
}

/// The reply an op must receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// One version's bytes.
    Bulk(Arc<Vec<u8>>),
    /// Versions `1..=l` in order.
    Array(Vec<Arc<Vec<u8>>>),
    /// The version number an APPEND creates.
    Int(u64),
}

/// Digits of `v` in decimal.
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

impl Expect {
    /// The first byte of the expected reply frame.
    pub fn marker(&self) -> u8 {
        match self {
            Expect::Bulk(_) => b'$',
            Expect::Array(_) => b'*',
            Expect::Int(_) => b':',
        }
    }

    /// The exact length of the expected reply frame on the wire.
    pub fn wire_len(&self) -> usize {
        let bulk = |len: usize| 1 + decimal_len(len as u64) + 2 + len + 2;
        match self {
            Expect::Bulk(data) => bulk(data.len()),
            Expect::Array(items) => {
                1 + decimal_len(items.len() as u64)
                    + 2
                    + items.iter().map(|v| bulk(v.len())).sum::<usize>()
            }
            Expect::Int(v) => 1 + decimal_len(*v) + 2,
        }
    }
}

/// One generated request with its expected reply.
#[derive(Debug, Clone)]
pub struct Op {
    /// Position in the op sequence.
    pub seq: u64,
    /// Object index into the dataset.
    pub object: usize,
    /// The object's wire id.
    pub id: ObjectId,
    /// Request kind.
    pub class: Class,
    /// GET/PREFIX target, or the version an APPEND creates.
    pub version: usize,
    /// APPEND payload.
    pub payload: Option<Arc<Vec<u8>>>,
    /// The reply the server must send.
    pub expect: Expect,
}

impl Op {
    /// The wire command.
    pub fn command(&self) -> Command<'_> {
        match self.class {
            Class::Get => Command::Get {
                object: self.id,
                version: self.version,
            },
            Class::Prefix => Command::Prefix {
                object: self.id,
                version: self.version,
            },
            Class::Append => Command::Append {
                object: self.id,
                payload: self.payload.as_deref().map_or(&[], Vec::as_slice),
            },
        }
    }

    /// Appends the request frame to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        proto::encode_command(&self.command(), out);
    }

    /// Versions the reply carries.
    pub fn versions_returned(&self) -> u64 {
        match &self.expect {
            Expect::Bulk(_) => 1,
            Expect::Array(items) => items.len() as u64,
            Expect::Int(_) => 0,
        }
    }
}

/// The seeded op sequence of one workload. APPENDs advance the generator's
/// own copy of the histories, so later GETs expect the appended bytes.
#[derive(Debug)]
pub struct OpGen {
    data: Dataset,
    rng: StdRng,
    arrival_rng: StdRng,
    arrivals: Option<ArrivalProcess>,
    object_zipf: ZipfPmf,
    version_zipf: Option<ZipfPmf>,
    seq: u64,
}

impl OpGen {
    /// The op sequence for `workload` and `seed`, starting from the
    /// histories [`Dataset::generate`] gives for the same pair.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let data = Dataset::generate(workload, seed);
        let spec = data.spec;
        let version_zipf = match spec.mix {
            Mix::HotGets => Some(spec.versions),
            Mix::Commit { recent, .. } => Some(recent),
            Mix::Archive { .. } => None,
        }
        .map(|n| ZipfPmf::new(ZIPF_EXPONENT, n).expect("valid PMF"));
        Self {
            object_zipf: ZipfPmf::new(ZIPF_EXPONENT, spec.objects).expect("valid PMF"),
            version_zipf,
            arrivals: spec
                .open_loop_rate
                .map(|rate| ArrivalProcess::poisson(rate).expect("positive rate")),
            rng: stream(seed, 0x0095),
            arrival_rng: stream(seed, 0xA441),
            data,
            seq: 0,
        }
    }

    /// The histories as the ops generated so far have left them.
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// The next interarrival gap in seconds (open loop only).
    pub fn next_gap(&mut self) -> Option<f64> {
        let arrivals = self.arrivals.as_ref()?;
        Some(arrivals.next_gap(&mut self.arrival_rng))
    }

    /// The next op of the sequence.
    pub fn next_op(&mut self) -> Op {
        let spec = self.data.spec;
        let object = self.object_zipf.sample(&mut self.rng) - 1;
        let seq = self.seq;
        self.seq += 1;
        let model = &mut self.data.objects[object];
        let id = model.id;
        let current = model.versions();
        let recency = |rng: &mut StdRng, zipf: &Option<ZipfPmf>| {
            let rank = zipf.as_ref().expect("a recency Zipf").sample(rng);
            current + 1 - rank.min(current)
        };
        let (class, version) = match spec.mix {
            Mix::HotGets => (Class::Get, recency(&mut self.rng, &self.version_zipf)),
            Mix::Archive { prefix_one_in } => {
                if self.rng.gen_range(0..prefix_one_in) == 0 {
                    (Class::Prefix, current)
                } else {
                    (Class::Get, self.rng.gen_range(1..=current))
                }
            }
            Mix::Commit { append_share, .. } => {
                if self.rng.gen_bool(append_share) {
                    (Class::Append, current + 1)
                } else {
                    (Class::Get, recency(&mut self.rng, &self.version_zipf))
                }
            }
        };
        let (payload, expect) = match class {
            Class::Get => {
                let bytes = model.version(version).expect("GETs target retained versions");
                (None, Expect::Bulk(Arc::clone(bytes)))
            }
            Class::Prefix => {
                let all = (1..=version)
                    .map(|v| {
                        Arc::clone(model.version(v).expect("static workloads retain every version"))
                    })
                    .collect();
                (None, Expect::Array(all))
            }
            Class::Append => {
                let next = model.advance(&self.data.sparsity);
                (Some(next), Expect::Int(version as u64))
            }
        };
        Op {
            seq,
            object,
            id,
            class,
            version,
            payload,
            expect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_matches_the_encoded_reply() {
        let data = |n: usize| Arc::new(vec![7u8; n]);
        for expect in [
            Expect::Bulk(data(0)),
            Expect::Bulk(data(9)),
            Expect::Bulk(data(12 * 1024)),
            Expect::Array(vec![data(768), data(10), data(100)]),
            Expect::Int(0),
            Expect::Int(1234),
        ] {
            let mut out = Vec::new();
            match &expect {
                Expect::Bulk(d) => proto::write_bulk(&mut out, d),
                Expect::Array(items) => {
                    proto::write_array_header(&mut out, items.len());
                    for item in items {
                        proto::write_bulk(&mut out, item);
                    }
                }
                Expect::Int(v) => proto::write_int(&mut out, *v),
            }
            assert_eq!(expect.wire_len(), out.len(), "{expect:?}");
            assert_eq!(expect.marker(), out[0]);
        }
    }

    /// Every APPEND differs from its predecessor in exactly the γ blocks
    /// the sparsity model drew.
    #[test]
    fn appended_versions_are_exactly_gamma_sparse_in_blocks() {
        let mut gen = OpGen::new(Workload::CommitMix, 7);
        let mut appends = 0;
        for _ in 0..2000 {
            let counts_before = gen.data.gamma_histogram();
            let op = gen.next_op();
            if op.class != Class::Append {
                continue;
            }
            appends += 1;
            let counts_after = gen.data.gamma_histogram();
            let gamma = (1..=K)
                .find(|&g| counts_after[g] != counts_before[g])
                .expect("one γ drawn");
            let model = &gen.data.objects[op.object];
            let new = model.version(op.version).expect("just appended");
            let old = model.version(op.version - 1).expect("retained");
            let shard_len = new.len().div_ceil(K);
            let changed = (0..K)
                .filter(|&b| {
                    let hi = ((b + 1) * shard_len).min(new.len());
                    new[b * shard_len..hi] != old[b * shard_len..hi]
                })
                .count();
            assert_eq!(changed, gamma, "op {}", op.seq);
        }
        assert!(appends > 300);
    }
}
