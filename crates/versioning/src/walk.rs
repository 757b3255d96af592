//! The per-strategy retrieval traversal, shared by every byte-shard read
//! path.
//!
//! Three layers serve versions out of the same stored-entry layout — the
//! all-nodes-alive [`ByteVersionedArchive`](crate::ByteVersionedArchive),
//! the failure-aware `ByteDistributedStore` in `sec-store`, and the
//! concurrent `SecEngine` in `sec-engine`. They differ only in *how one
//! entry's blocks are fetched and decoded*; the strategy walk itself (find
//! the anchor, XOR deltas forward, or un-apply deltas backward from the
//! Reversed-SEC latest copy) is identical. This module holds that walk
//! once, parameterized over a per-entry read callback, so the strategy
//! semantics cannot drift between layers.
//!
//! Conventions shared by every caller:
//!
//! * `payload_at(i)` describes stored entry `i` of `stored_count` entries in
//!   entry order, with the Reversed-SEC full latest copy as the **final**
//!   element (the order of [`VersionChain::layout`](crate::VersionChain::layout));
//! * the read callback receives the entry index and returns
//!   `(block_reads, decoded_data_shards)`; the `γ = 0` shortcut (an empty
//!   delta needs no reads) is provided by [`read_target`] returning `None`;
//! * version bounds are validated by the caller — the walk assumes
//!   `1 ≤ l ≤ L`.

use sec_erasure::read_plan::{DecodeMethod, ReadTarget};
use sec_erasure::{ByteCodec, ByteShards, CodeError};

use crate::archive::{EncodingStrategy, StoredPayload};

/// Result of one strategy walk: the I/O spent and what was reconstructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Total block reads spent.
    pub io_reads: usize,
    /// Number of stored entries that were touched.
    pub entries_read: usize,
    /// The reconstructed data shards of the requested version.
    pub shards: ByteShards,
}

/// Reconstructs version `l` by walking the stored entries under `strategy`,
/// fetching each touched entry through `read_entry`.
///
/// # Errors
///
/// Propagates the first `read_entry` error; shard-shape mismatches during
/// delta application surface through `E: From<CodeError>`.
pub fn walk_version<E, P, R>(
    strategy: EncodingStrategy,
    stored_count: usize,
    payload_at: P,
    l: usize,
    mut read_entry: R,
) -> Result<WalkOutcome, E>
where
    E: From<CodeError>,
    P: Fn(usize) -> StoredPayload,
    R: FnMut(usize) -> Result<(usize, ByteShards), E>,
{
    match strategy {
        EncodingStrategy::NonDifferential => {
            let (io_reads, shards) = read_entry(l - 1)?;
            Ok(WalkOutcome {
                io_reads,
                entries_read: 1,
                shards,
            })
        }
        EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => {
            let anchor = (0..l)
                .rev()
                .find(|&idx| matches!(payload_at(idx), StoredPayload::FullVersion { .. }))
                // audit: panic ok — archive invariant: entry 0 always stores a full version
                .expect("the first entry always stores a full version");
            let (mut io_reads, mut acc) = read_entry(anchor)?;
            let mut entries_read = 1;
            for idx in anchor + 1..l {
                let (reads, delta) = read_entry(idx)?;
                io_reads += reads;
                entries_read += 1;
                acc.xor_with(&delta)?;
            }
            Ok(WalkOutcome {
                io_reads,
                entries_read,
                shards: acc,
            })
        }
        EncodingStrategy::ReversedSec => {
            // The full latest copy is the final stored entry; un-apply the
            // deltas z_L, …, z_{l+1} backwards.
            let latest_idx = stored_count - 1;
            let (mut io_reads, mut acc) = read_entry(latest_idx)?;
            let mut entries_read = 1;
            for idx in (l.saturating_sub(1)..latest_idx).rev() {
                let (reads, delta) = read_entry(idx)?;
                io_reads += reads;
                entries_read += 1;
                acc.xor_with(&delta)?;
            }
            Ok(WalkOutcome {
                io_reads,
                entries_read,
                shards: acc,
            })
        }
    }
}

/// Reconstructs version `l` under Basic/Optimized SEC starting from an
/// already-decoded base: `base_shards` holds version `base_version`
/// (1-based, `base_version ≤ l`), and the walk XORs only the trailing
/// deltas `z_{b+1}, …, z_l` on top of it.
///
/// Two cases leave the base unused (the second bool in the return is
/// `false`): the degenerate `base_version == l` never happens here because
/// the caller serves an exact hit directly, but a stored **full version**
/// inside the region to walk does — a checkpoint or Optimized-threshold
/// full at entry `f ∈ [b, l)` is not a delta and cannot be XORed, and
/// anchoring the plain walk at the *latest* such full is cheaper than any
/// cached base below it. In that case this falls back to [`walk_version`].
///
/// # Errors
///
/// As for [`walk_version`].
pub fn walk_version_from_base<E, P, R>(
    strategy: EncodingStrategy,
    stored_count: usize,
    payload_at: P,
    l: usize,
    base_version: usize,
    base_shards: ByteShards,
    mut read_entry: R,
) -> Result<(WalkOutcome, bool), E>
where
    E: From<CodeError>,
    P: Fn(usize) -> StoredPayload,
    R: FnMut(usize) -> Result<(usize, ByteShards), E>,
{
    debug_assert!(matches!(
        strategy,
        EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec
    ));
    debug_assert!(base_version >= 1 && base_version <= l);
    if base_version == l {
        return Ok((
            WalkOutcome {
                io_reads: 0,
                entries_read: 0,
                shards: base_shards,
            },
            true,
        ));
    }
    // Entry `v - 1` stores the delta to version `v`, so the trailing deltas
    // occupy entries `base_version..l`. A full version stored in that range
    // both invalidates the XOR chain and offers a closer anchor.
    if (base_version..l).any(|idx| matches!(payload_at(idx), StoredPayload::FullVersion { .. })) {
        return walk_version(strategy, stored_count, payload_at, l, read_entry).map(|out| (out, false));
    }
    let mut acc = base_shards;
    let mut io_reads = 0;
    let mut entries_read = 0;
    for idx in base_version..l {
        let (reads, delta) = read_entry(idx)?;
        io_reads += reads;
        entries_read += 1;
        acc.xor_with(&delta)?;
    }
    Ok((
        WalkOutcome {
            io_reads,
            entries_read,
            shards: acc,
        },
        true,
    ))
}

/// Reconstructs version `l` under Reversed SEC starting from an
/// already-decoded tail: `tail_shards` holds version `tail_version`
/// (`tail_version ≥ l`), and the walk un-applies only the deltas
/// `z_{tail}, …, z_{l+1}` — never touching the stored full latest copy.
///
/// # Errors
///
/// As for [`walk_version`].
pub fn walk_version_from_tail<E, R>(
    l: usize,
    tail_version: usize,
    tail_shards: ByteShards,
    mut read_entry: R,
) -> Result<WalkOutcome, E>
where
    E: From<CodeError>,
    R: FnMut(usize) -> Result<(usize, ByteShards), E>,
{
    debug_assert!(l >= 1 && tail_version >= l);
    // Entry `v - 2` stores the delta to version `v`; un-apply deltas to
    // versions `tail_version, …, l + 1`, i.e. entries `l - 1..tail_version - 1`
    // walked newest-first.
    let mut acc = tail_shards;
    let mut io_reads = 0;
    let mut entries_read = 0;
    for idx in (l.saturating_sub(1)..tail_version.saturating_sub(1)).rev() {
        let (reads, delta) = read_entry(idx)?;
        io_reads += reads;
        entries_read += 1;
        acc.xor_with(&delta)?;
    }
    Ok(WalkOutcome {
        io_reads,
        entries_read,
        shards: acc,
    })
}

/// Reconstructs versions `1..=l` under Reversed SEC starting from an
/// already-decoded tail at `tail_version ≥ l`, un-applying deltas backwards
/// from the tail instead of reading the stored full latest copy.
///
/// # Errors
///
/// As for [`walk_version`].
pub fn walk_prefix_from_tail<E, R>(
    l: usize,
    object_len: usize,
    tail_version: usize,
    tail_shards: ByteShards,
    mut read_entry: R,
) -> Result<PrefixWalkOutcome, E>
where
    E: From<CodeError>,
    R: FnMut(usize) -> Result<(usize, ByteShards), E>,
{
    debug_assert!(l >= 1 && tail_version >= l);
    let mut acc = tail_shards;
    let mut io_reads = 0;
    let mut versions_rev = vec![trim_object(&acc, object_len)];
    for idx in (0..tail_version.saturating_sub(1)).rev() {
        let (reads, delta) = read_entry(idx)?;
        io_reads += reads;
        acc.xor_with(&delta)?;
        versions_rev.push(trim_object(&acc, object_len));
    }
    let entries_read = versions_rev.len() - 1;
    versions_rev.reverse();
    versions_rev.truncate(l);
    Ok(PrefixWalkOutcome {
        io_reads,
        entries_read,
        versions: versions_rev,
    })
}

/// Maps one stored payload to its SEC read target, or `None` for the
/// `γ = 0` shortcut: an all-zero delta is known without reading a single
/// block, so the caller should return `(0, ByteShards::zeroed(k, shard_len))`
/// directly.
pub fn read_target(payload: StoredPayload) -> Option<ReadTarget> {
    match payload {
        StoredPayload::FullVersion { .. } => Some(ReadTarget::Full),
        StoredPayload::Delta { sparsity: 0, .. } => None,
        StoredPayload::Delta { sparsity, .. } => Some(ReadTarget::Sparse { gamma: sparsity }),
    }
}

/// Decodes one planned entry read: the gathered shares of a
/// [`ReadPlan`](sec_erasure::read_plan::ReadPlan) under its chosen method.
///
/// Shared by every read layer so the method dispatch (and the invariant that
/// sparse plans only arise for sparse targets) lives once.
///
/// # Errors
///
/// Propagates decode failures from the codec.
pub fn decode_planned(
    codec: &ByteCodec,
    method: DecodeMethod,
    target: ReadTarget,
    shares: &[(usize, &[u8])],
) -> Result<ByteShards, CodeError> {
    match method {
        DecodeMethod::SystematicDirect | DecodeMethod::Inversion => codec.decode_blocks(shares),
        DecodeMethod::SparseRecovery => match target {
            ReadTarget::Sparse { gamma } => codec.recover_sparse_blocks(shares, gamma),
            // audit: panic ok — plan_read returns SparseRecovery only for ReadTarget::Sparse
            ReadTarget::Full => unreachable!("sparse plans only arise for sparse targets"),
        },
    }
}

/// Copies decoded data shards out as a flat object of `object_len` bytes,
/// dropping the shard zero-padding — the one padding rule every read layer
/// shares.
pub fn trim_object(shards: &ByteShards, object_len: usize) -> Vec<u8> {
    let len = object_len.min(shards.total_len());
    // audit: panic ok — `len` is clamped to the shard total two lines up
    shards.as_bytes()[..len].to_vec()
}

/// Result of a prefix walk: the I/O spent and versions `x_1, …, x_l`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixWalkOutcome {
    /// Total block reads spent.
    pub io_reads: usize,
    /// Number of stored entries that were touched.
    pub entries_read: usize,
    /// The reconstructed versions in order, trimmed to `object_len` bytes.
    pub versions: Vec<Vec<u8>>,
}

/// Reconstructs versions `1..=l` in one pass under `strategy`, trimming each
/// to `object_len` bytes (dropping shard zero-padding).
///
/// # Errors
///
/// As for [`walk_version`].
pub fn walk_prefix<E, P, R>(
    strategy: EncodingStrategy,
    stored_count: usize,
    payload_at: P,
    l: usize,
    object_len: usize,
    mut read_entry: R,
) -> Result<PrefixWalkOutcome, E>
where
    E: From<CodeError>,
    P: Fn(usize) -> StoredPayload,
    R: FnMut(usize) -> Result<(usize, ByteShards), E>,
{
    let trim = |shards: &ByteShards| trim_object(shards, object_len);
    match strategy {
        EncodingStrategy::NonDifferential => {
            let mut versions = Vec::with_capacity(l);
            let mut io_reads = 0;
            for idx in 0..l {
                let (reads, data) = read_entry(idx)?;
                io_reads += reads;
                versions.push(trim(&data));
            }
            Ok(PrefixWalkOutcome {
                io_reads,
                entries_read: l,
                versions,
            })
        }
        EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => {
            let mut io_reads = 0;
            let mut versions: Vec<Vec<u8>> = Vec::with_capacity(l);
            let mut acc: Option<ByteShards> = None;
            for idx in 0..l {
                let (reads, decoded) = read_entry(idx)?;
                io_reads += reads;
                match payload_at(idx) {
                    StoredPayload::FullVersion { .. } => acc = Some(decoded),
                    StoredPayload::Delta { .. } => {
                        // audit: panic ok — archive invariant: a delta is always preceded by its base full version
                        let base = acc.as_mut().expect("delta entries follow their base version");
                        base.xor_with(&decoded)?;
                    }
                }
                // audit: panic ok — `acc` was set on this or an earlier iteration (entry 0 is full)
                versions.push(trim(acc.as_ref().expect("set above")));
            }
            Ok(PrefixWalkOutcome {
                io_reads,
                entries_read: l,
                versions,
            })
        }
        EncodingStrategy::ReversedSec => {
            let latest_idx = stored_count - 1;
            let (mut io_reads, mut acc) = read_entry(latest_idx)?;
            let mut versions_rev = vec![trim(&acc)];
            for idx in (0..latest_idx).rev() {
                let (reads, delta) = read_entry(idx)?;
                io_reads += reads;
                acc.xor_with(&delta)?;
                versions_rev.push(trim(&acc));
            }
            versions_rev.reverse();
            versions_rev.truncate(l);
            Ok(PrefixWalkOutcome {
                io_reads,
                entries_read: latest_idx + 1,
                versions: versions_rev,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny in-memory entry list driving the walk directly: k = 1 shard
    /// of one byte, so deltas are single XOR bytes and outcomes are easy to
    /// enumerate by hand.
    fn entries() -> Vec<(StoredPayload, ByteShards)> {
        let full = |version, byte| {
            (
                StoredPayload::FullVersion { version },
                ByteShards::from_flat(&[byte], 1),
            )
        };
        let delta = |to, byte: u8| {
            (
                StoredPayload::Delta {
                    to,
                    sparsity: usize::from(byte != 0),
                },
                ByteShards::from_flat(&[byte], 1),
            )
        };
        // Versions: 5, 5^3 = 6, 6^1 = 7.
        vec![full(1, 5), delta(2, 3), delta(3, 1)]
    }

    fn reader(
        entries: &[(StoredPayload, ByteShards)],
    ) -> impl FnMut(usize) -> Result<(usize, ByteShards), CodeError> + '_ {
        |idx| Ok((1, entries[idx].1.clone()))
    }

    #[test]
    fn forward_walk_xors_deltas_from_the_anchor() {
        let entries = entries();
        let payloads: Vec<StoredPayload> = entries.iter().map(|(p, _)| *p).collect();
        for (l, expect) in [(1, 5u8), (2, 6), (3, 7)] {
            let out = walk_version(
                EncodingStrategy::BasicSec,
                payloads.len(),
                |i| payloads[i],
                l,
                reader(&entries),
            )
            .unwrap();
            assert_eq!(out.shards.as_bytes(), &[expect], "version {l}");
            assert_eq!(out.entries_read, l);
            assert_eq!(out.io_reads, l);
        }
    }

    #[test]
    fn reversed_walk_unapplies_from_the_latest_copy() {
        // Stored list: z_2 = 3, z_3 = 1, full x_3 = 7 (final entry).
        let entries = vec![
            (
                StoredPayload::Delta { to: 2, sparsity: 1 },
                ByteShards::from_flat(&[3], 1),
            ),
            (
                StoredPayload::Delta { to: 3, sparsity: 1 },
                ByteShards::from_flat(&[1], 1),
            ),
            (
                StoredPayload::FullVersion { version: 3 },
                ByteShards::from_flat(&[7], 1),
            ),
        ];
        let payloads: Vec<StoredPayload> = entries.iter().map(|(p, _)| *p).collect();
        for (l, expect, touched) in [(3, 7u8, 1), (2, 6, 2), (1, 5, 3)] {
            let out = walk_version(
                EncodingStrategy::ReversedSec,
                payloads.len(),
                |i| payloads[i],
                l,
                reader(&entries),
            )
            .unwrap();
            assert_eq!(out.shards.as_bytes(), &[expect], "version {l}");
            assert_eq!(out.entries_read, touched);
        }
        let prefix = walk_prefix(
            EncodingStrategy::ReversedSec,
            payloads.len(),
            |i| payloads[i],
            2,
            1,
            reader(&entries),
        )
        .unwrap();
        assert_eq!(prefix.versions, vec![vec![5u8], vec![6]]);
        assert_eq!(prefix.entries_read, 3);
    }

    #[test]
    fn prefix_walk_snapshots_every_intermediate_version() {
        let entries = entries();
        let payloads: Vec<StoredPayload> = entries.iter().map(|(p, _)| *p).collect();
        let out = walk_prefix(
            EncodingStrategy::BasicSec,
            payloads.len(),
            |i| payloads[i],
            3,
            1,
            reader(&entries),
        )
        .unwrap();
        assert_eq!(out.versions, vec![vec![5u8], vec![6], vec![7]]);
        assert_eq!(out.io_reads, 3);
    }

    #[test]
    fn forward_walk_from_base_applies_only_trailing_deltas() {
        let entries = entries();
        let payloads: Vec<StoredPayload> = entries.iter().map(|(p, _)| *p).collect();
        // Base: decoded version 2 (value 6). Target 3 needs one delta.
        let (out, base_used) = walk_version_from_base(
            EncodingStrategy::BasicSec,
            payloads.len(),
            |i| payloads[i],
            3,
            2,
            ByteShards::from_flat(&[6], 1),
            reader(&entries),
        )
        .unwrap();
        assert!(base_used);
        assert_eq!(out.shards.as_bytes(), &[7]);
        assert_eq!(out.entries_read, 1);
        assert_eq!(out.io_reads, 1);
        // Base equal to the target: nothing to read at all.
        let (out, base_used) = walk_version_from_base(
            EncodingStrategy::BasicSec,
            payloads.len(),
            |i| payloads[i],
            2,
            2,
            ByteShards::from_flat(&[6], 1),
            reader(&entries),
        )
        .unwrap();
        assert!(base_used);
        assert_eq!(out.shards.as_bytes(), &[6]);
        assert_eq!(out.io_reads, 0);
        assert_eq!(out.entries_read, 0);
    }

    #[test]
    fn forward_walk_from_base_falls_back_when_a_full_interposes() {
        // Layout with a checkpoint: full x1=5, z2=3, full x3=7, z4=2.
        // Versions: 5, 6, 7, 5.
        let full = |version, byte| {
            (
                StoredPayload::FullVersion { version },
                ByteShards::from_flat(&[byte], 1),
            )
        };
        let delta = |to, byte: u8| {
            (
                StoredPayload::Delta { to, sparsity: 1 },
                ByteShards::from_flat(&[byte], 1),
            )
        };
        let entries = vec![full(1, 5), delta(2, 3), full(3, 7), delta(4, 2)];
        let payloads: Vec<StoredPayload> = entries.iter().map(|(p, _)| *p).collect();
        // Cached base 1 is older than the stored full at entry 2: the walk
        // must anchor on the full, not XOR it onto the base.
        let (out, base_used) = walk_version_from_base(
            EncodingStrategy::OptimizedSec,
            payloads.len(),
            |i| payloads[i],
            4,
            1,
            ByteShards::from_flat(&[5], 1),
            reader(&entries),
        )
        .unwrap();
        assert!(!base_used, "full version inside the walk region");
        assert_eq!(out.shards.as_bytes(), &[5]);
        assert_eq!(out.entries_read, 2, "anchor full + one trailing delta");
        // A base past the checkpoint is used directly.
        let (out, base_used) = walk_version_from_base(
            EncodingStrategy::OptimizedSec,
            payloads.len(),
            |i| payloads[i],
            4,
            3,
            ByteShards::from_flat(&[7], 1),
            reader(&entries),
        )
        .unwrap();
        assert!(base_used);
        assert_eq!(out.shards.as_bytes(), &[5]);
        assert_eq!(out.entries_read, 1);
    }

    #[test]
    fn reversed_walk_from_tail_unapplies_only_newer_deltas() {
        // Stored list: z_2 = 3, z_3 = 1, full x_3 = 7 (final entry).
        let entries = vec![
            (
                StoredPayload::Delta { to: 2, sparsity: 1 },
                ByteShards::from_flat(&[3], 1),
            ),
            (
                StoredPayload::Delta { to: 3, sparsity: 1 },
                ByteShards::from_flat(&[1], 1),
            ),
            (
                StoredPayload::FullVersion { version: 3 },
                ByteShards::from_flat(&[7], 1),
            ),
        ];
        for (l, tail, expect, touched) in [(1, 3, 5u8, 2), (2, 3, 6, 1), (3, 3, 7, 0), (1, 2, 5, 1)] {
            let shards = ByteShards::from_flat(&[if tail == 3 { 7 } else { 6 }], 1);
            let out = walk_version_from_tail(l, tail, shards, reader(&entries)).unwrap();
            assert_eq!(out.shards.as_bytes(), &[expect], "l={l} tail={tail}");
            assert_eq!(out.entries_read, touched, "l={l} tail={tail}");
            assert_eq!(out.io_reads, touched);
        }
        // Prefix from the tail: versions 1..=2 without reading the full copy.
        let prefix =
            walk_prefix_from_tail(2, 1, 3, ByteShards::from_flat(&[7], 1), reader(&entries)).unwrap();
        assert_eq!(prefix.versions, vec![vec![5u8], vec![6]]);
        assert_eq!(prefix.entries_read, 2);
        assert_eq!(prefix.io_reads, 2);
    }

    #[test]
    fn read_errors_propagate() {
        let entries = entries();
        let payloads: Vec<StoredPayload> = entries.iter().map(|(p, _)| *p).collect();
        let result = walk_version(
            EncodingStrategy::BasicSec,
            payloads.len(),
            |i| payloads[i],
            3,
            |idx| {
                if idx == 1 {
                    Err(CodeError::SparseRecoveryFailed { gamma: 1 })
                } else {
                    Ok((1, entries[idx].1.clone()))
                }
            },
        );
        assert!(matches!(
            result,
            Err(CodeError::SparseRecoveryFailed { gamma: 1 })
        ));
    }
}
