//! Property-based tests: any randomly edited version history is stored and
//! retrieved exactly by every strategy, and SEC never costs more I/O than the
//! non-differential baseline for whole-archive reads.

use proptest::prelude::*;

use sec_erasure::GeneratorForm;

use crate::archive::{ArchiveConfig, CheckpointPolicy, EncodingStrategy, StoredPayload};
use crate::byte_archive::{ByteEncodedEntry, ByteVersionedArchive, VersionChain};

const N: usize = 12;
const K: usize = 6;

/// Strategy producing a random version history of `K`-block objects (blocks
/// of 1–4 bytes): a base object plus a list of per-version edit sets
/// (block, byte within the block, non-zero XOR mask).
fn history() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (1usize..=4).prop_flat_map(|block_len| {
        let base = prop::collection::vec(0u8..=255, K * block_len);
        let edit = (0usize..K, 0usize..block_len, 1u8..=255);
        let edits = prop::collection::vec(prop::collection::vec(edit, 1..=K), 1..6);
        (base, edits).prop_map(move |(base, edits)| {
            let mut versions = vec![base];
            for edit_set in edits {
                let mut next = versions[versions.len() - 1].clone();
                for (block, offset, mask) in edit_set {
                    next[block * block_len + offset] ^= mask;
                }
                versions.push(next);
            }
            versions
        })
    })
}

/// Number of blocks that differ between consecutive versions.
fn sparsity_profile(versions: &[Vec<u8>]) -> Vec<usize> {
    versions
        .windows(2)
        .map(|pair| {
            let block_len = pair[0].len() / K;
            (0..K)
                .filter(|&b| {
                    pair[0][b * block_len..(b + 1) * block_len]
                        != pair[1][b * block_len..(b + 1) * block_len]
                })
                .count()
        })
        .collect()
}

fn all_strategies() -> [EncodingStrategy; 4] {
    [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
        EncodingStrategy::NonDifferential,
    ]
}

fn build(strategy: EncodingStrategy, form: GeneratorForm, versions: &[Vec<u8>]) -> ByteVersionedArchive {
    let config = ArchiveConfig::new(N, K, form, strategy).unwrap();
    let mut archive = ByteVersionedArchive::new(config).unwrap();
    archive.append_all(versions).unwrap();
    archive
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_strategy_round_trips_random_histories(versions in history()) {
        let policies = [CheckpointPolicy::disabled(), CheckpointPolicy::every(2)];
        for (strategy, policy) in all_strategies().into_iter().flat_map(|s| policies.map(|p| (s, p))) {
            for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
                let config = ArchiveConfig::new(N, K, form, strategy).unwrap().with_checkpoints(policy);
                let mut archive = ByteVersionedArchive::new(config).unwrap();
                // A bare chain fed the same versions, its entries stored the
                // way `sec-engine` stores them: drop from `first_slot`, then
                // write what the append returned.
                let mut chain = VersionChain::new(config).unwrap();
                let mut stored: Vec<ByteEncodedEntry> = Vec::new();
                for version in &versions {
                    archive.append_version(version).unwrap();
                    let (_, first_slot, written) = chain.append_version(version).unwrap();
                    stored.truncate(first_slot);
                    stored.extend(written);
                    let entries = archive.stored_entries();
                    let payloads: Vec<StoredPayload> = entries.iter().map(|e| e.payload).collect();
                    prop_assert_eq!(archive.chain().layout(), payloads.as_slice());
                    for entry in &entries {
                        prop_assert_eq!(entry.shards.shard_len(), archive.chain().shard_len());
                    }
                    prop_assert_eq!(entries, stored.iter().collect::<Vec<_>>());
                }
                prop_assert_eq!(archive.chain().len(), versions.len());
                for (l, expect) in versions.iter().enumerate() {
                    let r = archive.retrieve_version(l + 1).unwrap();
                    prop_assert_eq!(&r.data, expect);
                }
                let prefix = archive.retrieve_prefix(versions.len()).unwrap();
                prop_assert_eq!(&prefix.versions, &versions);
            }
        }
    }

    #[test]
    fn archive_io_matches_io_model_and_beats_baseline(versions in history()) {
        let profile = sparsity_profile(&versions);
        for strategy in [EncodingStrategy::BasicSec, EncodingStrategy::OptimizedSec] {
            let archive = build(strategy, GeneratorForm::NonSystematic, &versions);
            prop_assert_eq!(archive.chain().sparsity_profile(), profile.as_slice());
            let model = archive.chain().config().io_model();
            for l in 1..=versions.len() {
                let measured = archive.retrieve_version(l).unwrap().io_reads;
                let predicted = model.version_reads(strategy, &profile, l);
                prop_assert_eq!(measured, predicted, "{} version {}", strategy, l);
                let prefix_measured = archive.retrieve_prefix(l).unwrap().io_reads;
                let prefix_predicted = model.prefix_reads(strategy, &profile, l);
                prop_assert_eq!(prefix_measured, prefix_predicted);
                // SEC never reads more than the non-differential baseline for
                // whole-prefix retrieval.
                prop_assert!(prefix_measured <= l * K);
            }
        }
    }

    #[test]
    fn sparsity_profile_is_strategy_independent(versions in history()) {
        let mut profiles = Vec::new();
        for strategy in all_strategies() {
            let archive = build(strategy, GeneratorForm::NonSystematic, &versions);
            profiles.push(archive.chain().sparsity_profile().to_vec());
        }
        for pair in profiles.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1]);
        }
    }

    #[test]
    fn storage_footprint_is_l_times_n(versions in history()) {
        let block_len = versions[0].len() / K;
        for strategy in all_strategies() {
            let archive = build(strategy, GeneratorForm::NonSystematic, &versions);
            prop_assert_eq!(archive.stored_entry_count(), versions.len(), "{}", strategy);
            prop_assert_eq!(archive.stored_bytes(), versions.len() * N * block_len, "{}", strategy);
        }
    }
}
