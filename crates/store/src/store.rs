//! Store scenarios on the smallest archive of the paper's examples: a (6, 3)
//! code whose versions are three one-byte blocks, so block reads equal the
//! symbol reads the paper counts. Each scenario writes the archive through
//! [`ByteDistributedStore`](crate::ByteDistributedStore), then fails,
//! repairs and reads it.

mod tests {
    use crate::{ByteDistributedStore, FailurePattern, IoMetrics, StoreError};
    use sec_erasure::GeneratorForm;
    use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy, VersioningError};

    fn versions() -> Vec<Vec<u8>> {
        let v1 = vec![1u8, 2, 3];
        let mut v2 = v1.clone();
        v2[0] = 100;
        let mut v3 = v2.clone();
        v3[1] = 200;
        vec![v1, v2, v3]
    }

    fn archive(strategy: EncodingStrategy) -> (ByteVersionedArchive, Vec<Vec<u8>>) {
        let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, strategy).unwrap();
        let mut archive = ByteVersionedArchive::new(config).unwrap();
        let vs = versions();
        archive.append_all(&vs).unwrap();
        (archive, vs)
    }

    #[test]
    fn colocated_store_round_trips_all_strategies() {
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
            EncodingStrategy::NonDifferential,
        ] {
            let (archive, vs) = archive(strategy);
            let store = ByteDistributedStore::colocated(&archive);
            assert_eq!(store.node_count(), 6);
            for (l, expect) in vs.iter().enumerate() {
                let r = store.retrieve_version(&archive, l + 1).unwrap();
                assert_eq!(&r.data, expect, "{strategy:?} version {}", l + 1);
            }
            assert!(store.metrics().symbol_reads > 0);
            assert_eq!(store.metrics().retrievals, vs.len() as u64);
        }
    }

    #[test]
    fn dispersed_store_uses_distinct_node_sets() {
        let (archive, vs) = archive(EncodingStrategy::BasicSec);
        let store = ByteDistributedStore::dispersed(&archive);
        assert_eq!(store.node_count(), 18);
        let r = store.retrieve_version(&archive, 3).unwrap();
        assert_eq!(r.data, vs[2]);
        // Each entry's nodes hold exactly one block.
        assert_eq!(store.node(0).unwrap().stored_symbols(), 1);
    }

    #[test]
    fn io_reads_match_all_alive_archive_retrieval() {
        for strategy in [EncodingStrategy::BasicSec, EncodingStrategy::OptimizedSec] {
            let (archive, vs) = archive(strategy);
            let store = ByteDistributedStore::colocated(&archive);
            for l in 1..=vs.len() {
                let via_store = store.retrieve_version(&archive, l).unwrap().io_reads;
                let via_archive = archive.retrieve_version(l).unwrap().io_reads;
                assert_eq!(via_store, via_archive, "{strategy:?} version {l}");
            }
        }
    }

    #[test]
    fn survives_n_minus_k_failures_colocated() {
        let (archive, vs) = archive(EncodingStrategy::BasicSec);
        let store = ByteDistributedStore::colocated(&archive);
        store.fail_node(0).unwrap();
        store.fail_node(3).unwrap();
        store.fail_node(5).unwrap();
        assert!(store.archive_recoverable(&archive));
        for (l, expect) in vs.iter().enumerate() {
            assert_eq!(&store.retrieve_version(&archive, l + 1).unwrap().data, expect);
        }
        // A fourth failure makes full objects unrecoverable.
        store.fail_node(1).unwrap();
        assert!(!store.archive_recoverable(&archive));
        assert!(matches!(
            store.retrieve_version(&archive, 1),
            Err(StoreError::Unrecoverable { .. })
        ));
    }

    #[test]
    fn repair_rebuilds_lost_symbols() {
        let (archive, vs) = archive(EncodingStrategy::BasicSec);
        let mut store = ByteDistributedStore::colocated(&archive);
        store.fail_node(2).unwrap();
        let rebuilt = store.repair_node(&archive, 2).unwrap();
        // Three entries, one block each on node 2.
        assert_eq!(rebuilt, 3);
        assert_eq!(store.metrics().repairs, 1);
        // The node serves reads again and the archive remains intact.
        store.fail_node(0).unwrap();
        store.fail_node(1).unwrap();
        store.fail_node(3).unwrap();
        assert!(store.archive_recoverable(&archive));
        assert_eq!(store.retrieve_version(&archive, 3).unwrap().data, vs[2]);
    }

    #[test]
    fn repair_fails_when_too_few_survivors() {
        let (archive, _) = archive(EncodingStrategy::BasicSec);
        let mut store = ByteDistributedStore::colocated(&archive);
        for node in [0, 1, 2, 3] {
            store.fail_node(node).unwrap();
        }
        assert!(matches!(
            store.repair_node(&archive, 0),
            Err(StoreError::Unrecoverable { .. })
        ));
    }

    #[test]
    fn error_paths_and_metrics_reset() {
        let (archive, _) = archive(EncodingStrategy::BasicSec);
        let store = ByteDistributedStore::colocated(&archive);
        assert!(matches!(
            store.retrieve_version(&archive, 0),
            Err(StoreError::Versioning(VersioningError::NoSuchVersion { .. }))
        ));
        assert!(matches!(
            store.retrieve_version(&archive, 9),
            Err(StoreError::Versioning(VersioningError::NoSuchVersion { .. }))
        ));
        let _ = store.retrieve_version(&archive, 1).unwrap();
        assert!(store.metrics().symbol_reads > 0);
        store.reset_metrics();
        assert_eq!(store.metrics(), IoMetrics::default());
        // Display impls.
        assert!(StoreError::Unrecoverable { entry: 2 }
            .to_string()
            .contains("entry 2"));
        assert!(StoreError::ArchiveMismatch {
            provisioned: 1,
            supplied: 2
        }
        .to_string()
        .contains("provisioned"));
        assert!(StoreError::InvalidNode { node: 9, n: 6 }
            .to_string()
            .contains("node id 9"));
    }

    #[test]
    fn overwrite_patterns_replace_existing_failures() {
        let (archive, _) = archive(EncodingStrategy::BasicSec);
        let store = ByteDistributedStore::colocated(&archive);
        store.fail_node(0).unwrap();
        // Overwrite: the pattern revives every covered node it marks alive.
        store.apply_pattern(&FailurePattern::with_failures(6, &[2]));
        assert!(store.node(1).unwrap().is_alive());
        assert!(store.node(0).unwrap().is_alive());
        assert!(!store.node(2).unwrap().is_alive());
    }
}
