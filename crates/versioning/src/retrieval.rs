//! Retrieval scenarios for [`ByteVersionedArchive`](crate::ByteVersionedArchive)
//! on the paper's §III-D history: a (20, 10) code, ten one-byte blocks per
//! version and sparsity profile {3, 8, 3, 6}, so every measured read count
//! can be checked against the figures the paper prints.

mod tests {
    use crate::archive::{ArchiveConfig, EncodingStrategy};
    use crate::byte_archive::ByteVersionedArchive;
    use crate::error::VersioningError;
    use sec_erasure::GeneratorForm;

    /// Builds the §III-D version sequence: k = 10, sparsity profile {3, 8, 3, 6}.
    fn paper_versions() -> Vec<Vec<u8>> {
        let mut versions = vec![(1..=10).collect::<Vec<u8>>()];
        let edits: [&[usize]; 4] = [
            &[0, 1, 2],
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &[3, 4, 5],
            &[0, 2, 4, 6, 8, 9],
        ];
        for positions in edits {
            let mut next = versions[versions.len() - 1].clone();
            for &p in positions {
                next[p] ^= 0x80;
            }
            versions.push(next);
        }
        versions
    }

    fn build(strategy: EncodingStrategy, form: GeneratorForm) -> (ByteVersionedArchive, Vec<Vec<u8>>) {
        let config = ArchiveConfig::new(20, 10, form, strategy).unwrap();
        let mut archive = ByteVersionedArchive::new(config).unwrap();
        let versions = paper_versions();
        archive.append_all(&versions).unwrap();
        (archive, versions)
    }

    #[test]
    fn every_strategy_recovers_every_version_exactly() {
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
            EncodingStrategy::NonDifferential,
        ] {
            for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
                let (archive, versions) = build(strategy, form);
                for l in 1..=versions.len() {
                    let r = archive.retrieve_version(l).unwrap();
                    assert_eq!(r.data, versions[l - 1], "{strategy} {form} version {l}");
                    assert_eq!(r.version, l);
                }
                let prefix = archive.retrieve_prefix(versions.len()).unwrap();
                assert_eq!(prefix.versions, versions, "{strategy} {form} prefix");
            }
        }
    }

    #[test]
    fn io_reads_match_io_model_for_basic_sec() {
        let (archive, versions) = build(EncodingStrategy::BasicSec, GeneratorForm::NonSystematic);
        let model = archive.chain().config().io_model();
        assert_eq!(archive.chain().sparsity_profile(), &[3, 8, 3, 6]);
        let expect_version = [10, 16, 26, 32, 42];
        for l in 1..=versions.len() {
            let r = archive.retrieve_version(l).unwrap();
            assert_eq!(r.io_reads, expect_version[l - 1], "version {l}");
            assert_eq!(
                r.io_reads,
                model.version_reads(EncodingStrategy::BasicSec, archive.chain().sparsity_profile(), l)
            );
            let p = archive.retrieve_prefix(l).unwrap();
            assert_eq!(
                p.io_reads,
                model.prefix_reads(EncodingStrategy::BasicSec, archive.chain().sparsity_profile(), l)
            );
        }
        // Total for all 5 versions: 42 (vs 50 non-differential).
        assert_eq!(archive.retrieve_prefix(5).unwrap().io_reads, 42);
    }

    #[test]
    fn io_reads_match_io_model_for_optimized_sec() {
        let (archive, versions) = build(EncodingStrategy::OptimizedSec, GeneratorForm::NonSystematic);
        let model = archive.chain().config().io_model();
        let expect_version = [10, 16, 10, 16, 10];
        for l in 1..=versions.len() {
            let r = archive.retrieve_version(l).unwrap();
            assert_eq!(r.io_reads, expect_version[l - 1], "version {l}");
            assert_eq!(
                r.io_reads,
                model.version_reads(
                    EncodingStrategy::OptimizedSec,
                    archive.chain().sparsity_profile(),
                    l
                )
            );
        }
        assert_eq!(archive.retrieve_prefix(5).unwrap().io_reads, 42);
    }

    #[test]
    fn io_reads_match_io_model_for_reversed_and_non_differential() {
        let (rev, versions) = build(EncodingStrategy::ReversedSec, GeneratorForm::NonSystematic);
        let model = rev.chain().config().io_model();
        for l in 1..=versions.len() {
            let r = rev.retrieve_version(l).unwrap();
            assert_eq!(
                r.io_reads,
                model.version_reads(EncodingStrategy::ReversedSec, rev.chain().sparsity_profile(), l),
                "reversed version {l}"
            );
        }
        assert_eq!(rev.retrieve_version(5).unwrap().io_reads, 10);

        let (nd, _) = build(EncodingStrategy::NonDifferential, GeneratorForm::NonSystematic);
        for l in 1..=5 {
            assert_eq!(nd.retrieve_version(l).unwrap().io_reads, 10);
            assert_eq!(nd.retrieve_prefix(l).unwrap().io_reads, 10 * l);
        }
    }

    #[test]
    fn retrieval_error_paths() {
        let config =
            ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
        let empty = ByteVersionedArchive::new(config).unwrap();
        assert!(matches!(
            empty.retrieve_version(1),
            Err(VersioningError::EmptyArchive)
        ));
        assert!(matches!(
            empty.retrieve_prefix(1),
            Err(VersioningError::EmptyArchive)
        ));

        let (archive, _) = build(EncodingStrategy::BasicSec, GeneratorForm::NonSystematic);
        assert!(matches!(
            archive.retrieve_version(0),
            Err(VersioningError::NoSuchVersion {
                requested: 0,
                available: 5
            })
        ));
        assert!(matches!(
            archive.retrieve_version(6),
            Err(VersioningError::NoSuchVersion { requested: 6, .. })
        ));
    }

    #[test]
    fn identical_consecutive_versions_cost_no_delta_reads() {
        let config =
            ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
        let mut archive = ByteVersionedArchive::new(config).unwrap();
        let v = vec![5u8; 3];
        archive.append_version(&v).unwrap();
        archive.append_version(&v).unwrap();
        let r = archive.retrieve_version(2).unwrap();
        assert_eq!(r.data, v);
        // k reads for x1, zero reads for the empty delta.
        assert_eq!(r.io_reads, 3);
    }
}
