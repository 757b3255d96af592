//! The benchmark's inputs and its deterministic costs repeat exactly.

use secbench::check::sequential;
use secbench::gen::{Dataset, OpGen, Workload};

/// The wire bytes and expected replies of the first `n` ops, plus the
/// pre-populated histories.
fn fingerprint(workload: Workload, seed: u64, n: usize) -> (Vec<u8>, Vec<String>, Vec<Vec<u8>>) {
    let data = Dataset::generate(workload, seed);
    let histories = (0..data.objects.len())
        .flat_map(|o| data.history(o))
        .map(|v| v.to_vec())
        .collect();
    let mut gen = OpGen::new(workload, seed);
    let mut wire = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..n {
        let op = gen.next_op();
        op.encode(&mut wire);
        expected.push(format!("{:?}", op.expect));
        if let Some(gap) = gen.next_gap() {
            wire.extend_from_slice(&gap.to_bits().to_le_bytes());
        }
    }
    (wire, expected, histories)
}

#[test]
fn one_seed_generates_identical_op_sequences_and_two_seeds_differ() {
    for workload in Workload::ALL {
        let first = fingerprint(workload, 7, 3000);
        let again = fingerprint(workload, 7, 3000);
        let other = fingerprint(workload, 8, 3000);
        assert!(first == again, "{} is not reproducible", workload.name());
        assert!(
            first.0 != other.0,
            "{}: seeds 7 and 8 send the same bytes",
            workload.name()
        );
        assert!(
            first.2 != other.2,
            "{}: seeds 7 and 8 share histories",
            workload.name()
        );
    }
}

#[test]
fn sequential_replay_counts_repeat_exactly() {
    for (workload, ops) in [
        (Workload::HotGet, 2000),
        (Workload::ColdArchive, 300),
        (Workload::CommitMix, 2000),
    ] {
        let first = sequential(workload, 11, ops).expect("replay runs");
        let again = sequential(workload, 11, ops).expect("replay runs");
        assert_eq!(first.failed, 0, "{}: {first:?}", workload.name());
        assert_eq!(first, again, "{}", workload.name());
        assert!(
            first.client_allocs > 0 && first.sends >= ops as u64,
            "{}: {first:?}",
            workload.name()
        );
        if workload == Workload::ColdArchive {
            assert!(first.block_reads > 0, "cold reads go to the nodes: {first:?}");
        }
    }
}
