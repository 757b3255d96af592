//! The [`VersionedArchive`]: appending versions under a chosen encoding
//! strategy and holding the resulting encoded entries.

use core::fmt;

use sec_erasure::{CodeParams, GeneratorForm, SecCode};
use sec_gf::GaloisField;

use crate::delta::Delta;
use crate::error::VersioningError;
use crate::io_model::IoModel;
use crate::object::VersionId;

/// How successive versions are mapped to stored (erasure-coded) objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingStrategy {
    /// Paper's basic SEC: store `x_1` in full, then every delta.
    BasicSec,
    /// Paper's "Optimized Step j+1": store the full version instead of the
    /// delta whenever the delta is not exploitable (`γ ≥ k/2`).
    OptimizedSec,
    /// Paper's "Reversed SEC": store all deltas plus the *latest* version in
    /// full, favouring access to recent versions.
    ReversedSec,
    /// Baseline: every version encoded in full, no deltas.
    NonDifferential,
}

impl fmt::Display for EncodingStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EncodingStrategy::BasicSec => "basic-sec",
            EncodingStrategy::OptimizedSec => "optimized-sec",
            EncodingStrategy::ReversedSec => "reversed-sec",
            EncodingStrategy::NonDifferential => "non-differential",
        };
        write!(f, "{name}")
    }
}

/// Anchor-checkpoint policy: materialize a full version every `spacing`
/// consecutive deltas in a Basic/Optimized SEC chain.
///
/// With spacing `c`, at most `c` deltas separate any version from its
/// nearest stored full version, so a single-version read costs at most
/// `k · (1 + c)` blocks — worst-case read amplification is bounded by
/// `1 + c` regardless of chain length. This generalizes the paper's
/// Optimized SEC rule (store full when `2γ ≥ k`), which bounds the *cost*
/// of each link but not the *number* of links walked.
///
/// `spacing = 0` (the [`Default`]) disables checkpointing; the archive then
/// behaves exactly as the paper describes. Reversed SEC and the
/// non-differential baseline already bound their walks (latest copy /
/// per-version fulls) and ignore the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CheckpointPolicy {
    /// Number of consecutive deltas after which the next append stores the
    /// full version instead; zero disables checkpointing.
    pub spacing: usize,
}

impl CheckpointPolicy {
    /// A policy inserting a checkpoint after every `spacing` deltas.
    pub fn every(spacing: usize) -> Self {
        Self { spacing }
    }

    /// The disabled policy (no checkpoints; paper-exact layouts).
    pub fn disabled() -> Self {
        Self { spacing: 0 }
    }

    /// `true` when checkpoints are being inserted.
    pub fn is_enabled(&self) -> bool {
        self.spacing > 0
    }
}

/// Configuration of a versioned archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveConfig {
    params: CodeParams,
    form: GeneratorForm,
    strategy: EncodingStrategy,
    checkpoints: CheckpointPolicy,
}

impl ArchiveConfig {
    /// Creates and validates a configuration (checkpointing disabled; opt in
    /// with [`ArchiveConfig::with_checkpoints`]).
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::Code`] when the `(n, k)` pair is invalid.
    pub fn new(
        n: usize,
        k: usize,
        form: GeneratorForm,
        strategy: EncodingStrategy,
    ) -> Result<Self, VersioningError> {
        Ok(Self {
            params: CodeParams::new(n, k)?,
            form,
            strategy,
            checkpoints: CheckpointPolicy::disabled(),
        })
    }

    /// Returns the configuration with the given checkpoint policy.
    pub fn with_checkpoints(mut self, checkpoints: CheckpointPolicy) -> Self {
        self.checkpoints = checkpoints;
        self
    }

    /// The `(n, k)` code parameters.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The generator form.
    pub fn form(&self) -> GeneratorForm {
        self.form
    }

    /// The encoding strategy.
    pub fn strategy(&self) -> EncodingStrategy {
        self.strategy
    }

    /// The anchor-checkpoint policy.
    pub fn checkpoints(&self) -> CheckpointPolicy {
        self.checkpoints
    }

    /// The I/O model induced by this configuration.
    pub fn io_model(&self) -> IoModel {
        IoModel::new(self.params, self.form)
    }
}

/// What one stored, erasure-coded object represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoredPayload {
    /// The full contents of a version.
    FullVersion {
        /// 1-based version number.
        version: usize,
    },
    /// The delta from version `to - 1` to version `to`.
    Delta {
        /// 1-based version number this delta produces when applied to its
        /// predecessor.
        to: usize,
        /// Sparsity level `γ` of the delta.
        sparsity: usize,
    },
}

impl StoredPayload {
    /// Number of I/O reads needed to retrieve this stored object under the
    /// given model.
    pub fn reads(&self, model: &IoModel) -> usize {
        match self {
            StoredPayload::FullVersion { .. } => model.full_object_reads(),
            StoredPayload::Delta { sparsity, .. } => model.delta_reads(*sparsity),
        }
    }
}

/// One erasure-coded stored object: its semantic payload and its `n` coded
/// symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedEntry<F> {
    /// What the codeword encodes.
    pub payload: StoredPayload,
    /// The `n` coded symbols, indexed by node position within the entry's
    /// node set.
    pub codeword: Vec<F>,
}

/// A delta-based versioned archive encoded with SEC.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct VersionedArchive<F> {
    config: ArchiveConfig,
    code: SecCode<F>,
    /// Stored objects in append order. For Basic/Optimized/NonDifferential the
    /// entry at index `j` corresponds to version `j + 1`. For Reversed SEC the
    /// entries are the deltas `z_2, …, z_L` (index `j` ↦ delta to version
    /// `j + 2`) and the full latest copy lives in `latest_full`.
    entries: Vec<EncodedEntry<F>>,
    /// Reversed SEC only: the full encoding of the latest version.
    latest_full: Option<EncodedEntry<F>>,
    /// Plaintext of the latest version, kept for delta computation (the
    /// paper's "cache a full copy of the latest version" rule, as state the
    /// append path *owns* rather than a cache entry it hopes survives).
    latest: Vec<F>,
    sparsity: Vec<usize>,
    versions: usize,
    /// Consecutive deltas since the last stored full version.
    delta_run: usize,
    checkpoints_written: usize,
}

impl<F: GaloisField> VersionedArchive<F> {
    /// Creates an empty archive.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::Code`] when the configured code cannot be
    /// built over `F` (field too small for the Cauchy construction).
    pub fn new(config: ArchiveConfig) -> Result<Self, VersioningError> {
        let code = SecCode::cauchy(config.params.n, config.params.k, config.form)?;
        Ok(Self {
            config,
            code,
            entries: Vec::new(),
            latest_full: None,
            latest: Vec::new(),
            sparsity: Vec::new(),
            versions: 0,
            delta_run: 0,
            checkpoints_written: 0,
        })
    }

    /// The archive configuration.
    pub fn config(&self) -> ArchiveConfig {
        self.config
    }

    /// The underlying erasure code.
    pub fn code(&self) -> &SecCode<F> {
        &self.code
    }

    /// Number of versions appended so far (`L`).
    pub fn len(&self) -> usize {
        self.versions
    }

    /// `true` when no version has been appended.
    pub fn is_empty(&self) -> bool {
        self.versions == 0
    }

    /// Sparsity profile `γ_2, …, γ_L` of the appended versions.
    pub fn sparsity_profile(&self) -> &[usize] {
        &self.sparsity
    }

    /// The stored entries, in append order (excluding the Reversed-SEC latest
    /// full copy, exposed by [`VersionedArchive::latest_full_entry`]).
    pub fn entries(&self) -> &[EncodedEntry<F>] {
        &self.entries
    }

    /// Reversed-SEC full copy of the latest version, when that strategy is in
    /// use and at least one version exists.
    pub fn latest_full_entry(&self) -> Option<&EncodedEntry<F>> {
        self.latest_full.as_ref()
    }

    /// Number of policy-forced checkpoint entries written so far (fulls the
    /// Optimized threshold would not have stored on its own).
    pub fn checkpoints_written(&self) -> usize {
        self.checkpoints_written
    }

    /// Total number of stored coded symbols across all entries — the storage
    /// footprint in symbols (every strategy stores `L · n` symbols; Reversed
    /// SEC keeps the same count because the full copy replaces the delta-less
    /// first entry).
    pub fn stored_symbols(&self) -> usize {
        self.entries.iter().map(|e| e.codeword.len()).sum::<usize>()
            + self.latest_full.as_ref().map_or(0, |e| e.codeword.len())
    }

    /// Appends the next version, encoding it according to the configured
    /// strategy, and returns its version id.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::ObjectLengthMismatch`] when the version does
    /// not have `k` symbols, or an encoding error from the code layer.
    pub fn append_version(&mut self, version: &[F]) -> Result<VersionId, VersioningError> {
        let k = self.config.params.k;
        if version.len() != k {
            return Err(VersioningError::ObjectLengthMismatch {
                expected: k,
                actual: version.len(),
            });
        }
        let id = VersionId(self.versions + 1);

        if self.versions == 0 {
            // First version: every strategy stores it in full (Reversed keeps
            // it as the `latest_full` copy instead of a delta entry).
            let codeword = self.code.encode(version)?;
            let entry = EncodedEntry {
                payload: StoredPayload::FullVersion { version: id.0 },
                codeword,
            };
            match self.config.strategy {
                EncodingStrategy::ReversedSec => self.latest_full = Some(entry),
                _ => self.entries.push(entry),
            }
        } else {
            let delta = Delta::between(&self.latest, version)?;
            let gamma = delta.sparsity();
            self.sparsity.push(gamma);
            // Anchor checkpoints: after `spacing` consecutive deltas the next
            // Basic/Optimized append stores the full version instead.
            let spacing = self.config.checkpoints.spacing;
            let checkpoint_due = spacing > 0 && self.delta_run >= spacing;

            match self.config.strategy {
                EncodingStrategy::NonDifferential => {
                    let codeword = self.code.encode(version)?;
                    self.entries.push(EncodedEntry {
                        payload: StoredPayload::FullVersion { version: id.0 },
                        codeword,
                    });
                }
                EncodingStrategy::BasicSec => {
                    if checkpoint_due {
                        let codeword = self.code.encode(version)?;
                        self.entries.push(EncodedEntry {
                            payload: StoredPayload::FullVersion { version: id.0 },
                            codeword,
                        });
                        self.checkpoints_written += 1;
                        self.delta_run = 0;
                    } else {
                        let codeword = self.code.encode(delta.data())?;
                        self.entries.push(EncodedEntry {
                            payload: StoredPayload::Delta {
                                to: id.0,
                                sparsity: gamma,
                            },
                            codeword,
                        });
                        self.delta_run += 1;
                    }
                }
                EncodingStrategy::OptimizedSec => {
                    let threshold_full = self.config.io_model().optimized_stores_full(gamma);
                    if threshold_full || checkpoint_due {
                        let codeword = self.code.encode(version)?;
                        self.entries.push(EncodedEntry {
                            payload: StoredPayload::FullVersion { version: id.0 },
                            codeword,
                        });
                        if !threshold_full {
                            self.checkpoints_written += 1;
                        }
                        self.delta_run = 0;
                    } else {
                        let codeword = self.code.encode(delta.data())?;
                        self.entries.push(EncodedEntry {
                            payload: StoredPayload::Delta {
                                to: id.0,
                                sparsity: gamma,
                            },
                            codeword,
                        });
                        self.delta_run += 1;
                    }
                }
                EncodingStrategy::ReversedSec => {
                    // Store the delta and refresh the full latest copy.
                    let codeword = self.code.encode(delta.data())?;
                    self.entries.push(EncodedEntry {
                        payload: StoredPayload::Delta {
                            to: id.0,
                            sparsity: gamma,
                        },
                        codeword,
                    });
                    let full = self.code.encode(version)?;
                    self.latest_full = Some(EncodedEntry {
                        payload: StoredPayload::FullVersion { version: id.0 },
                        codeword: full,
                    });
                }
            }
        }

        self.latest = version.to_vec();
        self.versions += 1;
        Ok(id)
    }

    /// Appends every version of a sequence in order, returning the id of the
    /// last one.
    ///
    /// # Errors
    ///
    /// Propagates the first append error; versions appended before the error
    /// remain in the archive.
    pub fn append_all(&mut self, versions: &[Vec<F>]) -> Result<VersionId, VersioningError> {
        let mut last = VersionId(self.versions.max(1));
        for version in versions {
            last = self.append_version(version)?;
        }
        if self.versions == 0 {
            return Err(VersioningError::EmptyArchive);
        }
        Ok(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gf::Gf1024;

    fn obj(vals: &[u64]) -> Vec<Gf1024> {
        vals.iter().map(|&v| Gf1024::from_u64(v)).collect()
    }

    fn archive(strategy: EncodingStrategy) -> VersionedArchive<Gf1024> {
        let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, strategy).unwrap();
        VersionedArchive::new(config).unwrap()
    }

    fn three_versions() -> Vec<Vec<Gf1024>> {
        let v1 = obj(&[10, 20, 30]);
        let mut v2 = v1.clone();
        v2[1] = Gf1024::from_u64(500); // γ2 = 1
        let mut v3 = v2.clone();
        v3[0] = Gf1024::from_u64(7);
        v3[2] = Gf1024::from_u64(9); // γ3 = 2 (≥ k/2 for k = 3)
        vec![v1, v2, v3]
    }

    #[test]
    fn config_accessors() {
        let config =
            ArchiveConfig::new(6, 3, GeneratorForm::Systematic, EncodingStrategy::BasicSec).unwrap();
        assert_eq!(config.params().n, 6);
        assert_eq!(config.form(), GeneratorForm::Systematic);
        assert_eq!(config.strategy(), EncodingStrategy::BasicSec);
        assert_eq!(config.io_model().full_object_reads(), 3);
        assert!(
            ArchiveConfig::new(3, 3, GeneratorForm::Systematic, EncodingStrategy::BasicSec).is_err()
        );
        assert_eq!(format!("{}", EncodingStrategy::OptimizedSec), "optimized-sec");
    }

    #[test]
    fn basic_sec_stores_full_then_deltas() {
        let mut a = archive(EncodingStrategy::BasicSec);
        assert!(a.is_empty());
        a.append_all(&three_versions()).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.sparsity_profile(), &[1, 2]);
        let payloads: Vec<StoredPayload> = a.entries().iter().map(|e| e.payload).collect();
        assert_eq!(
            payloads,
            vec![
                StoredPayload::FullVersion { version: 1 },
                StoredPayload::Delta { to: 2, sparsity: 1 },
                StoredPayload::Delta { to: 3, sparsity: 2 },
            ]
        );
        assert!(a.latest_full_entry().is_none());
        assert_eq!(a.stored_symbols(), 3 * 6);
    }

    #[test]
    fn checkpoint_policy_inserts_periodic_fulls() {
        let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
            .unwrap()
            .with_checkpoints(CheckpointPolicy::every(2));
        assert!(config.checkpoints().is_enabled());
        let mut a: VersionedArchive<Gf1024> = VersionedArchive::new(config).unwrap();
        // Six versions differing by one symbol each: with spacing 2 the
        // layout is full, δ, δ, full(checkpoint), δ, δ.
        let mut version = obj(&[10, 20, 30]);
        for v in 1..=6u64 {
            version[0] = Gf1024::from_u64(v);
            a.append_version(&version).unwrap();
        }
        let fulls: Vec<usize> = a
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.payload, StoredPayload::FullVersion { .. }))
            .map(|(idx, _)| idx)
            .collect();
        assert_eq!(fulls, vec![0, 3]);
        assert_eq!(a.checkpoints_written(), 1);
        // The disabled policy leaves the paper-exact layout untouched.
        let mut plain = archive(EncodingStrategy::BasicSec);
        plain.append_all(&three_versions()).unwrap();
        assert_eq!(plain.checkpoints_written(), 0);
    }

    #[test]
    fn optimized_sec_stores_full_for_dense_deltas() {
        let mut a = archive(EncodingStrategy::OptimizedSec);
        a.append_all(&three_versions()).unwrap();
        let payloads: Vec<StoredPayload> = a.entries().iter().map(|e| e.payload).collect();
        // γ3 = 2 ≥ k/2 = 1.5 → version 3 stored in full.
        assert_eq!(
            payloads,
            vec![
                StoredPayload::FullVersion { version: 1 },
                StoredPayload::Delta { to: 2, sparsity: 1 },
                StoredPayload::FullVersion { version: 3 },
            ]
        );
    }

    #[test]
    fn reversed_sec_keeps_latest_full() {
        let mut a = archive(EncodingStrategy::ReversedSec);
        let versions = three_versions();
        a.append_all(&versions).unwrap();
        // Entries are the two deltas; latest_full encodes version 3.
        assert_eq!(a.entries().len(), 2);
        assert!(matches!(
            a.entries()[0].payload,
            StoredPayload::Delta { to: 2, sparsity: 1 }
        ));
        let latest = a.latest_full_entry().unwrap();
        assert_eq!(latest.payload, StoredPayload::FullVersion { version: 3 });
        // The full copy decodes to version 3.
        let shares: Vec<(usize, Gf1024)> = latest.codeword.iter().copied().enumerate().take(3).collect();
        assert_eq!(a.code().decode_full(&shares).unwrap(), versions[2]);
        // Storage footprint is still L · n symbols.
        assert_eq!(a.stored_symbols(), 3 * 6);
    }

    #[test]
    fn non_differential_stores_every_version_fully() {
        let mut a = archive(EncodingStrategy::NonDifferential);
        a.append_all(&three_versions()).unwrap();
        assert!(a
            .entries()
            .iter()
            .all(|e| matches!(e.payload, StoredPayload::FullVersion { .. })));
        // The sparsity profile is still tracked for reporting purposes.
        assert_eq!(a.sparsity_profile(), &[1, 2]);
    }

    #[test]
    fn append_validates_object_length() {
        let mut a = archive(EncodingStrategy::BasicSec);
        assert!(matches!(
            a.append_version(&obj(&[1, 2])),
            Err(VersioningError::ObjectLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(matches!(a.append_all(&[]), Err(VersioningError::EmptyArchive)));
    }

    #[test]
    fn delta_codewords_encode_the_delta_not_the_version() {
        let mut a = archive(EncodingStrategy::BasicSec);
        let versions = three_versions();
        a.append_all(&versions).unwrap();
        let delta_entry = &a.entries()[1];
        let expected_delta: Vec<Gf1024> = versions[1]
            .iter()
            .zip(&versions[0])
            .map(|(&b, &a)| b - a)
            .collect();
        let expected_codeword = a.code().encode(&expected_delta).unwrap();
        assert_eq!(delta_entry.codeword, expected_codeword);
    }

    #[test]
    fn payload_reads_use_io_model() {
        let model = IoModel::new(CodeParams::new(20, 10).unwrap(), GeneratorForm::NonSystematic);
        assert_eq!(StoredPayload::FullVersion { version: 1 }.reads(&model), 10);
        assert_eq!(StoredPayload::Delta { to: 2, sparsity: 3 }.reads(&model), 6);
        assert_eq!(StoredPayload::Delta { to: 2, sparsity: 8 }.reads(&model), 10);
    }
}
