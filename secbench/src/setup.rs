//! Cluster population, reference archives and server start.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sec_engine::{PlacementStrategy, SecCluster};
use sec_erasure::GeneratorForm;
use sec_net::{Server, ServerConfig, ServerHandle};
use sec_versioning::{
    ArchiveConfig, ByteVersionedArchive, CheckpointPolicy, EncodingStrategy, StoredPayload,
};

use crate::gen::{Dataset, CHECKPOINT_SPACING, K, N, SHARDS};

/// The archive configuration shared by every workload: (6, 3)
/// non-systematic Cauchy Basic SEC with anchor checkpoints.
pub fn archive_config() -> ArchiveConfig {
    ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("(6, 3) fits in GF(256)")
        .with_checkpoints(CheckpointPolicy::every(CHECKPOINT_SPACING))
}

/// Node indices a read may plan over: all but node 0 when the workload
/// fails it.
pub fn live_nodes(data: &Dataset) -> Vec<usize> {
    let first = usize::from(data.spec.fail_node_zero);
    (first..N).collect()
}

/// Builds and populates a cluster: every object's history appended, node 0
/// of every shard failed if the workload asks, and every version read once
/// if the workload warms the cache.
///
/// # Errors
///
/// Fails on any cluster error or when a warm-up read returns wrong bytes.
pub fn populate(data: &Dataset) -> io::Result<SecCluster> {
    let spec = data.spec;
    let cluster = SecCluster::with_placement(
        archive_config(),
        SHARDS,
        spec.cache_capacity,
        PlacementStrategy::Colocated,
    )
    .map_err(io::Error::other)?;
    for (o, model) in data.objects.iter().enumerate() {
        let history = data.history(o);
        let versions: Vec<&[u8]> = history.iter().map(|v| v.as_slice()).collect();
        cluster
            .append_all(model.id, &versions)
            .map_err(io::Error::other)?;
    }
    if spec.fail_node_zero {
        for shard in 0..SHARDS {
            cluster.fail_node(shard, 0).map_err(io::Error::other)?;
        }
    }
    if spec.warm_cache {
        for (o, model) in data.objects.iter().enumerate() {
            for (i, want) in data.history(o).iter().enumerate() {
                let got = cluster.get_version(model.id, i + 1).map_err(io::Error::other)?;
                if got.data.as_slice() != want.as_slice() {
                    return Err(io::Error::other(format!(
                        "warm-up read of object {o} v{} is wrong",
                        i + 1
                    )));
                }
            }
        }
    }
    Ok(cluster)
}

/// A populated cluster behind a running one-worker server.
#[derive(Debug)]
pub struct Serving {
    /// The cluster the server fronts.
    pub cluster: Arc<SecCluster>,
    /// The server.
    pub server: ServerHandle,
}

/// Populates a cluster and starts the server on a loopback port, returning
/// how long both took.
///
/// # Errors
///
/// As [`populate`], or when the server cannot bind.
pub fn start(data: &Dataset) -> io::Result<(Serving, Duration)> {
    let began = Instant::now();
    let cluster = Arc::new(populate(data)?);
    let server = Server::start(
        Arc::clone(&cluster),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )?;
    Ok((Serving { cluster, server }, began.elapsed()))
}

/// Lock-free reference archives with the cluster's layout, one per object,
/// sharing the cluster's codec.
///
/// # Errors
///
/// Fails on an archive error.
pub fn reference_archives(
    data: &Dataset,
    cluster: &SecCluster,
) -> io::Result<Vec<ByteVersionedArchive>> {
    data.objects
        .iter()
        .enumerate()
        .map(|(o, _)| {
            let mut archive =
                ByteVersionedArchive::with_codec(archive_config(), cluster.codec().clone())
                    .map_err(io::Error::other)?;
            for version in data.history(o) {
                archive.append_version(&version).map_err(io::Error::other)?;
            }
            Ok(archive)
        })
        .collect()
}

/// The stored-entry layout of an archive, in walk order.
pub fn layout(archive: &ByteVersionedArchive) -> Vec<StoredPayload> {
    archive.stored_entries().iter().map(|e| e.payload).collect()
}
