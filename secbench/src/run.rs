//! One benchmark run: set-up, the timed wire phase, checks, and (traced
//! runs) the replay; then the metrics of the requested mode.

use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use sec_engine::ClusterMetrics;
use sec_versioning::{EncodingStrategy, IoModel, StoredPayload};

use crate::gen::{Class, Dataset, OpGen, Workload, CONNECTIONS, K};
use crate::procfs;
use crate::replay::{self, ReplayReport};
use crate::report::{Metrics, Outcome};
use crate::setup;
use crate::stats::{self, latency, ratio, Latency};
use crate::trace::{Totals, Tracer};
use crate::wire::{self, Tally, WireReport};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// A window is quiet when the host stole at most this much CPU time in it,
/// in ms summed over CPUs (`/proc/stat` counts in 10 ms ticks).
pub const QUIET_STEAL_MS: f64 = 10.0;
/// Windows summarized even when fewer are quiet.
pub const MIN_WINDOWS: usize = 5;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Emit per-layer metrics from a traced replay instead of end-to-end
    /// metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed argument.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds out of range: {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    });
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// GET/PREFIX block reads the layout model predicts for the ops served,
/// with the delta entries those ops walk and how many of them take the `2γ`
/// sparse path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelReads {
    /// Predicted block reads.
    pub reads: u64,
    /// Delta entries walked.
    pub deltas: u64,
    /// Delta entries among them with `2γ < k`.
    pub sparse_deltas: u64,
}

/// Prices every served op of a static workload on the reference layouts.
pub fn model_reads(model: &IoModel, layouts: &[Vec<StoredPayload>], served: &Tally) -> ModelReads {
    let mut out = ModelReads::default();
    let mut walk = |layout: &[StoredPayload], entries: std::ops::Range<usize>, count: u64| {
        for payload in &layout[entries] {
            if let StoredPayload::Delta { sparsity, .. } = *payload {
                out.deltas += count;
                if model.delta_reads(sparsity) < K {
                    out.sparse_deltas += count;
                }
            }
        }
    };
    for (o, counts) in served.get.iter().enumerate() {
        for (i, &count) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            let v = i + 1;
            let anchor = (0..v)
                .rev()
                .find(|&e| matches!(layouts[o][e], StoredPayload::FullVersion { .. }))
                .expect("entry 0 is always a full version");
            walk(&layouts[o], anchor..v, count);
            out.reads += count
                * model.version_reads_for_layout(EncodingStrategy::BasicSec, &layouts[o], v) as u64;
        }
    }
    for (o, counts) in served.prefix.iter().enumerate() {
        for (i, &count) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            let v = i + 1;
            walk(&layouts[o], 0..v, count);
            out.reads +=
                count * model.prefix_reads_for_layout(EncodingStrategy::BasicSec, &layouts[o], v) as u64;
        }
    }
    out
}

/// Where a traced run writes its spans, relative to the working directory.
pub fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.csv", args.workload.name(), args.seed))
}

/// Ops replayed by a traced run.
fn replay_ops(workload: Workload) -> usize {
    match workload {
        Workload::HotGet => 16_384,
        Workload::ColdArchive => 2_048,
        Workload::CommitMix => 8_192,
    }
}

/// Runs the benchmark, printing a human-readable report to stdout and
/// returning the result.
///
/// # Errors
///
/// Fails when set-up, the sockets or `/proc` fail; request failures are
/// reported in the outcome instead.
pub fn run(args: &Args) -> io::Result<Outcome> {
    let workload = args.workload;
    let data = Dataset::generate(workload, args.seed);
    let spec = data.spec;
    println!(
        "secbench {} seed={} seconds={} trace={} kernel={} cpus={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sec_gf::active_kernel().name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut serving = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = serving.take() {
            let setup::Serving { server, .. } = previous;
            server.shutdown()?;
        }
        let (fresh, took) = setup::start(&data)?;
        setup_times.push(took.as_secs_f64());
        serving = Some(fresh);
    }
    let setup::Serving { cluster, server } = serving.expect("at least one set-up");

    let server_dir = procfs::find_thread("sec-net-0")?;
    let addr = server.local_addr();
    let streams = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let mut gen = OpGen::new(workload, args.seed);
    let duration = Duration::from_secs_f64(args.seconds);
    // The load thread is the second busy thread beside the server worker.
    let mut wire = std::thread::scope(|scope| {
        scope
            .spawn(|| wire::drive(streams, &mut gen, &spec, duration, &cluster, &server_dir))
            .join()
            .expect("the load thread does not panic")
    })?;
    server.shutdown()?;
    // The load generator's latency samples grow with throughput; they are
    // the benchmark's memory, not the system's.
    let samples = wire.latency_ns.iter().map(Vec::len).sum::<usize>() + wire.late_ns.len();
    let peak_rss_mb = procfs::peak_rss_mb()? - (samples * 4) as f64 / (1 << 20) as f64;

    let before = wire.cluster_before.take().expect("set by the load generator");
    let after = wire.cluster_after.take().expect("set by the load generator");
    let mut correct = wire.failed == 0;
    for note in &wire.failure_notes {
        println!("  FAILED {note}");
    }

    // The paper's I/O check: with the cache off, the server's block reads
    // must equal the layout model's prediction for exactly the ops served.
    if spec.cache_capacity == 0 {
        let layouts: Vec<Vec<StoredPayload>> = setup::reference_archives(&data, &cluster)?
            .iter()
            .map(setup::layout)
            .collect();
        let predicted = model_reads(&setup::archive_config().io_model(), &layouts, &wire.served);
        let sparse_share = ratio(predicted.sparse_deltas as f64, predicted.deltas as f64);
        println!(
            "  layout: {} delta entries walked, {:.4} of them on the 2γ path",
            predicted.deltas, sparse_share
        );
        let served = after.io.symbol_reads;
        let equal = served == predicted.reads;
        println!(
            "  block reads: server {served}, IoModel {} ({})",
            predicted.reads,
            if equal { "equal" } else { "MISMATCH" }
        );
        correct &= equal;
        if predicted.sparse_deltas == 0 {
            println!(
                "  FAILED no delta was served on the 2γ path: the workload left the paper's regime"
            );
            correct = false;
        }
    }
    drop(cluster);
    let gammas = gen.dataset().gamma_histogram();
    println!(
        "  realized γ histogram: γ=1: {}, γ=2: {}, γ=3: {}",
        gammas[1], gammas[2], gammas[3]
    );

    let mut outcome = Outcome {
        correct,
        attempted: wire.attempted,
        failed: wire.failed,
        metrics: Metrics::default(),
    };
    let lat = wire_latencies(&mut wire, duration, spec.open_loop_rate.is_some());
    print_wire(&wire, &lat);
    if args.trace {
        let mut tracer = Tracer::new();
        let replayed = replay::run(workload, args.seed, replay_ops(workload), &mut tracer)?;
        let path = spans_path(args);
        tracer.write_csv(&path)?;
        println!(
            "  traced replay: {} ops, {} spans -> {}",
            replayed.ops,
            tracer.spans().len(),
            path.display()
        );
        if let Some(note) = &replayed.failure_note {
            println!("  FAILED {note}");
        }
        outcome.correct &= replayed.failed == 0;
        outcome.attempted += replayed.ops;
        outcome.failed += replayed.failed;
        outcome.metrics = per_layer(&wire, &lat, &before, &after, &tracer.totals(), &replayed);
    } else {
        outcome.metrics = end_to_end(&lat, &before, &after, &setup_times, peak_rss_mb, spec.object_len);
    }
    for m in &outcome.metrics.0 {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  error_rate {} ({} of {} ops failed)",
        ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    Ok(outcome)
}

/// Latency per class and over every op, and the windowed medians.
struct WireLatency {
    class: [Latency; 3],
    all: Latency,
    late: Latency,
    /// Windows fully inside the timed phase.
    windows: usize,
    /// Median over those windows of the window's completions per second.
    ops_per_s: f64,
    /// Median over those windows of verified MB per second.
    payload_mb_per_s: f64,
    /// Median over those windows of the window's GET p50, microseconds.
    get_p50_us: f64,
    /// Median over those windows of the window's GET p90, microseconds.
    get_p90_us: f64,
    /// Median over those windows of the window's GET p99, microseconds.
    get_p99_us: f64,
    /// Median over those windows of the window's p90 over every op.
    op_p90_us: f64,
    /// Median over those windows of the window's p99 over every op.
    op_p99_us: f64,
}

/// Summarizes the wire phase.
///
/// Every reported value is a median over the *quiet* [`wire::WINDOW`]s that
/// lie wholly inside the timed phase: those in which the host stole at most
/// [`QUIET_STEAL_MS`] of CPU time (summed over CPUs), or the
/// [`MIN_WINDOWS`] least-stolen ones when fewer are quiet. A virtual machine
/// whose host is busy loses whole milliseconds at a time, which says
/// nothing about the system under test, and an open loop charges each such
/// stall to every request due during it. A closed loop's throughput is
/// further divided by the window's unstolen time. The per-class summaries
/// printed beside them cover every sample.
fn wire_latencies(wire: &mut WireReport, duration: Duration, open_loop: bool) -> WireLatency {
    struct Row {
        steal_ms: f64,
        rate: f64,
        mb: f64,
        get: Latency,
        all: Latency,
    }
    let full = ((duration.as_nanos() / wire::WINDOW.as_nanos()) as usize).min(wire.windows.len());
    let secs = wire::WINDOW.as_secs_f64();
    let mut rows = Vec::with_capacity(full);
    for i in 0..full {
        let w = &wire.windows[i];
        // A closed loop's throughput per second the host left the machine:
        // across windows a stolen millisecond (summed over CPUs) costs about
        // one millisecond of progress. The correction is capped at 3/4 of a
        // window. An open loop's throughput is its schedule's.
        let unstolen = if open_loop {
            secs
        } else {
            secs - (w.steal_ms / 1e3).min(0.75 * secs)
        };
        let (steal_ms, rate, mb) = (
            w.steal_ms,
            w.ops as f64 / unstolen,
            w.payload_bytes as f64 / 1e6 / unstolen,
        );
        let mut all = Vec::new();
        for class in [Class::Prefix, Class::Append, Class::Get] {
            all.extend_from_slice(wire.window_samples(i, class as usize));
        }
        let get = latency(wire.window_samples(i, Class::Get as usize));
        let all = latency(&mut all);
        rows.push(Row {
            steal_ms,
            rate,
            mb,
            get,
            all,
        });
    }
    rows.sort_by(|a, b| a.steal_ms.total_cmp(&b.steal_ms));
    let quiet = rows.iter().take_while(|r| r.steal_ms <= QUIET_STEAL_MS).count();
    rows.truncate(quiet.max(MIN_WINDOWS));
    // Median over the kept windows, of those with enough samples for the
    // statistic when it is a percentile.
    let column = |value: &dyn Fn(&Row) -> Option<f64>, fallback: f64| {
        let mut values: Vec<f64> = rows.iter().filter_map(value).collect();
        if values.is_empty() {
            fallback
        } else {
            stats::median(&mut values)
        }
    };
    let tail = |l: Latency, pick: fn(&Latency) -> f64| (l.samples >= 100).then(|| pick(&l));
    let mut all: Vec<u32> = wire.latency_ns.iter().flatten().copied().collect();
    let all = latency(&mut all);
    let class =
        [Class::Get, Class::Prefix, Class::Append].map(|c| latency(&mut wire.latency_ns[c as usize]));
    WireLatency {
        windows: rows.len(),
        ops_per_s: column(&|r| Some(r.rate), 0.0),
        payload_mb_per_s: column(&|r| Some(r.mb), 0.0),
        get_p50_us: column(&|r| tail(r.get, |l| l.p50_us), class[0].p50_us),
        get_p90_us: column(&|r| tail(r.get, |l| l.p90_us), class[0].p90_us),
        get_p99_us: column(&|r| tail(r.get, |l| l.p99_us), class[0].p99_us),
        op_p90_us: column(&|r| tail(r.all, |l| l.p90_us), all.p90_us),
        op_p99_us: column(&|r| tail(r.all, |l| l.p99_us), all.p99_us),
        class,
        all,
        late: latency(&mut wire.late_ns),
    }
}

fn print_wire(wire: &WireReport, lat: &WireLatency) {
    for (name, l) in [
        ("GET", lat.class[0]),
        ("PREFIX", lat.class[1]),
        ("APPEND", lat.class[2]),
        ("all ops", lat.all),
    ] {
        if l.samples > 0 {
            println!(
                "  {name:<8} latency p50 {:.3} us  p99 {:.3} us  ({} samples)",
                l.p50_us, l.p99_us, l.samples
            );
        }
    }
    println!(
        "  wire: {} ops in {:.3} s, {} versions, {} verified payload bytes",
        wire.completed(),
        wire.elapsed.as_secs_f64(),
        wire.versions_returned,
        wire.payload_bytes,
    );
    println!(
        "  windowed: get p50 {:.3} p90 {:.3} p99 {:.3} us; all ops p90 {:.3} p99 {:.3} us",
        lat.get_p50_us, lat.get_p90_us, lat.get_p99_us, lat.op_p90_us, lat.op_p99_us
    );
    let steal: Vec<String> = wire
        .windows
        .iter()
        .map(|w| format!("{:.0}", w.steal_ms))
        .collect();
    println!(
        "  host steal per {} ms window, ms: [{}]; windowed metrics use the {} least stolen",
        wire::WINDOW.as_millis(),
        steal.join(" "),
        lat.windows
    );
}

fn end_to_end(
    lat: &WireLatency,
    before: &ClusterMetrics,
    after: &ClusterMetrics,
    setup_times: &[f64],
    peak_rss_mb: f64,
    object_len: usize,
) -> Metrics {
    let shard_len = object_len.div_ceil(K) as f64;
    let writes = (before.io.symbol_writes + after.io.symbol_writes) as f64;
    let user_bytes = (after.versions * object_len) as f64;
    let mut m = Metrics::default();
    m.push("setup_s", "s", stats::median(&mut setup_times.to_vec()));
    m.push("ops_per_s", "1/s", lat.ops_per_s);
    m.push("payload_mb_per_s", "MB/s", lat.payload_mb_per_s);
    m.push("get_p50_us", "us", lat.get_p50_us);
    m.push("get_p99_us", "us", lat.get_p99_us);
    m.push("op_p99_us", "us", lat.op_p99_us);
    m.push(
        "stored_bytes_per_user_byte",
        "B/B",
        ratio(writes * shard_len, user_bytes),
    );
    m.push("peak_rss_mb", "MiB", peak_rss_mb);
    m
}

fn per_layer(
    wire: &WireReport,
    lat: &WireLatency,
    before: &ClusterMetrics,
    after: &ClusterMetrics,
    spans: &std::collections::BTreeMap<&'static str, Totals>,
    replayed: &ReplayReport,
) -> Metrics {
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let mean_ns = |name: &str| {
        let t = span(name);
        ratio(t.self_ns as f64, t.count as f64)
    };
    let ops = wire.completed() as f64;
    let wall_ns = wire.elapsed.as_nanos() as f64;
    let server_cpu_us = ratio(wire.server.cpu_ns as f64 / 1e3, ops);

    let parse_ns = mean_ns("proto.parse");
    let encode_ns = mean_ns("proto.encode");
    let batch = span("engine.get_batch");
    let batch_ns_per_op = ratio(batch.self_ns as f64, batch.work as f64);
    let (get, append) = (span("engine.get"), span("engine.append"));
    // Engine time per wire op, weighted by the workload's own mix.
    let class_ops = &replayed.class_ops;
    let total_ops = class_ops.iter().sum::<u64>() as f64;
    let engine_ns_per_op = ratio(
        class_ops[0] as f64 * batch_ns_per_op
            + class_ops[1] as f64 * mean_ns("engine.prefix")
            + class_ops[2] as f64 * mean_ns("engine.append"),
        total_ops,
    );
    let gets = replayed.gets as f64;
    let decodes = span("erasure.decode");
    let sparse = span("erasure.recover_sparse");
    let retrieve = span("versioning.retrieve");
    let retrieves = retrieve.count as f64;
    let (mul_add, xor) = (span("gf.mul_add"), span("gf.xor"));

    let mut m = Metrics::default();
    m.push("server.cpu_us_per_op", "us", server_cpu_us);
    m.push(
        "server.wakeups_per_op",
        "count",
        ratio(wire.server.wakeups as f64, ops),
    );
    m.push(
        "server.bytes_written_per_op",
        "B",
        ratio(wire.bytes_received as f64, ops),
    );
    m.push(
        "server.busy_share",
        "share",
        ratio(wire.server.cpu_ns as f64, wall_ns),
    );
    m.push(
        "server.unattributed_us_per_op",
        "us",
        server_cpu_us - (parse_ns + encode_ns + engine_ns_per_op) / 1e3,
    );
    m.push("proto.parse_command_ns", "ns", parse_ns);
    m.push("proto.encode_reply_ns", "ns", encode_ns);
    m.push(
        "proto.allocs_per_op",
        "count",
        ratio(
            (span("proto.parse").self_allocs + span("proto.encode").self_allocs) as f64,
            span("proto.parse").count as f64,
        ),
    );
    m.push("engine.get_ns", "ns", mean_ns("engine.get"));
    m.push("engine.get_batch_ns_per_op", "ns", batch_ns_per_op);
    m.push("engine.prefix_ns", "ns", mean_ns("engine.prefix"));
    m.push("engine.append_ns", "ns", mean_ns("engine.append"));
    m.push(
        "engine.allocs_per_get",
        "count",
        ratio(get.self_allocs as f64, get.count as f64),
    );
    m.push(
        "engine.alloc_bytes_per_get",
        "B",
        ratio(get.self_alloc_bytes as f64, get.count as f64),
    );
    m.push(
        "engine.allocs_per_append",
        "count",
        ratio(append.self_allocs as f64, append.count as f64),
    );
    m.push(
        "engine.cache_hit_ratio",
        "share",
        ratio(replayed.cache_hits as f64, gets),
    );
    m.push(
        "engine.base_hit_ratio",
        "share",
        ratio(replayed.base_hits as f64, gets),
    );
    m.push(
        "engine.deltas_applied_per_get",
        "count",
        ratio(replayed.deltas_applied as f64, gets),
    );
    m.push(
        "engine.block_reads_per_get",
        "count",
        ratio(replayed.get_block_reads as f64, gets),
    );
    m.push(
        "engine.model_reads_per_get",
        "count",
        ratio(replayed.get_model_reads as f64, gets),
    );
    m.push("versioning.retrieve_ns", "ns", mean_ns("versioning.retrieve"));
    m.push(
        "versioning.retrieve_prefix_ns",
        "ns",
        mean_ns("versioning.retrieve_prefix"),
    );
    m.push("versioning.append_ns", "ns", mean_ns("versioning.append"));
    m.push(
        "versioning.entries_per_retrieve",
        "count",
        ratio(replayed.entries_retrieved as f64, retrieves),
    );
    m.push(
        "versioning.allocs_per_retrieve",
        "count",
        ratio(retrieve.self_allocs as f64, retrieves),
    );
    m.push("erasure.encode_ns", "ns", mean_ns("erasure.encode"));
    m.push("erasure.decode_ns", "ns", mean_ns("erasure.decode"));
    m.push(
        "erasure.recover_sparse_ns",
        "ns",
        mean_ns("erasure.recover_sparse"),
    );
    m.push(
        "erasure.allocs_per_decode",
        "count",
        ratio(
            (decodes.self_allocs + sparse.self_allocs) as f64,
            (decodes.count + sparse.count) as f64,
        ),
    );
    m.push(
        "erasure.sparse_share",
        "share",
        ratio(replayed.deltas_sparse as f64, replayed.deltas_read as f64),
    );
    m.push(
        "gf.mul_add_gbps",
        "GB/s",
        ratio(mul_add.work as f64, mul_add.self_ns as f64),
    );
    m.push("gf.xor_gbps", "GB/s", ratio(xor.work as f64, xor.self_ns as f64));
    m.push(
        "store.block_writes_per_append",
        "count",
        ratio(
            (before.io.symbol_writes + after.io.symbol_writes) as f64,
            after.versions as f64,
        ),
    );
    m.push("store.read_ns", "ns", mean_ns("store.read"));
    m.push("store.write_ns", "ns", mean_ns("store.write"));
    m.push(
        "store.block_reads_per_version",
        "count",
        ratio(after.io.symbol_reads as f64, wire.versions_returned as f64),
    );
    m.push(
        "loadgen.cpu_us_per_op",
        "us",
        ratio(wire.load.cpu_ns as f64 / 1e3, ops),
    );
    m.push(
        "loadgen.busy_share",
        "share",
        ratio(wire.load.cpu_ns as f64, wall_ns),
    );
    m.push(
        "loadgen.socket_calls_per_op",
        "count",
        ratio(wire.socket_calls as f64, ops),
    );
    let per_replayed_op = |name: &str| ratio(span(name).self_ns as f64, total_ops);
    m.push(
        "loadgen.encode_ns_per_op",
        "ns",
        per_replayed_op("loadgen.encode"),
    );
    m.push("loadgen.check_ns_per_op", "ns", per_replayed_op("loadgen.check"));
    m.push("loadgen.late_p99_us", "us", lat.late.p99_us);
    m.push("loadgen.get_p90_us", "us", lat.get_p90_us);
    m.push("loadgen.op_p90_us", "us", lat.op_p90_us);
    m.push("loadgen.prefix_p50_us", "us", lat.class[1].p50_us);
    m.push("loadgen.prefix_p99_us", "us", lat.class[1].p99_us);
    m.push("loadgen.append_p50_us", "us", lat.class[2].p50_us);
    m.push("loadgen.append_p99_us", "us", lat.class[2].p99_us);
    m
}
