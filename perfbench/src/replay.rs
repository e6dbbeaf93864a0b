//! The traced run: a single-threaded replay of a workload's own generated
//! input through the layers' public functions, in pipeline order —
//! source batches and boundaries → shard route → frame encode/decode →
//! fragment ingest/work/deliver → durable append → client record — with a
//! span around every call.
//!
//! The replay executes the workload's physical plan exactly as the
//! runtimes wire it: every replica of every fragment processes its input
//! (replica 0's output feeds downstream, as a subscribed upstream would),
//! every receiver gets its input through [`ShardRouter::route`] (sharded
//! receivers their slice; unsharded ones take the one-shard path), every
//! link hop goes through the frame codec, every node logs its intake to
//! its own durable store and checkpoints every 250 ms of input time, and
//! the final output is recorded by a [`StreamRecorder`]. Time is the
//! input's own stime clock, advanced in the sources' 10 ms batch periods.

use crate::oracle;
use crate::spans::Recorder;
use borealis_dpc::{
    decode_frame, encode_frame, ActorSpec, DurabilityConfig, MetricsHub, NetMsg, NodeDisk,
    SystemLayout, WireMsg,
};
use borealis_engine::Fragment;
use borealis_types::{
    BatchView, Duration, Expr, NodeId, PartitionSpec, ShardRouter, StreamId, Time, Tuple,
    TupleBatch, TupleId, Value,
};
use std::collections::{HashMap, VecDeque};
use std::path::Path;

/// The sources' generation tick and boundary period (`SourceConfig`'s
/// defaults in every workload).
const BATCH_PERIOD_US: u64 = 10_000;
const BOUNDARY_PERIOD_US: u64 = 100_000;
/// Durable checkpoint period, as in the `failover` deployment.
const CHECKPOINT_PERIOD_US: u64 = 250_000;
/// Input time replayed after the last tuple so every bucket stabilizes.
const DRAIN_US: u64 = 3_000_000;

/// What the replay measured besides its spans.
#[derive(Debug, Default)]
pub struct ReplayOut {
    /// Data tuples the sources emitted.
    pub tuples: u64,
    /// Frame bytes encoded over all link hops.
    pub wire_bytes: u64,
    /// Input-log bytes of the ingest replica that never checkpoints (so
    /// its log is never pruned), per tuple it logged.
    pub log_bytes_per_tuple: f64,
    /// Log records replayed by the recovery of ingest replica 0.
    pub replayed_records: u64,
    /// The client's stable output equals the input exactly.
    pub output_ok: bool,
}

struct Replica {
    node: NodeId,
    frag: Fragment,
    disk: NodeDisk,
    checkpoints: bool,
}

struct Stage {
    role: &'static str,
    replicas: Vec<Replica>,
}

/// Replays `per_source` tuples per source at `rate` tuples/s per source
/// through `layout`'s physical plan; `out` is the client-visible stream.
pub fn replay(
    layout: &SystemLayout,
    out: StreamId,
    rate: f64,
    per_source: u64,
    dir: &Path,
    rec: &mut Recorder,
) -> std::io::Result<ReplayOut> {
    let mut configs = HashMap::new();
    for (i, a) in layout.actors.iter().enumerate() {
        if let ActorSpec::Node(cfg) = a {
            configs.insert(NodeId(i as u32), cfg);
        }
    }
    let partitions: HashMap<NodeId, &PartitionSpec> =
        layout.partitions.iter().map(|(n, s)| (*n, s)).collect();
    let n_stages = layout.fragment_replicas.len();
    let mut stages = Vec::with_capacity(n_stages);
    let mut consumers: HashMap<StreamId, Vec<usize>> = HashMap::new();
    for (p, nodes) in layout.fragment_replicas.iter().enumerate() {
        let role = match p {
            0 => "engine.ingest",
            p if p + 1 == n_stages => "engine.deliver",
            _ => "engine.work",
        };
        let mut replicas = Vec::with_capacity(nodes.len());
        for (r, node) in nodes.iter().enumerate() {
            let cfg = configs[node];
            if r == 0 {
                for input in &cfg.plan.inputs {
                    consumers.entry(input.stream).or_default().push(p);
                }
            }
            let disk = NodeDisk::open(&DurabilityConfig {
                dir: dir.join(format!("node-{}", node.0)),
                interval: Duration::from_micros(CHECKPOINT_PERIOD_US),
                background: true,
                sync_log: false,
            })
            .map_err(|e| std::io::Error::other(format!("open store: {e:?}")))?;
            replicas.push(Replica {
                node: *node,
                frag: Fragment::from_plan(&cfg.plan),
                disk,
                // The ingest stage's second replica keeps its whole log,
                // which is what `log_bytes_per_tuple` reads.
                checkpoints: !(p == 0 && r == 1),
            });
        }
        stages.push(Stage { role, replicas });
    }
    for v in consumers.values_mut() {
        v.dedup();
    }

    let sources: Vec<(StreamId, NodeId)> = layout.source_ids.clone();
    let recorder = MetricsHub::new();
    let client = recorder.recorder(out);
    recorder.enable_trace(out);
    let mut router = ShardRouter::new();
    // Receivers of unsharded fragments take the router's one-shard path.
    let whole = PartitionSpec {
        key: Expr::field(0),
        shards: 1,
        index: 0,
    };
    let mut buf = Vec::new();
    let mut wire_bytes = 0u64;
    let mut next_id = 1u64;
    let last_stime = oracle::stime_of(per_source, rate).0;
    let end = last_stime + DRAIN_US;
    let mut queue: VecDeque<(NodeId, usize, StreamId, BatchView)> = VecDeque::new();

    let mut now_us = 0;
    while now_us < end {
        now_us += BATCH_PERIOD_US;
        let now = Time(now_us);
        rec.enter("replay.tick");

        // Source batches: every tuple whose stime has been reached, then
        // the boundary when one is due (data first, the punctuation
        // contract).
        let batch = rec.span("source.generate", |_| {
            let mut tuples = Vec::new();
            while next_id <= per_source && oracle::stime_of(next_id, rate) <= now {
                let id = next_id;
                tuples.push((id, oracle::stime_of(id, rate)));
                next_id += 1;
            }
            let boundary = now_us % BOUNDARY_PERIOD_US == 0;
            (tuples, boundary)
        });
        for &(stream, src) in &sources {
            let mut v: Vec<Tuple> = batch
                .0
                .iter()
                .map(|&(id, st)| Tuple::insertion(TupleId(id), st, vec![Value::Int(id as i64)]))
                .collect();
            if batch.1 {
                v.push(Tuple::boundary(TupleId::NONE, now));
            }
            if v.is_empty() {
                continue;
            }
            let view = BatchView::from(TupleBatch::from_vec(v));
            for &p in consumers.get(&stream).into_iter().flatten() {
                queue.push_back((src, p, stream, view.clone()));
            }
        }

        // Deliver queued link messages; replica 0's outputs feed onward.
        let mut outputs: Vec<(NodeId, StreamId, TupleBatch)> = Vec::new();
        loop {
            while let Some((from, p, stream, view)) = queue.pop_front() {
                let stage = &mut stages[p];
                for (r, rep) in stage.replicas.iter_mut().enumerate() {
                    let spec = partitions.get(&rep.node).copied().unwrap_or(&whole);
                    let view = rec.span("types.route", |_| router.route(spec, &view));
                    if view.is_empty() {
                        continue;
                    }
                    buf.clear();
                    let msg = WireMsg::Net(NetMsg::Data {
                        stream,
                        tuples: view,
                    });
                    wire_bytes += rec.span("core.codec.encode", |_| {
                        encode_frame(&mut buf, from, rep.node, &msg)
                    }) as u64;
                    let decoded = rec.span("core.codec.decode", |_| decode_frame(&buf));
                    let view = match decoded {
                        Ok(Some((_, _, WireMsg::Net(NetMsg::Data { tuples, .. }), _))) => tuples,
                        other => {
                            return Err(std::io::Error::other(format!(
                                "frame did not round-trip: {other:?}"
                            )))
                        }
                    };
                    rec.span("core.durable.append", |_| {
                        rep.disk.append_input(stream, &view)
                    });
                    let b = rec.span(stage.role, |_| rep.frag.push_view(stream, &view, now));
                    if r == 0 {
                        outputs.extend(b.outputs.into_iter().map(|(s, t)| (rep.node, s, t)));
                    }
                }
            }
            // SUnion deadlines fire on tick; a tick can release buckets
            // whose outputs need delivering in this same period.
            for stage in stages.iter_mut() {
                for (r, rep) in stage.replicas.iter_mut().enumerate() {
                    let b = rec.span(stage.role, |_| rep.frag.tick(now));
                    if r == 0 {
                        outputs.extend(b.outputs.into_iter().map(|(s, t)| (rep.node, s, t)));
                    }
                }
            }
            if outputs.is_empty() {
                break;
            }
            for (from, stream, tuples) in outputs.drain(..) {
                if stream == out {
                    rec.span("core.client.record", |_| {
                        client.record_all(now, tuples.iter())
                    });
                }
                let view = BatchView::from(tuples);
                for &p in consumers.get(&stream).into_iter().flatten() {
                    queue.push_back((from, p, stream, view.clone()));
                }
            }
        }

        if now_us % CHECKPOINT_PERIOD_US == 0 {
            for stage in stages.iter_mut() {
                for rep in stage.replicas.iter_mut().filter(|r| r.checkpoints) {
                    rec.span("core.durable.checkpoint", |_| {
                        if let Some(parts) = rep.frag.capture_durable() {
                            rep.disk.checkpoint(parts, &[]);
                        }
                    });
                }
            }
        }
        rec.exit();
    }

    // The failure-detection checkpoint of every fragment replica, taken on
    // its full end-of-run state.
    for stage in stages.iter_mut() {
        for rep in stage.replicas.iter_mut() {
            rec.span("engine.checkpoint", |_| rep.frag.take_checkpoint());
        }
    }

    // Close every store (joins the flushers), then restart ingest replica
    // 0 from disk.
    let tuples = u64::from(crate::live::SOURCES) * per_source;
    let log_node = stages[0].replicas.get(1).map(|r| r.node);
    let recover_node = stages[0].replicas[0].node;
    drop(stages);
    let log_bytes = log_node.map_or(0, |n| {
        crate::host::dir_bytes(&dir.join(format!("node-{}", n.0)).join("log"))
    });
    let mut disk = NodeDisk::open(&DurabilityConfig::new(
        dir.join(format!("node-{}", recover_node.0)),
    ))
    .map_err(|e| std::io::Error::other(format!("reopen store: {e:?}")))?;
    let image = rec.span("core.durable.recover", |_| disk.recover());
    let replayed_records = match image {
        Ok(Some(img)) => img.replay.len() as u64,
        Ok(None) => 0,
        Err(e) => return Err(std::io::Error::other(format!("recover: {e:?}"))),
    };
    drop(disk);

    let trace = recorder.with(out, |m| m.trace.clone()).unwrap_or_default();
    let verdict = oracle::check(
        &trace,
        &oracle::expected_stimes(crate::live::SOURCES, per_source, rate),
    );
    Ok(ReplayOut {
        tuples,
        wire_bytes,
        log_bytes_per_tuple: log_bytes as f64 / tuples as f64,
        replayed_records,
        output_ok: verdict.correct() && verdict.failed() == 0,
    })
}
