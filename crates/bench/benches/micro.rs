//! Criterion microbenchmarks (§7 runtime-overhead angle, measured in real
//! time): operator throughput, SUnion serialization cost, one fragment
//! hop, fragment checkpoint/restore cost, and end-to-end simulated-cluster
//! throughput.

use borealis_diagram::{plan, Deployment, DiagramBuilder, DpcConfig, LogicalOp};
use borealis_dpc::{BufferPolicy, OutputBuffer};
use borealis_engine::Fragment;
use borealis_ops::{
    AggFn, Aggregate, AggregateSpec, BatchEmitter, Filter, Operator, SUnion, SUnionConfig,
};
use borealis_types::{Duration, Expr, Time, Tuple, TupleBatch, TupleId, Value};
use borealis_workloads::{single_node_system, SingleNodeOptions};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

fn tuples(n: u64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::insertion(
                TupleId(i + 1),
                Time::from_millis(i),
                vec![Value::Int(i as i64)],
            )
        })
        .collect()
}

fn bench_filter(c: &mut Criterion) {
    let input = tuples(1024);
    let mut g = c.benchmark_group("operators");
    g.throughput(Throughput::Elements(input.len() as u64));
    g.bench_function("filter_1k", |b| {
        let mut f = Filter::new(Expr::gt(Expr::field(0), Expr::int(100)));
        let mut out = BatchEmitter::new();
        b.iter(|| {
            for t in &input {
                f.process(0, t, Time::ZERO, &mut out);
            }
            let _ = out.take();
        });
    });
    g.bench_function("aggregate_1k", |b| {
        let mut a = Aggregate::new(AggregateSpec {
            window: Duration::from_millis(100),
            slide: Duration::from_millis(100),
            group_by: vec![],
            aggs: vec![AggFn::count(), AggFn::sum(Expr::field(0))],
        });
        let mut out = BatchEmitter::new();
        b.iter(|| {
            for t in &input {
                a.process(0, t, Time::ZERO, &mut out);
            }
            a.process(
                0,
                &Tuple::boundary(TupleId::NONE, Time::from_secs(100)),
                Time::ZERO,
                &mut out,
            );
            let _ = out.take();
        });
    });
    g.finish();
}

fn bench_sunion(c: &mut Criterion) {
    let input = tuples(1024);
    let mut g = c.benchmark_group("sunion");
    g.throughput(Throughput::Elements(input.len() as u64));
    for bucket_ms in [10u64, 100, 500] {
        g.bench_function(format!("serialize_bucket_{bucket_ms}ms"), |b| {
            b.iter_batched(
                || {
                    let mut cfg = SUnionConfig::new(1);
                    cfg.bucket = Duration::from_millis(bucket_ms);
                    cfg.is_input = true;
                    SUnion::new(cfg)
                },
                |mut s| {
                    let mut out = BatchEmitter::new();
                    for t in &input {
                        s.process(0, t, t.stime, &mut out);
                    }
                    s.process(
                        0,
                        &Tuple::boundary(TupleId::NONE, Time::from_secs(10)),
                        Time::from_secs(10),
                        &mut out,
                    );
                    black_box(out.take().0.len())
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

/// One fragment boundary hop of the steady chain in isolation: a 1024-tuple
/// batch (plus the boundary that closes its buckets) through the input
/// SUnion, a `Map(field(0))` and the SOutput — the per-stage work that the
/// live `engine.work_ns_per_tuple` layer counter times inside a run.
fn bench_fragment_hop(c: &mut Criterion) {
    const N: u64 = 1024;
    let mut b = DiagramBuilder::new();
    let src = b.source("src");
    let work = b.add(
        "work",
        LogicalOp::Map {
            outputs: vec![Expr::field(0)],
        },
        &[src],
    );
    b.output(work);
    let d = b.build().unwrap();
    let p = plan(&d, &Deployment::single(&d), &DpcConfig::default()).unwrap();
    let mut input = tuples(N);
    input.push(Tuple::boundary(TupleId::NONE, Time::from_secs(10)));
    let input = TupleBatch::from_vec(input);
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(N));
    g.bench_function("fragment_hop", |bench| {
        bench.iter_batched(
            || Fragment::from_plan(&p.fragments[0]),
            |mut fragment| {
                let out = fragment.push_batch(src, &input, Time::from_secs(10));
                assert_eq!(out.work, 3 * N, "every operator sees every tuple");
                black_box(out.outputs.len())
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    // A fragment with a join carrying state: measures whole-fragment
    // checkpoint cost (the §4.4.1 operation on the UP_FAILURE transition).
    let mut b = DiagramBuilder::new();
    let l = b.source("l");
    let r = b.source("r");
    let j = b.add(
        "joined",
        LogicalOp::Join(borealis_diagram::JoinSpec {
            window: Duration::from_secs(10),
            left_key: Expr::field(0),
            right_key: Expr::field(0),
            max_state: Some(1000),
        }),
        &[l, r],
    );
    b.output(j);
    let d = b.build().unwrap();
    let p = plan(&d, &Deployment::single(&d), &DpcConfig::default()).unwrap();
    let mut fragment = Fragment::from_plan(&p.fragments[0]);
    // Load up state.
    for (i, t) in tuples(2000).into_iter().enumerate() {
        let stream = if i % 2 == 0 { l } else { r };
        fragment.push(stream, &t, t.stime);
    }
    c.bench_function("fragment_checkpoint_2k_state", |b| {
        b.iter(|| {
            fragment.take_checkpoint();
            black_box(&fragment);
        });
    });
}

/// The batched data plane's headline number: retaining one emitted window
/// and fanning it out to R subscribers (replicas of downstream neighbors +
/// clients) plus serving one fresh replay cursor.
///
/// * `per_tuple_clone_rR` — the pre-batch data plane: an owned `Vec<Tuple>`
///   log, one deep clone per destination (what `Vec<Tuple>`-payload
///   messages cost).
/// * `shared_batch_rR` — the `TupleBatch` plane through the real
///   [`OutputBuffer`]: append by view, every destination gets O(1) shared
///   views.
///
/// Per-destination cost is flat for the batched plane, so the gap widens
/// with replication degree — the property DPC's availability bound needs.
fn bench_fanout(c: &mut Criterion) {
    const N: u64 = 1024;
    let owned: Vec<Tuple> = tuples(N);
    let mut g = c.benchmark_group("fanout_batch");
    g.throughput(Throughput::Elements(N));
    for replication in [1usize, 2, 4] {
        g.bench_function(format!("per_tuple_clone_r{replication}"), |b| {
            b.iter(|| {
                // Retain (clone into the log)...
                let log: Vec<Tuple> = owned.clone();
                // ...then deep-copy the suffix once per subscriber, plus
                // one replay served from the log.
                let mut bytes = 0usize;
                for _ in 0..replication {
                    let msg: Vec<Tuple> = log.clone();
                    bytes += msg.len();
                }
                let replay: Vec<Tuple> = log[..].to_vec();
                bytes += replay.len();
                black_box(bytes)
            });
        });
        g.bench_function(format!("shared_batch_r{replication}"), |b| {
            b.iter_batched(
                || TupleBatch::from_vec(tuples(N)),
                |emitted| {
                    // Retain by view in the real output buffer...
                    let mut buf = OutputBuffer::new(BufferPolicy::Unbounded);
                    buf.append_batch(emitted);
                    // ...then share views with every subscriber and one
                    // replay cursor.
                    let mut bytes = 0usize;
                    let views = buf.batches_from(0);
                    for _ in 0..replication {
                        for v in &views {
                            let msg: TupleBatch = v.clone();
                            bytes += msg.len();
                        }
                    }
                    for v in buf.batches_from(0) {
                        bytes += v.len();
                    }
                    black_box(bytes)
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    // Full simulated cluster: 3 sources, replicated node pair, client;
    // one virtual second of processing at 900 tuples/s.
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    g.bench_function("cluster_one_virtual_second", |b| {
        b.iter_batched(
            || single_node_system(&SingleNodeOptions::default()),
            |mut sys| {
                sys.run_until(Time::from_secs(1));
                black_box(sys.metrics.total_tentative())
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_filter,
    bench_sunion,
    bench_fragment_hop,
    bench_checkpoint,
    bench_fanout,
    bench_end_to_end
);
criterion_main!(benches);
