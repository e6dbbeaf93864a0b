//! Real-time sharded pipeline: the key-partitioned chain (three sources →
//! ingest Union → an expensive "work" stage × 4 shards → deliver merge →
//! client), every fragment replicated twice, served by the wall-clock
//! worker pool for four seconds. At t = 1.5 s one replica of work shard 1
//! crashes for good: DPC checkpoints, fails over to the surviving replica,
//! and reconciles, while the other shards keep running.
//!
//! Run with:
//! `cargo run --release --example realtime_pipeline`
//!
//! The guarantees this demo shows — no duplicate stable output, a stable
//! stream that keeps flowing through the crash — are asserted under load by
//! `cargo test --release --test realtime`; throughput, latency, and
//! recovery numbers come from `python3 perfbench/run.py`.

use borealis::prelude::*;
use borealis_workloads::{sharded_chain_builder, ShardedChainOptions};

fn main() {
    let shards = 4;
    let wall = std::time::Duration::from_secs(4);
    let opts = ShardedChainOptions {
        shards,
        replication: 2,
        total_rate: 12_000.0,
        per_node_delay: Duration::from_millis(500),
        light_cost: Duration::from_micros(2),
        work_cost: Duration::from_micros(40),
        seed: 7,
        ..Default::default()
    };
    let (builder, out) = sharded_chain_builder(&opts);
    let layout = builder
        .fault(FaultSpec::CrashReplica {
            frag: 1,
            shard: 1,
            replica: 0,
            from: Time::from_millis(1500),
            to: None,
        })
        .layout();

    println!(
        "sharded chain: K={shards} work shards x 2 replicas, {:.0} tuples/s offered, \
         40 us/tuple work stage, {}s on the worker pool",
        opts.total_rate,
        wall.as_secs()
    );
    println!("work shard 1, replica 0 crashes at t=1.5s\n");

    let sys = deploy_threads(layout);
    let started = std::time::Instant::now();
    sys.run_for(wall);
    let elapsed = started.elapsed().as_secs_f64();
    let (stable, tentative, dup) = sys
        .metrics
        .with(out, |m| (m.n_stable, m.n_tentative, m.dup_stable));
    let drops = sys.shutdown().total_drops();

    println!("stable tuples/s   : {:.0}", stable as f64 / elapsed);
    println!("stable tuples     : {stable}");
    println!("tentative tuples  : {tentative}");
    println!("messages dropped  : {drops}");
    println!("duplicate stable  : {dup}");
}
