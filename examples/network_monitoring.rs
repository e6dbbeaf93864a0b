//! Network monitoring — the paper's motivating application (§1).
//!
//! Distributed network monitors feed flow records into a two-stage
//! dataflow: per-monitor filters keep suspicious flows, a union merges
//! them, and a windowed aggregate counts suspicious flows per source
//! prefix every second. When a partition cuts one monitor off, DPC keeps
//! producing *tentative* alert counts from the remaining monitors ("can
//! help detect at least a subset of all anomalous conditions") and, once
//! the partition heals, corrects them — "the administrator eventually sees
//! the complete list of problems that occurred during the partition."
//!
//! Run with: `cargo run --release --example network_monitoring`

use borealis::prelude::*;

fn main() {
    // --- The monitoring dataflow ------------------------------------------
    // Flow record: [src_prefix, bytes]. Suspicious = bytes above threshold.
    let mut q = QueryBuilder::new();
    let mon_a = q.source("monitor-A");
    let mon_b = q.source("monitor-B");
    let mon_c = q.source("monitor-C");
    // bytes (field 1) over threshold
    let suspicious = Expr::gt(Expr::field(1), Expr::int(800));
    let sa = q.filter("suspicious-A", mon_a, suspicious.clone());
    let sb = q.filter("suspicious-B", mon_b, suspicious.clone());
    let sc = q.filter("suspicious-C", mon_c, suspicious);
    let all = q.union("suspicious-all", &[sa, sb, sc]);
    let alerts = q.aggregate(
        "alert-counts",
        all,
        AggregateSpec {
            window: Duration::from_secs(1),
            slide: Duration::from_secs(1),
            group_by: vec![Expr::field(0)],
            aggs: vec![AggFn::count(), AggFn::max(Expr::field(1))],
        },
    );
    q.output(alerts);
    let diagram = q.build().expect("valid diagram");
    let alerts = alerts.id();

    // Two fragments, cut by operator name: filtering+merge near the
    // monitors, aggregation on a second node pair — a small distributed
    // deployment (Fig. 1).
    let spec = DeploymentSpec::new()
        .fragment(FragmentSpec::named("edge").ops([
            "suspicious-A",
            "suspicious-B",
            "suspicious-C",
            "suspicious-all",
        ]))
        .fragment(FragmentSpec::named("analytics").op("alert-counts"));
    let cfg = DpcConfig {
        // The operations team tolerates 4 seconds of extra alert latency.
        total_delay: Duration::from_secs(4),
        ..DpcConfig::default()
    };
    let plan = plan_deployment(&diagram, &spec, &cfg).expect("plannable");

    // --- Deployment --------------------------------------------------------
    // Monitors generate keyed flow records; ~1/5 of them are suspicious.
    let source = |stream: StreamHandle| SourceConfig {
        stream: stream.id(),
        rate: 200.0,
        boundary_interval: Duration::from_millis(100),
        batch_period: Duration::from_millis(10),
        values: ValueGen::Keyed { keys: 16 },
        limit: None,
    };
    // Map the sequence payload onto a bytes-like distribution: field 1 is
    // `seq`, so `seq % 1000 > 800` fires for ~20% of flows.
    // (The filter compares field 1 directly; Keyed yields [key, seq].)
    let metrics = MetricsHub::new();
    let mut sys = SystemBuilder::new(11)
        .source(source(mon_a))
        .source(source(mon_b))
        .source(source(mon_c))
        .plan(plan)
        .client_streams(vec![alerts])
        .metrics(metrics)
        .fault(FaultSpec::DisconnectSource {
            // Partition: monitor C unreachable from the edge fragment for
            // 8 seconds.
            stream: mon_c.id(),
            frag: 0,
            from: Time::from_secs(10),
            to: Time::from_secs(18),
        })
        .build();
    sys.run_until(Time::from_secs(40));

    sys.metrics.with(alerts, |m| {
        println!("network-monitoring run (monitor C partitioned 10s-18s):");
        println!("  stable alert windows    : {}", m.n_stable);
        println!("  tentative alert windows : {}", m.n_tentative);
        println!("  corrections (undo/rec)  : {}/{}", m.n_undo, m.n_rec_done);
        println!("  max alert latency       : {}", m.procnew);
        println!("  duplicate stable alerts : {}", m.dup_stable);
        assert!(
            m.n_tentative > 0,
            "partial results must keep flowing during the partition"
        );
        assert!(
            m.n_rec_done >= 1,
            "the administrator eventually sees the full list"
        );
        assert_eq!(m.dup_stable, 0);
    });
    println!("\ntentative alerts flowed during the partition; the complete");
    println!("alert history was corrected once the partition healed.");
}
