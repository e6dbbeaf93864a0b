//! Financial services — another §1 application class: ticker feeds from
//! redundant exchanges.
//!
//! Two exchange gateways publish trades for the same instruments. A union
//! merges them, a per-instrument sliding-window aggregate computes a
//! moving average and trade count, and a filter flags bursts. Traders
//! prefer a fast approximate signal over a late exact one (low delay
//! threshold), but compliance eventually needs the exact history — DPC
//! provides both: tentative analytics within the bound during a gateway
//! outage, exact corrected analytics afterwards.
//!
//! Run with: `cargo run --release --example financial_feed`

use borealis::prelude::*;

fn main() {
    let mut q = QueryBuilder::new();
    // Trade record: [instrument, size].
    let gw1 = q.source("gateway-1");
    let gw2 = q.source("gateway-2");
    let trades = q.union("trades", &[gw1, gw2]);
    let analytics = q.aggregate(
        "per-instrument",
        trades,
        AggregateSpec {
            // 2-second windows sliding every 500 ms.
            window: Duration::from_secs(2),
            slide: Duration::from_millis(500),
            group_by: vec![Expr::field(0)],
            aggs: vec![AggFn::count(), AggFn::avg(Expr::field(1))],
        },
    );
    let bursts = q.filter(
        "bursts",
        analytics,
        // analytics tuple: [instrument, count, avg_size]
        Expr::gt(Expr::field(1), Expr::int(30)),
    );
    q.output(bursts);
    let diagram = q.build().expect("valid diagram");
    let bursts = bursts.id();

    // Traders tolerate only 1.5 s of extra latency.
    let cfg = DpcConfig {
        total_delay: Duration::from_secs_f64(1.5),
        ..DpcConfig::default()
    };
    let plan = plan_deployment(&diagram, &DeploymentSpec::single(2), &cfg).expect("plannable");

    let feed = |stream: StreamHandle| SourceConfig {
        stream: stream.id(),
        rate: 400.0,
        boundary_interval: Duration::from_millis(50),
        batch_period: Duration::from_millis(10),
        values: ValueGen::Keyed { keys: 12 },
        limit: None,
    };
    let mut sys = SystemBuilder::new(37)
        .source(feed(gw1))
        .source(feed(gw2))
        .plan(plan)
        .client_streams(vec![bursts])
        .fault(FaultSpec::DisconnectSource {
            // Gateway 2 drops off the network for six seconds mid-session.
            stream: gw2.id(),
            frag: 0,
            from: Time::from_secs(12),
            to: Time::from_secs(18),
        })
        .build();
    sys.run_until(Time::from_secs(35));

    sys.metrics.with(bursts, |m| {
        println!("financial-feed run (gateway 2 down 12s-18s):");
        println!("  stable burst signals    : {}", m.n_stable);
        println!(
            "  tentative burst signals : {} (half the feed was missing)",
            m.n_tentative
        );
        println!("  corrections (undo/rec)  : {}/{}", m.n_undo, m.n_rec_done);
        println!(
            "  max signal latency      : {} (budget 1.5 s + processing)",
            m.procnew
        );
        println!("  duplicate stable        : {}", m.dup_stable);
        assert!(m.n_tentative > 0, "tentative analytics during the outage");
        assert!(m.n_rec_done >= 1, "compliance gets the exact history");
        assert_eq!(m.dup_stable, 0);
        // The one-gateway tentative window sees roughly half the trades, so
        // burst detection degrades but does not stop — the paper's
        // "fewer false positives/negatives than blocking entirely".
    });
    println!("\ntentative burst signals kept flowing during the outage; the exact");
    println!("per-instrument history was corrected once gateway 2 returned.");
}
