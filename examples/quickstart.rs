//! Quickstart: build a query diagram, deploy it with replication, inject a
//! failure, and watch DPC keep results flowing and then correct them.
//!
//! Run with: `cargo run --release --example quickstart`

use borealis::prelude::*;

fn main() {
    // --- 1. The query diagram -------------------------------------------
    // Three monitor streams, merged into one output stream.
    let mut q = QueryBuilder::new();
    let m1 = q.source("monitor-1");
    let m2 = q.source("monitor-2");
    let m3 = q.source("monitor-3");
    let merged = q.union("merged", &[m1, m2, m3]);
    q.output(merged);
    let diagram = q.build().expect("valid diagram");
    let merged = merged.id();

    // --- 2. DPC planning --------------------------------------------------
    // The application tolerates at most 2 seconds of extra latency; DPC
    // inserts SUnion/SOutput operators and assigns the delay budget. The
    // DeploymentSpec puts everything in one fragment with two replicas.
    let cfg = DpcConfig {
        total_delay: Duration::from_secs(2),
        ..DpcConfig::default()
    };
    let plan = plan_deployment(&diagram, &DeploymentSpec::single(2), &cfg).expect("plannable");
    println!(
        "planned {} fragment(s), {} SUnion level(s), {} per-SUnion delay",
        plan.fragments.len(),
        plan.max_sunion_depth,
        plan.per_sunion_delay
    );

    // --- 3. Deployment ----------------------------------------------------
    // Each fragment runs on a replicated node pair; a client proxy watches
    // the output stream and records metrics. The failure script rides
    // along: monitor 3 unreachable from t=5s, healing at t=10s.
    let metrics = MetricsHub::new();
    metrics.enable_trace(merged);
    let mut sys = SystemBuilder::new(7)
        .source(SourceConfig::seq(m1.id(), 100.0))
        .source(SourceConfig::seq(m2.id(), 100.0))
        .source(SourceConfig::seq(m3.id(), 100.0))
        .plan(plan)
        .client_streams(vec![merged])
        .metrics(metrics)
        .fault(FaultSpec::DisconnectSource {
            stream: m3.id(),
            frag: 0,
            from: Time::from_secs(5),
            to: Time::from_secs(10),
        })
        .build();
    sys.run_until(Time::from_secs(25));

    // --- 5. What the client saw -------------------------------------------
    sys.metrics.with(merged, |m| {
        println!("\nclient-side results for {merged}:");
        println!("  stable tuples     : {}", m.n_stable);
        println!(
            "  tentative tuples  : {} (produced while monitor 3 was gone)",
            m.n_tentative
        );
        println!("  undo markers      : {}", m.n_undo);
        println!(
            "  rec-done markers  : {} (stabilizations completed)",
            m.n_rec_done
        );
        println!(
            "  max proc latency  : {} (availability, bound 2 s + processing)",
            m.procnew
        );
        println!("  max data gap      : {}", m.max_gap);
        println!("  duplicate stables : {} (must be 0)", m.dup_stable);

        // A condensed view of the failure window from the arrival trace.
        let trace = m.trace.as_ref().expect("trace enabled");
        let mut last_kind = None;
        println!("\ncondensed event timeline:");
        for e in trace {
            let label = match e.kind {
                TupleKind::Insertion => "stable data",
                TupleKind::Tentative => "TENTATIVE data",
                TupleKind::Undo => "UNDO (roll back tentative suffix)",
                TupleKind::RecDone => "REC_DONE (stream corrected)",
                TupleKind::Boundary => continue,
            };
            if last_kind != Some(e.kind) {
                println!("  t={:>6}ms  {}", e.arrival.as_millis(), label);
                last_kind = Some(e.kind);
            }
        }
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_rec_done >= 1, "stabilization must complete");
    });
    println!("\nDPC kept results flowing during the failure and corrected them afterwards.");
}
