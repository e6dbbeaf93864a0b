//! Failure-injection edge cases beyond the paper's scripted experiments:
//! partitions, back-to-back failures, combined fault types, total crashes.

use borealis::prelude::*;

fn merge3(seed: u64, replication: usize) -> (RunningSystem, StreamId) {
    let mut q = QueryBuilder::new();
    let s1 = q.source("s1");
    let s2 = q.source("s2");
    let s3 = q.source("s3");
    let u = q.union("merged", &[s1, s2, s3]);
    q.output(u);
    let d = q.build().unwrap();
    let cfg = DpcConfig {
        total_delay: Duration::from_secs(2),
        ..DpcConfig::default()
    };
    let p = plan_deployment(&d, &DeploymentSpec::single(replication), &cfg).unwrap();
    let mut builder = SystemBuilder::new(seed)
        .plan(p)
        .client_streams(vec![u.id()]);
    for s in [s1, s2, s3] {
        builder = builder.source(SourceConfig::seq(s.id(), 100.0));
    }
    (builder.build(), u.id())
}

/// Back-to-back failures with a short gap: the second failure begins while
/// the system may still be stabilizing the first (Fig. 11(b) generalized).
#[test]
fn back_to_back_failures_converge() {
    let (mut sys, out) = merge3(41, 2);
    sys.disconnect_source(StreamId(2), 0, Time::from_secs(6), Time::from_secs(10));
    sys.disconnect_source(StreamId(2), 0, Time::from_secs(11), Time::from_secs(15));
    sys.disconnect_source(StreamId(1), 0, Time::from_secs(12), Time::from_secs(16));
    sys.run_until(Time::from_secs(45));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_rec_done >= 1);
        assert!(m.n_stable > 10000, "stream converges: {}", m.n_stable);
        assert!(
            m.max_gap < Duration::from_millis(2600),
            "availability held: {}",
            m.max_gap
        );
    });
}

/// Boundary-mute and full disconnection combined on different streams.
#[test]
fn mixed_fault_types_converge() {
    let (mut sys, out) = merge3(43, 2);
    sys.mute_boundaries(StreamId(0), Time::from_secs(6), Time::from_secs(12));
    sys.disconnect_source(StreamId(2), 0, Time::from_secs(8), Time::from_secs(14));
    sys.run_until(Time::from_secs(40));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_tentative > 0);
        assert!(m.n_rec_done >= 1);
    });
}

/// Crash of BOTH replicas (the paper's §2.2: with persistently logged
/// sources, DPC "can cope with the crash failure of all processing
/// nodes"). During the outage clients get nothing; after restart, nodes
/// rebuild from the source logs and the stream resumes without duplicates.
#[test]
fn total_crash_recovers_from_source_logs() {
    let (mut sys, out) = merge3(47, 2);
    sys.crash_node(0, 0, Time::from_secs(8), Some(Time::from_secs(12)));
    sys.crash_node(0, 1, Time::from_secs(8), Some(Time::from_secs(12)));
    sys.run_until(Time::from_secs(40));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0, "deterministic rebuild reuses the same ids");
        assert!(
            m.n_stable > 8000,
            "stream must resume after total crash: {}",
            m.n_stable
        );
    });
}

/// A network partition separating ONE replica from all sources: that
/// replica detects the silence via missed keep-alives (Fig. 5) and
/// advertises UP_FAILURE without ever producing tentative data; the client
/// switches to the healthy replica within the keep-alive bound.
#[test]
fn partitioned_replica_client_switches_fast() {
    use borealis::sim::FaultEvent;
    let (mut sys, out) = merge3(53, 2);
    let victim = sys.fragment_replicas[0][0];
    for stream in [StreamId(0), StreamId(1), StreamId(2)] {
        let src = sys.source_of(stream);
        sys.sim.schedule_fault(
            Time::from_secs(8),
            FaultEvent::LinkDown { a: src, b: victim },
        );
        sys.sim.schedule_fault(
            Time::from_secs(14),
            FaultEvent::LinkUp { a: src, b: victim },
        );
    }
    sys.run_until(Time::from_secs(40));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_stable > 9000);
        // The healthy replica serves throughout: the only gap is the
        // detection + switch window, far below the 2 s budget.
        assert!(m.max_gap < Duration::from_millis(1500), "gap {}", m.max_gap);
    });
}

/// A total input blackout (every source unreachable from every replica):
/// no availability guarantee exists — "as long as some path of non-blocking
/// operators is available" (Property 1) — but the system must deliver the
/// complete stream after the heal, without duplicates or tentative data
/// (nothing was processed from partial inputs).
#[test]
fn total_blackout_recovers_completely() {
    let (mut sys, out) = merge3(57, 2);
    for stream in [StreamId(0), StreamId(1), StreamId(2)] {
        sys.disconnect_source(stream, 0, Time::from_secs(8), Time::from_secs(14));
    }
    sys.run_until(Time::from_secs(40));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        // The blackout gap itself is expected; afterwards the backlog is
        // delivered stably and completely.
        assert!(m.n_stable > 10000, "complete delivery: {}", m.n_stable);
    });
}

/// Bounded output buffers (§8.1 convergent-capable mode): the system keeps
/// running with eviction; late subscribers may miss evicted history but
/// the live stream stays consistent.
#[test]
fn bounded_buffers_keep_live_stream_consistent() {
    let mut q = QueryBuilder::new();
    let s1 = q.source("s1");
    let s2 = q.source("s2");
    let u = q.union("merged", &[s1, s2]);
    q.output(u);
    let d = q.build().unwrap();
    let cfg = DpcConfig {
        total_delay: Duration::from_secs(2),
        ..DpcConfig::default()
    };
    let p = plan_deployment(&d, &DeploymentSpec::single(2), &cfg).unwrap();
    let (s2, u) = (s2.id(), u.id());
    let mut sys = SystemBuilder::new(59)
        .source(SourceConfig::seq(s1.id(), 100.0))
        .source(SourceConfig::seq(s2, 100.0))
        .plan(p)
        .client_streams(vec![u])
        .node_tuning(NodeTuning {
            buffer_policy: BufferPolicy::DropOldest(2_000),
            ..NodeTuning::default()
        })
        .build();
    sys.disconnect_source(s2, 0, Time::from_secs(6), Time::from_secs(10));
    sys.run_until(Time::from_secs(30));
    sys.metrics.with(u, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_stable > 4000);
        assert!(m.n_rec_done >= 1);
    });
}

/// Flapping link: many short failures in sequence must not wedge the
/// protocol or leak inconsistency.
#[test]
fn flapping_link_does_not_wedge() {
    let (mut sys, out) = merge3(61, 2);
    for k in 0..5u64 {
        let start = Time::from_secs(6 + 4 * k);
        sys.disconnect_source(StreamId(2), 0, start, start + Duration::from_millis(1500));
    }
    sys.run_until(Time::from_secs(50));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(
            m.n_stable > 12000,
            "stream survives flapping: {}",
            m.n_stable
        );
    });
}
