//! End-to-end integration tests spanning all crates: the paper's core
//! guarantees checked on full simulated deployments.

use borealis::prelude::*;
use borealis_dpc::TraceEntry;

/// Builds the standard three-source → union → output system.
fn merge3(
    seed: u64,
    replication: usize,
    delay_secs: f64,
    trace: bool,
) -> (RunningSystem, StreamId) {
    let mut q = QueryBuilder::new();
    let s1 = q.source("s1");
    let s2 = q.source("s2");
    let s3 = q.source("s3");
    let u = q.union("merged", &[s1, s2, s3]);
    q.output(u);
    let d = q.build().unwrap();
    let cfg = DpcConfig {
        total_delay: Duration::from_secs_f64(delay_secs),
        ..DpcConfig::default()
    };
    let p = plan_deployment(&d, &DeploymentSpec::single(replication), &cfg).unwrap();
    let hub = MetricsHub::new();
    if trace {
        hub.enable_trace(u.id());
    }
    let mut builder = SystemBuilder::new(seed)
        .plan(p)
        .client_streams(vec![u.id()])
        .metrics(hub);
    for s in [s1, s2, s3] {
        builder = builder.source(SourceConfig::seq(s.id(), 100.0));
    }
    (builder.build(), u.id())
}

/// Applies the DPC stream semantics to a client trace: UNDO rolls back the
/// tentative suffix, corrections replace it. Returns the final stream the
/// application retains, as (id, stime, kind) triples.
fn final_stream(trace: &[TraceEntry]) -> Vec<(u64, u64, TupleKind)> {
    let mut result: Vec<(u64, u64, TupleKind)> = Vec::new();
    for e in trace {
        match e.kind {
            TupleKind::Insertion | TupleKind::Tentative => {
                result.push((e.id.0, e.stime.as_micros(), e.kind));
            }
            TupleKind::Undo => {
                let target = e.undo_target.unwrap_or_default().0;
                // Drop everything after the last stable tuple <= target.
                let keep = result
                    .iter()
                    .rposition(|&(id, _, k)| k == TupleKind::Insertion && id <= target)
                    .map(|i| i + 1)
                    .unwrap_or(0);
                result.truncate(keep);
            }
            TupleKind::RecDone | TupleKind::Boundary => {}
        }
    }
    result
}

/// Definition 1 (eventual consistency), checked literally: after failures
/// heal, the client's final stream equals the failure-free run's stream.
#[test]
fn eventual_consistency_exact_stream_equivalence() {
    let horizon = Time::from_secs(40);
    let (mut clean, out) = merge3(5, 2, 2.0, true);
    clean.run_until(horizon);
    let clean_stream: Vec<_> = clean.metrics.with(out, |m| {
        final_stream(m.trace.as_ref().unwrap())
            .into_iter()
            .filter(|&(_, _, k)| k == TupleKind::Insertion)
            .collect()
    });

    let (mut faulty, out2) = merge3(5, 2, 2.0, true);
    faulty.disconnect_source(StreamId(2), 0, Time::from_secs(8), Time::from_secs(16));
    faulty.run_until(horizon);
    let faulty_stream: Vec<_> = faulty.metrics.with(out2, |m| {
        final_stream(m.trace.as_ref().unwrap())
            .into_iter()
            .filter(|&(_, _, k)| k == TupleKind::Insertion)
            .collect()
    });

    // The shorter run is a prefix of the longer one (the tail may still be
    // in flight at the horizon); everything delivered stably must agree
    // exactly — same ids, same stimes, same order.
    let n = clean_stream.len().min(faulty_stream.len());
    assert!(n > 9000, "substantial stable output expected, got {n}");
    assert_eq!(clean_stream[..n], faulty_stream[..n]);
    let diff = clean_stream.len().abs_diff(faulty_stream.len());
    assert!(diff < 100, "tails diverge by {diff} tuples");
}

/// Property 1 (availability): with a live replica path, new results keep
/// arriving within the incremental bound plus normal processing, at all
/// times — even while one replica reconciles a long failure.
#[test]
fn availability_bound_through_long_failure() {
    let (mut sys, out) = merge3(9, 2, 2.0, false);
    sys.disconnect_source(StreamId(2), 0, Time::from_secs(8), Time::from_secs(38));
    sys.run_until(Time::from_secs(70));
    sys.metrics.with(out, |m| {
        // 1.8 s effective suspend + serialization/dispatch slack.
        assert!(
            m.max_gap < Duration::from_millis(2600),
            "gap {} exceeds the bound",
            m.max_gap
        );
        assert!(m.n_tentative > 0);
        assert_eq!(m.dup_stable, 0);
    });
}

/// A node crash mid-failure: the surviving replica carries the stream, the
/// crashed one recovers from upstream logs (§4.5), and no duplicates or
/// inconsistencies appear.
#[test]
fn crash_during_failure_and_recovery() {
    let (mut sys, out) = merge3(13, 2, 2.0, false);
    sys.disconnect_source(StreamId(2), 0, Time::from_secs(8), Time::from_secs(14));
    sys.crash_node(0, 0, Time::from_secs(10), Some(Time::from_secs(20)));
    sys.run_until(Time::from_secs(45));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_rec_done >= 1);
        assert!(m.n_stable > 8000, "stream must continue: {}", m.n_stable);
    });
}

/// Unreplicated deployments still guarantee eventual consistency (Fig. 11):
/// availability suffers during reconciliation, but all tentative data is
/// corrected and nothing is duplicated.
#[test]
fn single_replica_eventual_consistency() {
    let (mut sys, out) = merge3(17, 1, 2.0, true);
    sys.disconnect_source(StreamId(0), 0, Time::from_secs(8), Time::from_secs(20));
    sys.run_until(Time::from_secs(45));
    sys.metrics.with(out, |m| {
        assert!(m.n_tentative > 0);
        assert!(m.n_undo >= 1);
        assert!(m.n_rec_done >= 1);
        assert_eq!(m.dup_stable, 0);
        let stream = final_stream(m.trace.as_ref().unwrap());
        // After the run, the retained stream must be stable except for the
        // in-flight tail.
        let first_tentative = stream
            .iter()
            .position(|&(_, _, k)| k == TupleKind::Tentative)
            .unwrap_or(stream.len());
        assert!(
            stream.len() - first_tentative < 400,
            "only the tail may remain tentative ({} of {})",
            stream.len() - first_tentative,
            stream.len()
        );
    });
}

/// Overlapping failures on two different input streams (Fig. 11(a)): a
/// single correction wave after the second failure heals; no duplicates.
#[test]
fn overlapping_failures_single_correction_wave() {
    let (mut sys, out) = merge3(21, 1, 2.0, true);
    sys.disconnect_source(StreamId(0), 0, Time::from_secs(8), Time::from_secs(16));
    sys.disconnect_source(StreamId(2), 0, Time::from_secs(12), Time::from_secs(20));
    sys.run_until(Time::from_secs(45));
    sys.metrics.with(out, |m| {
        assert_eq!(m.dup_stable, 0);
        assert!(m.n_rec_done >= 1);
        // The first heal (t=16) must not trigger reconciliation: stream 3
        // is still down. Tentative data spans both failures.
        assert!(m.n_tentative > 0);
    });
}

/// Buffer truncation under acknowledgments (§8.1): with clients acking,
/// output buffers stay bounded during failure-free operation.
#[test]
fn buffers_truncate_under_acks() {
    let (mut sys, out) = merge3(29, 2, 2.0, false);
    sys.run_until(Time::from_secs(30));
    // Indirect check: the run completes with full delivery and no protocol
    // violations. (Buffer sizes are node-internal; the truncation path is
    // unit-tested in borealis-dpc; here we verify it does not corrupt the
    // stream over a long run with periodic acks.)
    sys.metrics.with(out, |m| {
        assert!(m.n_stable > 8500);
        assert_eq!(m.dup_stable, 0);
    });
}

/// Determinism: identical seeds and scripts yield byte-identical outcomes.
#[test]
fn runs_are_deterministic() {
    let run = || {
        let (mut sys, out) = merge3(31, 2, 2.0, false);
        sys.disconnect_source(StreamId(1), 0, Time::from_secs(5), Time::from_secs(9));
        sys.run_until(Time::from_secs(20));
        sys.metrics.with(out, |m| {
            (m.n_stable, m.n_tentative, m.n_undo, m.n_rec_done, m.procnew)
        })
    };
    assert_eq!(run(), run());
}
