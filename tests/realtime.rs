//! Wall-clock gates of the paper's guarantees on the worker-pool and TCP
//! runtimes: no duplicate stable output, failover that keeps the stable
//! stream flowing, and bounded buffering under overload.
//!
//! The workload is the key-partitioned chain (three sources → ingest Union
//! → an expensive "work" stage × K shards → deliver merge → client) at
//! replication 2. Each test runs it against the wall clock for seconds and
//! asserts throughput-shaped thresholds that only an optimized build meets,
//! so every test here is ignored in debug builds. Run them with
//! `cargo test --release --test realtime`; the numbers themselves are
//! measured by `python3 perfbench/run.py`.

mod common;

use borealis::prelude::*;
use borealis_workloads::{
    run_tcp_parent, scale_grid_builder, sharded_chain_builder, ChildCommand, ScaleOptions,
    ShardedChainOptions, TcpChainSpec,
};
use common::{recovery_markers, scratch, serial};

/// Tuples/s each of the three sources offers at the reference configuration.
const RATE: f64 = 4_000.0;
/// Wall-clock seconds per run.
const WALL_SECS: f64 = 4.0;

/// The reference configuration: a 40 µs/tuple work stage, 500 ms delay
/// budget per SUnion.
fn options(shards: u32, per_source_rate: f64) -> ShardedChainOptions {
    ShardedChainOptions {
        shards,
        replication: 2,
        total_rate: per_source_rate * 3.0,
        per_node_delay: Duration::from_millis(500),
        light_cost: Duration::from_micros(2),
        work_cost: Duration::from_micros(40),
        seed: 7,
        ..Default::default()
    }
}

/// Permanently kills replica 0 of work-stage shard `shard` at `at_ms`:
/// DPC must checkpoint, fail over to the surviving replica, and stabilize,
/// all without disturbing the other shards.
fn crash_work_shard(shard: usize, at_ms: u64) -> FaultSpec {
    FaultSpec::CrashReplica {
        frag: 1,
        shard,
        replica: 0,
        from: Time::from_millis(at_ms),
        to: None,
    }
}

struct Run {
    throughput: f64,
    n_stable: u64,
    n_tentative: u64,
    dup: u64,
    drops: u64,
    procnew: Duration,
    flow: FlowGauges,
}

fn run(
    o: &ShardedChainOptions,
    policy: CreditPolicy,
    fault: Option<FaultSpec>,
    wall_secs: f64,
) -> Run {
    let (mut builder, out) = sharded_chain_builder(o);
    builder = builder.credit_policy(policy);
    if let Some(f) = fault {
        builder = builder.fault(f);
    }
    let sys = deploy_threads(builder.layout());
    let started = std::time::Instant::now();
    sys.run_for(std::time::Duration::from_secs_f64(wall_secs));
    let elapsed = started.elapsed().as_secs_f64();
    let (n_stable, n_tentative, dup, procnew) = sys.metrics.with(out, |m| {
        (m.n_stable, m.n_tentative, m.dup_stable, m.procnew)
    });
    let flow = sys.flow_gauges();
    let drops = sys.shutdown().total_drops();
    Run {
        throughput: n_stable as f64 / elapsed,
        n_stable,
        n_tentative,
        dup,
        drops,
        procnew,
        flow,
    }
}

/// K = 1/2/4 at fixed offered load: sharding the saturated stage raises
/// stable throughput, and K = 4 keeps its stable stream flowing,
/// duplicate-free, through a mid-run shard-replica crash.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release CI step only")]
fn clean_sharding_lifts_throughput_and_failover_keeps_stream_flowing() {
    let _serial = serial();
    let mut throughput = Vec::new();
    for shards in [1u32, 2, 4] {
        let r = run(
            &options(shards, RATE),
            CreditPolicy::Unbounded,
            None,
            WALL_SECS,
        );
        assert_eq!(r.dup, 0, "K={shards}: no duplicate stable tuples");
        assert_eq!(r.drops, 0, "K={shards}: healthy runs lose nothing");
        assert!(
            r.n_stable > 1_000,
            "K={shards}: live traffic must flow ({} stable)",
            r.n_stable
        );
        throughput.push(r.throughput);
    }
    let (t1, t4) = (throughput[0], throughput[2]);
    assert!(
        t4 > t1 * 1.10,
        "sharding the saturated stage must raise stable throughput: K=1 {t1:.0}/s vs K=4 {t4:.0}/s"
    );

    let c = run(
        &options(4, RATE),
        CreditPolicy::Unbounded,
        Some(crash_work_shard(1, 1500)),
        WALL_SECS,
    );
    assert_eq!(c.dup, 0, "failover must not duplicate stable tuples");
    assert!(
        c.drops > 0,
        "the scripted crash must actually sever traffic"
    );
    assert!(
        c.n_stable > 1_000,
        "stable output must keep flowing through the failure ({} stable)",
        c.n_stable
    );
}

/// K = 1 offered 24k tuples/s, about twice the work stage's capacity: a
/// bounded credit window pins receiver-side in-flight depth at the window
/// and the overload surfaces as delayed (tentative) buckets, while the
/// accounted unbounded baseline's (`Window(u32::MAX)`) buffering grows. At the reference
/// configuration a window costs neither throughput nor delay budget.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release CI step only")]
fn overload_credit_window_bounds_inflight_and_spares_reference_path() {
    let _serial = serial();
    let overload = options(1, 8_000.0);
    for window in [8u32, 32] {
        let r = run(&overload, CreditPolicy::Window(window), None, WALL_SECS);
        assert_eq!(r.dup, 0, "window {window}: no duplicate stable tuples");
        assert!(
            r.flow.inflight_peak <= window as u64,
            "window {window}: in-flight depth must be bounded by the credit window (got {})",
            r.flow.inflight_peak
        );
        assert!(
            r.flow.stalls > 0 && r.flow.queued > 0,
            "window {window}: overload must actually stall the links: {:?}",
            r.flow
        );
        // The narrow window surfaces the overload within the run; the wide
        // one absorbs most of the burst first.
        if window == 8 {
            assert!(
                r.n_tentative > 0,
                "window {window}: the overload must surface as delayed tentative buckets"
            );
        }
    }

    let m = run(&overload, CreditPolicy::Window(u32::MAX), None, WALL_SECS);
    let widest = 32u64;
    assert!(
        m.flow.inflight_peak > 2 * widest,
        "the unbounded baseline must show growing buffering (in-flight peak {} vs window {widest})",
        m.flow.inflight_peak
    );

    let reference = run(&options(4, RATE), CreditPolicy::Unbounded, None, WALL_SECS);
    let guarded = run(&options(4, RATE), CreditPolicy::Window(64), None, WALL_SECS);
    assert!(
        guarded.throughput > reference.throughput * 0.85,
        "bounded credits must not regress clean-path throughput >15%: {:.0} vs {:.0}",
        guarded.throughput,
        reference.throughput
    );
    let added = guarded.procnew.saturating_sub(reference.procnew);
    assert!(
        added <= Duration::from_millis(1500),
        "added delay at the reference config must stay inside the total delay budget: +{added}"
    );
}

/// OS threads of this process right now, from `/proc/self/status`
/// (`None` where procfs is unavailable).
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Threads of this process the runtime spawned and still has alive: pool
/// workers and the fault controller are named `dpc-*`, durable-store
/// flushers `borealis-*` (`None` where procfs is unavailable). The test
/// harness's own threads come and go as other tests start and finish, so
/// a leak check counts these by name rather than the whole process.
fn runtime_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
            .filter(|name| name.starts_with("dpc-") || name.starts_with("borealis-"))
            .count(),
    )
}

struct ScaleRun {
    stable: u64,
    dup: u64,
    drops: u64,
    /// Threads the deployment added, counting the calling thread.
    threads: Option<usize>,
    /// Runtime threads still alive after shutdown.
    leaked: Option<usize>,
    sched: SchedGauges,
}

fn run_scale(o: &ScaleOptions, workers: usize, wall_secs: f64, crash: bool) -> ScaleRun {
    let (mut builder, outs) = scale_grid_builder(o);
    builder = builder.workers(workers);
    if crash {
        // Chain 1's work stage is logical fragment 2: failover at scale,
        // contained to one chain out of a thousand fragments.
        builder = builder.fault(FaultSpec::CrashReplica {
            frag: 2,
            shard: 1,
            replica: 0,
            from: Time::from_millis(1500),
            to: None,
        });
    }
    let before = os_threads();
    let sys = deploy_threads(builder.layout());
    sys.run_for(std::time::Duration::from_secs_f64(wall_secs));
    let threads = os_threads()
        .zip(before)
        .map(|(after, before)| (after + 1).saturating_sub(before));
    let sched = sys.sched_gauges();
    let (mut stable, mut dup) = (0u64, 0u64);
    for out in &outs {
        sys.metrics.with(*out, |m| {
            stable += m.n_stable;
            dup += m.dup_stable;
        });
    }
    let drops = sys.shutdown().total_drops();
    ScaleRun {
        stable,
        dup,
        drops,
        threads,
        leaked: runtime_threads(),
        sched,
    }
}

/// The worker pool multiplexes up to 1040 replicated fragments
/// (16 chains × K=64) onto a fixed set of OS threads: every chain's output
/// flows, idle workers park, imbalance triggers stealing, and a mid-run
/// shard-replica crash at that scale stays duplicate-free.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release CI step only")]
fn scale_pool_runs_1040_fragments_on_fixed_threads() {
    let _serial = serial();
    // The total offered load (chains × rate) is held at 800/s across the
    // grid; the point is actor count, not offered load.
    let grid = [
        (4u32, 4u32, 2usize, 200.0),
        (8, 16, 4, 100.0),
        (16, 64, 8, 50.0),
    ];
    let mut steals_total = 0u64;
    for (chains, shards, workers, rate) in grid {
        let o = ScaleOptions {
            chains,
            shards,
            rate_per_chain: rate,
            ..Default::default()
        };
        let r = run_scale(&o, workers, WALL_SECS, false);
        assert_eq!(r.dup, 0, "{chains}x{shards}: no duplicate stable tuples");
        assert_eq!(r.drops, 0, "{chains}x{shards}: healthy runs lose nothing");
        assert!(
            r.stable > chains as u64 * 20,
            "{chains}x{shards}: every chain's output must flow ({} stable)",
            r.stable
        );
        // `workers` pool threads + the fault controller + the caller.
        if let Some(t) = r.threads {
            assert!(
                t <= workers + 2,
                "{chains}x{shards}: the pool may never exceed workers+2 OS threads (got {t})"
            );
        }
        if let Some(n) = r.leaked {
            assert_eq!(
                n, 0,
                "{chains}x{shards}: shutdown must join every runtime thread"
            );
        }
        assert!(
            r.sched.parks > 0,
            "idle workers must park, not spin: {:?}",
            r.sched
        );
        steals_total += r.sched.steals;
    }
    assert!(
        steals_total > 0,
        "imbalanced queues must trigger work stealing somewhere in the sweep"
    );

    let o = ScaleOptions {
        chains: 16,
        shards: 64,
        rate_per_chain: 50.0,
        ..Default::default()
    };
    let c = run_scale(&o, 8, WALL_SECS + 2.0, true);
    assert_eq!(c.dup, 0, "failover at scale must not duplicate");
    if let Some(n) = c.leaked {
        assert_eq!(
            n, 0,
            "shutdown after a crash must join every runtime thread"
        );
    }
    assert!(
        c.drops > 0,
        "the scripted crash must actually sever traffic"
    );
    assert!(
        c.stable > 16 * 20,
        "stable output must keep flowing through the failure ({} stable)",
        c.stable
    );
}

/// The reference K = 4 chain forked across three OS processes over
/// loopback TCP: the parent hosts the sources and the client, two
/// `tcp_node` children host the fragment replicas.
fn tcp_spec(crash: bool, window: Option<u32>) -> TcpChainSpec {
    TcpChainSpec {
        shards: 4,
        per_source_rate: RATE,
        wall_ms: (WALL_SECS * 1000.0) as u64,
        crash,
        window,
        procs: 3,
        workers: 4,
        seed: 7,
        source_limit: None,
        ..TcpChainSpec::default()
    }
}

fn tcp_node() -> ChildCommand {
    ChildCommand {
        program: env!("CARGO_BIN_EXE_tcp_node").to_string(),
        prefix: Vec::new(),
    }
}

/// Three processes carry the reference load over loopback sockets with
/// coalesced writes, and a replica crash inside a worker process fails
/// over duplicate-free.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release CI step only")]
fn tcp_three_process_chain_flows_and_fails_over() {
    let _serial = serial();
    let clean = run_tcp_parent(&tcp_spec(false, None), &tcp_node()).expect("tcp clean run");
    assert_eq!(clean.dup, 0, "sockets must not duplicate stable tuples");
    assert!(
        clean.n_stable > 1_000,
        "live traffic must flow across the wire ({} stable)",
        clean.n_stable
    );
    assert!(
        clean.wire.frames_per_flush() >= 1.0,
        "the writer must coalesce frames into syscalls: {:?}",
        clean.wire
    );
    // No drops assertion on the clean run: at teardown the peer that sends
    // its Goodbye first makes the other side count a few late heartbeats
    // as send drops — shutdown skew, not data loss.

    let crash = run_tcp_parent(&tcp_spec(true, None), &tcp_node()).expect("tcp crash run");
    assert_eq!(crash.dup, 0, "cross-process failover must not duplicate");
    assert!(
        crash.drops > 0,
        "the scripted crash must sever traffic somewhere in the cluster"
    );
    assert!(
        crash.n_stable > 1_000,
        "stable output must keep flowing through the failure ({} stable)",
        crash.n_stable
    );
}

/// With a bounded credit window the credit protocol crosses process
/// boundaries: grants ride the wire as explicit frames in both directions.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release CI step only")]
fn tcp_bounded_window_sends_grant_frames() {
    let _serial = serial();
    let r = run_tcp_parent(&tcp_spec(false, Some(64)), &tcp_node()).expect("tcp windowed run");
    assert_eq!(
        r.dup, 0,
        "windowed sockets must not duplicate stable tuples"
    );
    assert!(
        r.n_stable > 1_000,
        "live traffic must flow under the window ({} stable)",
        r.n_stable
    );
    assert!(
        r.wire.grants_sent > 0 && r.wire.grants_recv > 0,
        "credit grants must ride the wire as explicit frames: {:?}",
        r.wire
    );
}

/// The snapshot id a `last_recovery.marker` records (`snapshot=<id> ...`).
fn marker_snapshot(marker: &str) -> u64 {
    marker
        .strip_prefix("snapshot=")
        .and_then(|s| s.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Durability on at the reference load (250 ms background checkpoints
/// plus the input log) keeps the stable stream flowing duplicate-free, and
/// a worker process SIGKILLed at half-run is respawned and every one of
/// its nodes restarts from a real checkpoint on disk.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release CI step only")]
fn recover_durable_chain_and_killed_process_restart_from_disk() {
    let _serial = serial();
    let root = scratch("reference");
    let (builder, out) = sharded_chain_builder(&options(4, RATE));
    let sys = deploy_threads(
        builder
            .durability(&root, Duration::from_millis(250), true)
            .layout(),
    );
    sys.run_for(std::time::Duration::from_secs_f64(WALL_SECS));
    let (stable, dup) = sys.metrics.with(out, |m| (m.n_stable, m.dup_stable));
    sys.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(dup, 0, "durable clean run must not duplicate");
    assert!(
        stable > 1_000,
        "live traffic must flow with durability on ({stable} stable)"
    );

    // Worker process 1 (one replica of every fragment) dies by SIGKILL at
    // half-run and is respawned with `rejoin=true`: each of its nodes
    // reloads its latest checkpoint, replays the logged input suffix,
    // re-dials the mesh, and rejoins DPC.
    let root = scratch("tcp");
    let wall_ms = (WALL_SECS * 1000.0) as u64;
    let spec = TcpChainSpec {
        durable_dir: Some(root.to_string_lossy().into_owned()),
        restart: Some((1, wall_ms / 2)),
        ..tcp_spec(false, None)
    };
    let report = run_tcp_parent(&spec, &tcp_node()).expect("tcp recover run");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(
        report.dup, 0,
        "disk recovery must not duplicate stable tuples"
    );
    assert!(
        report.n_stable > 1_000,
        "stable output must keep flowing through the kill ({} stable)",
        report.n_stable
    );
    assert!(
        !report.recoveries.is_empty(),
        "the respawned worker's nodes must restart from their durable stores"
    );
    for marker in &report.recoveries {
        assert!(
            marker_snapshot(marker) >= 1,
            "a mid-run restart must find a checkpoint: {marker}"
        );
    }
}

/// The checkpoint-interval sweep at the reference load on the thread
/// runtime: work-shard 1's replica 0 is killed at 1.5 s and respawned
/// 300 ms later, reloading its latest checkpoint and replaying the logged
/// input suffix. At 100, 250 and 1000 ms intervals the restart stays
/// duplicate-free and exactly the restarted replica recovers from disk.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release CI step only")]
fn recover_restarted_shard_replica_at_every_checkpoint_interval() {
    let _serial = serial();
    for interval_ms in [100u64, 250, 1000] {
        let root = scratch(&format!("sweep-{interval_ms}"));
        let (builder, out) = sharded_chain_builder(&options(4, RATE));
        let sys = deploy_threads(
            builder
                .durability(&root, Duration::from_millis(interval_ms), true)
                .fault(FaultSpec::RestartReplica {
                    frag: 1,
                    shard: 1,
                    replica: 0,
                    after: Time::from_millis(1500),
                })
                .layout(),
        );
        sys.run_for(std::time::Duration::from_secs_f64(WALL_SECS));
        let dup = sys.metrics.with(out, |m| m.dup_stable);
        sys.shutdown();
        let markers = recovery_markers(&root);
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(
            dup, 0,
            "interval {interval_ms} ms: duplicates after restart"
        );
        assert_eq!(
            markers.len(),
            1,
            "interval {interval_ms} ms: exactly the restarted replica recovers: {markers:?}"
        );
    }
}

/// One saturation probe: the modeled CPU is dialed down to 1 µs/tuple so
/// the real data plane — shard routing, scheduler handoff, credit
/// accounting, SUnion merge — saturates rather than the cost model.
fn saturate_run(shards: u32, per_source_rate: f64, wall_secs: f64, crash: bool) -> Run {
    let o = ShardedChainOptions {
        light_cost: Duration::from_micros(1),
        work_cost: Duration::from_micros(1),
        ..options(shards, per_source_rate)
    };
    // The crash lands at 40% of the run: the knee must hold through
    // checkpoint, failover, and reconciliation.
    let shard = if shards > 1 { 1 } else { 0 };
    let fault = crash.then(|| crash_work_shard(shard, (wall_secs * 400.0) as u64));
    run(&o, CreditPolicy::Unbounded, fault, wall_secs)
}

/// Locates the capacity knee for one configuration and returns the stable
/// throughput measured there: geometric ramp of the offered load until a
/// run fails to sustain it, then two bisection steps. "Sustained" means
/// duplicate-free stable output whose delivery efficiency (stable/offered)
/// holds ≥95% (clean) / ≥90% (crash) of the efficiency at the floor rate.
fn find_knee(shards: u32, wall_secs: f64, crash: bool) -> f64 {
    let frac = if crash { 0.90 } else { 0.95 };
    let one_run = |per_source: f64, floor_eff: f64| -> (bool, f64, f64) {
        let r = saturate_run(shards, per_source, wall_secs, crash);
        let eff = r.throughput / (per_source * 3.0);
        let ok = r.dup == 0 && eff >= floor_eff * frac;
        println!(
            "K={shards} crash={crash}: offered {:.0}/s -> stable {:.0}/s ({:.1}%){}",
            per_source * 3.0,
            r.throughput,
            100.0 * eff,
            if ok { "" } else { "  <- miss" },
        );
        (ok, r.throughput, eff)
    };
    // A single marginally-below-threshold run is scheduling noise, not the
    // knee: a failed probe only counts after a confirming re-run also fails.
    let probe = |per_source: f64, floor_eff: f64| -> (bool, f64, f64) {
        let first = one_run(per_source, floor_eff);
        if first.0 || floor_eff == 0.0 {
            return first;
        }
        one_run(per_source, floor_eff)
    };

    let mut lo = 4_000.0; // per-source floor: 12k/s aggregate
    let (_, mut best, floor_eff) = probe(lo, 0.0);
    assert!(
        floor_eff > 0.70,
        "K={shards} crash={crash}: the {:.0}/s floor must deliver most of the offered \
         load ({:.0}% measured)",
        lo * 3.0,
        floor_eff * 100.0
    );
    let mut hi = None;
    while hi.is_none() && lo < 700_000.0 {
        let next = lo * 1.6;
        let (ok, stable, _) = probe(next, floor_eff);
        if ok {
            lo = next;
            best = stable;
        } else {
            hi = Some(next);
        }
    }
    if let Some(mut hi) = hi {
        for _ in 0..2 {
            let mid = (lo + hi) / 2.0;
            let (ok, stable, _) = probe(mid, floor_eff);
            if ok {
                lo = mid;
                best = stable;
            } else {
                hi = mid;
            }
        }
    }
    best
}

/// The capacity knee — the highest duplicate-free sustained stable
/// throughput — clears 10k tuples/s at K = 1/4/8, and a mid-run
/// shard-replica crash keeps at least 35% of it. Probes run 1 s clean and
/// 2 s through the crash.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release CI step only")]
fn saturate_knee_clears_10k_and_survives_crash() {
    let _serial = serial();
    for k in [1u32, 4, 8] {
        let clean = find_knee(k, 1.0, false);
        let crash = find_knee(k, 2.0, true);
        assert!(
            clean > 10_000.0,
            "K={k}: the clean knee must clear 10k stable/s ({clean:.0})"
        );
        assert!(
            crash > clean * 0.35,
            "K={k}: capacity must survive the mid-run crash ({crash:.0} vs clean {clean:.0})"
        );
    }
}
