//! The measured runs of the four workloads, driven only through the
//! public API. Every workload is open loop: the three data sources emit on
//! a fixed schedule (`stime = id / rate`) that does not slow when the
//! system does, and latency is taken from stime.

use crate::oracle::{self, Verdict};
use crate::{host, stats};
use borealis_dpc::TraceEntry;
use borealis_runtime::{deploy_tcp, deploy_threads, plan_processes, TcpFabric};
use borealis_types::{Duration, FlowGauges, SchedGauges, Time, TupleKind, WireGauges};
use borealis_workloads::{
    chain_system, run_chain, run_table3, run_tcp_parent, sharded_chain_builder, ChainOptions,
    ChildCommand, ShardedChainOptions, TcpChainSpec,
};
use std::io::Read;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Data sources in every wall-clock workload.
pub const SOURCES: u32 = 3;
/// In-process set-ups timed per run; `setup_s` is their median.
const SETUP_PROBES: usize = 2000;
/// In-process set-ups run in groups this large with [`SETUP_PAUSE`]
/// between groups, half before the measured run and half after it. The
/// host's speed shifts by up to 1.7× from one tenth of a second to the
/// next, so probes run back to back would sample a single phase of it.
const SETUP_GROUP: usize = 50;
/// Pause between groups of set-up probes.
const SETUP_PAUSE: std::time::Duration = std::time::Duration::from_millis(50);
/// Set-ups timed per `failover` run (each spawns three processes, which
/// spreads them out by itself), half before the measured run and half
/// after it.
const TCP_SETUP_PROBES: usize = 12;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Thread runtime, K=4/R=2 sharded chain, 150k tuples/s, no faults.
    Steady,
    /// The same deployment at 450k tuples/s, past the capacity knee.
    Saturate,
    /// TCP runtime over 3 worker processes, durability on, one worker
    /// SIGKILLed mid-episode and respawned from disk.
    Failover,
    /// The simulator running Fig. 15 and Table III.
    PaperSim,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "steady" => Workload::Steady,
            "saturate" => Workload::Saturate,
            "failover" => Workload::Failover,
            "paper_sim" => Workload::PaperSim,
            _ => return None,
        })
    }
}

/// What one run needs to know.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed of the deployment, the victim process and the fault instant.
    pub seed: u64,
    /// Measured wall time of the run.
    pub seconds: f64,
    /// Scratch directory for durable stores (inside the checkout).
    pub work_dir: PathBuf,
}

/// The deployment-shaping parameters derived from [`Params`].
#[derive(Debug, Clone)]
pub struct Shape {
    /// Aggregate offered rate, tuples/s.
    pub total_rate: f64,
    /// Tuples each source emits in the finite episode.
    pub per_source: u64,
    /// Episode length, seconds.
    pub episode: f64,
}

impl Params {
    /// Offered rate and episode of the wall-clock workloads.
    pub fn shape(&self) -> Shape {
        let (total_rate, episode_share) = match self.workload {
            Workload::Steady => (150_000.0, 0.75),
            Workload::Saturate => (450_000.0, 0.5),
            Workload::Failover => (30_000.0, 0.7),
            // Fig. 15's chain: three sources at 500 tuples/s in total.
            Workload::PaperSim => (ChainOptions::default().total_rate, 1.0),
        };
        let episode = self.seconds * episode_share;
        Shape {
            total_rate,
            per_source: (total_rate / f64::from(SOURCES) * episode) as u64,
            episode,
        }
    }

    /// Sharded-chain options of the in-process workloads.
    pub fn chain_options(&self) -> ShardedChainOptions {
        let shape = self.shape();
        ShardedChainOptions {
            shards: 4,
            replication: 2,
            total_rate: shape.total_rate,
            per_node_delay: Duration::from_millis(500),
            light_cost: Duration::from_micros(1),
            work_cost: Duration::from_micros(1),
            source_limit: Some(shape.per_source),
            seed: self.seed,
            ..Default::default()
        }
    }

    /// The `failover` deployment: the victim worker process and the kill
    /// instant (35–65% into the episode) follow from the seed.
    pub fn tcp_spec(&self) -> TcpChainSpec {
        let shape = self.shape();
        let episode_ms = shape.episode * 1000.0;
        let victim = 1 + (mix(self.seed) % 3) as u32;
        let frac = (mix(self.seed ^ 0x5eed) % 1000) as f64 / 1000.0;
        let at_ms = (episode_ms * (0.35 + 0.3 * frac)) as u64;
        TcpChainSpec {
            shards: 4,
            per_source_rate: shape.total_rate / f64::from(SOURCES),
            wall_ms: (self.seconds * 1000.0) as u64,
            crash: false,
            window: None,
            procs: 4,
            workers: 1,
            seed: self.seed,
            source_limit: Some(shape.per_source),
            addrs: Vec::new(),
            durable_dir: Some(self.dir("failover").to_string_lossy().into_owned()),
            restart: Some((victim, at_ms)),
            heartbeat_ms: 100,
        }
    }

    /// A scratch directory under the work dir, unique to this process.
    pub fn dir(&self, name: &str) -> PathBuf {
        self.work_dir.join(format!("{}-{name}", std::process::id()))
    }
}

/// SplitMix64 finalizer: spreads a seed over all bits.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One named reading with its unit.
#[derive(Debug, Clone)]
pub struct Reading {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand for a [`Reading`].
pub fn reading(name: &'static str, value: f64, unit: &'static str) -> Reading {
    Reading { name, value, unit }
}

/// Everything a measured run produced.
#[derive(Debug, Default)]
pub struct Live {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Tuples (or paper rows) attempted.
    pub attempted: u64,
    /// Attempted tuples (rows) that did not come out right.
    pub failed: u64,
    /// No wrong output was delivered.
    pub correct: bool,
    /// Delivered stable tuples per wall second.
    pub stable_per_s: f64,
    /// Process CPU (children included) per stable tuple, µs.
    pub cpu_us_per_tuple: f64,
    /// Peak resident set of this process at the end of the run, MiB.
    pub peak_rss_mb: f64,
    /// Every end-to-end reading that applies to the workload.
    pub report: Vec<Reading>,
    /// Scheduler gauges at the end of the run.
    pub sched: SchedGauges,
    /// Flow-control gauges at the end of the run.
    pub flow: FlowGauges,
    /// Wire gauges of the parent process (`failover`).
    pub wire: WireGauges,
    /// Recovery markers written by restarted nodes (`failover`).
    pub recoveries: Vec<String>,
    /// Stable tuples delivered (per-ktuple gauge denominators).
    pub stable: u64,
    /// Wall µs per simulated second (`paper_sim`).
    pub sim_wall_us_per_virtual_s: Option<f64>,
}

/// Runs the workload's measured run.
pub fn run(p: &Params) -> std::io::Result<Live> {
    match p.workload {
        Workload::Steady | Workload::Saturate => threads(p),
        Workload::Failover => failover(p),
        Workload::PaperSim => paper_sim(p),
    }
}

/// Procnew (max latency of frontier-advancing data tuples) and the
/// largest gap between consecutive frontier-advancing arrivals, in µs —
/// the client's own definitions, recomputed from the trace.
pub fn procnew_and_gap(trace: &[TraceEntry]) -> (u64, u64) {
    let (mut frontier, mut procnew, mut gap) = (Time(0), 0u64, 0u64);
    let mut last: Option<Time> = None;
    for e in trace {
        if matches!(e.kind, TupleKind::Insertion | TupleKind::Tentative) && e.stime > frontier {
            frontier = e.stime;
            procnew = procnew.max(e.arrival.0.saturating_sub(e.stime.0));
            if let Some(prev) = last {
                gap = gap.max(e.arrival.0.saturating_sub(prev.0));
            }
            last = Some(e.arrival);
        }
    }
    (procnew, gap)
}

/// Measurement windows inside the episode: start after a warm-up of 1 s
/// (a quarter of the episode when shorter), about one second each.
fn windows(episode: f64) -> (f64, f64, usize) {
    let start = (episode * 0.25).min(1.0);
    let n = ((episode - start).floor() as usize).max(1);
    (start, (episode - start) / n as f64, n)
}

/// Stable arrivals per window.
fn arrivals_per_window(arrivals: &[Time], start: f64, width: f64, n: usize) -> Vec<u64> {
    let mut counts = vec![0u64; n];
    for a in arrivals {
        let k = (a.as_secs_f64() - start) / width;
        if k >= 0.0 && (k as usize) < n {
            counts[k as usize] += 1;
        }
    }
    counts
}

/// Stable tuples per second over the delivery: from the first stable
/// arrival to the last.
fn delivery_rate(v: &Verdict) -> f64 {
    match (
        v.stable_arrivals.iter().min(),
        v.stable_arrivals.iter().max(),
    ) {
        (Some(a), Some(b)) if b > a => v.stable as f64 / (b.0 - a.0) as f64 * 1e6,
        _ => 0.0,
    }
}

/// The readings every wall-clock workload shares.
fn common_readings(v: &Verdict, trace: &[TraceEntry], latency: bool) -> Vec<Reading> {
    let mut r = Vec::new();
    if latency {
        let mut lat: Vec<f64> = v
            .stable_latency_us
            .iter()
            .map(|&u| u as f64 / 1000.0)
            .collect();
        lat.sort_by(f64::total_cmp);
        if !lat.is_empty() {
            r.push(reading(
                "latency_p50_ms",
                stats::percentile_sorted(&lat, 50.0),
                "ms",
            ));
            r.push(reading(
                "latency_p99_ms",
                stats::percentile_sorted(&lat, 99.0),
                "ms",
            ));
        }
        let (procnew, gap) = procnew_and_gap(trace);
        r.push(reading("procnew_ms", procnew as f64 / 1000.0, "ms"));
        r.push(reading("max_gap_ms", gap as f64 / 1000.0, "ms"));
    }
    for (name, value) in [
        ("oracle_missing", v.missing),
        ("oracle_extra", v.extra),
        ("oracle_id_violations", v.id_violations),
        ("oracle_uncorrected_tentative", v.uncorrected_tentative),
        ("oracle_unclosed_runs", v.unclosed_runs),
    ] {
        r.push(reading(name, value as f64, "count"));
    }
    // Stimes of the first and last missing tuple; 0 when none is missing.
    let (from, to) = v.missing_span.unwrap_or_default();
    r.push(reading("oracle_missing_from_s", from.as_secs_f64(), "s"));
    r.push(reading("oracle_missing_to_s", to.as_secs_f64(), "s"));
    r.push(reading(
        "tentative_tuples",
        v.tentative_received as f64,
        "count",
    ));
    r.push(reading(
        "failed_share",
        v.failed() as f64 / v.offered.max(1) as f64,
        "ratio",
    ));
    r
}

/// Times `n` set-ups with `probe`, `group` at a time with [`SETUP_PAUSE`]
/// between groups, appending each time (seconds) to `out`.
fn spread_probes<E>(
    n: usize,
    group: usize,
    mut probe: impl FnMut() -> Result<f64, E>,
    out: &mut Vec<f64>,
) -> Result<(), E> {
    for k in 0..n {
        if k > 0 && k % group == 0 {
            std::thread::sleep(SETUP_PAUSE);
        }
        out.push(probe()?);
    }
    Ok(())
}

/// `steady` and `saturate`: the sharded chain on the worker pool.
fn threads(p: &Params) -> std::io::Result<Live> {
    let shape = p.shape();
    let opts = p.chain_options();

    let probe = || -> std::io::Result<f64> {
        let t = Instant::now();
        let (builder, _) = sharded_chain_builder(&opts);
        let sys = deploy_threads(builder.workers(2).layout());
        let setup = t.elapsed().as_secs_f64();
        sys.shutdown();
        Ok(setup)
    };
    let mut setups = Vec::with_capacity(SETUP_PROBES);
    spread_probes(SETUP_PROBES / 2, SETUP_GROUP, probe, &mut setups)?;

    let (builder, out) = sharded_chain_builder(&opts);
    let layout = builder.workers(2).layout();
    layout.metrics.enable_trace(out);
    let offered = u64::from(SOURCES) * shape.per_source;
    let sys = deploy_threads(layout);
    let t0 = Instant::now();

    // CPU readings at the window edges, then the drain.
    let (start, width, n) = windows(shape.episode);
    let mut cpu_marks = Vec::with_capacity(n + 1);
    for k in 0..=n {
        let at = std::time::Duration::from_secs_f64(start + width * k as f64);
        sys.run_for(at.saturating_sub(t0.elapsed()));
        cpu_marks.push(host::cpu_seconds());
    }
    let deadline = std::time::Duration::from_secs_f64(p.seconds);
    while t0.elapsed() < deadline && sys.metrics.with(out, |m| m.n_stable) < offered {
        sys.run_for(
            std::time::Duration::from_millis(100).min(deadline.saturating_sub(t0.elapsed())),
        );
    }
    let peak_rss_mb = host::peak_rss_mb();
    let sched = sys.sched_gauges();
    let flow = sys.flow_gauges();
    let metrics = sys.metrics.clone();
    sys.shutdown();
    spread_probes(SETUP_PROBES / 2, SETUP_GROUP, probe, &mut setups)?;

    // The oracle reads the client trace in place, after shutdown.
    let want = oracle::expected_stimes(
        SOURCES,
        shape.per_source,
        shape.total_rate / f64::from(SOURCES),
    );
    let (v, report) = metrics.with(out, |m| {
        let trace = m.trace.as_deref().unwrap_or_default();
        let v = oracle::check(trace, &want);
        let report = common_readings(&v, trace, p.workload == Workload::Steady);
        (v, report)
    });
    let counts = arrivals_per_window(&v.stable_arrivals, start, width, n);
    // Capacity on `saturate` is read over the fixed windows; below the
    // knee the delivered rate is a sustain check over the whole delivery.
    let stable_per_s = match p.workload {
        Workload::Saturate => {
            let per_s: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
            stats::median(&per_s).expect("one window at least")
        }
        _ => delivery_rate(&v),
    };
    // CPU over all windows at once: /proc counts it in 10 ms ticks, too
    // coarse for a single window.
    let windowed: u64 = counts.iter().sum();
    let cpu_us_per_tuple = (cpu_marks[n] - cpu_marks[0]) * 1e6 / windowed.max(1) as f64;
    Ok(Live {
        setup_s: stats::median(&setups).expect("setup probes ran"),
        attempted: v.offered,
        failed: v.failed(),
        correct: v.correct(),
        stable_per_s,
        cpu_us_per_tuple,
        peak_rss_mb,
        report,
        sched,
        flow,
        stable: v.stable,
        ..Live::default()
    })
}

/// The executable and argv prefix that re-enter this binary as a TCP
/// worker process.
pub fn child_command() -> ChildCommand {
    let exe = std::env::current_exe().expect("own executable path");
    ChildCommand {
        program: exe.to_string_lossy().into_owned(),
        prefix: vec![crate::CHILD_SENTINEL.into()],
    }
}

/// Worker processes of a set-up probe. Any still running when this drops
/// (an error cut the probe short) are killed and waited for.
struct Workers(Vec<Child>);

impl Drop for Workers {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// One timed multi-process set-up: plan, allocate the address map, spawn
/// the worker processes, establish the mesh and deploy the parent's
/// share. Tear-down (not timed) stops every process and waits for it.
fn tcp_setup_probe(spec: &TcpChainSpec, child: &ChildCommand, dir: &Path) -> std::io::Result<f64> {
    let mut spec = spec.clone();
    spec.wall_ms = 0;
    spec.restart = None;
    spec.durable_dir = Some(dir.to_string_lossy().into_owned());
    let started = Instant::now();
    let (layout, _) = spec.layout(false);
    let plan = plan_processes(&layout, spec.procs);
    let mut listeners = Vec::new();
    for _ in 0..spec.procs {
        let l = TcpListener::bind("127.0.0.1:0")?;
        spec.addrs.push(l.local_addr()?.to_string());
        listeners.push(l);
    }
    let listener = listeners.into_iter().next().expect("procs >= 1");
    let mut children = Workers(Vec::new());
    for p in 1..spec.procs {
        children.0.push(
            Command::new(&child.program)
                .args(&child.prefix)
                .arg(format!("proc={p}"))
                .args(spec.to_args())
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()?,
        );
    }
    let fabric = TcpFabric::establish(0, listener, &spec.addrs, plan)?;
    let sys = deploy_tcp(layout, fabric);
    let setup = started.elapsed().as_secs_f64();
    sys.shutdown();
    for c in &mut children.0 {
        let mut sink = String::new();
        if let Some(mut out) = c.stdout.take() {
            out.read_to_string(&mut sink)?;
        }
        let status = c.wait()?;
        if !status.success() {
            return Err(std::io::Error::other(format!(
                "set-up probe worker exited with {status}"
            )));
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(setup)
}

/// `failover`: the TCP chain across three worker processes, one of which
/// is SIGKILLed mid-episode and respawned to restart from disk.
fn failover(p: &Params) -> std::io::Result<Live> {
    let shape = p.shape();
    let spec = p.tcp_spec();
    let child = child_command();
    let mut i = 0;
    let mut probe = || {
        i += 1;
        tcp_setup_probe(&spec, &child, &p.dir(&format!("probe{i}")))
    };
    let mut setups = Vec::with_capacity(TCP_SETUP_PROBES);
    spread_probes(TCP_SETUP_PROBES / 2, 1, &mut probe, &mut setups)?;

    let cpu0 = host::cpu_split();
    let report = run_tcp_parent(&spec, &child)?;
    let cpu1 = host::cpu_split();
    let split: Vec<f64> = cpu1.iter().zip(cpu0).map(|(b, a)| b - a).collect();
    let cpu: f64 = split.iter().sum();
    let peak_rss_mb = host::peak_rss_mb();
    if let Some(dir) = &spec.durable_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    spread_probes(TCP_SETUP_PROBES / 2, 1, &mut probe, &mut setups)?;
    let trace = report.trace.unwrap_or_default();
    let v = oracle::check(
        &trace,
        &oracle::expected_stimes(SOURCES, shape.per_source, spec.per_source_rate),
    );
    let mut live = Live {
        setup_s: stats::median(&setups).expect("setup probes ran"),
        attempted: v.offered,
        failed: v.failed(),
        correct: v.correct(),
        stable_per_s: delivery_rate(&v),
        peak_rss_mb,
        cpu_us_per_tuple: cpu * 1e6 / v.stable.max(1) as f64,
        report: common_readings(&v, &trace, true),
        wire: report.wire,
        recoveries: report.recoveries,
        stable: v.stable,
        ..Live::default()
    };
    let (victim, at_ms) = spec.restart.expect("failover restarts a worker");
    live.report
        .push(reading("victim_process", f64::from(victim), "index"));
    live.report.push(reading("kill_at_ms", at_ms as f64, "ms"));
    for (name, value) in [
        ("cpu_parent_user_s", split[0]),
        ("cpu_parent_sys_s", split[1]),
        ("cpu_workers_user_s", split[2]),
        ("cpu_workers_sys_s", split[3]),
    ] {
        live.report.push(reading(name, value, "s"));
    }
    live.report.push(reading(
        "restarted_nodes",
        live.recoveries.len() as f64,
        "count",
    ));
    Ok(live)
}

/// Fig. 15's chain depths and Table III's failure durations.
pub const CHAIN_DEPTHS: [usize; 4] = [1, 2, 3, 4];
/// Fig. 15's failure duration, seconds.
pub const CHAIN_FAILURE_S: f64 = 30.0;
/// Table III's failure durations, seconds.
pub const TABLE3_FAILURES_S: [f64; 11] =
    [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 30.0, 45.0, 60.0];

/// Each experiment runs 15 s of warm-up, the failure, then 25 s of
/// recovery (see `borealis_workloads::experiments`).
fn sim_span_s(failure_s: f64) -> f64 {
    15.0 + failure_s + 25.0
}

/// `(simulated seconds, offered simulated tuples)` of one suite pass.
pub fn paper_suite_size() -> (f64, f64) {
    let chain_runs = 2.0 * CHAIN_DEPTHS.len() as f64;
    let chain_s = chain_runs * sim_span_s(CHAIN_FAILURE_S);
    let table3_s: f64 = TABLE3_FAILURES_S.iter().map(|&f| sim_span_s(f)).sum();
    let table3_rate = 900.0;
    (
        chain_s + table3_s,
        chain_s * ChainOptions::default().total_rate + table3_s * table3_rate,
    )
}

/// One pass of the paper suite: `(procnew µs, ntentative)` per row, Fig. 15
/// rows first, then Table III.
pub fn paper_suite() -> Vec<(u64, u64, u64)> {
    let chain = run_chain(&CHAIN_DEPTHS, &[CHAIN_FAILURE_S]);
    let table3 = run_table3(&TABLE3_FAILURES_S);
    chain
        .iter()
        .map(|r| (r.procnew.as_micros(), r.ntentative, r.dup_stable))
        .chain(
            table3
                .iter()
                .map(|r| (r.procnew.as_micros(), r.ntentative, r.dup_stable)),
        )
        .collect()
}

/// `paper_sim`: the Fig. 15 + Table III suite on the simulator, repeated
/// for the run's wall time, every row checked against the reference.
fn paper_sim(p: &Params) -> std::io::Result<Live> {
    let probe = || -> std::io::Result<f64> {
        let t = Instant::now();
        let sys = chain_system(&ChainOptions::default());
        let setup = t.elapsed().as_secs_f64();
        drop(sys);
        Ok(setup)
    };
    let mut setups = Vec::with_capacity(SETUP_PROBES);
    spread_probes(SETUP_PROBES / 2, SETUP_GROUP, probe, &mut setups)?;

    let (sim_s, sim_tuples) = paper_suite_size();
    let started = Instant::now();
    let cpu0 = host::cpu_seconds();
    let (mut walls, mut rows, mut bad) = (Vec::new(), 0u64, 0u64);
    let mut last_rows = Vec::new();
    while walls.is_empty()
        || started.elapsed().as_secs_f64() + stats::median(&walls).unwrap_or(0.0) <= p.seconds
    {
        let t = Instant::now();
        let got = paper_suite();
        walls.push(t.elapsed().as_secs_f64());
        rows += got.len() as u64;
        bad += crate::reference::mismatches(&got);
        last_rows = got;
    }
    let cpu = host::cpu_seconds() - cpu0;
    let peak_rss_mb = host::peak_rss_mb();
    spread_probes(SETUP_PROBES / 2, SETUP_GROUP, probe, &mut setups)?;
    let wall = stats::median(&walls).expect("one pass at least");
    let iters = walls.len() as f64;
    let mut live = Live {
        setup_s: stats::median(&setups).expect("setup probes ran"),
        attempted: rows,
        failed: bad,
        correct: bad == 0,
        stable_per_s: sim_tuples / wall,
        cpu_us_per_tuple: cpu * 1e6 / (sim_tuples * iters),
        peak_rss_mb,
        sim_wall_us_per_virtual_s: Some(wall * 1e6 / sim_s),
        stable: (sim_tuples * iters) as u64,
        ..Live::default()
    };
    let max_procnew = last_rows.iter().map(|r| r.0).max().unwrap_or(0);
    let tentative: u64 = last_rows.iter().map(|r| r.1).sum();
    live.report = vec![
        reading("sim_speedup", sim_s / wall, "x"),
        reading("suite_wall_s", wall, "s"),
        reading("suite_passes", iters, "count"),
        reading("procnew_ms", max_procnew as f64 / 1000.0, "ms"),
        reading("tentative_tuples", tentative as f64, "count"),
        reading("failed_share", bad as f64 / rows.max(1) as f64, "ratio"),
    ];
    Ok(live)
}

/// Wall µs per simulated second of the workload's own deployment on the
/// simulator (the `sim` layer's speed on this workload's shape).
pub fn sim_probe(p: &Params) -> f64 {
    const VIRTUAL_MS: u64 = 500;
    let layout = match p.workload {
        Workload::Failover => {
            TcpChainSpec {
                durable_dir: None,
                restart: None,
                ..p.tcp_spec()
            }
            .layout(false)
            .0
        }
        _ => sharded_chain_builder(&p.chain_options()).0.layout(),
    };
    let t = Instant::now();
    let mut sys = layout.deploy_sim();
    sys.run_until(Time::from_millis(VIRTUAL_MS));
    t.elapsed().as_secs_f64() * 1e6 / (VIRTUAL_MS as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::TupleId;

    fn entry(kind: TupleKind, stime: u64, arrival: u64) -> TraceEntry {
        TraceEntry {
            arrival: Time(arrival),
            kind,
            id: TupleId(0),
            stime: Time(stime),
            undo_target: None,
        }
    }

    #[test]
    fn procnew_and_gap_follow_the_stime_frontier() {
        let t = [
            entry(TupleKind::Insertion, 100, 150),
            // Same stime (another source): not new data.
            entry(TupleKind::Insertion, 100, 900),
            entry(TupleKind::Tentative, 200, 600),
            // A correction of tentative data does not advance the frontier.
            entry(TupleKind::Insertion, 200, 5000),
            entry(TupleKind::Boundary, 300, 5100),
            entry(TupleKind::Insertion, 300, 700),
        ];
        // Latencies of new data: 50, 400, 400; gaps: 450, 100.
        assert_eq!(procnew_and_gap(&t), (400, 450));
    }

    #[test]
    fn windows_cover_the_episode_after_warm_up() {
        assert_eq!(windows(7.5), (1.0, 6.5 / 6.0, 6));
        let (start, width, n) = windows(2.0);
        assert_eq!((start, n), (0.5, 1));
        assert!((start + width * n as f64 - 2.0).abs() < 1e-9);
        let arrivals = [
            Time(400_000),
            Time(600_000),
            Time(1_400_000),
            Time(2_100_000),
        ];
        assert_eq!(arrivals_per_window(&arrivals, 0.5, 0.75, 2), vec![1, 1]);
    }
}
