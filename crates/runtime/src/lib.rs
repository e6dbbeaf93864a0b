//! # borealis-runtime
//!
//! The real-time execution engine for the DPC protocol: the same
//! `ProcessingNode` / `DataSource` / `ClientProxy` actors that run under
//! the deterministic simulator, driven against the monotonic wall clock on
//! a **fixed pool of worker threads**.
//!
//! * every actor is a schedulable task: per-worker run queues with work
//!   stealing, a global injector for cross-worker wakeups, and an
//!   Idle/Queued/Running state machine so a mailbox push schedules an idle
//!   actor exactly once (see [`crate::scheduler`]) — thousands of actors
//!   multiplex onto a handful of OS threads;
//! * `NetMsg::Data` payloads are `Arc`-backed `TupleBatch` views, so
//!   cross-thread fan-out moves reference counts, not tuples;
//! * a per-worker [`TimerWheel`] drives protocol timers and the CPU cost
//!   model's delayed departures; its earliest deadline bounds the worker's
//!   park, so idle workers burn no CPU;
//! * a shared [`LinkTable`] (the simulator's fault model behind a lock)
//!   plus a fault-controller thread replay scripted partitions, crashes,
//!   and heals in wall-clock time;
//! * [`deploy_threads`] launches a runtime-independent
//!   [`SystemLayout`](borealis_dpc::SystemLayout) — the very object
//!   `deploy_sim` consumes — so one deployment description serves every
//!   runtime; the layout's `workers` field sizes the pool. [`deploy_tcp`]
//!   launches one process's share of it over a socket fabric, and both
//!   return the same [`RunningThreads`] handle.
//!
//! The protocol code itself lives in `borealis-dpc` and is runtime-unaware
//! (see `borealis_dpc::runtime`): the pool drives the same boxed
//! [`Actor`](borealis_dpc::Actor)s as the simulator, and this crate only
//! supplies the [`RuntimeCtx`](borealis_dpc::RuntimeCtx) implementation and
//! the pool scaffolding.

#![warn(missing_docs)]

pub mod clock;
#[cfg(not(borealis_model))]
pub mod engine;
// In model builds the engine is compiled out, so the scheduler and the
// stats half of links are reachable only from the model tests — the
// non-test model build would flag them dead.
#[cfg_attr(borealis_model, allow(dead_code))]
pub mod links;
#[cfg_attr(borealis_model, allow(dead_code))]
pub(crate) mod scheduler;
pub mod sync;
#[cfg(not(borealis_model))]
pub mod tcp;
pub mod wheel;

// Model builds (`--cfg borealis_model`) swap the sync facade for the
// virtual primitives of `borealis-check` and compile only the protocol
// cores the model tests exercise (scheduler, links, wheel); the real
// OS-thread engine and TCP fabric need wall clocks and sockets, which
// have no meaning under the interleaving explorer.
#[cfg(all(test, borealis_model))]
mod model_tests;

pub use clock::MonotonicClock;
#[cfg(not(borealis_model))]
pub use engine::ThreadRuntime;
pub use links::{LinkTable, RuntimeStats, StatsSnapshot};
#[cfg(not(borealis_model))]
pub use tcp::{plan_processes, TcpFabric};
pub use wheel::{Due, TimerWheel};

#[cfg(not(borealis_model))]
use borealis_dpc::{Actor, MetricsHub, NetMsg, SystemLayout};
#[cfg(not(borealis_model))]
use borealis_types::{FlowGauges, NodeId, SchedGauges, WireGauges};
#[cfg(not(borealis_model))]
use sync::Arc;

/// A deployment running on the worker pool: the whole layout in one
/// process ([`deploy_threads`]), or this process's share of a
/// multi-process one ([`deploy_tcp`]).
///
/// The wall-clock sibling of `borealis_dpc::RunningSystem`: progress
/// happens on background threads — [`RunningThreads::run_for`] simply
/// lets it.
#[cfg(not(borealis_model))]
pub struct RunningThreads {
    /// The engine driving the (local) actors.
    pub runtime: ThreadRuntime,
    /// The socket fabric connecting this process to its peers (`None`
    /// for an in-process deployment).
    pub fabric: Option<Arc<TcpFabric>>,
    /// Metrics collected by the client proxy (readable live; populated
    /// only in the process hosting the client).
    pub metrics: MetricsHub,
}

#[cfg(not(borealis_model))]
impl RunningThreads {
    /// Lets the system run for `wall` (blocks the caller; the actors run on
    /// the worker pool).
    pub fn run_for(&self, wall: std::time::Duration) {
        self.runtime.run_for(wall);
    }

    /// Queue-depth and stall-time gauges of the transport's credit ledger.
    pub fn flow_gauges(&self) -> FlowGauges {
        self.runtime.links().flow_gauges()
    }

    /// Worker-pool scheduler gauges (steals, run-queue depths, activation
    /// run-time histogram).
    pub fn sched_gauges(&self) -> SchedGauges {
        self.runtime.sched_gauges()
    }

    /// Aggregated wire gauges across this process's connections (zero
    /// without a fabric).
    pub fn wire_gauges(&self) -> WireGauges {
        self.fabric
            .as_ref()
            .map_or_else(WireGauges::default, |f| f.wire_gauges())
    }

    /// Message-loss statistics so far, including the wire gauges.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.runtime.stats();
        snap.wire = self.wire_gauges();
        snap
    }

    /// Stops every thread in order, then tears a fabric down cleanly
    /// (`Goodbye` + flush on every connection). Returns final
    /// message-loss statistics, including the final transport, scheduler
    /// and wire gauges.
    pub fn shutdown(self) -> StatsSnapshot {
        let mut snap = self.runtime.shutdown();
        if let Some(f) = &self.fabric {
            f.shutdown();
            snap.wire = f.wire_gauges();
        }
        snap
    }
}

/// Launches a resolved [`SystemLayout`] under the thread engine: the
/// wall-clock sibling of `SystemLayout::deploy_sim`.
///
/// The scripted faults lowered by the layout replay at their scripted
/// offsets from runtime start. The pool size is the layout's `workers`
/// field if set (`SystemBuilder::workers`), else a machine-derived default
/// ([`ThreadRuntime::default_workers`]).
#[cfg(not(borealis_model))]
pub fn deploy_threads(layout: SystemLayout) -> RunningThreads {
    deploy(layout, None)
}

/// Launches this process's share of a resolved [`SystemLayout`] over an
/// established [`TcpFabric`]: actors planned here run for real, actors
/// planned elsewhere become inert stubs that are stopped immediately (a
/// send to one travels the wire instead). The scripted fault script
/// replays in every process, keeping link-table decisions consistent.
#[cfg(not(borealis_model))]
pub fn deploy_tcp(layout: SystemLayout, fabric: Arc<TcpFabric>) -> RunningThreads {
    assert_eq!(
        fabric.plan.len(),
        layout.actors.len(),
        "process plan must cover every actor"
    );
    deploy(layout, Some(fabric))
}

#[cfg(not(borealis_model))]
fn deploy(layout: SystemLayout, fabric: Option<Arc<TcpFabric>>) -> RunningThreads {
    let metrics = layout.metrics.clone();
    let mut remote = Vec::new();
    let actors = layout
        .actors
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let id = NodeId(i as u32);
            if fabric.as_ref().is_some_and(|f| f.is_remote(id)) {
                remote.push(id);
                Box::new(tcp::RemoteStub) as Box<dyn Actor<NetMsg> + Send>
            } else {
                spec.into_actor(&metrics)
            }
        })
        .collect();
    let workers = layout
        .workers
        .unwrap_or_else(ThreadRuntime::default_workers);
    let runtime = ThreadRuntime::spawn(
        actors,
        layout.script,
        layout.seed,
        layout.partitions,
        layout.flow_policy,
        workers,
        fabric.clone(),
    );
    // Stubs process their (no-op) on_start and stop: nothing remote ever
    // runs here, and shutdown's all-stopped rendezvous already counts
    // them.
    for id in remote {
        runtime.stop_task(id);
    }
    RunningThreads {
        runtime,
        fabric,
        metrics,
    }
}

#[cfg(all(test, not(borealis_model)))]
mod tests {
    use super::*;
    use borealis_diagram::{plan_deployment, DeploymentSpec, DpcConfig, QueryBuilder};
    use borealis_dpc::{FaultSpec, SourceConfig, SystemBuilder};
    use borealis_types::{Duration, Time};

    /// End-to-end smoke test: a replicated union pipeline serves real
    /// traffic on OS threads, the client records stable tuples, and a
    /// scripted source disconnection forces tentative data plus a
    /// completed stabilization — DPC running in wall-clock time.
    #[test]
    fn thread_runtime_serves_and_recovers() {
        let mut q = QueryBuilder::new();
        let s1 = q.source("s1");
        let s2 = q.source("s2");
        let u = q.union("u", &[s1, s2]);
        q.output(u);
        let d = q.build().unwrap();
        let cfg = DpcConfig {
            total_delay: Duration::from_millis(400),
            ..DpcConfig::default()
        };
        let p = plan_deployment(&d, &DeploymentSpec::single(2), &cfg).unwrap();
        let (s2, u) = (s2.id(), u.id());
        let layout = SystemBuilder::new(11)
            .source(SourceConfig::seq(s1.id(), 200.0))
            .source(SourceConfig::seq(s2, 200.0))
            .plan(p)
            .client_streams(vec![u])
            .fault(FaultSpec::DisconnectSource {
                stream: s2,
                frag: 0,
                from: Time::from_millis(700),
                to: Time::from_millis(1400),
            })
            .layout();
        let sys = deploy_threads(layout);
        sys.run_for(std::time::Duration::from_millis(3200));
        let stats = sys.metrics.with(u, |m| {
            (m.n_stable, m.n_tentative, m.n_rec_done, m.dup_stable)
        });
        let (n_stable, n_tentative, n_rec_done, dup_stable) = stats;
        let drops = sys.shutdown();
        assert!(n_stable > 200, "live traffic flows: {n_stable} stable");
        assert!(
            n_tentative > 0,
            "the disconnection must force tentative output"
        );
        assert!(n_rec_done >= 1, "stabilization must complete");
        assert_eq!(dup_stable, 0, "no duplicate stable tuples");
        assert!(
            drops.send_unreachable_drops > 0,
            "messages into the dead link are counted: {drops:?}"
        );
    }
}
