//! The thread engine: every actor is a schedulable task multiplexed onto a
//! **fixed pool of worker threads** (per-worker run queues with work
//! stealing plus a global injector — see [`crate::scheduler`]), a
//! per-worker timer wheel against the monotonic clock, and a
//! fault-controller thread replaying scripted failures against the shared
//! link table.
//!
//! Event semantics mirror the simulator's kernel so the same protocol code
//! behaves identically under both runtimes:
//!
//! * sends check reachability at **send time** (counted drops) and again
//!   at **delivery time** (in-flight losses on a link that broke);
//! * timers due while an actor is crashed are consumed and suppressed —
//!   checked both when the wheel entry fires and again when the
//!   re-enqueued timer envelope is processed, so a crash landing between
//!   the two instants still suppresses the callback (a crashed actor's
//!   queued run delivers nothing: its messages become delivery drops, its
//!   timers suppressions);
//! * fault notifications reach an actor unless it is down (except its own
//!   `NodeDown`, which it observes so crash semantics stay scripted).
//!
//! Messages carry [`NetMsg`] values whose `Data` payloads are `Arc`-backed
//! [`TupleBatch`](borealis_types::TupleBatch) views: moving a batch across
//! a mailbox transfers a reference count, never copies tuples, so the
//! wall-clock data plane inherits the zero-copy fan-out of the simulator
//! path.
//!
//! Idle workers park on a condvar bounded by their wheel's earliest
//! deadline — no polling backstop, no sleep loops: a fully idle pool
//! burns zero CPU until a push or a deadline wakes it.

use crate::clock::MonotonicClock;
use crate::links::{LinkTable, RuntimeStats, StatsSnapshot};
use crate::scheduler::{ActorCell, Envelope, Scheduler, Task};
use crate::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use crate::sync::relock;
use crate::sync::Arc;
use crate::tcp::TcpFabric;
use crate::wheel::{Due, TimerWheel};
use borealis_dpc::{Actor, NetMsg, RuntimeCtx};
use borealis_sim::{FaultEvent, ShardMsg};
use borealis_types::{
    CreditPolicy, Duration, NodeId, PartitionSpec, SchedGauges, SendOutcome, ShardRouter, Time,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::thread::JoinHandle;

/// Envelopes one activation may process before yielding the worker (the
/// task re-queues behind its siblings if work remains) — bounds how long
/// one busy actor can starve the others sharing its worker.
const ACTIVATION_BATCH: usize = 32;

/// The single send-time delivery rule, shared by immediate sends and
/// delayed departures: reachability gates the handoff (counted drop
/// otherwise), the credit ledger gates data messages (queued at the sender
/// when the window is exhausted), and a send to a stopped mailbox
/// (shutdown in progress) is dropped silently, like a connection reset
/// during teardown.
///
/// With a socket `fabric`, a remote destination changes only the last
/// hop: admission still debits the **local** ledger (it is the wire
/// credit window — see [`crate::tcp`]), a queued outcome additionally
/// reports the stall to the remote receiver, and the admitted message is
/// encoded onto the connection instead of pushed into a mailbox.
#[allow(clippy::too_many_arguments)]
fn deliver(
    sched: &Scheduler,
    from_worker: Option<usize>,
    links: &LinkTable,
    router: &mut ShardRouter,
    stats: &RuntimeStats,
    fabric: Option<&TcpFabric>,
    from: NodeId,
    to: NodeId,
    msg: NetMsg,
    now: Time,
) -> SendOutcome {
    if links.reachable(from, to) {
        // Partitioned send path: a key-sharded receiver gets only its shard
        // of the message (routing, not loss). The worker-local router memo
        // makes the whole K·R fan-out of one batch a single key-hash pass:
        // all of a sender's receiver links are routed on this worker.
        let msg = match links.partition_of(to) {
            Some(spec) => match msg.partition(spec.as_ref(), router) {
                Some(m) => m,
                None => return SendOutcome::Delivered,
            },
            None => msg,
        };
        // Credit admission: a data message past the link window queues in
        // the shared ledger; the receiver's consumption releases it later.
        let msg = if links.tracks(&msg) {
            match links.admit(from, to, msg, now) {
                Some(m) => m,
                None => {
                    if let Some(f) = fabric {
                        if f.is_remote(to) {
                            f.note_queued(from, to, links.stalled_for(from, to, now));
                        }
                    }
                    return SendOutcome::Queued;
                }
            }
        } else {
            msg
        };
        match fabric {
            Some(f) if f.is_remote(to) => {
                if f.send_net(from, to, msg) {
                    SendOutcome::Delivered
                } else {
                    // The connection died between the reachability check
                    // and the enqueue: the frame is lost in flight.
                    stats.count_send_drop();
                    SendOutcome::DroppedFault
                }
            }
            _ => {
                sched.push(to, Envelope::Msg { from, msg }, from_worker);
                SendOutcome::Delivered
            }
        }
    } else {
        stats.count_send_drop();
        SendOutcome::DroppedFault
    }
}

/// The [`RuntimeCtx`] handed to protocol handlers on a worker thread.
struct ThreadCtx<'a> {
    id: NodeId,
    now: Time,
    sched: &'a Scheduler,
    worker: usize,
    links: &'a LinkTable,
    /// The worker's one-pass partition memo (every send from this worker
    /// routes through it).
    router: &'a mut ShardRouter,
    stats: &'a RuntimeStats,
    fabric: Option<&'a TcpFabric>,
    /// The *worker's* wheel: deferred work is owner-tagged with `id`.
    wheel: &'a mut TimerWheel,
    rng: &'a mut StdRng,
    /// The handler's consumption mark for the delivery being processed
    /// (credit returns then; see [`RuntimeCtx::data_consumed_at`]).
    consumed_at: Option<Time>,
}

impl RuntimeCtx<NetMsg> for ThreadCtx<'_> {
    fn now(&self) -> Time {
        self.now
    }

    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, to: NodeId, msg: NetMsg) -> SendOutcome {
        deliver(
            self.sched,
            Some(self.worker),
            self.links,
            self.router,
            self.stats,
            self.fabric,
            self.id,
            to,
            msg,
            self.now,
        )
    }

    fn send_after(&mut self, to: NodeId, msg: NetMsg, depart: Time) -> SendOutcome {
        // Send-time reachability is checked NOW, as the simulator does for
        // its deferred sends; an unreachable destination at call time is a
        // counted send drop. Faults striking between here and the departure
        // are in-flight losses, caught by the departure/delivery checks.
        // Credit admission happens at the departure instant.
        if !self.links.reachable(self.id, to) {
            self.stats.count_send_drop();
            SendOutcome::DroppedFault
        } else if depart <= self.now {
            self.send(to, msg)
        } else {
            self.wheel.push_send(depart, self.id, to, msg);
            SendOutcome::Deferred
        }
    }

    fn data_consumed_at(&mut self, at: Time) {
        self.consumed_at = Some(at.max(self.now));
    }

    fn inbound_stall(&self, from: NodeId) -> Duration {
        // A remote sender's ledger lives in its own process: use the
        // stall it reported over the wire instead of the local ledger.
        if let Some(f) = self.fabric {
            if f.is_remote(from) {
                return f.remote_stalled_for(from, self.id);
            }
        }
        self.links.stalled_for(from, self.id, self.now)
    }

    fn set_timer(&mut self, at: Time, kind: u64) {
        self.wheel.push_timer(at.max(self.now), self.id, kind);
    }

    fn reachable(&self, to: NodeId) -> bool {
        self.links.reachable(self.id, to)
    }

    fn rand_range(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0..n)
    }
}

/// How one activation ended.
enum Activation {
    /// Mailbox drained (task went Idle under the mailbox lock).
    Drained,
    /// Batch budget hit with work possibly remaining.
    Budget,
    /// The task processed its Stop.
    Stopped,
}

/// One pool worker: a run-queue consumer with its own timer wheel.
struct Worker {
    idx: usize,
    sched: Arc<Scheduler>,
    links: Arc<LinkTable>,
    stats: Arc<RuntimeStats>,
    fabric: Option<Arc<TcpFabric>>,
    clock: MonotonicClock,
    wheel: TimerWheel,
    /// Worker-local one-pass partition memo: a sender's whole fan-out runs
    /// on its worker, so per-worker state needs no cross-thread sharing.
    router: ShardRouter,
}

impl Worker {
    /// The worker main loop: fire due wheel entries, run one task
    /// activation, repeat; park (bounded by the wheel's earliest deadline)
    /// when no task is runnable.
    fn run(mut self) {
        loop {
            self.fire_due();
            if let Some(task) = self.sched.pop(self.idx) {
                self.run_task(&task);
                continue;
            }
            if self.sched.exiting() {
                break;
            }
            let timeout = self.wheel.next_due().map(|at| self.clock.until(at));
            self.sched.park(timeout);
        }
    }

    /// Fires every wheel entry due now, on behalf of its owning actor.
    fn fire_due(&mut self) {
        while let Some((_, due)) = self.wheel.pop_due(self.clock.now()) {
            match due {
                Due::Timer { owner, kind } => {
                    // Crashed actors fire no timers (the entry is consumed,
                    // as in the simulator); live ones get the timer
                    // re-enqueued behind their pending mailbox work.
                    if self.links.node_up(owner) {
                        self.sched
                            .push(owner, Envelope::Timer(kind), Some(self.idx));
                    } else {
                        self.stats.count_timer_suppressed();
                    }
                }
                Due::Send { owner, to, msg } => {
                    // The send-time check already passed when this entry was
                    // scheduled; a link that broke since loses the message
                    // in flight (delivery drop, as in the simulator).
                    if self.links.reachable(owner, to) {
                        deliver(
                            &self.sched,
                            Some(self.idx),
                            &self.links,
                            &mut self.router,
                            &self.stats,
                            self.fabric.as_deref(),
                            owner,
                            to,
                            msg,
                            self.clock.now(),
                        );
                    } else {
                        self.stats.count_delivery_drop();
                    }
                }
                Due::Replenish { owner, from } => {
                    // The owner's modeled CPU finished a delivery: its
                    // credit returns now.
                    self.replenish(owner, from);
                }
            }
        }
    }

    /// Returns the credit of one consumed delivery from `from` and hands
    /// the released queued message (if any) to `owner`'s own mailbox — the
    /// same delivery path as a fresh send, so the delivery-time checks
    /// still apply. A *remote* sender's ledger lives in its process: the
    /// credit travels back as a `CreditGrant` frame instead.
    fn replenish(&mut self, owner: NodeId, from: NodeId) {
        if let Some(f) = &self.fabric {
            if f.is_remote(from) {
                f.send_grant(from, owner);
                return;
            }
        }
        if let Some(msg) = self.links.consumed_release(from, owner, self.clock.now()) {
            self.sched
                .push(owner, Envelope::Msg { from, msg }, Some(self.idx));
        }
    }

    /// Runs one activation of `task`, containing actor panics: a panicking
    /// actor is marked stopped (its mailbox drops everything) and reported
    /// at shutdown, without taking the worker — or the pool — down.
    fn run_task(&mut self, task: &Arc<Task>) {
        task.begin();
        let started = std::time::Instant::now();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.activate(task)));
        self.sched.record_run(started.elapsed());
        match outcome {
            Ok(Activation::Drained) | Ok(Activation::Stopped) => {}
            Ok(Activation::Budget) => {
                if task.yield_back() {
                    self.sched.enqueue(Arc::clone(task), Some(self.idx));
                }
            }
            Err(_) => {
                if task.mark_stopped() {
                    self.sched
                        .note_crashed(format!("dpc-actor-{}", task.id.index()));
                    self.sched.note_stopped();
                }
            }
        }
    }

    /// Drains up to [`ACTIVATION_BATCH`] envelopes from `task`'s mailbox.
    fn activate(&mut self, task: &Arc<Task>) -> Activation {
        let mut cell = relock(&task.cell);
        if !cell.started {
            cell.started = true;
            self.dispatch(task.id, &mut cell, |a, ctx| a.on_start(ctx));
        }
        for _ in 0..ACTIVATION_BATCH {
            match task.pop_envelope() {
                None => return Activation::Drained,
                Some(Envelope::Stop) => {
                    if task.mark_stopped() {
                        self.sched.note_stopped();
                    }
                    return Activation::Stopped;
                }
                Some(Envelope::Msg { from, msg }) => {
                    self.process_msg(task.id, &mut cell, from, msg);
                }
                Some(Envelope::Fault(fault)) => {
                    self.dispatch(task.id, &mut cell, |a, ctx| a.on_fault(ctx, &fault));
                }
                Some(Envelope::Timer(kind)) => {
                    // Re-check liveness: a crash landing after the wheel
                    // fired but before this envelope ran still suppresses
                    // the callback.
                    if self.links.node_up(task.id) {
                        self.dispatch(task.id, &mut cell, |a, ctx| a.on_timer(ctx, kind));
                    } else {
                        self.stats.count_timer_suppressed();
                    }
                }
            }
        }
        Activation::Budget
    }

    /// One message delivery, with the delivery-time checks and credit
    /// accounting.
    fn process_msg(&mut self, id: NodeId, cell: &mut ActorCell, from: NodeId, msg: NetMsg) {
        let tracked = self.links.tracks(&msg);
        // Delivery-time reachability: a link (or endpoint) that went down
        // while the message was in flight loses it.
        if self.links.reachable(from, id) {
            self.stats.count_delivered();
            let mark = self.dispatch(id, cell, |a, ctx| a.on_message(ctx, from, msg));
            if tracked {
                // Credit returns at the handler's consumption mark (the
                // modeled CPU completion), or right away for infinitely
                // fast consumers.
                match mark {
                    Some(at) if at > self.clock.now() => {
                        self.wheel.push_replenish(at, id, from);
                    }
                    _ => self.replenish(id, from),
                }
            }
        } else {
            self.stats.count_delivery_drop();
            if tracked {
                // A tracked loss still returns its credit — a broken link
                // must not shrink the window.
                self.replenish(id, from);
            }
        }
    }

    /// Runs one handler with a fresh context at the current instant.
    /// Returns the handler's consumption mark, if it set one.
    fn dispatch(
        &mut self,
        id: NodeId,
        cell: &mut ActorCell,
        f: impl FnOnce(&mut dyn Actor<NetMsg>, &mut dyn RuntimeCtx<NetMsg>),
    ) -> Option<Time> {
        let mut ctx = ThreadCtx {
            id,
            now: self.clock.now(),
            sched: &self.sched,
            worker: self.idx,
            links: &self.links,
            router: &mut self.router,
            stats: &self.stats,
            fabric: self.fabric.as_deref(),
            wheel: &mut self.wheel,
            rng: &mut cell.rng,
            consumed_at: None,
        };
        f(cell.actor.as_mut(), &mut ctx);
        ctx.consumed_at
    }
}

/// The fault controller: replays the script against the link table and
/// notifies affected actors, with the simulator's gating (a crashed node
/// hears nothing except its own `NodeDown`). Sleeps on its stop channel
/// between scripted instants — no polling.
fn fault_controller(
    script: Vec<(Time, FaultEvent)>,
    clock: MonotonicClock,
    links: Arc<LinkTable>,
    stats: Arc<RuntimeStats>,
    sched: Arc<Scheduler>,
    stop: Receiver<()>,
) {
    for (at, fault) in script {
        loop {
            let wait = clock.until(at);
            if wait.is_zero() {
                break;
            }
            match stop.recv_timeout(wait) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
        // A crash purges the node's queued (credit-stalled) sends: those
        // are in-flight losses, counted like the simulator does.
        stats.count_delivery_drops(links.apply(&fault, clock.now()));
        for id in fault.notifies() {
            if !links.node_up(id) && !matches!(fault, FaultEvent::NodeDown(_)) {
                continue;
            }
            sched.push(id, Envelope::Fault(fault.clone()), None);
        }
    }
}

/// A running thread engine: a fixed worker pool multiplexing every actor,
/// plus the fault controller. Dropping it (or calling
/// [`ThreadRuntime::shutdown`]) stops every thread in order.
pub struct ThreadRuntime {
    sched: Arc<Scheduler>,
    workers: Vec<JoinHandle<()>>,
    fault_handle: Option<JoinHandle<()>>,
    fault_stop: Option<Sender<()>>,
    clock: MonotonicClock,
    links: Arc<LinkTable>,
    stats: Arc<RuntimeStats>,
}

impl ThreadRuntime {
    /// The pool size used when none is requested: the machine's available
    /// parallelism clamped to `[2, 8]` (at least two so stealing is live
    /// even on one core; at most eight — the scaling target's pool size).
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8)
    }

    /// Spawns a pool of `workers` threads multiplexing every actor
    /// (`actors[i]` becomes `NodeId(i)`), plus a controller thread
    /// replaying `script` (already sorted by time). `partitions` declares
    /// key-sharded receivers: every data batch sent to such a node is
    /// filtered to its shard on the wire. `flow_policy` governs
    /// credit-based flow control on every link. With a socket `fabric`
    /// ([`crate::tcp::TcpFabric`]), sends to actors the fabric plans in
    /// another process travel the wire, and the fabric's per-connection
    /// reader threads feed incoming frames into local mailboxes.
    ///
    /// Every actor starts Queued, so its `on_start` runs as soon as a
    /// worker picks it up; the clock starts just before the pool spawns.
    /// The OS-thread budget is exactly `workers + 1` spawned threads
    /// (pool + fault controller), independent of the topology size.
    pub fn spawn(
        actors: Vec<Box<dyn Actor<NetMsg> + Send>>,
        script: Vec<(Time, FaultEvent)>,
        seed: u64,
        partitions: Vec<(NodeId, PartitionSpec)>,
        flow_policy: CreditPolicy,
        workers: usize,
        fabric: Option<Arc<TcpFabric>>,
    ) -> ThreadRuntime {
        let workers = workers.max(1);
        let clock = MonotonicClock::start();
        let links = Arc::new(LinkTable::with_config(partitions, flow_policy));
        let stats = Arc::new(RuntimeStats::default());
        // Faults scripted at t=0 shape the initial connectivity: apply them
        // before any worker starts, as the simulator does for faults
        // scheduled ahead of the Start events. (The controller re-applies
        // them idempotently and delivers the notifications.)
        for (at, fault) in script.iter().filter(|(at, _)| *at == Time::ZERO) {
            let _ = at;
            links.apply(fault, Time::ZERO);
        }
        let tasks = actors
            .into_iter()
            .enumerate()
            .map(|(i, actor)| {
                // Decorrelate per-actor streams from one shared seed; an
                // actor's stream does not depend on the pool size.
                let rng = StdRng::seed_from_u64(
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64),
                );
                (actor, rng)
            })
            .collect();
        let sched = Arc::new(Scheduler::new(tasks, workers));
        if let Some(f) = &fabric {
            f.start_io(
                Arc::clone(&sched),
                Arc::clone(&links),
                Arc::clone(&stats),
                clock,
            );
        }
        let handles = (0..workers)
            .map(|idx| {
                let worker = Worker {
                    idx,
                    sched: Arc::clone(&sched),
                    links: Arc::clone(&links),
                    stats: Arc::clone(&stats),
                    fabric: fabric.clone(),
                    clock,
                    wheel: TimerWheel::new(),
                    router: ShardRouter::new(),
                };
                std::thread::Builder::new()
                    .name(format!("dpc-worker-{idx}"))
                    .spawn(move || worker.run())
                    .expect("spawn pool worker")
            })
            .collect();
        let (fault_stop, stop_rx) = channel();
        let fault_handle = {
            let links = Arc::clone(&links);
            let stats = Arc::clone(&stats);
            let sched = Arc::clone(&sched);
            Some(
                std::thread::Builder::new()
                    .name("dpc-faults".into())
                    .spawn(move || fault_controller(script, clock, links, stats, sched, stop_rx))
                    .expect("spawn fault controller"),
            )
        };
        ThreadRuntime {
            sched,
            workers: handles,
            fault_handle,
            fault_stop: Some(fault_stop),
            clock,
            links,
            stats,
        }
    }

    /// Time since the runtime started (the actors' clock).
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// The shared link table (for ad-hoc fault injection in tests; scripted
    /// runs should use the layout's fault script).
    pub fn links(&self) -> &LinkTable {
        &self.links
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.sched.workers()
    }

    /// Stops one task (used by the socket deployment to retire the inert
    /// stubs standing in for remote actors).
    pub(crate) fn stop_task(&self, id: NodeId) {
        self.sched.push(id, Envelope::Stop, None);
    }

    /// OS threads this runtime spawned: the pool plus the fault
    /// controller — `workers() + 1`, independent of how many actors run.
    pub fn spawned_threads(&self) -> usize {
        self.sched.workers() + 1
    }

    /// Point-in-time scheduler gauges (steals, queue depths, activation
    /// run-time histogram).
    pub fn sched_gauges(&self) -> SchedGauges {
        self.sched.gauges()
    }

    /// Message-loss statistics so far, including the transport's
    /// flow-control gauges and the pool's scheduler gauges.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        snap.flow = self.links.flow_gauges();
        snap.sched = self.sched.gauges();
        snap
    }

    /// Lets the system run for `wall` — the actors make progress on the
    /// worker pool; this just blocks the caller.
    pub fn run_for(&self, wall: std::time::Duration) {
        std::thread::sleep(wall);
    }

    /// Stops every thread: the controller first (no further faults), then
    /// each actor after it drains its mailbox (Stop is an ordinary
    /// envelope, so everything queued before it is processed), then the
    /// pool. Returns final statistics.
    ///
    /// # Panics
    /// Panics if any actor panicked during the run — a protocol bug must
    /// fail the run, not silently degrade it to a partial deployment.
    pub fn shutdown(mut self) -> StatsSnapshot {
        let crashed = self.stop_threads();
        assert!(
            crashed.is_empty(),
            "actor thread(s) panicked during the run: {crashed:?}"
        );
        let mut snap = self.stats.snapshot();
        snap.flow = self.links.flow_gauges();
        snap.sched = self.sched.gauges();
        snap
    }

    /// Stops and joins everything; returns the names of actors that
    /// panicked.
    fn stop_threads(&mut self) -> Vec<String> {
        if let Some(stop) = self.fault_stop.take() {
            let _ = stop.send(());
        }
        if let Some(h) = self.fault_handle.take() {
            let _ = h.join();
        }
        for task in &self.sched.tasks {
            self.sched.push(task.id, Envelope::Stop, None);
        }
        self.sched.wait_all_stopped();
        self.sched.begin_exit();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Workers joined: nothing pushes concurrently, so the depth
        // gauges must now equal the actual queue lengths exactly.
        #[cfg(debug_assertions)]
        self.sched.debug_verify_depths();
        self.sched.crashed()
    }
}

impl Drop for ThreadRuntime {
    fn drop(&mut self) {
        let crashed = self.stop_threads();
        // Surface swallowed actor panics even when the runtime is dropped
        // without an explicit shutdown — unless we are already unwinding
        // (a double panic would abort and mask the original failure).
        if !crashed.is_empty() && !std::thread::panicking() {
            panic!("actor thread(s) panicked during the run: {crashed:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use borealis_types::{Duration, StreamId};

    /// Records everything it receives; replies to heartbeats.
    struct Recorder {
        log: Arc<Mutex<Vec<(NodeId, &'static str)>>>,
        peer: Option<NodeId>,
    }

    impl Actor<NetMsg> for Recorder {
        fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, NetMsg::HeartbeatReq);
                ctx.set_timer(ctx.now() + Duration::from_millis(20), 7);
                // Delayed send: departs 40 ms in.
                ctx.send_after(
                    peer,
                    NetMsg::Unsubscribe {
                        stream: StreamId(0),
                    },
                    ctx.now() + Duration::from_millis(40),
                );
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, from: NodeId, msg: NetMsg) {
            self.log.lock().unwrap().push((from, msg.kind_name()));
        }
        fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, kind: u64) {
            assert_eq!(kind, 7);
            self.log.lock().unwrap().push((NodeId(u32::MAX), "timer"));
        }
        fn on_fault(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, fault: &FaultEvent) {
            let tag = match fault {
                FaultEvent::LinkDown { .. } => "link-down",
                FaultEvent::LinkUp { .. } => "link-up",
                FaultEvent::NodeDown(_) => "node-down",
                FaultEvent::NodeUp(_) => "node-up",
                FaultEvent::Custom { .. } => "custom",
            };
            self.log.lock().unwrap().push((NodeId(u32::MAX), tag));
        }
    }

    fn wait_until(pred: impl Fn() -> bool, ms: u64) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(ms);
        while std::time::Instant::now() < deadline {
            if pred() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        pred()
    }

    #[test]
    fn messages_timers_and_delayed_sends_flow() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let a = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: Some(NodeId(1)),
        });
        let b = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: None,
        });
        let rt = ThreadRuntime::spawn(
            vec![a, b],
            Vec::new(),
            1,
            Vec::new(),
            CreditPolicy::Unbounded,
            ThreadRuntime::default_workers(),
            None,
        );
        assert!(
            wait_until(
                || {
                    let l = log.lock().unwrap();
                    l.contains(&(NodeId(0), "hb-req"))
                        && l.contains(&(NodeId(u32::MAX), "timer"))
                        && l.contains(&(NodeId(0), "unsubscribe"))
                },
                2000
            ),
            "log: {:?}",
            log.lock().unwrap()
        );
        let stats = rt.shutdown();
        assert_eq!(stats.total_drops(), 0);
        assert!(stats.messages_delivered >= 2);
        assert!(
            stats.sched.activations() >= 2,
            "activations must be accounted: {:?}",
            stats.sched
        );
    }

    #[test]
    fn scripted_link_failure_drops_and_notifies() {
        let log = Arc::new(Mutex::new(Vec::new()));
        // Link is down from the start; heals at 80 ms.
        let script = vec![
            (
                Time::ZERO,
                FaultEvent::LinkDown {
                    a: NodeId(0),
                    b: NodeId(1),
                },
            ),
            (
                Time::from_millis(80),
                FaultEvent::LinkUp {
                    a: NodeId(0),
                    b: NodeId(1),
                },
            ),
        ];
        let a = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: Some(NodeId(1)),
        });
        let b = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: None,
        });
        let rt = ThreadRuntime::spawn(
            vec![a, b],
            script,
            1,
            Vec::new(),
            CreditPolicy::Unbounded,
            ThreadRuntime::default_workers(),
            None,
        );
        assert!(
            wait_until(
                || {
                    let l = log.lock().unwrap();
                    l.iter().filter(|e| e.1 == "link-up").count() >= 2
                },
                2000
            ),
            "both endpoints must hear the heal: {:?}",
            log.lock().unwrap()
        );
        // The delayed unsubscribe departs at 40 ms (link down): dropped at
        // send or delivery depending on the race with on_start's send.
        let stats = rt.shutdown();
        assert!(
            stats.total_drops() >= 1,
            "sends while the link was down must be counted: {stats:?}"
        );
        let l = log.lock().unwrap();
        assert!(
            !l.contains(&(NodeId(0), "hb-req")),
            "initial heartbeat was sent while down: {l:?}"
        );
    }

    #[test]
    fn crashed_node_fires_no_timers_and_hears_node_down() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let script = vec![(Time::ZERO, FaultEvent::NodeDown(NodeId(0)))];
        let a = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: Some(NodeId(1)),
        });
        let b = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: None,
        });
        let rt = ThreadRuntime::spawn(
            vec![a, b],
            script,
            1,
            Vec::new(),
            CreditPolicy::Unbounded,
            ThreadRuntime::default_workers(),
            None,
        );
        assert!(
            wait_until(
                || log
                    .lock()
                    .unwrap()
                    .contains(&(NodeId(u32::MAX), "node-down")),
                2000
            ),
            "the crashing node observes its own NodeDown"
        );
        rt.run_for(std::time::Duration::from_millis(100));
        let stats = rt.shutdown();
        let l = log.lock().unwrap();
        assert!(
            !l.contains(&(NodeId(u32::MAX), "timer")),
            "crashed node must not fire timers: {l:?}"
        );
        assert!(
            stats.timers_suppressed >= 1 || stats.total_drops() >= 1,
            "the suppressed timer or dropped sends must be accounted: {stats:?}"
        );
    }

    #[test]
    fn pool_stays_fixed_size_regardless_of_actor_count() {
        // 200 actors on 3 workers: the engine spawns exactly workers + 1
        // OS threads (pool + fault controller), and the batch budget keeps
        // every mailbox moving.
        let log = Arc::new(Mutex::new(Vec::new()));
        let actors: Vec<Box<dyn Actor<NetMsg> + Send>> = (0..200)
            .map(|i| {
                Box::new(Recorder {
                    log: Arc::clone(&log),
                    // A ring: each actor heartbeats its successor.
                    peer: Some(NodeId(((i + 1) % 200) as u32)),
                }) as Box<dyn Actor<NetMsg> + Send>
            })
            .collect();
        let rt = ThreadRuntime::spawn(
            actors,
            Vec::new(),
            3,
            Vec::new(),
            CreditPolicy::Unbounded,
            3,
            None,
        );
        assert_eq!(rt.workers(), 3);
        assert_eq!(rt.spawned_threads(), 4, "workers + fault controller");
        assert!(
            wait_until(
                || log
                    .lock()
                    .unwrap()
                    .iter()
                    .filter(|e| e.1 == "hb-req")
                    .count()
                    >= 200,
                5000
            ),
            "every ring member must deliver its heartbeat"
        );
        let stats = rt.shutdown();
        assert_eq!(stats.total_drops(), 0);
        assert!(stats.messages_delivered >= 200);
        assert_eq!(stats.sched.workers, 3);
        assert!(
            stats.sched.activations() >= 200,
            "every actor ran at least once: {:?}",
            stats.sched
        );
    }

    /// An actor written purely against [`RuntimeCtx`] (now, id, send,
    /// send_after, set_timer, reachable, rand_range); logs the kind of
    /// every event it handles.
    struct Probe {
        peer: NodeId,
        log: Arc<Mutex<Vec<(NodeId, &'static str)>>>,
    }

    impl Actor<NetMsg> for Probe {
        fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>) {
            assert!(ctx.reachable(self.peer));
            assert!(ctx.rand_range(10) < 10);
            ctx.set_timer(ctx.now() + Duration::from_millis(20), 42);
            ctx.send(
                self.peer,
                NetMsg::Unsubscribe {
                    stream: StreamId(7),
                },
            );
        }
        fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, _from: NodeId, msg: NetMsg) {
            self.log.lock().unwrap().push((ctx.id(), msg.kind_name()));
        }
        fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<NetMsg>, kind: u64) {
            self.log.lock().unwrap().push((ctx.id(), "timer42"));
            assert_eq!(kind, 42);
            // Departure in the future: arrival = depart + link latency.
            ctx.send_after(
                self.peer,
                NetMsg::HeartbeatReq,
                ctx.now() + Duration::from_millis(20),
            );
        }
    }

    /// The same boxed actor type runs under the simulator kernel and the
    /// worker pool, and both contexts give each probe the same ordered
    /// events.
    #[test]
    fn sim_and_pool_drive_the_same_probe() {
        let probes = |log: &Arc<Mutex<Vec<(NodeId, &'static str)>>>| {
            [NodeId(1), NodeId(0)].map(|peer| {
                Box::new(Probe {
                    peer,
                    log: Arc::clone(log),
                }) as Box<dyn Actor<NetMsg> + Send>
            })
        };
        let kinds_of = |log: &Arc<Mutex<Vec<(NodeId, &'static str)>>>, id: NodeId| {
            let l = log.lock().unwrap();
            l.iter()
                .filter(|e| e.0 == id)
                .map(|e| e.1)
                .collect::<Vec<_>>()
        };

        let sim_log = Arc::new(Mutex::new(Vec::new()));
        let mut sim: borealis_sim::Sim<NetMsg> =
            borealis_sim::Sim::new(1, borealis_sim::Network::new());
        for probe in probes(&sim_log) {
            sim.add_actor(probe);
        }
        sim.run_until(Time::from_secs(1));

        let pool_log = Arc::new(Mutex::new(Vec::new()));
        let rt = ThreadRuntime::spawn(
            probes(&pool_log).into(),
            Vec::new(),
            1,
            Vec::new(),
            CreditPolicy::Unbounded,
            2,
            None,
        );
        assert!(
            wait_until(|| pool_log.lock().unwrap().len() >= 6, 2000),
            "log: {:?}",
            pool_log.lock().unwrap()
        );
        assert_eq!(rt.shutdown().total_drops(), 0);

        for id in [NodeId(0), NodeId(1)] {
            assert_eq!(
                kinds_of(&sim_log, id),
                ["unsubscribe", "timer42", "hb-req"],
                "sim run of {id:?}"
            );
            assert_eq!(
                kinds_of(&pool_log, id),
                kinds_of(&sim_log, id),
                "pool run of {id:?}"
            );
        }
    }

    #[test]
    fn actor_panic_is_contained_and_reported_at_shutdown() {
        struct Bomb;
        impl Actor<NetMsg> for Bomb {
            fn on_start(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>) {
                panic!("boom");
            }
            fn on_message(
                &mut self,
                _ctx: &mut dyn RuntimeCtx<NetMsg>,
                _from: NodeId,
                _msg: NetMsg,
            ) {
            }
            fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<NetMsg>, _kind: u64) {}
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let survivor = Box::new(Recorder {
            log: Arc::clone(&log),
            peer: None,
        });
        let rt = ThreadRuntime::spawn(
            vec![Box::new(Bomb), survivor],
            Vec::new(),
            1,
            Vec::new(),
            CreditPolicy::Unbounded,
            2,
            None,
        );
        // The panic takes down only actor 0; the pool keeps running and
        // shutdown reports the casualty.
        rt.run_for(std::time::Duration::from_millis(50));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.shutdown()))
            .expect_err("shutdown must surface the actor panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("dpc-actor-0"),
            "panic report names the actor: {msg}"
        );
    }
}
