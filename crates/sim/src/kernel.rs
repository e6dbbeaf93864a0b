//! The deterministic discrete-event kernel.
//!
//! A [`Sim`] drives boxed [`Actor`]s through a [`RuntimeCtx`] over a
//! virtual clock, a totally ordered event queue (time, then insertion
//! sequence), a seeded RNG, and the simulated [`Network`]. Two runs with
//! the same seed and script produce identical event interleavings — which
//! is what lets the test suite assert exact protocol behaviour and lets
//! the benchmark harness reproduce the paper's experiments without a
//! physical cluster.

use crate::actor::{Actor, RuntimeCtx};
use crate::fault::FaultEvent;
use crate::flow::FlowControl;
use crate::net::{Network, LINK_LATENCY};
use borealis_types::{
    CreditPolicy, Duration, FlowGauges, NodeId, PartitionSpec, SendOutcome, ShardRouter, Time,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Messages routable over key-partitioned, credit-controlled links. A
/// runtime consults the receiving node's [`PartitionSpec`] (if any) on
/// every send and keeps only the message content belonging to that shard;
/// returning `None` suppresses the delivery entirely (nothing of the
/// message belongs to the shard).
///
/// The default implementation passes every message through unchanged, so
/// protocol-free message types opt in with an empty `impl`.
pub trait ShardMsg: Sized {
    /// This shard's view of the message, or `None` if nothing remains.
    ///
    /// `router` is the delivery layer's one-pass partition memo: the first
    /// receiver of a batch computes every shard's selection view, the
    /// remaining K·R−1 receivers clone theirs out of the shared result —
    /// the shard key is evaluated and hashed once per tuple per producing
    /// link regardless of fan-out.
    fn partition(self, _spec: &PartitionSpec, _router: &mut ShardRouter) -> Option<Self> {
        Some(self)
    }

    /// True if this message consumes link credits under a tracking
    /// [`CreditPolicy`] (data payloads). Control traffic returns `false`
    /// (the default) so backpressure never blocks heartbeats,
    /// subscriptions, acks, or the stagger protocol.
    fn credit_controlled(&self) -> bool {
        false
    }
}

impl ShardMsg for String {}

/// Deferred actions an actor requests while handling an event.
enum Action<M> {
    /// A scheduled arrival; `routed` marks messages already
    /// partition-filtered on the send path (credit admission), so the
    /// shard filter runs exactly once per message.
    Send {
        to: NodeId,
        msg: M,
        at: Time,
        routed: bool,
    },
    Depart {
        to: NodeId,
        msg: M,
        at: Time,
    },
    Timer {
        at: Time,
        kind: u64,
    },
}

/// Message-loss accounting for the whole simulation.
///
/// Faults silently eat messages in two places — at send time (the sender's
/// link or endpoint is already down) and at delivery time (the link broke
/// while the message was in flight). Both are counted here so tests can
/// assert exact lost-message counts instead of inferring them from absent
/// side effects.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Messages dropped because the destination was unreachable when the
    /// actor sent them.
    pub send_unreachable_drops: u64,
    /// Messages dropped in flight: sent while reachable, undeliverable at
    /// arrival time (broken TCP connection semantics).
    pub delivery_drops: u64,
}

impl SimStats {
    /// Total messages lost to faults.
    pub fn total_drops(&self) -> u64 {
        self.send_unreachable_drops + self.delivery_drops
    }
}

/// The simulator's [`RuntimeCtx`]: virtual time, the seeded RNG, and the
/// simulated network, with the actions a handler requests deferred until
/// it returns.
struct Ctx<'a, M> {
    now: Time,
    self_id: NodeId,
    net: &'a Network,
    flow: &'a mut FlowControl<M>,
    router: &'a mut ShardRouter,
    rng: &'a mut StdRng,
    stats: &'a mut SimStats,
    actions: Vec<Action<M>>,
    consumed_at: Option<Time>,
}

impl<M: ShardMsg> RuntimeCtx<M> for Ctx<'_, M> {
    fn now(&self) -> Time {
        self.now
    }

    fn id(&self) -> NodeId {
        self.self_id
    }

    /// Arrives one link latency from now. Lost if the link or either
    /// endpoint is down at send or delivery time; a credit-controlled
    /// message may instead be queued awaiting credit.
    fn send(&mut self, to: NodeId, msg: M) -> SendOutcome {
        let at = self.now + LINK_LATENCY;
        self.send_at_raw(to, msg, at)
    }

    /// Arrives one link latency after `depart`. A future departure reports
    /// [`SendOutcome::Deferred`] (matching the thread engine's wheel);
    /// under a tracking credit policy the admission decision is made at the
    /// departure instant.
    fn send_after(&mut self, to: NodeId, msg: M, depart: Time) -> SendOutcome {
        let depart = depart.max(self.now);
        if depart > self.now {
            // Send-time reachability mirrors the immediate path; credits
            // (for tracked messages) are consumed when the departure comes
            // due.
            if !self.net.reachable(self.self_id, to) {
                self.stats.send_unreachable_drops += 1;
                return SendOutcome::DroppedFault;
            }
            if self.flow.tracks(&msg) {
                self.actions.push(Action::Depart {
                    to,
                    msg,
                    at: depart,
                });
            } else {
                // Untracked messages need no departure-time admission: the
                // arrival event carries the full schedule directly.
                let at = depart + LINK_LATENCY;
                self.actions.push(Action::Send {
                    to,
                    msg,
                    at,
                    routed: false,
                });
            }
            return SendOutcome::Deferred;
        }
        let at = depart + LINK_LATENCY;
        self.send_at_raw(to, msg, at)
    }

    /// Without this call credits return as soon as the handler finishes —
    /// an infinitely fast consumer.
    fn data_consumed_at(&mut self, at: Time) {
        self.consumed_at = Some(at.max(self.now));
    }

    fn inbound_stall(&self, from: NodeId) -> Duration {
        self.flow.stalled_for(from, self.self_id, self.now)
    }

    fn set_timer(&mut self, at: Time, kind: u64) {
        self.actions.push(Action::Timer {
            at: at.max(self.now),
            kind,
        });
    }

    fn reachable(&self, to: NodeId) -> bool {
        self.net.reachable(self.self_id, to)
    }

    fn rand_range(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0..n)
    }
}

impl<M: ShardMsg> Ctx<'_, M> {
    fn send_at_raw(&mut self, to: NodeId, msg: M, at: Time) -> SendOutcome {
        // Send-time reachability check; delivery is checked again when the
        // event fires. Unreachable destinations drop the message — counted,
        // never silent, so tests can assert on lost-message totals.
        if !self.net.reachable(self.self_id, to) {
            self.stats.send_unreachable_drops += 1;
            return SendOutcome::DroppedFault;
        }
        if self.flow.tracks(&msg) {
            // Partition routing happens before admission so a suppressed
            // delivery (nothing for the shard) never consumes a credit;
            // the action is marked routed so it is not filtered twice.
            let msg = match self.net.partition_of(to) {
                Some(spec) => match msg.partition(spec.as_ref(), self.router) {
                    Some(m) => m,
                    None => return SendOutcome::Delivered,
                },
                None => msg,
            };
            return match self.flow.admit(self.self_id, to, msg, self.now) {
                Some(m) => {
                    self.actions.push(Action::Send {
                        to,
                        msg: m,
                        at,
                        routed: true,
                    });
                    SendOutcome::Delivered
                }
                None => SendOutcome::Queued,
            };
        }
        self.actions.push(Action::Send {
            to,
            msg,
            at,
            routed: false,
        });
        SendOutcome::Delivered
    }
}

enum EventKind<M> {
    Message {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    /// A credit-controlled delayed send reaching its departure instant:
    /// admission (credit consumption or queueing) happens now.
    Depart {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    /// A delivery on `from → to` was consumed: return its credit and
    /// release the next queued message, if any.
    Replenish {
        from: NodeId,
        to: NodeId,
    },
    Timer {
        actor: NodeId,
        kind: u64,
    },
    Fault(FaultEvent),
    Start(NodeId),
}

struct Event<M> {
    at: Time,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The discrete-event simulation.
pub struct Sim<M> {
    actors: Vec<Box<dyn Actor<M>>>,
    started: Vec<bool>,
    net: Network,
    flow: FlowControl<M>,
    queue: BinaryHeap<Event<M>>,
    now: Time,
    seq: u64,
    rng: StdRng,
    events_dispatched: u64,
    stats: SimStats,
    /// One-pass partition memo shared by every routed send in the
    /// simulation (single-threaded, so one router covers all senders).
    router: ShardRouter,
}

impl<M: ShardMsg> Sim<M> {
    /// Creates a simulation with the given RNG seed and network.
    pub fn new(seed: u64, net: Network) -> Sim<M> {
        Sim {
            actors: Vec::new(),
            started: Vec::new(),
            net,
            flow: FlowControl::new(CreditPolicy::Unbounded),
            queue: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            events_dispatched: 0,
            stats: SimStats::default(),
            router: ShardRouter::new(),
        }
    }

    /// Sets the credit-based flow-control policy (call before the run; the
    /// default [`CreditPolicy::Unbounded`] is the pre-credit behavior with
    /// zero overhead).
    pub fn set_flow_policy(&mut self, policy: CreditPolicy) {
        self.flow.set_policy(policy);
    }

    /// The credit ledger's governing policy.
    pub fn flow_policy(&self) -> CreditPolicy {
        self.flow.policy()
    }

    /// Queue-depth and stall-time gauges of the credit ledger.
    pub fn flow_gauges(&self) -> FlowGauges {
        self.flow.gauges()
    }

    /// Continuous credit-stall duration of the directed link `from → to`.
    pub fn flow_stalled_for(&self, from: NodeId, to: NodeId) -> Duration {
        self.flow.stalled_for(from, to, self.now)
    }

    /// Registers an actor; its `on_start` fires at time zero (or at the
    /// current time if the simulation is already running).
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> NodeId {
        let id = NodeId(self.actors.len() as u32);
        self.actors.push(actor);
        self.started.push(false);
        self.push_event(self.now, EventKind::Start(id));
        id
    }

    /// Network configuration access (latencies, manual link state).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Read-only network access.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Schedules a fault (or heal) at `at`.
    pub fn schedule_fault(&mut self, at: Time, fault: FaultEvent) {
        self.push_event(at, EventKind::Fault(fault));
    }

    /// Schedules a timer on behalf of an actor (used to bootstrap periodic
    /// work from outside).
    pub fn schedule_timer(&mut self, at: Time, actor: NodeId, kind: u64) {
        self.push_event(at, EventKind::Timer { actor, kind });
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events dispatched so far (throughput benchmarking).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Message-loss statistics (send-time and delivery-time drops).
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    fn push_event(&mut self, at: Time, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { at, seq, kind });
    }

    /// Runs until the queue is empty or virtual time would exceed `until`.
    /// Returns the number of events dispatched.
    pub fn run_until(&mut self, until: Time) -> u64 {
        let mut dispatched = 0;
        while let Some(ev) = self.queue.peek() {
            if ev.at > until {
                break;
            }
            let ev = self.queue.pop().expect("peeked event exists");
            self.now = self.now.max(ev.at);
            self.dispatch(ev);
            dispatched += 1;
        }
        self.now = self.now.max(until);
        self.events_dispatched += dispatched;
        dispatched
    }

    fn dispatch(&mut self, ev: Event<M>) {
        match ev.kind {
            EventKind::Message { from, to, msg } => {
                let tracked = self.flow.tracks(&msg);
                // Delivery-time reachability: a link that broke mid-flight
                // loses the message (broken TCP connection). A tracked loss
                // still returns its credit — a broken link must not shrink
                // the window forever.
                if !self.net.reachable(from, to) {
                    self.stats.delivery_drops += 1;
                    if tracked {
                        self.push_event(self.now, EventKind::Replenish { from, to });
                    }
                    return;
                }
                let consumed = self.with_actor(to, |actor, ctx| actor.on_message(ctx, from, msg));
                if tracked {
                    // Credit returns when the receiver's modeled CPU has
                    // consumed the batch (the handler's data_consumed_at
                    // mark), or immediately for infinitely fast consumers.
                    let at = consumed.unwrap_or(self.now).max(self.now);
                    self.push_event(at, EventKind::Replenish { from, to });
                }
            }
            EventKind::Depart { from, to, msg } => {
                // A delayed send reaching its departure: the link may have
                // broken since the send-time check (in-flight loss), and
                // admission happens now — as the thread engine's wheel does.
                if !self.net.reachable(from, to) {
                    self.stats.delivery_drops += 1;
                    return;
                }
                let msg = match self.net.partition_of(to) {
                    Some(spec) => match msg.partition(spec.as_ref(), &mut self.router) {
                        Some(m) => m,
                        None => return,
                    },
                    None => msg,
                };
                if let Some(m) = self.flow.admit(from, to, msg, self.now) {
                    let at = self.now + LINK_LATENCY;
                    self.push_event(at, EventKind::Message { from, to, msg: m });
                }
            }
            EventKind::Replenish { from, to } => {
                if let Some(m) = self.flow.replenish(from, to, self.now) {
                    let at = self.now + LINK_LATENCY;
                    self.push_event(at, EventKind::Message { from, to, msg: m });
                }
            }
            EventKind::Timer { actor, kind } => {
                if !self.net.node_up(actor) {
                    return; // crashed nodes fire no timers
                }
                self.with_actor(actor, |a, ctx| a.on_timer(ctx, kind));
            }
            EventKind::Fault(fault) => {
                match &fault {
                    FaultEvent::LinkDown { a, b } => self.net.link_down(*a, *b),
                    FaultEvent::LinkUp { a, b } => self.net.link_up(*a, *b),
                    FaultEvent::NodeDown(n) => {
                        self.net.node_down(*n);
                        // Pending credits and queued sends die with the
                        // node: purged messages are in-flight losses, and
                        // the link restarts with a full window.
                        self.stats.delivery_drops += self.flow.reset_node(*n, self.now);
                    }
                    FaultEvent::NodeUp(n) => self.net.node_up_again(*n),
                    FaultEvent::Custom { .. } => {}
                }
                for id in fault.notifies() {
                    if !self.net.node_up(id) && !matches!(fault, FaultEvent::NodeDown(_)) {
                        continue;
                    }
                    let f = fault.clone();
                    self.with_actor(id, |a, ctx| a.on_fault(ctx, &f));
                }
            }
            EventKind::Start(id) => {
                if !self.started[id.index()] {
                    self.started[id.index()] = true;
                    self.with_actor(id, |a, ctx| a.on_start(ctx));
                }
            }
        }
    }

    /// Runs one actor handler with a fresh [`Ctx`], then applies the actions
    /// it queued. Returns the handler's consumption mark, if it set one.
    fn with_actor<F>(&mut self, id: NodeId, f: F) -> Option<Time>
    where
        F: FnOnce(&mut dyn Actor<M>, &mut dyn RuntimeCtx<M>),
    {
        let actor = self.actors.get_mut(id.index())?;
        let mut ctx = Ctx {
            now: self.now,
            self_id: id,
            net: &self.net,
            flow: &mut self.flow,
            router: &mut self.router,
            rng: &mut self.rng,
            stats: &mut self.stats,
            actions: Vec::new(),
            consumed_at: None,
        };
        f(actor.as_mut(), &mut ctx);
        let consumed = ctx.consumed_at;
        let actions = ctx.actions;
        for action in actions {
            match action {
                Action::Send {
                    to,
                    msg,
                    at,
                    routed,
                } => {
                    // Partitioned send path: a key-sharded receiver gets only
                    // its shard of the message (routing, not loss — nothing
                    // is counted as dropped). Credit-admitted messages were
                    // already filtered.
                    let msg = match self.net.partition_of(to) {
                        Some(spec) if !routed => {
                            match msg.partition(spec.as_ref(), &mut self.router) {
                                Some(m) => m,
                                None => continue,
                            }
                        }
                        _ => msg,
                    };
                    self.push_event(at, EventKind::Message { from: id, to, msg })
                }
                Action::Depart { to, msg, at } => {
                    self.push_event(at, EventKind::Depart { from: id, to, msg })
                }
                Action::Timer { at, kind } => {
                    self.push_event(at, EventKind::Timer { actor: id, kind })
                }
            }
        }
        consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::Duration;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<(u64, NodeId, String)>>>;

    /// Echoes every message back and logs receipt times (ms).
    struct Echo {
        log: Log,
        replies: u32,
    }

    impl Actor<String> for Echo {
        fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<String>, from: NodeId, msg: String) {
            self.log
                .borrow_mut()
                .push((ctx.now().as_millis(), ctx.id(), msg.clone()));
            if self.replies > 0 {
                self.replies -= 1;
                ctx.send(from, format!("re:{msg}"));
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<String>, _kind: u64) {}
    }

    /// Sends one message at start and logs timer firings.
    struct Starter {
        to: NodeId,
        log: Log,
    }

    impl Actor<String> for Starter {
        fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<String>) {
            ctx.send(self.to, "hello".into());
            ctx.set_timer(Time::from_millis(50), 7);
        }
        fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<String>, _from: NodeId, msg: String) {
            self.log
                .borrow_mut()
                .push((ctx.now().as_millis(), ctx.id(), msg));
        }
        fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<String>, kind: u64) {
            self.log
                .borrow_mut()
                .push((ctx.now().as_millis(), ctx.id(), format!("timer{kind}")));
        }
    }

    fn new_sim() -> Sim<String> {
        Sim::new(42, Network::new())
    }

    #[test]
    fn messages_arrive_after_latency_in_order() {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = new_sim();
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 1,
        }));
        let _starter = sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        sim.run_until(Time::from_secs(1));
        let entries = log.borrow();
        // hello arrives at 1 ms, reply at 2 ms, timer at 50 ms.
        assert_eq!(entries[0], (1, NodeId(0), "hello".into()));
        assert_eq!(entries[1], (2, NodeId(1), "re:hello".into()));
        assert_eq!(entries[2], (50, NodeId(1), "timer7".into()));
    }

    #[test]
    fn link_failure_drops_messages() {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = new_sim();
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 0,
        }));
        let starter = sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        sim.schedule_fault(
            Time::ZERO,
            FaultEvent::LinkDown {
                a: echo,
                b: starter,
            },
        );
        sim.run_until(Time::from_secs(1));
        let entries = log.borrow();
        // Only the timer fires; the hello was dropped.
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].2, "timer7");
    }

    #[test]
    fn send_time_unreachable_drops_are_counted() {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = new_sim();
        // Fault scheduled before the actors start: the link is already
        // down when Starter's on_start sends, so the drop happens at send
        // time.
        sim.schedule_fault(
            Time::ZERO,
            FaultEvent::LinkDown {
                a: NodeId(0),
                b: NodeId(1),
            },
        );
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 0,
        }));
        let starter = sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        sim.run_until(Time::from_secs(1));
        assert_eq!(
            sim.stats().send_unreachable_drops,
            1,
            "the hello was dropped at send"
        );
        assert_eq!(sim.stats().delivery_drops, 0);
        assert_eq!(sim.stats().total_drops(), 1);
        let _ = (echo, starter);
    }

    #[test]
    fn in_flight_delivery_drops_are_counted_separately() {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = new_sim();
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 0,
        }));
        let starter = sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        // The link breaks after the send (t=0, same instant but later event
        // order) and before delivery (t=1 ms): an in-flight loss.
        sim.schedule_fault(
            Time::ZERO,
            FaultEvent::LinkDown {
                a: echo,
                b: starter,
            },
        );
        sim.run_until(Time::from_secs(1));
        assert_eq!(sim.stats().send_unreachable_drops, 0);
        assert_eq!(sim.stats().delivery_drops, 1);
    }

    #[test]
    fn healthy_runs_report_zero_drops() {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = new_sim();
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 1,
        }));
        sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        sim.run_until(Time::from_secs(1));
        assert_eq!(sim.stats(), SimStats::default());
    }

    #[test]
    fn crashed_node_receives_nothing_and_fires_no_timers() {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = new_sim();
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 0,
        }));
        let starter = sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        sim.schedule_fault(Time::ZERO, FaultEvent::NodeDown(starter));
        sim.run_until(Time::from_secs(1));
        assert!(log.borrow().is_empty(), "{:?}", log.borrow());
        let _ = echo;
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = || {
            let log: Log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = new_sim();
            let echo = sim.add_actor(Box::new(Echo {
                log: log.clone(),
                replies: 3,
            }));
            sim.add_actor(Box::new(Starter {
                to: echo,
                log: log.clone(),
            }));
            sim.run_until(Time::from_secs(2));
            let v = log.borrow().clone();
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_respects_horizon() {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = new_sim();
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 0,
        }));
        sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        sim.run_until(Time::from_millis(10));
        assert_eq!(log.borrow().len(), 1, "timer at 50 ms not yet fired");
        assert_eq!(sim.now(), Time::from_millis(10));
        sim.run_until(Time::from_millis(100));
        assert_eq!(log.borrow().len(), 2);
    }

    /// A data-plane message for flow-control tests.
    #[derive(Debug, Clone, PartialEq)]
    struct Payload(u32);
    impl ShardMsg for Payload {
        fn credit_controlled(&self) -> bool {
            true
        }
    }

    /// Sends `n` payloads in one burst at start.
    struct Flood {
        to: NodeId,
        n: u32,
    }
    impl Actor<Payload> for Flood {
        fn on_start(&mut self, ctx: &mut dyn RuntimeCtx<Payload>) {
            for i in 0..self.n {
                ctx.send(self.to, Payload(i));
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn RuntimeCtx<Payload>, _from: NodeId, _msg: Payload) {
        }
        fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<Payload>, _kind: u64) {}
    }

    /// Consumes each payload `per_msg` of modeled CPU after the previous.
    struct SlowSink {
        seen: Rc<RefCell<Vec<u32>>>,
        per_msg: Duration,
        busy: Time,
    }
    impl Actor<Payload> for SlowSink {
        fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<Payload>, _from: NodeId, msg: Payload) {
            self.seen.borrow_mut().push(msg.0);
            self.busy = self.busy.max(ctx.now()) + self.per_msg;
            ctx.data_consumed_at(self.busy);
        }
        fn on_timer(&mut self, _ctx: &mut dyn RuntimeCtx<Payload>, _kind: u64) {}
    }

    fn flood_sim(policy: CreditPolicy, n: u32) -> (Sim<Payload>, Rc<RefCell<Vec<u32>>>) {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<Payload> = Sim::new(3, Network::new());
        sim.set_flow_policy(policy);
        let sink = sim.add_actor(Box::new(SlowSink {
            seen: seen.clone(),
            per_msg: Duration::from_millis(10),
            busy: Time::ZERO,
        }));
        sim.add_actor(Box::new(Flood { to: sink, n }));
        (sim, seen)
    }

    #[test]
    fn bounded_window_caps_inflight_and_preserves_order() {
        let (mut sim, seen) = flood_sim(CreditPolicy::Window(3), 20);
        sim.run_until(Time::from_secs(5));
        assert_eq!(
            *seen.borrow(),
            (0..20).collect::<Vec<_>>(),
            "backpressure may delay, never reorder or drop"
        );
        let g = sim.flow_gauges();
        assert_eq!(g.inflight_peak, 3, "in-flight bounded by the window");
        assert_eq!(g.queued, 17, "the burst past the window queued");
        assert_eq!(g.released, 17);
        assert_eq!(g.queued_now, 0);
        assert_eq!(g.inflight_now, 0, "all credits returned at quiescence");
        assert!(g.stall_time > Duration::ZERO);
        assert_eq!(sim.stats().total_drops(), 0);
    }

    #[test]
    fn metered_baseline_shows_unbounded_inflight() {
        let (mut sim, seen) = flood_sim(CreditPolicy::Window(u32::MAX), 20);
        sim.run_until(Time::from_secs(5));
        assert_eq!(seen.borrow().len(), 20);
        let g = sim.flow_gauges();
        assert_eq!(g.inflight_peak, 20, "the whole burst floods the receiver");
        assert_eq!(g.queued, 0, "an unreachable window never stalls");
    }

    #[test]
    fn unbounded_policy_keeps_the_ledger_silent() {
        let (mut sim, seen) = flood_sim(CreditPolicy::Unbounded, 20);
        sim.run_until(Time::from_secs(5));
        assert_eq!(seen.borrow().len(), 20);
        assert_eq!(sim.flow_gauges(), borealis_types::FlowGauges::default());
    }

    #[test]
    fn crash_purges_queued_sends_as_delivery_drops() {
        let (mut sim, seen) = flood_sim(CreditPolicy::Window(2), 10);
        // Crash the sink while most of the burst is still queued: the
        // queued messages are purged (counted) and never delivered.
        sim.schedule_fault(Time::from_millis(15), FaultEvent::NodeDown(NodeId(0)));
        sim.run_until(Time::from_secs(5));
        assert!(seen.borrow().len() < 10, "crash cut the stream");
        assert!(
            sim.stats().delivery_drops > 0,
            "purged queue counted: {:?}",
            sim.stats()
        );
        assert_eq!(sim.flow_gauges().queued_now, 0);
    }

    #[test]
    fn stalled_for_visible_while_link_saturated() {
        let (mut sim, _seen) = flood_sim(CreditPolicy::Window(1), 50);
        sim.run_until(Time::from_millis(100));
        assert!(
            sim.flow_stalled_for(NodeId(1), NodeId(0)) > Duration::ZERO,
            "mid-burst the sender is stalled"
        );
        sim.run_until(Time::from_secs(10));
        assert_eq!(
            sim.flow_stalled_for(NodeId(1), NodeId(0)),
            Duration::ZERO,
            "drained"
        );
    }

    #[test]
    fn healed_link_delivers_again() {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = new_sim();
        let echo = sim.add_actor(Box::new(Echo {
            log: log.clone(),
            replies: 0,
        }));
        let starter = sim.add_actor(Box::new(Starter {
            to: echo,
            log: log.clone(),
        }));
        // Down at 0, up at 20 ms; the start message (sent at 0) is lost.
        sim.schedule_fault(
            Time::ZERO,
            FaultEvent::LinkDown {
                a: echo,
                b: starter,
            },
        );
        sim.schedule_fault(
            Time::from_millis(20),
            FaultEvent::LinkUp {
                a: echo,
                b: starter,
            },
        );
        sim.run_until(Time::from_secs(1));
        assert_eq!(log.borrow().len(), 1, "only the timer");
    }
}
