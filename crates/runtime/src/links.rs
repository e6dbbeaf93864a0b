//! The shared link table: connectivity state, credit-based flow control,
//! and fault application for the thread engine, with message-loss
//! accounting.
//!
//! Reuses `borealis_sim::Network` for the connectivity semantics
//! (bidirectional link failures, node crashes blocking all links,
//! partitions) and `borealis_sim::FlowControl` for the credit ledger, so
//! both runtimes share one fault model *and* one flow-control
//! implementation — the thread engine merely puts them behind locks for
//! cross-thread access. Senders check reachability at send time; receivers
//! check again at delivery time — the same two drop points the simulator
//! counts.

use crate::sync::{read, relock, write, Arc, AtomicU64, Mutex, Ordering, RwLock};
use borealis_dpc::NetMsg;
use borealis_sim::{FaultEvent, FlowControl, Network, ShardMsg};
use borealis_types::{
    CreditPolicy, Duration, FlowGauges, NodeId, PartitionSpec, SchedGauges, Time, WireGauges,
};

/// Message-loss accounting for a whole thread-engine run (the wall-clock
/// sibling of `borealis_sim::SimStats`).
#[derive(Debug, Default)]
pub struct RuntimeStats {
    send_unreachable_drops: AtomicU64,
    delivery_drops: AtomicU64,
    timers_suppressed: AtomicU64,
    messages_delivered: AtomicU64,
}

/// A point-in-time copy of [`RuntimeStats`] plus the transport's
/// flow-control gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Messages dropped because the destination was unreachable at send
    /// time.
    pub send_unreachable_drops: u64,
    /// Messages dropped at delivery time (link broke while in flight, or
    /// the receiving endpoint was down).
    pub delivery_drops: u64,
    /// Timer callbacks suppressed because the actor was crashed when they
    /// came due.
    pub timers_suppressed: u64,
    /// Messages successfully delivered to handlers.
    pub messages_delivered: u64,
    /// Queue-depth and stall-time gauges of the credit ledger (zero under
    /// [`CreditPolicy::Unbounded`]).
    pub flow: FlowGauges,
    /// Worker-pool scheduler gauges (steals, run-queue depths, activation
    /// run-time histogram).
    pub sched: SchedGauges,
    /// Socket-transport wire gauges (zero for in-process deployments;
    /// filled by a [`RunningThreads`](crate::RunningThreads) with a
    /// fabric).
    pub wire: WireGauges,
}

impl StatsSnapshot {
    /// Total messages lost to faults.
    pub fn total_drops(&self) -> u64 {
        self.send_unreachable_drops + self.delivery_drops
    }
}

impl RuntimeStats {
    pub(crate) fn count_send_drop(&self) {
        self.send_unreachable_drops.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn count_delivery_drop(&self) {
        self.delivery_drops.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn count_timer_suppressed(&self) {
        self.timers_suppressed.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn count_delivered(&self) {
        self.messages_delivered.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_delivery_drops(&self, n: u64) {
        self.delivery_drops.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a consistent-enough copy (relaxed; exact totals only after the
    /// runtime has shut down).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            send_unreachable_drops: self.send_unreachable_drops.load(Ordering::Relaxed),
            delivery_drops: self.delivery_drops.load(Ordering::Relaxed),
            timers_suppressed: self.timers_suppressed.load(Ordering::Relaxed),
            messages_delivered: self.messages_delivered.load(Ordering::Relaxed),
            flow: FlowGauges::default(),
            sched: SchedGauges::default(),
            wire: WireGauges::default(),
        }
    }
}

/// Cross-thread connectivity state. The fault controller writes (applying
/// scripted [`FaultEvent`]s); every actor thread reads on each send and
/// delivery.
#[derive(Debug)]
pub struct LinkTable {
    // RwLock: every actor thread reads on each send/delivery; only the
    // fault controller writes, a handful of times per run.
    net: RwLock<Network>,
    // Key-partition filters per shard-replica receiver. Immutable after
    // construction, so the hot send path reads them lock-free (and the
    // common no-partition case is a single hash miss).
    partitions: std::collections::HashMap<NodeId, Arc<PartitionSpec>>,
    // The credit ledger (shared with the simulator by construction). A
    // plain mutex: touched only for credit-controlled data messages under
    // a tracking policy; `policy` is kept outside the lock so the
    // Unbounded fast path never takes it.
    flow: Mutex<FlowControl<NetMsg>>,
    policy: CreditPolicy,
}

impl LinkTable {
    /// A fully connected table with no partitioned receivers and no flow
    /// control.
    pub fn new() -> LinkTable {
        LinkTable::with_partitions(Vec::new())
    }

    /// A fully connected table whose listed nodes are key-partitioned
    /// receivers, with no flow control.
    pub fn with_partitions(partitions: Vec<(NodeId, PartitionSpec)>) -> LinkTable {
        LinkTable::with_config(partitions, CreditPolicy::Unbounded)
    }

    /// A fully connected table with partitioned receivers and the given
    /// credit-based flow-control policy.
    pub fn with_config(
        partitions: Vec<(NodeId, PartitionSpec)>,
        policy: CreditPolicy,
    ) -> LinkTable {
        LinkTable {
            net: RwLock::new(Network::new()),
            partitions: partitions
                .into_iter()
                .map(|(n, s)| (n, Arc::new(s)))
                .collect(),
            flow: Mutex::new(FlowControl::new(policy)),
            policy,
        }
    }

    /// True if a message from `a` can currently reach `b`.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        read(&self.net).reachable(a, b)
    }

    /// True if the node itself is up.
    pub fn node_up(&self, n: NodeId) -> bool {
        read(&self.net).node_up(n)
    }

    /// The partition filter governing deliveries to `node`, if any
    /// (lock-free; the map is immutable after construction).
    pub fn partition_of(&self, node: NodeId) -> Option<&Arc<PartitionSpec>> {
        self.partitions.get(&node)
    }

    /// The credit policy governing every link (lock-free copy).
    pub fn credit_policy(&self) -> CreditPolicy {
        self.policy
    }

    /// True when `msg` must pass through the credit ledger.
    pub fn tracks(&self, msg: &NetMsg) -> bool {
        self.policy.is_tracking() && msg.credit_controlled()
    }

    /// Admits a credit-controlled message to `from → to`: returns it when
    /// a credit was available, or queues it at the sender (`None`).
    pub fn admit(&self, from: NodeId, to: NodeId, msg: NetMsg, now: Time) -> Option<NetMsg> {
        let mut flow = relock(&self.flow);
        let admitted = flow.admit(from, to, msg, now);
        #[cfg(debug_assertions)]
        flow.check_invariants();
        admitted
    }

    /// One delivery on `from → to` was consumed: returns the next queued
    /// message to release, if any.
    pub fn consumed_release(&self, from: NodeId, to: NodeId, now: Time) -> Option<NetMsg> {
        let mut flow = relock(&self.flow);
        let released = flow.replenish(from, to, now);
        #[cfg(debug_assertions)]
        flow.check_invariants();
        released
    }

    /// Continuous credit-stall duration of `from → to` (lock-free zero
    /// when flow control is off).
    pub fn stalled_for(&self, from: NodeId, to: NodeId, now: Time) -> Duration {
        if !self.policy.is_tracking() {
            return Duration::ZERO;
        }
        relock(&self.flow).stalled_for(from, to, now)
    }

    /// Queue-depth and stall-time gauges of the credit ledger.
    pub fn flow_gauges(&self) -> FlowGauges {
        relock(&self.flow).gauges()
    }

    /// Applies a fault (or heal) to the connectivity state at `now` (the
    /// runtime clock; closes stall-time accounting). Returns the number of
    /// queued sends purged by a node crash (in-flight losses the caller
    /// records as delivery drops).
    pub fn apply(&self, fault: &FaultEvent, now: Time) -> u64 {
        let mut net = write(&self.net);
        match fault {
            FaultEvent::LinkDown { a, b } => net.link_down(*a, *b),
            FaultEvent::LinkUp { a, b } => net.link_up(*a, *b),
            FaultEvent::NodeDown(n) => {
                net.node_down(*n);
                if self.policy.is_tracking() {
                    // Pending credits and queued sends die with the node;
                    // the links restart with a full window. The purge
                    // count is computed inside the ledger lock, so an
                    // in-flight admit can never be counted twice.
                    let mut flow = relock(&self.flow);
                    let purged = flow.reset_node(*n, now);
                    #[cfg(debug_assertions)]
                    flow.check_invariants();
                    return purged;
                }
            }
            FaultEvent::NodeUp(n) => net.node_up_again(*n),
            FaultEvent::Custom { .. } => {}
        }
        0
    }

    /// Partitions the system: every link between `group_a` and `group_b`
    /// goes down (scripting convenience mirroring
    /// `borealis_sim::Network::partition`).
    pub fn partition(&self, group_a: &[NodeId], group_b: &[NodeId]) {
        write(&self.net).partition(group_a, group_b);
    }

    /// Heals a partition created with [`LinkTable::partition`].
    pub fn heal_partition(&self, group_a: &[NodeId], group_b: &[NodeId]) {
        write(&self.net).heal_partition(group_a, group_b);
    }
}

impl Default for LinkTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(all(test, not(borealis_model)))]
mod tests {
    use super::*;

    #[test]
    fn faults_flow_through_to_connectivity() {
        let t = LinkTable::new();
        assert!(t.reachable(NodeId(0), NodeId(1)));
        t.apply(
            &FaultEvent::LinkDown {
                a: NodeId(0),
                b: NodeId(1),
            },
            Time::ZERO,
        );
        assert!(!t.reachable(NodeId(1), NodeId(0)), "bidirectional");
        t.apply(
            &FaultEvent::LinkUp {
                a: NodeId(1),
                b: NodeId(0),
            },
            Time::ZERO,
        );
        assert!(t.reachable(NodeId(0), NodeId(1)));
        t.apply(&FaultEvent::NodeDown(NodeId(2)), Time::ZERO);
        assert!(!t.reachable(NodeId(0), NodeId(2)));
        assert!(!t.node_up(NodeId(2)));
        t.apply(&FaultEvent::NodeUp(NodeId(2)), Time::ZERO);
        assert!(t.node_up(NodeId(2)));
    }

    fn data_msg() -> NetMsg {
        NetMsg::Data {
            stream: borealis_types::StreamId(0),
            tuples: borealis_types::TupleBatch::single(borealis_types::Tuple::boundary(
                borealis_types::TupleId::NONE,
                Time::ZERO,
            ))
            .into(),
        }
    }

    #[test]
    fn credit_window_gates_data_and_crash_purges() {
        let t = LinkTable::with_config(Vec::new(), CreditPolicy::Window(1));
        let (a, b) = (NodeId(0), NodeId(1));
        assert!(t.tracks(&data_msg()));
        assert!(!t.tracks(&NetMsg::HeartbeatReq), "control traffic bypasses");
        assert!(t.admit(a, b, data_msg(), Time::ZERO).is_some());
        assert!(t.admit(a, b, data_msg(), Time::ZERO).is_none(), "queued");
        assert!(
            t.stalled_for(a, b, Time::from_millis(10)) == Duration::from_millis(10),
            "stall visible"
        );
        // The receiver consumes one delivery: the queued message releases.
        assert!(t.consumed_release(a, b, Time::from_millis(20)).is_some());
        assert_eq!(t.flow_gauges().released, 1);
        // Crash purges queued sends and restores the window.
        assert!(t.admit(a, b, data_msg(), Time::from_millis(30)).is_none());
        let purged = t.apply(&FaultEvent::NodeDown(b), Time::from_millis(40));
        assert_eq!(purged, 1);
        assert_eq!(t.flow_gauges().queued_now, 0);
    }

    #[test]
    fn unbounded_table_never_locks_the_ledger() {
        let t = LinkTable::new();
        assert_eq!(t.credit_policy(), CreditPolicy::Unbounded);
        assert!(!t.tracks(&data_msg()));
        assert_eq!(
            t.stalled_for(NodeId(0), NodeId(1), Time::from_millis(5)),
            Duration::ZERO
        );
        assert_eq!(t.flow_gauges(), FlowGauges::default());
    }

    #[test]
    fn partitions_cut_cross_links_only() {
        let t = LinkTable::new();
        let a = [NodeId(0), NodeId(1)];
        let b = [NodeId(2), NodeId(3)];
        t.partition(&a, &b);
        assert!(!t.reachable(NodeId(0), NodeId(3)));
        assert!(t.reachable(NodeId(0), NodeId(1)));
        t.heal_partition(&a, &b);
        assert!(t.reachable(NodeId(0), NodeId(3)));
    }

    #[test]
    fn stats_snapshot_counts() {
        let s = RuntimeStats::default();
        s.count_send_drop();
        s.count_delivery_drop();
        s.count_delivery_drop();
        s.count_delivered();
        let snap = s.snapshot();
        assert_eq!(snap.send_unreachable_drops, 1);
        assert_eq!(snap.delivery_drops, 2);
        assert_eq!(snap.total_drops(), 3);
        assert_eq!(snap.messages_delivered, 1);
    }
}
