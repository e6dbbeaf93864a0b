//! The protocol–runtime seam: one actor trait and one context trait, shared
//! by every runtime that drives protocol participants.
//!
//! A protocol participant implements [`Actor`] once and reacts to messages,
//! timers and faults through a `&mut dyn` [`RuntimeCtx`]. The discrete-event
//! kernel ([`crate::Sim`]) hands it a context over virtual time and a seeded
//! RNG; the thread engine in `borealis-runtime` hands it one over the
//! monotonic wall clock and its worker pool. Protocol code must not assume
//! anything beyond this interface — in particular, `now()` may be virtual or
//! wall-clock time, and `send` may deliver with simulated or native latency.

use crate::fault::FaultEvent;
use borealis_types::{Duration, NodeId, SendOutcome, Time};

/// The handler-side view of a runtime: what an actor may do while reacting
/// to an event (clock, messaging, timers, reachability, randomness).
pub trait RuntimeCtx<M> {
    /// Current time (virtual in the simulator, monotonic wall clock in the
    /// thread engine).
    fn now(&self) -> Time;

    /// This actor's id.
    fn id(&self) -> NodeId;

    /// Sends `msg` to `to`. Lost if the link or either endpoint is down
    /// ([`SendOutcome::DroppedFault`]); under a bounded credit policy a
    /// data message may instead be queued at the sender awaiting credit
    /// ([`SendOutcome::Queued`] — the runtime releases it in FIFO order once
    /// the receiver consumes earlier deliveries).
    fn send(&mut self, to: NodeId, msg: M) -> SendOutcome;

    /// Sends `msg` so it departs at `depart` (clamped to now) — used by the
    /// CPU cost model: outputs leave the node when the work completes. A
    /// future departure reports [`SendOutcome::Deferred`]; credit admission
    /// happens at the departure instant.
    fn send_after(&mut self, to: NodeId, msg: M, depart: Time) -> SendOutcome;

    /// Marks the data message currently being handled as consumed at `at`
    /// (the receiver's modeled CPU completion): its link credit returns
    /// then. Handlers that never call this consume instantly.
    fn data_consumed_at(&mut self, at: Time);

    /// Continuous credit-stall duration of the inbound link `from → self`:
    /// how long `from`'s sends to this actor have been queued awaiting
    /// credit ([`Duration::ZERO`] when credit is flowing or flow control is
    /// off). This is how an overloaded consumer's backpressure is surfaced
    /// to the protocol layer.
    fn inbound_stall(&self, from: NodeId) -> Duration;

    /// Schedules an `on_timer(kind)` callback at `at` (clamped to now).
    fn set_timer(&mut self, at: Time, kind: u64);

    /// True if `to` is currently reachable from this actor.
    fn reachable(&self, to: NodeId) -> bool;

    /// Uniform random sample from `[0, n)`; deterministic (seeded) in the
    /// simulator.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    fn rand_range(&mut self, n: u64) -> u64;
}

/// A protocol participant: processing node, data source, or client proxy.
pub trait Actor<M> {
    /// Called once when the runtime starts the actor.
    fn on_start(&mut self, _ctx: &mut dyn RuntimeCtx<M>) {}

    /// Handles a message delivered from another actor.
    fn on_message(&mut self, ctx: &mut dyn RuntimeCtx<M>, from: NodeId, msg: M);

    /// Handles a timer previously set with [`RuntimeCtx::set_timer`].
    fn on_timer(&mut self, ctx: &mut dyn RuntimeCtx<M>, kind: u64);

    /// Notified of faults involving this actor (link/node failures, custom
    /// scripted faults).
    fn on_fault(&mut self, _ctx: &mut dyn RuntimeCtx<M>, _fault: &FaultEvent) {}
}
