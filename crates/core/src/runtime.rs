//! How the DPC protocol meets the runtimes that execute it.
//!
//! Every protocol participant — [`crate::node::ProcessingNode`],
//! [`crate::source::DataSource`], [`crate::client::ClientProxy`] —
//! implements [`Actor<NetMsg>`](Actor) exactly once and reacts to events
//! through a `&mut dyn` [`RuntimeCtx<NetMsg>`](RuntimeCtx): clock,
//! messaging, timers, reachability and randomness. Both traits are defined
//! in `borealis-sim` and re-exported here.
//!
//! Three runtimes drive the same boxed actors:
//!
//! * the deterministic simulator (`borealis_sim::Sim`), whose context runs
//!   on virtual time and a seeded RNG;
//! * the worker pool in `borealis-runtime`, whose context runs on the
//!   monotonic wall clock, per-worker timer wheels and mailboxes;
//! * OS processes over TCP, which are the worker pool plus a socket fabric
//!   for actors placed in other processes.
//!
//! There is no per-runtime adapter and no `#[cfg]` fork: each protocol body
//! compiles once, and the exact same code runs under virtual and wall-clock
//! time. Fault *model* types ([`borealis_sim::FaultEvent`], the link-table
//! semantics of `borealis_sim::Network`) also live in `borealis-sim`: they
//! describe scripted failure scenarios, which every runtime supports.

pub use borealis_sim::{Actor, RuntimeCtx};
