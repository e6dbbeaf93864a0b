//! # borealis-sim
//!
//! A deterministic discrete-event simulator: virtual clock, totally ordered
//! event queue, seeded RNG, and a simulated network with reliable in-order
//! links, one constant link latency, and scripted link/node/custom
//! faults — the §2.2 system model of the paper, reproducible on one
//! machine.
//!
//! It also defines the protocol–runtime seam: the one [`Actor`] trait and
//! the one [`RuntimeCtx`] trait, both generic over the message type. The
//! DPC protocol (`borealis-dpc`) implements [`Actor`] once per participant;
//! the kernel's context implements [`RuntimeCtx`] for any message type, and
//! the thread engine in `borealis-runtime` implements it for the protocol's
//! messages, so both runtimes drive the same boxed actors. Experiments
//! script [`FaultEvent`]s to recreate every failure scenario of the paper's
//! evaluation.

#![warn(missing_docs)]

pub mod actor;
pub mod fault;
pub mod flow;
pub mod kernel;
pub mod net;

pub use actor::{Actor, RuntimeCtx};
pub use fault::FaultEvent;
pub use flow::FlowControl;
pub use kernel::{ShardMsg, Sim, SimStats};
pub use net::{Network, LINK_LATENCY};
