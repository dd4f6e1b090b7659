//! Overload-hardened batched inference over the LUT-GEMM stack.
//!
//! The ROADMAP's serving half: a long-lived layer that loads retrained
//! checkpoints and product LUTs **once** and coalesces concurrent requests
//! into batches sized for the tiled kernels, while staying predictable
//! under overload. Three pieces:
//!
//! * [`Registry`] — models (checkpoint bytes + live instance + poisoned
//!   rebuild path) and a shared [`LutCache`] with LRU eviction, with warm
//!   LUT **prefetch** on load so a cold model's first batch never pays the
//!   LUT build inside the dispatch path;
//! * [`DrrQueue`] — per-model sub-queues (strict priority lanes, FIFO
//!   within lane) scheduled by **deficit round-robin** in estimated MACs,
//!   so one hot model cannot starve every other model, with each popped
//!   model held in service by a [`Lease`] so it is never in two batches;
//! * [`Engine`] — admission control with typed [`Rejection`]s, per-request
//!   deadlines enforced *before* kernel dispatch, caller-side cancellation
//!   via [`Ticket::wait_timeout`], greedy batching (a batch takes what is
//!   queued for its model when the model frees up, one dispatch per model
//!   at a time, no batch-fill timer), worker panic isolation with
//!   requeue-or-reject, and a degradation ladder driven by queued **plus
//!   in-flight** pressure (shed low priority → shed normal priority →
//!   reject-fast with `Retry-After` hints).
//!
//! Everything is instrumented through `appmult-obs`: queue-depth,
//! in-flight and ladder gauges, per-model deficit/starvation telemetry,
//! admission/shed/deadline/cancellation counters, batch-size and latency
//! histograms. See `DESIGN.md` §12 for the architecture and the
//! `serve_bench` binary in `appmult-bench` for an open-loop load driver
//! with a multi-model fairness phase.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use appmult_nn::layers::{Linear, Relu, Sequential};
//! use appmult_nn::Tensor;
//! use appmult_serve::{Engine, EngineConfig, ModelSpec, Registry, Request};
//!
//! let registry = Arc::new(Registry::new(4));
//! registry
//!     .load(ModelSpec::new(
//!         "demo",
//!         vec![8],
//!         Arc::new(|_luts| {
//!             Sequential::new().push(Linear::new(8, 2, 1)).push(Relu::new())
//!         }),
//!     ))
//!     .unwrap();
//! let engine = Engine::start(registry, EngineConfig::default());
//! let ticket = engine
//!     .submit(Request::new("demo", Tensor::from_vec(vec![0.1; 8], &[8])))
//!     .unwrap();
//! let output = ticket.wait().expect("served");
//! assert_eq!(output.shape(), &[2]);
//! engine.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod registry;
mod sched;

pub use engine::{Engine, EngineConfig, Rejection, Request, ServeResult, Ticket};
pub use registry::{
    ForwardError, LutBuilder, LutCache, LutHandle, ModelFactory, ModelSpec, Registry,
};
pub use sched::{DrrQueue, Lease, Priority, PushError};
