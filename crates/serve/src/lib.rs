//! Batched inference over the LUT-GEMM stack.
//!
//! Serving a retrained model is its eval forward, run once per batch of
//! concurrent single-sample requests. Two pieces:
//!
//! * [`Registry`] — models (checkpoint bytes, the live instance and the
//!   poisoned-model rebuild path) and a shared [`LutCache`] with LRU
//!   eviction that model factories read through a [`LutHandle`];
//! * [`Engine`] — admission control with typed [`Rejection`]s (unknown
//!   model, bad shape, non-finite input, full queue, shutdown), greedy
//!   batching over one FIFO (a worker takes the oldest request whose
//!   model is not in service plus that model's later requests, one batch
//!   per model at a time, no batch-fill timer), and worker panic
//!   isolation with requeue-or-reject.
//!
//! Everything is instrumented through `appmult-obs`: queue-depth and
//! in-flight gauges, admission and rejection counters, batch-size and
//! latency histograms. See `DESIGN.md` §12 for the architecture.
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
pub use registry::{ForwardError, LutCache, LutHandle, ModelFactory, ModelSpec, Registry};
