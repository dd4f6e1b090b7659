//! Gate-level hardware substrate for approximate multiplier design.
//!
//! This crate implements the hardware side of the AppMult-aware retraining
//! flow: combinational gate netlists, generators for the arithmetic circuits
//! used in the paper (array and Wallace-tree multipliers), a 64-way
//! bit-parallel logic simulator with exhaustive truth-table extraction, an
//! ASAP7-calibrated area/delay/power cost model, a greedy approximate logic
//! synthesis (ALS) pass that generates the `_syn` multipliers of the
//! paper's Table I, and fault injection
//! (stuck-at / output-invert) that turns a multiplier into a defective copy
//! of itself by rewriting the faulted gates of a cloned netlist.
//!
//! # Example
//!
//! ```
//! use appmult_circuit::{MultiplierCircuit, CostModel};
//!
//! // Build an 8-bit unsigned array multiplier and cost it.
//! let mult = MultiplierCircuit::array(8);
//! let table = mult.exhaustive_products();
//! assert_eq!(table[(3 << 8) | 5], 15);
//!
//! let cost = CostModel::asap7().estimate(&mult);
//! assert!(cost.area_um2 > 0.0 && cost.delay_ps > 0.0 && cost.power_uw > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod als;
mod arith;
mod cost;
mod dots;
mod fault;
mod netlist;
mod sim;

pub use als::{synthesize, AlsConfig, AlsOutcome, AlsRewrite};
pub use arith::{MultiplierCircuit, MultiplierStructure};
pub use cost::{CostModel, HardwareCost};
pub use dots::DotColumns;
pub use fault::{fault_sites, FaultKind, FaultSpec};
pub use netlist::{Gate, GateKind, Netlist, NetlistError, Signal};
pub use sim::{simulate_bools, simulate_words, ExhaustiveTable};
