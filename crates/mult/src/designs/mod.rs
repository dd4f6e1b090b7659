//! The approximate multiplier design families behind the Table I zoo.
//!
//! Each family implements [`crate::Multiplier`] behaviourally, and — where
//! the zoo costs it from gates — also provides a netlist through
//! [`crate::Multiplier::circuit`] for the hardware cost model.
//!
//! | Family | Approximation idea | Zoo entries | Gate-level? |
//! |---|---|---|---|
//! | [`ExactMultiplier`] | none (AccMult) | `_acc` | yes |
//! | [`TruncatedMultiplier`] | remove rightmost partial-product columns (Fig. 2) | `_rmK` | yes |
//! | [`CompensatedTruncatedMultiplier`] | truncation plus a gated constant compensation | `2NDH`, `17C8`, `06Q`, `081` | yes |
//! | [`LowerOrMultiplier`] | OR-compress the low columns instead of adding | `17R6`, `073` | yes |
//! | [`Recursive2x2Multiplier`] | Kulkarni-style approximate 2x2 building blocks | `08E` | yes |
//! | [`SegmentedMultiplier`] | DRUM-style leading-one segment multiplication | `1DMU` | no (paper row) |
//! | [`SynthesizedMultiplier`] | greedy ALS rewrites of the exact array | `_syn` | yes |

mod exact;
mod lower_or;
mod recursive;
mod segmented;
mod synthesized;
mod truncated;

pub use exact::ExactMultiplier;
pub use lower_or::LowerOrMultiplier;
pub use recursive::Recursive2x2Multiplier;
pub use segmented::SegmentedMultiplier;
pub use synthesized::SynthesizedMultiplier;
pub use truncated::{CompensatedTruncatedMultiplier, TruncatedMultiplier};

pub(crate) fn assert_bits(bits: u32) {
    assert!(
        (2..=10).contains(&bits),
        "bits must be in 2..=10, got {bits}"
    );
}

pub(crate) fn assert_operands(bits: u32, w: u32, x: u32) {
    assert!(
        w < (1 << bits) && x < (1 << bits),
        "operands ({w}, {x}) must fit in {bits} bits"
    );
}
