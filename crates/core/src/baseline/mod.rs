//! The naive fixed-rate probing baseline the evaluation compares against.

mod fixed_rate;

pub use fixed_rate::FixedRateCp;
