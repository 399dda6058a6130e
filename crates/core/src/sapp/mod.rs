//! The self-adaptive probe protocol (SAPP), §2 of the paper.

mod cp;
mod device;

pub use cp::{AdaptationStats, SappCp};
pub use device::SappDevice;
