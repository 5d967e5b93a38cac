//! Stand-in for `serde`: only the derive macros are named by the crates
//! the benchmark builds, and nothing is serialized through them.

pub use serde_derive::{Deserialize, Serialize};
