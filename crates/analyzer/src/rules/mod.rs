//! The lint rules. Each module owns one or two rule ids; see ANALYSIS.md
//! for the rationale behind every rule and the allowlist policy.

pub mod determinism;
pub mod hygiene;
pub mod panic_path_t;
pub mod panics;
pub mod registry;
