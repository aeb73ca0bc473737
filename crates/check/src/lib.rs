//! # muppet-check — the workspace's correctness tooling
//!
//! Three layers (DESIGN.md §12), plus [`loc`], the line accounting every
//! PR reports with (`cargo run -p muppet-check -- loc`):
//!
//! * [`lexer`] + [`rules`] + [`lint`] — a zero-dependency source scanner
//!   with repo-specific deny rules (`no-raw-lock`, `no-unwrap-in-prod`,
//!   `no-wallclock-in-deterministic`, `lock-across-io`), runnable as
//!   `cargo run -p muppet-check -- lint`;
//! * the `lock-audit` feature of `muppet-core::sync` (driven from this
//!   crate's integration tests) — runtime lock-order cycle detection and
//!   IO-under-lock reporting over the real engine;
//! * [`sched`] — a deterministic-seed schedule perturbation harness.
//!   The runtime's `sweep_*` tests run it over the real protocols —
//!   ingest-WAL group commit with the recovery line, single-flight miss
//!   reads, the flush CAS, the in-flight count and the kill race — each
//!   asserted over a thousand interleavings.

pub mod lexer;
pub mod lint;
pub mod loc;
pub mod rules;
pub mod sched;
