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
//! * [`sched`] + [`models`] — a deterministic-seed schedule perturbation
//!   harness and small executable models of the repo's three hairiest
//!   lock protocols (ingest-WAL group commit, single-flight miss reads,
//!   flush-CAS vs concurrent mutation), each asserted over thousands of
//!   interleavings.

pub mod lexer;
pub mod lint;
pub mod loc;
pub mod models;
pub mod rules;
pub mod sched;
