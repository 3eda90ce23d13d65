//! # saga-bench
//!
//! The experiment harness regenerating every figure of the paper (see
//! DESIGN.md §5 for the experiment ↔ figure map). Run `cargo run -p
//! saga-bench --bin experiments -- all` for the full row-printing harness.
//! Performance numbers are not its job: those come from `perf-ledger/`.

#![warn(missing_docs)]

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e15;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod report;
pub mod world;

pub use report::{ExperimentResult, Table};
pub use world::{Scale, World};

/// All experiment ids in order.
pub const EXPERIMENTS: [&str; 13] =
    ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e15"];

/// Runs one experiment by id.
pub fn run_experiment(id: &str, scale: Scale) -> Option<ExperimentResult> {
    Some(match id {
        "e1" => e1::run(scale),
        "e2" => e2::run(scale),
        "e3" => e3::run(scale),
        "e4" => e4::run(scale),
        "e5" => e5::run(scale),
        "e6" => e6::run(scale),
        "e7" => e7::run(scale),
        "e8" => e8::run(scale),
        "e9" => e9::run(scale),
        "e10" => e10::run(scale),
        "e11" => e11::run(scale),
        "e12" => e12::run(scale),
        "e15" => e15::run(scale),
        _ => return None,
    })
}
