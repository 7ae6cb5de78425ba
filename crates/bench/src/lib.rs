//! Reproduction harness for the HER evaluation (§VII).
//!
//! Each table and figure of the paper has a function here that regenerates
//! it from the dataset emulators; the `reproduce` binary prints them.
//! Absolute numbers differ from the paper (different hardware, emulated
//! data); the *shapes* — who wins, what grows with which parameter — are
//! the reproduction target (see EXPERIMENTS.md). Time is measured in one
//! place only, `crates/her-benchmark`.

pub mod figures;
pub mod harness;
pub mod report;
pub mod tables;
