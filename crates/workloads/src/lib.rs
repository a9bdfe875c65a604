//! Workload catalogs and figure scenarios for the *asymshare* evaluation.
//!
//! Everything the benchmark harness needs to regenerate the paper's
//! evaluation: the Figure-1 access-link and file-size catalog
//! ([`catalog`]), ready-made [`SlotSimulator`](asymshare_alloc::SlotSimulator)
//! scenario builders for Figures 5–8 ([`scenarios`]), and small CSV/series
//! utilities ([`series`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod scenarios;
pub mod series;
