//! # hl-datagen
//!
//! Seeded synthetic stand-ins for every dataset the course used. The paper
//! datasets are either proprietary, bulky, or both; these generators
//! produce schema-compatible data with **known ground truth**, so each
//! workload's output can be verified exactly, and with the distributional
//! features the experiments depend on (Zipf word skew for combiner
//! effectiveness, per-carrier delay skew, a long-tailed ratings-per-user
//! distribution, task-resubmission storms in the trace).
//!
//! | Paper dataset | Generator | Ground truth exposed |
//! |---|---|---|
//! | Shakespeare / Wikipedia text | [`corpus`] | exact word counts |
//! | Airline on-time (12 GB) | [`airline`] | per-carrier delay sums |
//! | MovieLens 10M (250 MB) | [`movielens`] | genre stats, most-active user |
//! | Yahoo! Music (10 GB) | [`yahoo_music`] | album averages, best album |
//! | Google cluster trace (171 GB) | [`google_trace`] | max-resubmission job |
//! | 29 returned survey forms | [`survey`] | Tables I–IV statistics |
//!
//! All generators are deterministic per seed (ChaCha8) and sized by row
//! count, so tests run at laptop scale while staging experiments model the
//! full published sizes separately (synthetic DFS payloads).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod airline;
pub mod corpus;
pub mod google_trace;
pub mod movielens;
pub mod stats;
pub mod survey;
pub mod yahoo_music;

pub use corpus::CorpusGen;
