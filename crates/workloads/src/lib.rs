//! # hl-workloads
//!
//! The course's actual MapReduce programs, as described in Section III of
//! the paper — lecture examples and reference solutions to both
//! assignments:
//!
//! * [`wordcount`] — the standard WordCount, WordCount with the reducer as
//!   a combiner, the in-mapper-combining variant, and the "word with the
//!   highest count" assignment-1 (Fall 2012) question;
//! * [`airline`] — average delay per airline in the three algorithmic
//!   variants of Lin's *Monoidify!* lecture: plain, combiner with a custom
//!   value class, and in-mapper combining with per-task state;
//! * [`movielens`] — assignment 1: per-genre descriptive statistics with
//!   the **naive** (side file re-read per record) vs **cached** (read once
//!   in `setup`) join, and the most-active-user question with a custom
//!   output value class;
//! * [`cooccurrence`] — Lin's Pairs-vs-Stripes co-occurrence example (the
//!   lecture notes the course followed);
//! * [`yahoo`] — assignment 2: the album with the highest average rating;
//! * [`google`] — the Fall-2012 trace question: the job with the most task
//!   resubmissions;
//! * [`terasort`] — total-order sort via a range partitioner (the
//!   advanced-lecture optimization beyond combiners);
//! * [`tpcxhs`] — a TPCx-HS-style three-phase suite (hsgen / hssort /
//!   hsvalidate) whose validator job certifies global order and a dataset
//!   checksum; the bench runs it 2×2 across speculation × cluster skew;
//! * [`replay`] — the Google trace replayed as a live multi-tenant
//!   arrival process through the pluggable `Scheduler` policies, with
//!   inline starvation/quota/preemption oracles (`sched-replay` bin);
//! * [`types`] — the custom `Writable` value classes the assignments
//!   require students to implement.
//!
//! Every workload is validated against its generator's exact ground truth
//! in both the `LocalJobRunner` (assignment-1 mode) and the full cluster
//! engine (assignment-2 mode).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod airline;
pub mod cooccurrence;
pub mod google;
pub mod movielens;
pub mod replay;
pub mod terasort;
pub mod tpcxhs;
pub mod types;
pub mod wordcount;
pub mod yahoo;
