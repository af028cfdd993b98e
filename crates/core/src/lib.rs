//! # hl-core
//!
//! The composition layer of HadoopLab. Everything below it is a substrate;
//! this crate puts the pieces together the way the course did and drives
//! **every table and figure** of *Teaching HDFS/MapReduce Systems Concepts
//! to Undergraduates* (Ngo, Apon & Duffy, 2014):
//!
//! * [`experiments::fig1`] — HPC vs Hadoop architecture (Figure 1);
//! * [`experiments::fig2`] — HDFS⇄MapReduce integration & data locality
//!   (Figure 2);
//! * [`experiments::tables`] — the survey Tables I–IV and the Table V
//!   curriculum map;
//! * [`experiments::n1`] … [`experiments::n8`] — the paper's narrative
//!   performance claims (combiner trade-off, monoid variants, side-file
//!   access, serial vs cluster, staging times, the Version-1 meltdown and
//!   recovery, myHadoop provisioning, assignment-1 runtimes);
//! * [`course`] — the module's structure across its four offerings and the
//!   ACM/IEEE PDC outcome mapping.
//!
//! Each experiment exposes `run(scale)` returning a typed, `Display`able
//! result; the `hl-bench` crate's `repro` binary prints them all, and
//! EXPERIMENTS.md records paper-reported vs measured values.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod course;
pub mod experiments;

pub use experiments::Scale;
