//! Platform evolution (Section II) — why the course moved from a VM and a
//! shared dedicated cluster to myHadoop.
//!
//! Three ways a student got a working Hadoop environment, with the course
//! workflow (stage the 12 GB Airline data, run the example job) costed on
//! each:
//!
//! * **Version-1 VM** — pseudo-distributed Hadoop in a VM whose virtual
//!   NIC the supercomputer throttled to ~1 MB/s ("limited the virtual
//!   network connection to roughly 1 MB/s"), plus the X-over-wireless GUI
//!   pain;
//! * **Version-1 dedicated cluster** — instant when idle, but shared by
//!   the whole class: we cost it at the deadline, queueing behind the
//!   class's jobs;
//! * **Version-2+ myHadoop** — a private 8-node cluster after a
//!   provisioning wait.

use std::fmt;

use hl_cluster::resource::PipeResource;
use hl_common::prelude::*;
use hl_common::units::ByteSize;
use hl_provision::{Campus, Session, SessionOutcome, SessionSpec};

use super::Scale;

/// One platform's cost breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformRow {
    /// Platform name.
    pub name: &'static str,
    /// Time to a usable environment.
    pub setup: SimDuration,
    /// Time to stage the lab dataset.
    pub staging: SimDuration,
    /// Time to run the example job once the data is in.
    pub job: SimDuration,
    /// Total.
    pub total: SimDuration,
}

/// The comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformsResult {
    /// Lab dataset size used for staging.
    pub dataset_bytes: u64,
    /// One row per platform.
    pub rows: Vec<PlatformRow>,
}

/// Compare the three platforms on the same student workflow.
pub fn run(scale: Scale) -> PlatformsResult {
    let dataset = scale.pick(4 * ByteSize::GIB, 12 * ByteSize::GIB);

    // --- Version-1 VM: setup was SSH tunnels + GUI-over-wireless (the
    // paper: "a significant amount of time was spent by the students
    // getting the VMs up and running") — modeled at 45 min; staging runs
    // through the 1 MB/s virtual NIC; the job is pseudo-distributed
    // (single node, no cluster parallelism).
    let vm_setup = SimDuration::from_mins(45);
    let mut vm_nic = PipeResource::new("vm-virtual-nic", ByteSize::MIB);
    let vm_staging = vm_nic.charge(SimTime::ZERO, dataset).end.since(SimTime::ZERO);
    let vm_job = SimDuration::for_transfer(dataset, 60 * ByteSize::MIB); // one-node scan
    let vm_total = vm_setup + vm_staging + vm_job;

    // --- Version-1 dedicated cluster at the deadline: the whole class
    // (35-40 students) queues; the cluster ran jobs FIFO. We cost the
    // median student: ~half the class's jobs ahead of them.
    let ded_setup = SimDuration::from_mins(2); // log in, it's already up
    let class_jobs_ahead = 18u64;
    let per_job = SimDuration::for_transfer(dataset, 8 * 120 * ByteSize::MIB) // 8-node scan
        + SimDuration::from_secs(90); // startup + reduce tail
    let ded_staging = SimDuration::for_transfer(dataset, 45 * ByteSize::MIB); // shared source
    let ded_job = per_job * (class_jobs_ahead + 1);
    let ded_total = ded_setup + ded_staging + ded_job;

    // --- myHadoop: a clean provisioning session, then a private cluster.
    let mut campus = Campus::new(16);
    let outcome = Session::new(SessionSpec::diligent("student")).run(&mut campus);
    let my_setup = match outcome {
        SessionOutcome::Success { cluster_up, .. } => cluster_up,
        _ => SimDuration::from_hours(8),
    };
    let my_staging = SimDuration::for_transfer(dataset, 45 * ByteSize::MIB);
    let my_job = per_job; // private: no queue
    let my_total = my_setup + my_staging + my_job;

    PlatformsResult {
        dataset_bytes: dataset,
        rows: vec![
            PlatformRow {
                name: "v1 pseudo-distributed VM (1 MB/s vNIC)",
                setup: vm_setup,
                staging: vm_staging,
                job: vm_job,
                total: vm_total,
            },
            PlatformRow {
                name: "v1 shared dedicated cluster (deadline night)",
                setup: ded_setup,
                staging: ded_staging,
                job: ded_job,
                total: ded_total,
            },
            PlatformRow {
                name: "v2+ myHadoop private cluster",
                setup: my_setup,
                staging: my_staging,
                job: my_job,
                total: my_total,
            },
        ],
    }
}

impl fmt::Display for PlatformsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Platform evolution — stage {} + run the lab job, per platform",
            ByteSize::display(self.dataset_bytes)
        )?;
        writeln!(
            f,
            "  {:<46}  {:>10}  {:>12}  {:>12}  {:>12}",
            "platform", "setup", "staging", "job", "total"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<46}  {:>10}  {:>12}  {:>12}  {:>12}",
                r.name,
                r.setup.to_string(),
                r.staging.to_string(),
                r.job.to_string(),
                r.total.to_string(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn myhadoop_beats_both_version1_options() {
        let r = run(Scale::Quick);
        let vm = &r.rows[0];
        let dedicated = &r.rows[1];
        let myhadoop = &r.rows[2];
        assert!(myhadoop.total < vm.total, "{} vs {}", myhadoop.total, vm.total);
        assert!(myhadoop.total < dedicated.total, "{} vs {}", myhadoop.total, dedicated.total);
        // The VM's killer is staging through the 1 MB/s NIC.
        assert!(vm.staging > vm.setup + vm.job);
        // The dedicated cluster's killer is the deadline queue.
        assert!(dedicated.job > dedicated.staging);
    }

    #[test]
    fn vm_staging_at_paper_scale_is_days() {
        let r = run(Scale::Paper);
        // 12 GB through 1 MB/s ≈ 3.4 hours — for the 171 GB trace it would
        // be days, which is why the option was abandoned.
        assert!(r.rows[0].staging > SimDuration::from_hours(3), "{}", r.rows[0].staging);
    }
}
