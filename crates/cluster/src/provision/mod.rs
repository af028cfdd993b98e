//! The myHadoop analog: "the modifications on the myHadoop scripts allow
//! instructors to take advantage of a centralized shared computing
//! resource to allow students to set up individual Hadoop clusters."
//!
//! A [`Session`] walks the exact step sequence the course's submission
//! script encoded — reserve nodes, configure paths, format the NameNode,
//! start daemons (bind their ports), health-check, run the job, export
//! output, tear down — over the shared [`Campus`] state (batch scheduler +
//! port registry). Every failure mode Section II-B narrates is
//! reproducible: wrong `HADOOP_HOME`/data/log paths, ghost daemons
//! blocking ports, the 15-minute cleanup wait, walltime expiry, and the
//! unsupported persistent-storage mode (Palmetto's parallel store had no
//! file locking).

mod campus;
mod session;

pub use campus::Campus;
pub use session::{Session, SessionOutcome, SessionSpec};
