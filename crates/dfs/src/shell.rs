//! The `hadoop fs` shell surface.
//!
//! Assignment 2 requires students to run and record `hadoop fs` commands;
//! the lab tutorials teach `-ls`, `-mkdir`, `-put`/`-copyFromLocal`,
//! `-get`/`-copyToLocal`, `-cat`, `-rm`/`-rmr`, `-du`, and `fsck`. The
//! shell parses one command line, executes it against a [`Dfs`], and
//! renders output shaped like Hadoop 1.x's.

use hl_cluster::network::ClusterNet;
use hl_common::prelude::*;
use hl_common::units::ByteSize;

use crate::client::Dfs;
use crate::fsck;

/// Result of one shell invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShellOutput {
    /// What would be printed to stdout.
    pub stdout: String,
    /// When the command finished (virtual time).
    pub completed_at: SimTime,
}

/// A "local file system" the shell can stage data in and out of —
/// stand-in for the student's home directory on the login node.
#[derive(Debug, Clone, Default)]
pub struct LocalFs {
    files: std::collections::BTreeMap<String, Vec<u8>>,
}

impl LocalFs {
    /// Empty local FS.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create/overwrite a local file.
    pub fn write(&mut self, path: &str, data: impl Into<Vec<u8>>) {
        self.files.insert(path.to_string(), data.into());
    }

    /// Read a local file.
    pub(crate) fn read(&self, path: &str) -> Result<&[u8]> {
        self.files
            .get(path)
            .map(Vec::as_slice)
            .ok_or_else(|| HlError::FileNotFound(path.to_string()))
    }
}

/// The shell: wraps a DFS, a network, and a local FS.
pub struct DfsShell<'a> {
    /// The file system under test.
    pub dfs: &'a mut Dfs,
    /// The cluster's bandwidth resources.
    pub net: &'a mut ClusterNet,
    /// The login-node local file system.
    pub local: &'a mut LocalFs,
}

impl<'a> DfsShell<'a> {
    /// Run one `hadoop fs <args...>` command line at virtual time `now`.
    ///
    /// Supported: `-ls p`, `-mkdir p`, `-put l p`, `-copyFromLocal l p`,
    /// `-get p l`, `-copyToLocal p l`, `-cat p`, `-rm p`, `-rmr p`,
    /// `-du p`, `-fsck p`, `-setrep n p`, `-report`, `-metrics`,
    /// `-safemode enter|leave|get`, `-recoverLease p`.
    pub fn run(&mut self, now: SimTime, line: &str) -> Result<ShellOutput> {
        let args: Vec<&str> = line.split_whitespace().collect();
        let (cmd, rest) =
            args.split_first().ok_or_else(|| HlError::Config("empty command".into()))?;
        match (*cmd, rest) {
            ("-ls", [path]) => {
                let rows = self.dfs.namenode.list(path)?;
                let mut out = format!("Found {} items\n", rows.len());
                for r in &rows {
                    // drwxr-xr-x   - user group          0 /path
                    out.push_str(&format!(
                        "{}   {} {:>12} {}\n",
                        if r.is_dir { "drwxr-xr-x" } else { "-rw-r--r--" },
                        if r.is_dir { "-".to_string() } else { r.replication.to_string() },
                        r.len,
                        r.path
                    ));
                }
                Ok(ShellOutput { stdout: out, completed_at: now })
            }
            ("-mkdir", [path]) => {
                self.dfs.namenode.mkdirs(path)?;
                Ok(ShellOutput { stdout: String::new(), completed_at: now })
            }
            ("-put" | "-copyFromLocal", [local, path]) => {
                let data = self.local.read(local)?.to_vec();
                let t = self.dfs.put(self.net, now, path, &data, None)?;
                Ok(ShellOutput { stdout: String::new(), completed_at: t.completed_at })
            }
            ("-get" | "-copyToLocal", [path, local]) => {
                let got = self.dfs.read(self.net, now, path, None)?;
                self.local.write(local, got.value);
                Ok(ShellOutput { stdout: String::new(), completed_at: got.completed_at })
            }
            ("-cat", [path]) => {
                let got = self.dfs.read(self.net, now, path, None)?;
                let text = String::from_utf8_lossy(&got.value).into_owned();
                Ok(ShellOutput { stdout: text, completed_at: got.completed_at })
            }
            ("-rm", [path]) => {
                let cmds = self.dfs.namenode.delete(path, false)?;
                self.dfs.apply_commands(self.net, now, &cmds);
                Ok(ShellOutput { stdout: format!("Deleted {path}\n"), completed_at: now })
            }
            ("-rmr", [path]) => {
                let cmds = self.dfs.namenode.delete(path, true)?;
                self.dfs.apply_commands(self.net, now, &cmds);
                Ok(ShellOutput { stdout: format!("Deleted {path}\n"), completed_at: now })
            }
            ("-du", [path]) => {
                let rows = self.dfs.namenode.list(path)?;
                let mut out = String::new();
                for r in &rows {
                    let size =
                        if r.is_dir { self.dfs.namenode.namespace().du(&r.path)? } else { r.len };
                    out.push_str(&format!("{:>12}  {}\n", size, r.path));
                }
                out.push_str(&format!(
                    "total: {}\n",
                    ByteSize::display(self.dfs.namenode.namespace().du(path)?)
                ));
                Ok(ShellOutput { stdout: out, completed_at: now })
            }
            ("-setrep", [n, path]) => {
                let replication: u32 =
                    n.parse().map_err(|_| HlError::Config(format!("bad replication {n:?}")))?;
                self.dfs.namenode.set_replication(path, replication)?;
                // The monitor adds/trims one replica per block per round;
                // waiting four rounds converges any realistic setrep delta.
                let done = now + self.dfs.namenode.heartbeat_interval() * 4;
                self.dfs.advance_to(self.net, done);
                Ok(ShellOutput {
                    stdout: format!("Replication {replication} set: {path}\n"),
                    completed_at: done,
                })
            }
            ("-safemode", [action]) => {
                let nn = &mut self.dfs.namenode;
                let out = match *action {
                    "enter" => {
                        nn.safemode.force_enter();
                        "Safe mode is ON\n".to_string()
                    }
                    "leave" => {
                        nn.safemode.force_leave();
                        "Safe mode is OFF\n".to_string()
                    }
                    "get" => {
                        let (r, e) = nn.block_census();
                        format!("{}\n", nn.safemode.status(r, e))
                    }
                    other => {
                        return Err(HlError::Config(format!(
                            "Usage: -safemode enter|leave|get (got {other:?})"
                        )))
                    }
                };
                Ok(ShellOutput { stdout: out, completed_at: now })
            }
            ("-report", []) => {
                let r = crate::admin::report(self.dfs);
                Ok(ShellOutput { stdout: r.to_string(), completed_at: now })
            }
            ("-metrics", []) => {
                let snap = self.dfs.metrics_snapshot(now);
                let text = hl_metrics::MetricsReport(&snap).to_string();
                Ok(ShellOutput { stdout: text, completed_at: now })
            }
            ("-fsck", [path]) => {
                let report = fsck::fsck(self.dfs, path)?;
                Ok(ShellOutput { stdout: report.to_string(), completed_at: now })
            }
            ("-recoverLease", [path]) => {
                // Starting recovery leaves the lease observable as
                // RECOVERING in fsck; the next lease-monitor tick (any
                // heartbeat round) finalizes the file — the two-step story
                // students can watch happen.
                let out = if self.dfs.namenode.recover_lease(path)? {
                    format!("recoverLease SUCCEEDED on {path}: file is closed\n")
                } else {
                    format!("recoverLease STARTED on {path}: recovery in progress\n")
                };
                Ok(ShellOutput { stdout: out, completed_at: now })
            }
            _ => Err(HlError::Config(format!("unknown or malformed command: {line:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_cluster::node::ClusterSpec;
    use hl_common::config::keys;

    fn setup() -> (Dfs, ClusterNet, LocalFs) {
        let spec = ClusterSpec::course_hadoop(4);
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_BLOCK_SIZE, 512u64);
        (Dfs::format(&config, &spec).unwrap(), ClusterNet::new(&spec), LocalFs::new())
    }

    #[test]
    fn lab_session_transcript() {
        let (mut dfs, mut net, mut local) = setup();
        local.write("wordcount_input.txt", b"hello hadoop hello hdfs\n".to_vec());
        let mut shell = DfsShell { dfs: &mut dfs, net: &mut net, local: &mut local };

        shell.run(SimTime::ZERO, "-mkdir /user/alice/input").unwrap();
        let put = shell
            .run(SimTime::ZERO, "-put wordcount_input.txt /user/alice/input/data.txt")
            .unwrap();

        let ls = shell.run(put.completed_at, "-ls /user/alice/input").unwrap();
        assert!(ls.stdout.contains("Found 1 items"));
        assert!(ls.stdout.contains("/user/alice/input/data.txt"));
        assert!(ls.stdout.contains("-rw-r--r--"));

        let cat = shell.run(put.completed_at, "-cat /user/alice/input/data.txt").unwrap();
        assert_eq!(cat.stdout, "hello hadoop hello hdfs\n");

        let get = shell.run(cat.completed_at, "-get /user/alice/input/data.txt out.txt").unwrap();
        assert_eq!(shell.local.read("out.txt").unwrap(), b"hello hadoop hello hdfs\n");
        let _ = get;

        let du = shell.run(cat.completed_at, "-du /user/alice").unwrap();
        assert!(du.stdout.contains("/user/alice/input"));

        let fsck_out = shell.run(cat.completed_at, "-fsck /").unwrap();
        assert!(fsck_out.stdout.contains("Status: HEALTHY"));

        let rm = shell.run(cat.completed_at, "-rmr /user/alice").unwrap();
        assert!(rm.stdout.contains("Deleted"));
        assert!(shell.run(cat.completed_at, "-ls /user/alice").is_err());
    }

    #[test]
    fn rm_refuses_nonempty_dirs_rmr_removes_them() {
        let (mut dfs, mut net, mut local) = setup();
        local.write("f", b"x".to_vec());
        let mut shell = DfsShell { dfs: &mut dfs, net: &mut net, local: &mut local };
        shell.run(SimTime::ZERO, "-mkdir /d").unwrap();
        shell.run(SimTime::ZERO, "-put f /d/f").unwrap();
        assert!(shell.run(SimTime::ZERO, "-rm /d").is_err());
        shell.run(SimTime::ZERO, "-rmr /d").unwrap();
    }

    #[test]
    fn unknown_commands_and_missing_files_error() {
        let (mut dfs, mut net, mut local) = setup();
        let mut shell = DfsShell { dfs: &mut dfs, net: &mut net, local: &mut local };
        assert!(shell.run(SimTime::ZERO, "-frobnicate /x").is_err());
        assert!(shell.run(SimTime::ZERO, "").is_err());
        assert!(shell.run(SimTime::ZERO, "-cat /nope").is_err());
        assert!(shell.run(SimTime::ZERO, "-put missing.txt /x").is_err());
    }

    #[test]
    fn setrep_up_and_down_converges() {
        let (mut dfs, mut net, mut local) = setup();
        local.write("f", vec![1u8; 600]);
        let mut shell = DfsShell { dfs: &mut dfs, net: &mut net, local: &mut local };
        shell.run(SimTime::ZERO, "-mkdir /d").unwrap();
        shell.run(SimTime::ZERO, "-put f /d/f").unwrap();
        // Down to 2: excess replicas trimmed, four heartbeat rounds later.
        let out = shell.run(SimTime::ZERO, "-setrep 2 /d/f").unwrap();
        assert!(out.stdout.contains("Replication 2 set"));
        assert_eq!(out.completed_at, SimTime::ZERO + SimDuration::from_secs(12));
        for (_, _, holders) in shell.dfs.file_blocks("/d/f").unwrap() {
            assert_eq!(holders.len(), 2);
        }
        // Back up to 4 (on a 4-node cluster): re-replicated.
        shell.run(out.completed_at, "-setrep 4 /d/f").unwrap();
        for (_, _, holders) in shell.dfs.file_blocks("/d/f").unwrap() {
            assert_eq!(holders.len(), 4);
        }
        // Bad args rejected.
        assert!(shell.run(SimTime::ZERO, "-setrep zero /d/f").is_err());
        assert!(shell.run(SimTime::ZERO, "-setrep 0 /d/f").is_err());
        // -report renders.
        let rep = shell.run(SimTime::ZERO, "-report").unwrap();
        assert!(rep.stdout.contains("Datanodes available: 4"));
    }

    #[test]
    fn safemode_admin_commands() {
        let (mut dfs, mut net, mut local) = setup();
        local.write("f", b"x".to_vec());
        let mut shell = DfsShell { dfs: &mut dfs, net: &mut net, local: &mut local };
        let get = shell.run(SimTime::ZERO, "-safemode get").unwrap();
        assert!(get.stdout.contains("Safe mode is OFF"));
        shell.run(SimTime::ZERO, "-safemode enter").unwrap();
        // Mutations refused while on.
        assert!(shell.run(SimTime::ZERO, "-mkdir /x").is_err());
        assert!(shell.run(SimTime::ZERO, "-put f /x").is_err());
        let get = shell.run(SimTime::ZERO, "-safemode get").unwrap();
        assert!(get.stdout.contains("Safe mode is ON"));
        shell.run(SimTime::ZERO, "-safemode leave").unwrap();
        shell.run(SimTime::ZERO, "-mkdir /x").unwrap();
        assert!(shell.run(SimTime::ZERO, "-safemode maybe").is_err());
    }

    #[test]
    fn recover_lease_walks_open_file_to_closed() {
        let (mut dfs, mut net, mut local) = setup();
        dfs.namenode.mkdirs("/d").unwrap();
        // A writer crashes after one 512 B block, leaving /d/open leased.
        dfs.arm_pipeline_fault(crate::client::PipelineFault::CrashWriter { after_blocks: 1 });
        dfs.put(&mut net, SimTime::ZERO, "/d/open", &[7u8; 1200], None).unwrap_err();

        let mut shell = DfsShell { dfs: &mut dfs, net: &mut net, local: &mut local };
        let out = shell.run(SimTime::ZERO, "-fsck /").unwrap();
        assert!(out.stdout.contains("OPEN_FOR_WRITE"));
        assert!(out.stdout.contains("Files open for write:\t1"));

        let started = shell.run(SimTime::ZERO, "-recoverLease /d/open").unwrap();
        assert!(started.stdout.contains("recoverLease STARTED on /d/open"));
        // Recovery is observable before the next lease check finalizes it.
        let out = shell.run(SimTime::ZERO, "-fsck /").unwrap();
        assert!(out.stdout.contains("RECOVERING"));

        dfs.advance_to(&mut net, SimTime(1));
        let mut shell = DfsShell { dfs: &mut dfs, net: &mut net, local: &mut local };
        let done = shell.run(SimTime(1), "-recoverLease /d/open").unwrap();
        assert!(done.stdout.contains("recoverLease SUCCEEDED on /d/open"));
        // Closed at the one confirmed block; content reads back clean.
        let cat = shell.run(SimTime(1), "-cat /d/open").unwrap();
        assert_eq!(cat.stdout.len(), 512);
        assert!(shell.run(SimTime(1), "-recoverLease /nope").is_err());
    }

    #[test]
    fn metrics_verb_renders_the_cluster_report() {
        let (mut dfs, mut net, mut local) = setup();
        local.write("f", vec![1u8; 600]);
        let mut shell = DfsShell { dfs: &mut dfs, net: &mut net, local: &mut local };
        shell.run(SimTime::ZERO, "-mkdir /d").unwrap();
        let put = shell.run(SimTime::ZERO, "-put f /d/f").unwrap();
        let out = shell.run(put.completed_at, "-metrics").unwrap();
        assert!(out.stdout.starts_with("Metrics report at "));
        assert!(out.stdout.contains("Name: namenode"));
        assert!(out.stdout.contains("rpc.add_block"));
        assert!(out.stdout.contains("Name: datanode.node000"));
        assert!(out.stdout.contains("bytes.written"));
        // Malformed invocations are rejected.
        assert!(shell.run(SimTime::ZERO, "-metrics /x").is_err());
    }

    #[test]
    fn deleted_file_blocks_are_invalidated_on_datanodes() {
        let (mut dfs, mut net, mut local) = setup();
        local.write("f", vec![1u8; 600]);
        let mut shell = DfsShell { dfs: &mut dfs, net: &mut net, local: &mut local };
        shell.run(SimTime::ZERO, "-mkdir /d").unwrap();
        shell.run(SimTime::ZERO, "-put f /d/f").unwrap();
        let blocks = shell.dfs.file_blocks("/d/f").unwrap();
        shell.run(SimTime::ZERO, "-rm /d/f").unwrap();
        for (id, _, holders) in blocks {
            for h in holders {
                assert!(!shell.dfs.datanode(h).unwrap().has_block(id));
            }
        }
    }
}
