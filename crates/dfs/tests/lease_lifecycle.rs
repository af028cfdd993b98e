//! Property test: lease recovery converges from any interleaving of a
//! writer crash, idle time, explicit `recoverLease` calls, and the clock
//! advancing through heartbeat rounds — the file always closes at a
//! consistent, whole-block prefix of what the writer intended, and its
//! bytes read back intact.

use proptest::prelude::*;

use hl_cluster::network::ClusterNet;
use hl_cluster::node::ClusterSpec;
use hl_common::config::keys;
use hl_common::prelude::*;
use hl_dfs::{Dfs, PipelineFault};

const BLOCK: u64 = 1024;

/// `PROPTEST_CASES` lets CI soak the property in release mode.
fn cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(48), ..ProptestConfig::default() })]
    #[test]
    fn lease_recovery_converges_to_a_consistent_prefix(
        after_blocks in 0u32..6,
        len in 1usize..5000,
        actions in proptest::collection::vec(0u8..3, 0..10),
    ) {
        let spec = ClusterSpec::course_hadoop(4);
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_BLOCK_SIZE, BLOCK);
        let mut dfs = Dfs::format(&config, &spec).unwrap();
        let mut net = ClusterNet::new(&spec);
        dfs.namenode.mkdirs("/d").unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
        let total_blocks = len.div_ceil(BLOCK as usize) as u32;

        dfs.arm_pipeline_fault(PipelineFault::CrashWriter { after_blocks });
        let crashed = dfs.put(&mut net, SimTime::ZERO, "/d/f", &data, None).is_err();
        prop_assert_eq!(crashed, after_blocks < total_blocks);

        // Any interleaving of protocol ticks, explicit recovery, and
        // long idle stretches...
        let mut t = SimTime::ZERO;
        for a in actions {
            match a {
                0 => {
                    t += SimDuration::from_secs(30);
                    dfs.advance_to(&mut net, t);
                }
                1 => {
                    let _ = dfs.namenode.recover_lease("/d/f");
                }
                _ => {
                    t += SimDuration::from_secs(400);
                    dfs.advance_to(&mut net, t);
                }
            }
        }
        // ...then mere passage of time must finish the job: the hard
        // limit expires the lease and the next check finalizes the file.
        let mut rounds = 0;
        while !dfs.namenode.open_files().is_empty() {
            t += SimDuration::from_secs(30);
            dfs.advance_to(&mut net, t);
            rounds += 1;
            prop_assert!(rounds < 40, "lease recovery failed to converge");
        }

        let file = dfs.namenode.namespace().file("/d/f").unwrap();
        prop_assert!(file.complete, "lease recovery must close the file");
        let expected = if crashed { u64::from(after_blocks) * BLOCK } else { len as u64 };
        prop_assert_eq!(file.len, expected, "closed at the confirmed whole-block prefix");
        let got = dfs.read(&mut net, t, "/d/f", None).unwrap();
        prop_assert_eq!(got.value.as_slice(), &data[..expected as usize]);
    }
}
