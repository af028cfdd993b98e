//! Property test: the DFS protocol is a function of the clock.
//!
//! Heartbeats, the dead-node sweep, re-replication and the lease monitor
//! run in rounds on multiples of the heartbeat interval, whoever advances
//! the clock and in how many steps. A drawn cluster life (a dead DataNode,
//! a crashed writer, a changed replication factor) reached through any
//! drawn sequence of `advance_to` calls, in any order, ends in the state
//! one `advance_to` of the same instant reaches; and once there, an
//! `advance_to` behind the last round changes nothing.

use proptest::prelude::*;

use hl_cluster::network::ClusterNet;
use hl_cluster::node::ClusterSpec;
use hl_common::config::keys;
use hl_common::prelude::*;
use hl_dfs::lease::Lease;
use hl_dfs::{Dfs, PipelineFault};
use hl_metrics::MetricsRegistry;

const NODES: u32 = 5;
const BLOCK: u64 = 1024;

/// `PROPTEST_CASES` lets CI soak the property in release mode.
fn cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases)
}

/// A five-node DFS with a 60 s dead-node timeout, one complete file at
/// replication `replication`, one file a writer abandoned after
/// `after_blocks` blocks, and DataNode `victim` crashed (none when it is
/// out of range).
fn drawn_life(len: usize, replication: u32, after_blocks: u32, victim: u32) -> (Dfs, ClusterNet) {
    let spec = ClusterSpec::course_hadoop(NODES as usize);
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, BLOCK);
    config.set(keys::DFS_HEARTBEAT_DEAD_AFTER, 20u64);
    let mut dfs = Dfs::format(&config, &spec).unwrap();
    let mut net = ClusterNet::new(&spec);
    dfs.namenode.mkdirs("/d").unwrap();
    let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    let put = dfs.put(&mut net, SimTime::ZERO, "/d/f", &data, None).unwrap();
    dfs.namenode.set_replication("/d/f", replication).unwrap();
    dfs.arm_pipeline_fault(PipelineFault::CrashWriter { after_blocks });
    let _ = dfs.put(&mut net, put.completed_at, "/d/open", &[7u8; 4 * BLOCK as usize], None);
    if victim < NODES {
        dfs.crash_datanode(NodeId(victim));
    }
    (dfs, net)
}

/// Everything the protocol can change, read at `at`. Each pipe's backlog
/// from time zero is the instant it frees up, so a copy charged at another
/// instant shows.
fn observed(dfs: &mut Dfs, net: &ClusterNet, at: SimTime) -> impl PartialEq + std::fmt::Debug {
    let replicas: Vec<_> =
        dfs.datanode_ids().into_iter().map(|n| dfs.datanode(n).unwrap().block_report()).collect();
    let open: Vec<Lease> = dfs.namenode.open_files().into_iter().cloned().collect();
    let mut pipes = MetricsRegistry::new();
    net.export_metrics(SimTime::ZERO, &mut pipes);
    (
        dfs.metrics_snapshot(at),
        pipes.snapshot(at),
        dfs.namenode.block_census(),
        dfs.namenode.under_replicated(),
        dfs.namenode.live_datanodes(),
        open,
        replicas,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(64), ..ProptestConfig::default() })]

    #[test]
    fn the_protocol_is_a_function_of_the_clock(
        len in 1usize..6000,
        replication in 1u32..5,
        after_blocks in 0u32..5,
        victim in 0u32..(NODES + 2),
        horizon_s in 0u64..500,
        splits in proptest::collection::vec(any::<u64>(), 0..12),
        back in any::<u64>(),
    ) {
        let t = SimTime::ZERO + SimDuration::from_micros(horizon_s * 1_000_000 + 123);
        let (mut stepped, mut stepped_net) = drawn_life(len, replication, after_blocks, victim);
        for s in &splits {
            stepped.advance_to(&mut stepped_net, SimTime(s % (t.0 + 1)));
        }
        stepped.advance_to(&mut stepped_net, t);
        let (mut once, mut once_net) = drawn_life(len, replication, after_blocks, victim);
        once.advance_to(&mut once_net, t);
        let reached = observed(&mut once, &once_net, t);
        prop_assert_eq!(&observed(&mut stepped, &stepped_net, t), &reached);

        // Behind the last round (or at the instant already reached): no-op.
        once.advance_to(&mut once_net, SimTime(back % (t.0 + 1)));
        once.advance_to(&mut once_net, t);
        prop_assert_eq!(&observed(&mut once, &once_net, t), &reached);
    }
}
