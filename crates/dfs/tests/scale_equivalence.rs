//! Equivalence properties for the scalable NameNode protocols.
//!
//! Two claims keep the fast paths honest:
//!
//! 1. **Incremental + periodic full reports ≡ full reports only.** A
//!    NameNode fed only deltas (with occasional anti-entropy full
//!    reports) must converge to exactly the state a NameNode fed one
//!    final full report per node reaches — same locations, same census,
//!    same replication queues.
//! 2. **Fsimage + edit-log tail ≡ full journal replay ≡ the pre-crash
//!    state.** A NameNode that checkpoints aggressively (short tails) and
//!    one that never checkpoints (restart applies every op since format)
//!    must recover identical metadata from the same op sequence, and it
//!    must be the metadata they held before the crash.

use proptest::prelude::*;

use hl_common::config::keys;
use hl_common::prelude::*;
use hl_dfs::block::{IncrementalBlockReport, ReplicaMeta};
use hl_dfs::fsimage::FsImage;
use hl_dfs::namenode::NameNode;
use hl_dfs::BlockId;

fn node(i: usize) -> NodeId {
    NodeId(u32::try_from(i).unwrap_or(u32::MAX))
}

/// A NameNode with `nodes` registered DataNodes, safe mode already
/// satisfied, and `files` two-block files in `/eq`.
fn seeded_namenode(nodes: usize, files: usize, checkpoint_ops: u64) -> (NameNode, Vec<BlockId>) {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 1024u64);
    config.set(keys::DFS_SAFEMODE_EXTENSION_SECS, 0u64);
    config.set(keys::DFS_CHECKPOINT_OPS, checkpoint_ops);
    let mut nn = NameNode::new(&config, Topology::striped(nodes, 4)).unwrap();
    for i in 0..nodes {
        nn.register_datanode(SimTime::ZERO, node(i), u64::MAX / 2);
    }
    nn.safemode.update(SimTime::ZERO, 0, 0);
    let mut ids = Vec::new();
    nn.mkdirs("/eq").unwrap();
    for f in 0..files {
        let path = format!("/eq/f{f}");
        nn.create_file(SimTime::ZERO, &path, Some(3), None, "writer").unwrap();
        for _ in 0..2 {
            let (id, _) = nn.add_block(SimTime::ZERO, &path, 512, None).unwrap();
            ids.push(id);
        }
        nn.complete_file(&path).unwrap();
    }
    (nn, ids)
}

/// Everything two equivalent NameNodes must agree on.
fn replication_state(nn: &NameNode, ids: &[BlockId]) -> impl PartialEq + std::fmt::Debug {
    (
        ids.iter().map(|&id| nn.block_locations(id)).collect::<Vec<_>>(),
        nn.block_census(),
        nn.under_replicated(),
        nn.missing_blocks(),
        nn.block_manifest(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(64), ..ProptestConfig::default() })]

    /// Claim 1: drive one NameNode with per-step deltas (plus a periodic
    /// full report as anti-entropy), drive its twin with nothing but one
    /// final full report per node, and the replication state converges.
    #[test]
    fn incremental_plus_periodic_full_equals_full_only(
        nodes in 3usize..7,
        files in 1usize..4,
        steps in proptest::collection::vec((0usize..7, any::<u64>()), 1..24),
    ) {
        let (mut nn_inc, ids) = seeded_namenode(nodes, files, 0);
        let (mut nn_full, _) = seeded_namenode(nodes, files, 0);

        // Ground truth: which blocks each node really holds.
        let mut held: Vec<Vec<bool>> = vec![vec![false; ids.len()]; nodes];
        let mut t = SimTime::ZERO;
        for (step, &(node_pick, bits)) in steps.iter().enumerate() {
            t += SimDuration::from_secs(1);
            let n = node_pick % nodes;
            // Flip a pseudo-random subset of the node's replicas and ship
            // the flips as one delta report.
            let mut delta = IncrementalBlockReport::default();
            for (b, &id) in ids.iter().enumerate() {
                if bits >> (b % 64) & 1 == 0 {
                    continue;
                }
                if held[n][b] {
                    held[n][b] = false;
                    delta.deleted.push(id);
                } else {
                    held[n][b] = true;
                    let meta = nn_inc.block(id).unwrap();
                    delta.received.push(ReplicaMeta {
                        id,
                        len: meta.len,
                        gen_stamp: meta.gen_stamp,
                    });
                }
            }
            nn_inc.process_incremental_report(t, node(n), &delta);
            // Periodic anti-entropy: every third step one node sends a
            // full report; it must not perturb already-correct state.
            if step % 3 == 2 {
                let full = full_report(&nn_inc, &ids, &held[n]);
                nn_inc.process_block_report(t, node(n), &full);
            }
        }

        // The full-report-only twin hears the end state once per node.
        for (n, held_by_node) in held.iter().enumerate() {
            let full = full_report(&nn_full, &ids, held_by_node);
            nn_full.process_block_report(t, node(n), &full);
        }

        prop_assert_eq!(replication_state(&nn_inc, &ids), replication_state(&nn_full, &ids));
    }
}

fn full_report(nn: &NameNode, ids: &[BlockId], held: &[bool]) -> Vec<ReplicaMeta> {
    ids.iter()
        .zip(held)
        .filter(|(_, &h)| h)
        .map(|(&id, _)| {
            let meta = nn.block(id).unwrap();
            ReplicaMeta { id, len: meta.len, gen_stamp: meta.gen_stamp }
        })
        .collect()
}

/// `PROPTEST_CASES` lets the CI fuzz job soak both claims much harder than
/// a developer `cargo test` does.
fn cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases)
}

/// Everything a restart must recover: namespace, the block manifest
/// (`(id, len, expected_replication, gen_stamp)` per block), `(path,
/// holder)` per lease, and both allocation marks (read off the image a
/// checkpoint of a copy writes — they have no accessor).
fn durable(nn: &NameNode) -> impl PartialEq + std::fmt::Debug {
    let leases: Vec<(String, String)> =
        nn.open_files().iter().map(|l| (l.path.clone(), l.holder.clone())).collect();
    let mut copy = nn.clone();
    copy.checkpoint();
    let image = FsImage::from_bytes(copy.fsimage_bytes()).unwrap();
    (nn.namespace().clone(), nn.block_manifest(), leases, image.next_block_id, image.next_gen_stamp)
}

/// One step of a NameNode life: `(kind, dir, file, other dir, small
/// number)` over three directories of two files, so steps collide —
/// renames land on open files, deletes on directories holding them.
/// Writes are drawn more often than deletes so files live long enough to
/// be renamed, re-stamped and recovered.
type Step = (u8, usize, usize, usize, u32);

/// Run `step`; `true` when the NameNode accepted it. Twins fed the same
/// steps must agree on that.
fn run_step(nn: &mut NameNode, t: SimTime, (kind, d, f, d2, x): Step) -> bool {
    let (dir, file) = (format!("/d{d}"), format!("/d{d}/f{f}"));
    match kind {
        0 => nn.mkdirs(&dir).is_ok(),
        1..=3 => nn.create_file(t, &file, Some(x % 3 + 1), None, &format!("writer{x}")).is_ok(),
        // Half the blocks get confirmed replicas; lease recovery abandons
        // the rest.
        4..=7 => nn.add_block(t, &file, 100 + u64::from(x), None).is_ok_and(|(id, targets)| {
            for n in targets.into_iter().filter(|_| x % 2 == 0) {
                nn.block_received(t, n, id);
            }
            true
        }),
        8 => nn.complete_file(&file).is_ok(),
        9 => nn.rename(&dir, &format!("/d{d2}")).is_ok(),
        10 => nn.rename(&file, &format!("/d{d2}/f{}", x % 2)).is_ok(),
        11 => nn.set_replication(&file, x % 3 + 1).is_ok(),
        12 | 13 => {
            let last = nn.namespace().file(&file).ok().and_then(|f| f.blocks.last().copied());
            last.is_some_and(|id| nn.bump_gen_stamp(t, &file, id).is_ok())
        }
        14 => nn.set_file_codec(&file, hl_codec::CodecId::Hlz).is_ok(),
        15 => nn.delete(&dir, true).is_ok(),
        16 => nn.delete(&file, false).is_ok(),
        _ => {
            let open = nn.recover_lease(&file) == Ok(false);
            nn.check_leases(t);
            open
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(64), ..ProptestConfig::default() })]

    /// Claim 2: the same life — every journaled op kind, directory renames
    /// and recursive deletes over open files, lease-recovery abandons —
    /// recovers identically whether restart loads a recent fsimage and
    /// applies a short tail (checkpoint every few ops) or applies the whole
    /// journal to the format image (checkpointing disabled), and what it
    /// recovers is what the NameNode held before the crash. Runs the same
    /// in dev and release.
    #[test]
    fn fsimage_plus_tail_equals_full_replay(
        checkpoint_ops in 1u64..6,
        steps in proptest::collection::vec((0u8..20, 0usize..3, 0usize..2, 0usize..3, 0u32..6), 8..96),
    ) {
        let (mut nn_ckpt, _) = seeded_namenode(4, 0, checkpoint_ops);
        let (mut nn_replay, _) = seeded_namenode(4, 0, 0);
        let mut t = SimTime(1);
        // Two directories and an open file with a block, so the drawn
        // steps find something to act on from the start.
        let prelude = [(0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 1), (4, 0, 0, 0, 0)];
        for &step in prelude.iter().chain(&steps) {
            t += SimDuration::from_secs(1);
            prop_assert_eq!(run_step(&mut nn_ckpt, t, step), run_step(&mut nn_replay, t, step));
        }
        prop_assert!(
            nn_ckpt.fsimage_bytes() != nn_replay.fsimage_bytes(),
            "the checkpointing NameNode must actually have written an image"
        );
        let before = durable(&nn_ckpt);
        prop_assert_eq!(&durable(&nn_replay), &before);

        nn_ckpt.restart(t).unwrap();
        nn_replay.restart(t).unwrap();

        // Identical namespace, block metadata, leases and allocation marks
        // — however much of the journey came from the image vs. the
        // journal — and nothing the crash could lose was lost.
        prop_assert_eq!(&durable(&nn_ckpt), &before);
        prop_assert_eq!(&durable(&nn_replay), &before);
        prop_assert_eq!(nn_ckpt.block_census().0, 0, "locations are not durable");

        // Both recover the same world once DataNodes report back in.
        let ids: Vec<BlockId> = nn_ckpt.block_manifest().iter().map(|&(id, ..)| id).collect();
        for i in 0..4 {
            let held: Vec<bool> = ids.iter().map(|id| id.0 % 4 != i).collect();
            let report = full_report(&nn_ckpt, &ids, &held);
            let n = node(usize::try_from(i).unwrap_or(0));
            for nn in [&mut nn_ckpt, &mut nn_replay] {
                nn.register_datanode(t, n, u64::MAX / 2);
                nn.process_block_report(t, n, &report);
            }
        }
        prop_assert_eq!(replication_state(&nn_ckpt, &ids), replication_state(&nn_replay, &ids));
    }
}
