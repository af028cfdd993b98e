//! Ablation benches for the design choices DESIGN.md calls out:
//! Pairs vs Stripes, speculative execution on/off under a straggler,
//! replication-factor staging cost, and block-size sweep for job time.
//! Each prints its comparison table once, then times the cheapest arm so
//! `cargo bench` records both the ablation data and harness overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use hl_cluster::node::{ClusterSpec, DegradeModel, PerfProfile};
use hl_common::config::{keys, Configuration};
use hl_common::counters::TaskCounter;
use hl_common::prelude::*;
use hl_common::units::ByteSize;
use hl_datagen::corpus::CorpusGen;
use hl_dfs::client::Dfs;
use hl_mapreduce::api::SideFiles;
use hl_mapreduce::engine::MrCluster;
use hl_mapreduce::local::LocalRunner;
use hl_workloads::{cooccurrence, wordcount};

fn cluster_with(block: u64) -> MrCluster {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, block);
    MrCluster::new(ClusterSpec::course_hadoop(8), config).unwrap()
}

fn stage(c: &mut MrCluster, path: &str, text: &str) {
    c.dfs.namenode.mkdirs("/in").unwrap();
    let t = c.now;
    let put = c.dfs.put(&mut c.net, t, path, text.as_bytes(), None).unwrap();
    c.now = put.completed_at;
}

fn ablation_pairs_vs_stripes(c: &mut Criterion) {
    let (text, _) = CorpusGen::new(77).with_vocab(400).generate(30_000);
    let inputs = vec![("c.txt".to_string(), text.into_bytes())];
    let runner = LocalRunner::serial();
    let p = runner.run(&cooccurrence::pairs("/i", "/o", 2), &inputs, &SideFiles::new()).unwrap();
    let s = runner.run(&cooccurrence::stripes("/i", "/o", 2), &inputs, &SideFiles::new()).unwrap();
    println!("ablation: pairs vs stripes (30k-word Zipf corpus)");
    println!(
        "  pairs:   {:>9} map records  {:>10} map bytes  {}",
        p.counters.task(TaskCounter::MapOutputRecords),
        p.counters.task(TaskCounter::MapOutputBytes),
        p.virtual_time
    );
    println!(
        "  stripes: {:>9} map records  {:>10} map bytes  {}",
        s.counters.task(TaskCounter::MapOutputRecords),
        s.counters.task(TaskCounter::MapOutputBytes),
        s.virtual_time
    );
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.bench_function("pairs_vs_stripes_stripes_arm", |b| {
        b.iter(|| {
            std::hint::black_box(
                runner
                    .run(&cooccurrence::stripes("/i", "/o", 2), &inputs, &SideFiles::new())
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn ablation_speculation(c: &mut Criterion) {
    let (text, _) = CorpusGen::new(5).with_vocab(300).generate(60_000);
    let run_with = |speculative: bool| {
        // Two map slots per node so the straggler node is guaranteed work.
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_BLOCK_SIZE, 16 * 1024u64);
        config.set(keys::MAPRED_MAP_SLOTS, 2);
        let mut cl = MrCluster::new(ClusterSpec::course_hadoop(8), config).unwrap();
        // The 40x straggler: CPU, local disk and NIC at 2.5% of nominal.
        cl.net.set_node_model(NodeId(7), DegradeModel::Static(PerfProfile::uniform(250)));
        stage(&mut cl, "/in/c.txt", &text);
        let mut job = wordcount::wordcount("/in/c.txt", "/out", 2);
        job.conf.speculative = speculative;
        cl.run_job(&job).unwrap().elapsed()
    };
    let without = run_with(false);
    let with = run_with(true);
    println!("ablation: speculative execution under a 40x straggler");
    println!("  speculation off: {without}");
    println!("  speculation on:  {with}");
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.bench_function("speculation_on_arm", |b| b.iter(|| std::hint::black_box(run_with(true))));
    group.finish();
}

fn ablation_replication_staging(c: &mut Criterion) {
    println!("ablation: staging 4 GiB at replication 1/2/3 (8-node cluster)");
    let run_with = |replication: u32| {
        let spec = ClusterSpec::course_hadoop(8);
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_REPLICATION, replication);
        let mut dfs = Dfs::format(&config, &spec).unwrap();
        let mut net = hl_cluster::network::ClusterNet::new(&spec);
        dfs.namenode.mkdirs("/d").unwrap();
        let put =
            dfs.put_synthetic(&mut net, SimTime::ZERO, "/d/set", 4 * ByteSize::GIB, None).unwrap();
        put.completed_at.since(SimTime::ZERO)
    };
    for r in [1u32, 2, 3] {
        println!("  replication {r}: {}", run_with(r));
    }
    c.bench_function("ablation/staging_repl3_arm", |b| {
        b.iter(|| std::hint::black_box(run_with(3)))
    });
}

fn ablation_block_size(c: &mut Criterion) {
    let (text, _) = CorpusGen::new(6).with_vocab(300).generate(80_000);
    println!("ablation: block size vs job time (same data, 8 nodes)");
    let run_with = |block: u64| {
        let mut cl = cluster_with(block);
        stage(&mut cl, "/in/c.txt", &text);
        cl.run_job(&wordcount::wordcount_combiner("/in/c.txt", "/out", 2)).unwrap().elapsed()
    };
    for block in [4 * ByteSize::KIB, 32 * ByteSize::KIB, 256 * ByteSize::KIB] {
        println!("  {:>10}: {}", ByteSize::display(block).to_string(), run_with(block));
    }
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.bench_function("block_size_256k_arm", |b| {
        b.iter(|| std::hint::black_box(run_with(256 * ByteSize::KIB)))
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_pairs_vs_stripes,
    ablation_speculation,
    ablation_replication_staging,
    ablation_block_size
);
criterion_main!(benches);
