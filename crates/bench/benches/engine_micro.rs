//! Engine microbenches — real wall-time throughput of the hot paths the
//! HPC guides care about: raw-byte sort/spill, k-way merge, CRC32,
//! line-record reading, partition hashing, the DES event queue, and the
//! rayon-parallel LocalJobRunner's scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hl_cluster::event::EventQueue;
use hl_common::checksum::{ChunkedChecksum, Crc32};
use hl_common::counters::Counters;
use hl_common::hash::default_partition;
use hl_common::keys::SortableKey;
use hl_common::SimTime;
use hl_datagen::corpus::CorpusGen;
use hl_mapreduce::api::{NoCombiner, SideFiles};
use hl_mapreduce::local::LocalRunner;
use hl_mapreduce::merge::merge_groups;
use hl_mapreduce::sortbuf::{SortBuffer, SortedRun};
use hl_mapreduce::split::LineReader;
use hl_workloads::wordcount;

fn bench_crc32(c: &mut Criterion) {
    let data = vec![0xA5u8; 1 << 20];
    let mut group = c.benchmark_group("crc32");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("one_shot_1MiB", |b| {
        b.iter(|| std::hint::black_box(Crc32::checksum(&data)))
    });
    group.bench_function("chunked_512B_1MiB", |b| {
        b.iter(|| std::hint::black_box(ChunkedChecksum::compute(&data, 512)))
    });
    group.finish();
}

fn bench_sortbuf(c: &mut Criterion) {
    let (text, _) = CorpusGen::new(1).with_vocab(5_000).generate(50_000);
    let words: Vec<String> = text.split_whitespace().map(str::to_string).collect();
    let mut group = c.benchmark_group("sortbuf");
    group.throughput(Throughput::Elements(words.len() as u64));
    group.bench_function("collect_sort_spill_50k", |b| {
        b.iter(|| {
            let mut counters = Counters::new();
            let mut buf: SortBuffer<String, u64> = SortBuffer::new(4, 1 << 20);
            for w in &words {
                buf.collect::<NoCombiner<String, u64>>(w, &1, None, &mut counters);
            }
            std::hint::black_box(buf.finish::<NoCombiner<String, u64>>(None, &mut counters))
        })
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let runs: Vec<SortedRun> = (0..8u64)
        .map(|r| {
            SortedRun::from_pairs(
                (0..10_000u64)
                    .map(|i| {
                        let key = format!("key{:06}", (i * 7 + r) % 20_000);
                        (key.ordered_bytes(), i.to_be_bytes().to_vec())
                    })
                    .collect(),
            )
        })
        .collect();
    let mut group = c.benchmark_group("merge");
    group.throughput(Throughput::Elements(80_000));
    // Consume the streaming group merge the way every reduce path does:
    // iterate (key, values) groups over borrowed slices.
    group.bench_function("kway_8x10k", |b| {
        b.iter(|| {
            let mut groups = 0u64;
            let mut bytes = 0u64;
            for (k, vs) in merge_groups(&runs) {
                groups += 1;
                bytes += k.len() as u64;
                for v in &vs {
                    bytes += v.len() as u64;
                }
            }
            std::hint::black_box((groups, bytes))
        })
    });
    group.finish();
}

fn bench_line_reader(c: &mut Criterion) {
    let (text, _) = CorpusGen::new(2).generate(100_000);
    let bytes = text.as_bytes();
    let mut group = c.benchmark_group("line_reader");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("split_scan", |b| {
        b.iter(|| {
            let reader = LineReader::new(None, bytes, bytes.len(), 0);
            std::hint::black_box(reader.count())
        })
    });
    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    let keys: Vec<Vec<u8>> = (0..10_000u32).map(|i| format!("key-{i}").into_bytes()).collect();
    c.bench_function("partition_hash_10k", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for k in &keys {
                acc ^= default_partition(k, 16);
            }
            std::hint::black_box(acc)
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_100k_schedule_pop", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..100_000u64 {
                q.schedule_at(SimTime((i * 2_654_435_761) % 1_000_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc ^= e;
            }
            std::hint::black_box(acc)
        })
    });
}

fn bench_local_runner_scaling(c: &mut Criterion) {
    let (text, _) = CorpusGen::new(3).with_vocab(3_000).generate(200_000);
    let inputs = vec![("corpus.txt".to_string(), text.into_bytes())];
    let job = wordcount::wordcount_combiner("/i", "/o", 2);
    let mut group = c.benchmark_group("local_runner_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let mut runner = LocalRunner::parallel(t);
            runner.split_bytes = 128 * 1024;
            b.iter(|| std::hint::black_box(runner.run(&job, &inputs, &SideFiles::new()).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_crc32,
    bench_sortbuf,
    bench_merge,
    bench_line_reader,
    bench_partition,
    bench_event_queue,
    bench_local_runner_scaling
);
criterion_main!(benches);
