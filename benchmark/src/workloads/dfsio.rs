//! `dfs-io`: TestDFSIO-style file traffic with no MapReduce. Each
//! iteration formats a fresh DFS and takes eight files through `put`,
//! `read`, `put_compressed(Hlz)` and a transparently decoding `read`, so
//! writes sit beside reads and plain beside codec on the same client,
//! DataNode, checksum and codec layers.

use hl_cluster::network::ClusterNet;
use hl_codec::CodecId;
use hl_common::config::keys;
use hl_common::prelude::*;
use hl_datagen::CorpusGen;
use hl_dfs::Dfs;

use super::{course_cluster, repeat_setup, timed_loop, Body, EndToEnd, Layers, RunConfig, MIB};
use crate::calibrate::Calibrator;
use crate::layers;
use crate::report::Checks;
use crate::spans::Tracer;
use crate::stats;

/// Files per iteration.
const FILES: u64 = 8;
/// Logical bytes per file.
const FILE_BYTES: u64 = 8 * 1024 * 1024;
/// DFS block size: two blocks per file.
const BLOCK_BYTES: u64 = 4 * 1024 * 1024;

/// The generated files and the CRC32 each must read back with.
struct Inputs {
    files: Vec<Vec<u8>>,
    crcs: Vec<u32>,
    generate_s: f64,
}

impl Inputs {
    fn logical_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.len() as u64).sum()
    }
}

fn config(cfg: &RunConfig) -> Configuration {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, cfg.scaled(BLOCK_BYTES, 8 * 1024));
    config.set(keys::DFS_REPLICATION, 3u64);
    config
}

fn setup(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Inputs> {
    let bytes = usize::try_from(cfg.scaled(FILE_BYTES, 16 * 1024)).unwrap_or(usize::MAX);
    let (files, generate_s) = tracer.timed("datagen.corpus", || {
        (0..FILES)
            .map(|i| CorpusGen::new(cfg.seed.wrapping_add(i)).generate_bytes(bytes).0.into_bytes())
            .collect::<Vec<_>>()
    });
    let crcs = files.iter().map(|f| Crc32::checksum(f)).collect();
    // Formatting is part of every iteration; doing it here too keeps
    // `setup_s` covering the same three things on every workload.
    let (formatted, _) =
        tracer.timed("Dfs::format", || Dfs::format(&config(cfg), &course_cluster()));
    formatted?;
    Ok(Inputs { files, crcs, generate_s })
}

/// Host seconds and simulated µs of one iteration's four phases, in the
/// order put, read, put_codec, read_codec.
struct Phases {
    host_s: [f64; 4],
    sim_us: [u64; 4],
    charged_bytes: u64,
    stored_bytes: u64,
}

const PHASE_SPANS: [&str; 4] = ["Dfs::put", "Dfs::read", "Dfs::put_compressed", "Dfs::read(codec)"];

fn iteration(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    inputs: &Inputs,
    i: u32,
    checks: &mut Checks,
) -> Result<Phases> {
    let open = tracer.begin("iteration");
    let spec = course_cluster();
    let (dfs, _) = tracer.timed("Dfs::format", || Dfs::format(&config(cfg), &spec));
    let mut dfs = dfs?;
    let mut net = ClusterNet::new(&spec);
    dfs.namenode.mkdirs("/io")?;
    dfs.namenode.mkdirs("/io-codec")?;

    let mut host_s = [0.0; 4];
    let mut sim_us = [0u64; 4];
    let mut now = SimTime::ZERO;
    for phase in 0..4 {
        let open = tracer.begin(PHASE_SPANS[phase]);
        let started = now;
        for (f, data) in inputs.files.iter().enumerate() {
            let dir = if phase < 2 { "/io" } else { "/io-codec" };
            let path = format!("{dir}/file-{f}");
            now = match phase {
                0 => dfs.put(&mut net, now, &path, data, None)?.completed_at,
                2 => {
                    dfs.put_compressed(&mut net, now, &path, data, None, CodecId::Hlz)?.completed_at
                }
                _ => {
                    let got = dfs.read(&mut net, now, &path, None)?;
                    checks.check(Crc32::checksum(&got.value) == inputs.crcs[f], || {
                        format!("iteration {i}: {path} read back with a different CRC32")
                    });
                    got.completed_at
                }
            };
        }
        host_s[phase] = tracer.end(open);
        sim_us[phase] = now.since(started).as_micros();
    }
    tracer.end(open);
    let snap = dfs.metrics_snapshot(now);
    let stored_bytes = snap.counter_across_daemons("bytes.written");
    Ok(Phases {
        host_s,
        sim_us,
        charged_bytes: stored_bytes
            + snap.counter_across_daemons("bytes.read")
            + net.remote_bytes(),
        stored_bytes,
    })
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Body> {
    let mut layers = Layers::default();
    let mut checks = Checks::default();

    let mut calibrator = Calibrator::new();
    let (inputs, setups) = repeat_setup(cfg, tracer, &mut calibrator, |tracer| setup(cfg, tracer))?;
    let logical = inputs.logical_bytes();
    let moved = logical * 4;
    layers.set_rate("datagen.corpus_mib_s", logical as f64 / MIB, inputs.generate_s);

    let warm = iteration(cfg, tracer, &inputs, 0, &mut checks)?;
    for (name, us) in [
        ("dfs.client.put_sim_us", warm.sim_us[0]),
        ("dfs.client.read_sim_us", warm.sim_us[1]),
        ("dfs.client.put_codec_sim_us", warm.sim_us[2]),
        ("dfs.client.read_codec_sim_us", warm.sim_us[3]),
    ] {
        layers.set(name, us as f64);
    }
    layers.set("dfs.stored_bytes_per_user_byte", warm.stored_bytes as f64 / (logical * 2) as f64);

    let mut phase_s: [Vec<f64>; 4] = Default::default();
    let iterations =
        timed_loop(cfg, cfg.seconds, u32::MAX, tracer, &mut calibrator, |tracer, i| {
            let phases = iteration(cfg, tracer, &inputs, i, &mut checks)?;
            for (all, s) in phase_s.iter_mut().zip(phases.host_s) {
                all.push(s);
            }
            Ok(())
        })?;

    if cfg.traced {
        let mib = logical as f64 / MIB;
        for (name, samples) in [
            ("dfs.client.put_mib_s", &phase_s[0]),
            ("dfs.client.read_mib_s", &phase_s[1]),
            ("dfs.client.put_codec_mib_s", &phase_s[2]),
            ("dfs.client.read_codec_mib_s", &phase_s[3]),
        ] {
            layers.set_rate(name, mib, stats::median(samples));
        }
        let files: Vec<&[u8]> = inputs.files.iter().map(Vec::as_slice).collect();
        layers::checksum(tracer, &mut layers, &files);
        layers::codec(tracer, &mut layers, &files)?;
        layers::network_charges(tracer, &mut layers, &course_cluster(), 300_000);
    }

    Ok(Body {
        end_to_end: EndToEnd {
            setups,
            iterations,
            work_unit: "logical MiB moved",
            work_per_iteration: moved as f64 / MIB,
            sim_makespan_us: warm.sim_us.iter().sum::<u64>() as f64,
            sim_io_bytes_per_input_byte: warm.charged_bytes as f64 / moved as f64,
        },
        layers,
        checks,
    })
}
