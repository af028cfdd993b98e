//! Reference runs of both course assignments.
//!
//! * Assignment 1 (serial, no HDFS): MovieLens genre statistics with the
//!   naive vs cached side-file join, plus the most-active-user question
//!   with its custom value class.
//! * Assignment 2 (on HDFS): rerun the same jar on the cluster, then the
//!   Yahoo best-album analysis.
//!
//! ```text
//! cargo run --example assignments
//! ```

use hadoop_lab::cluster::node::ClusterSpec;
use hadoop_lab::common::config::{keys, Configuration};
use hadoop_lab::datagen::movielens::MovieLensGen;
use hadoop_lab::datagen::yahoo_music::YahooMusicGen;
use hadoop_lab::mapreduce::api::SideFiles;
use hadoop_lab::mapreduce::engine::MrCluster;
use hadoop_lab::mapreduce::local::LocalRunner;
use hadoop_lab::workloads::{movielens, yahoo};

fn main() {
    // ---------------- Assignment 1: serial, "no HDFS support" ----------
    println!("=== Assignment 1: MovieLens, serial (LocalJobRunner) ===");
    let data = MovieLensGen::new(42).with_sizes(1_000, 500).generate(20_000);
    let inputs = vec![("ratings.dat".to_string(), data.ratings.clone().into_bytes())];
    let mut side = SideFiles::new();
    side.insert("/cache/movies.dat", data.movies.clone().into_bytes());
    let runner = LocalRunner::serial();

    let naive = runner
        .run(&movielens::genre_stats_naive("/i", "/cache/movies.dat", "/o"), &inputs, &side)
        .expect("naive");
    let cached = runner
        .run(&movielens::genre_stats_cached("/i", "/cache/movies.dat", "/o"), &inputs, &side)
        .expect("cached");
    println!("naive side-file access:  {} (virtual)", naive.virtual_time);
    println!("cached side-file object: {} (virtual)", cached.virtual_time);
    println!(
        "-> the assignment's lesson: {:.0}x faster with the cached object\n",
        naive.virtual_time.as_secs_f64() / cached.virtual_time.as_secs_f64()
    );

    let active = runner
        .run(&movielens::most_active_user("/i", "/cache/movies.dat", "/o"), &inputs, &side)
        .expect("part 2");
    println!("most active user (user \\t count \\t favorite genre):");
    println!("  {}", active.output[0]);
    println!("  (ground truth: {:?})\n", data.truth.most_active_user().unwrap());

    // ---------------- Assignment 2: the same jars on HDFS --------------
    println!("=== Assignment 2: rerun on the 8-node cluster + Yahoo albums ===");
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 512 * 1024u64);
    let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(8), config).unwrap();
    cluster.dfs.namenode.mkdirs("/in").unwrap();
    cluster.put_input("/in/ratings.dat", data.ratings.as_bytes()).unwrap();
    cluster.register_side_file("/cache/movies.dat", data.movies.into_bytes());
    let report = cluster
        .run_job(&movielens::genre_stats_cached(
            "/in/ratings.dat",
            "/cache/movies.dat",
            "/out/genres",
        ))
        .expect("cluster job");
    println!(
        "same jar on HDFS: {} (vs {} serial) — \"immediate speedup\"",
        report.elapsed(),
        cached.virtual_time
    );

    let ydata = YahooMusicGen::new(7).generate(50_000);
    cluster.put_input("/in/song_ratings.txt", ydata.ratings.as_bytes()).unwrap();
    cluster.register_side_file("/cache/songs.txt", ydata.songs.into_bytes());
    cluster
        .run_job(&yahoo::best_album("/in/song_ratings.txt", "/cache/songs.txt", "/out/album"))
        .expect("yahoo job");
    let out = cluster.read_output("/out/album").unwrap();
    println!("best album (album \\t avg \\t ratings): {}", out.trim());
    println!("(ground truth: {:?})", ydata.truth.best_album().unwrap());
}
