//! N2 — the three airline-delay implementations (Section III-A).
//!
//! "Three examples of code are provided which implement different
//! algorithmic choices described in [Monoidify!] ... the usage of
//! MapReduce's combiner, the customized MapReduce's Value classes, and the
//! trade-off in memory and network traffic due to different
//! implementations of the combiner."

use std::fmt;

use hl_cluster::node::ClusterSpec;
use hl_common::counters::TaskCounter;
use hl_common::prelude::*;
use hl_common::units::ByteSize;
use hl_datagen::airline::AirlineGen;
use hl_mapreduce::engine::MrCluster;
use hl_workloads::airline;

use super::Scale;

/// One variant's measurements.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MonoidRow {
    /// v1/v2/v3 label.
    pub name: &'static str,
    /// Records crossing the map→reduce boundary.
    pub shuffle_bytes: u64,
    /// Map output records (pre-combine).
    pub map_output_records: u64,
    /// Peak map-side sort-buffer bytes (the memory axis).
    pub peak_mapper_buffer: usize,
    /// Job time.
    pub elapsed: SimDuration,
    /// Answer spot-check: average delay of carrier "HA".
    pub ha_avg: f64,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct N2Result {
    /// Rows flown.
    pub flights: usize,
    /// v1, v2, v3.
    pub rows: Vec<MonoidRow>,
    /// Ground-truth HA average.
    pub truth_ha_avg: f64,
}

/// Run all three variants on identical data.
pub(crate) fn run(scale: Scale) -> N2Result {
    let flights = scale.pick(40_000, 2_000_000);
    let (csv, truth) = AirlineGen::new(2008).generate(flights);
    let truth_ha_avg = truth.avg_delay("HA").unwrap();

    let mut rows = Vec::new();
    for (name, which) in [("v1-plain", 0), ("v2-combiner", 1), ("v3-in-mapper", 2)] {
        let mut config = Configuration::with_defaults();
        config.set(
            hl_common::config::keys::DFS_BLOCK_SIZE,
            scale.pick(256 * ByteSize::KIB, 64 * ByteSize::MIB),
        );
        let mut c = MrCluster::new(ClusterSpec::course_hadoop(8), config).unwrap();
        c.dfs.namenode.mkdirs("/in").unwrap();
        c.put_input("/in/2008.csv", csv.as_bytes()).unwrap();
        let report = match which {
            0 => c.run_job(&airline::avg_delay_plain("/in/2008.csv", "/out")).unwrap(),
            1 => c.run_job(&airline::avg_delay_combiner("/in/2008.csv", "/out")).unwrap(),
            _ => c.run_job(&airline::avg_delay_inmapper("/in/2008.csv", "/out")).unwrap(),
        };
        let output = c.read_output("/out").unwrap();
        let parsed = airline::parse_output(&output.lines().map(str::to_string).collect::<Vec<_>>());
        rows.push(MonoidRow {
            name,
            shuffle_bytes: report.shuffle_bytes(),
            map_output_records: report.counters.task(TaskCounter::MapOutputRecords),
            peak_mapper_buffer: report.peak_mapper_buffer,
            elapsed: report.elapsed(),
            ha_avg: parsed["HA"],
        });
    }
    N2Result { flights, rows, truth_ha_avg }
}

impl fmt::Display for N2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "N2 — airline average delay, three monoid variants, {} flights", self.flights)?;
        writeln!(
            f,
            "  {:>14}  {:>11}  {:>12}  {:>12}  {:>9}  {:>8}",
            "variant", "shuffle", "map out recs", "peak buffer", "job time", "HA avg"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>14}  {:>11}  {:>12}  {:>12}  {:>9}  {:>8.2}",
                r.name,
                ByteSize::display(r.shuffle_bytes).to_string(),
                r.map_output_records,
                ByteSize::display(r.peak_mapper_buffer as u64).to_string(),
                r.elapsed.to_string(),
                r.ha_avg,
            )?;
        }
        writeln!(f, "  (ground truth HA avg: {:.2})", self.truth_ha_avg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_agree_on_the_answer() {
        let r = run(Scale::Quick);
        for row in &r.rows {
            assert!(
                (row.ha_avg - r.truth_ha_avg).abs() < 0.01,
                "{}: {} vs truth {}",
                row.name,
                row.ha_avg,
                r.truth_ha_avg
            );
        }
    }

    #[test]
    fn traffic_ranking_v1_worst_v3_best() {
        let r = run(Scale::Quick);
        let (v1, v2, v3) = (&r.rows[0], &r.rows[1], &r.rows[2]);
        assert!(
            v1.shuffle_bytes > 8 * v2.shuffle_bytes,
            "{} vs {}",
            v1.shuffle_bytes,
            v2.shuffle_bytes
        );
        assert!(v2.shuffle_bytes >= v3.shuffle_bytes);
        // v3 emits ~carriers-per-task records; v1 emits per flight.
        assert_eq!(v1.map_output_records, r.flights as u64);
        assert!(v3.map_output_records < 2_000);
        // Memory axis: v3's sort buffer stays tiny (state lives in the
        // mapper's own table instead).
        assert!(v3.peak_mapper_buffer < v1.peak_mapper_buffer / 4);
    }
}
