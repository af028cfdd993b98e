//! Average arrival delay per airline — the lab's three implementations.
//!
//! The MapReduce lab walks through "three examples of code ... which
//! implement different algorithmic choices described in [Lin's
//! *Monoidify!*]", emphasizing "the usage of MapReduce's combiner, the
//! customized MapReduce's Value classes, and the trade-off in memory and
//! network traffic":
//!
//! * **V1** [`DelayMapper`]/[`AvgReducer`] — plain: one `(carrier, delay)`
//!   pair per flight; the reducer averages. Maximum shuffle traffic.
//! * **V2** `+ SumCountCombiner` — averages don't combine, so V2
//!   introduces the custom [`SumCount`] value class whose partial sums do.
//! * **V3** [`InMapperDelayMapper`] — in-mapper combining: a per-task
//!   carrier table (bounded: ~20 carriers), flushed in `cleanup`. Least
//!   shuffle, most task memory.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use hl_datagen::airline::parse_carrier_delay;
use hl_mapreduce::api::{Combiner, MapContext, Mapper, ReduceContext, Reducer};
use hl_mapreduce::job::{Job, JobConf};

/// Per-record map CPU for these jobs: splitting a CSV/`::` row, boxing
/// fields, and hash lookups cost a 2013 JVM ~10 µs per record.
pub(crate) const JAVA_PARSE_CPU: hl_common::SimDuration = hl_common::SimDuration::from_micros(10);

use crate::types::SumCount;

/// V1/V2 mapper: `(carrier, SumCount::of(delay))` per flight row.
pub struct DelayMapper;

impl Mapper for DelayMapper {
    type KOut = String;
    type VOut = SumCount;
    fn map(&mut self, _offset: u64, line: &str, ctx: &mut MapContext<String, SumCount>) {
        if let Some((carrier, delay)) = parse_carrier_delay(line) {
            ctx.emit(carrier.to_string(), SumCount::of(delay as f64));
        } else {
            ctx.incr_counter("Airline", "malformed or header rows", 1);
        }
    }
}

/// Folds `SumCount` partials — usable as combiner (V2) and inside the
/// reducer.
pub struct SumCountCombiner;

impl Combiner for SumCountCombiner {
    type K = String;
    type V = SumCount;
    fn combine(
        &mut self,
        _key: &String,
        values: impl IntoIterator<Item = SumCount>,
        out: &mut Vec<SumCount>,
    ) {
        out.push(values.into_iter().fold(SumCount::default(), SumCount::merge));
    }
}

/// Final reducer: merges partials, emits `carrier \t avg` (2 decimals,
/// like the reference solution's `DecimalFormat`).
pub struct AvgReducer;

impl Reducer for AvgReducer {
    type KIn = String;
    type VIn = SumCount;
    fn reduce(
        &mut self,
        key: impl Borrow<String>,
        values: impl IntoIterator<Item = SumCount>,
        ctx: &mut ReduceContext,
    ) {
        let total = values.into_iter().fold(SumCount::default(), SumCount::merge);
        if let Some(mean) = total.mean() {
            ctx.emit(key.borrow(), format!("{mean:.2}"));
        }
    }
}

/// V3 mapper: per-task in-memory partials, emitted in `cleanup`.
#[derive(Default)]
pub struct InMapperDelayMapper {
    table: BTreeMap<String, SumCount>,
}

impl Mapper for InMapperDelayMapper {
    type KOut = String;
    type VOut = SumCount;

    fn map(&mut self, _offset: u64, line: &str, _ctx: &mut MapContext<String, SumCount>) {
        if let Some((carrier, delay)) = parse_carrier_delay(line) {
            let e = self.table.entry(carrier.to_string()).or_default();
            *e = e.merge(SumCount::of(delay as f64));
        }
    }

    fn cleanup(&mut self, ctx: &mut MapContext<String, SumCount>) {
        for (carrier, partial) in std::mem::take(&mut self.table) {
            ctx.emit(carrier, partial);
        }
    }
}

/// V1: plain (no combiner).
pub fn avg_delay_plain(
    input: &str,
    output: &str,
) -> Job<DelayMapper, AvgReducer, hl_mapreduce::api::NoCombiner<String, SumCount>> {
    Job::new(
        JobConf::new("airline-avg-v1-plain")
            .map_cpu_per_record(JAVA_PARSE_CPU)
            .input(input)
            .output(output),
        || DelayMapper,
        || AvgReducer,
    )
}

/// V2: combiner + custom value class.
pub fn avg_delay_combiner(
    input: &str,
    output: &str,
) -> Job<DelayMapper, AvgReducer, SumCountCombiner> {
    Job::with_combiner(
        JobConf::new("airline-avg-v2-combiner")
            .map_cpu_per_record(JAVA_PARSE_CPU)
            .input(input)
            .output(output),
        || DelayMapper,
        || AvgReducer,
        || SumCountCombiner,
    )
}

/// V3: in-mapper combining.
pub fn avg_delay_inmapper(
    input: &str,
    output: &str,
) -> Job<InMapperDelayMapper, AvgReducer, hl_mapreduce::api::NoCombiner<String, SumCount>> {
    Job::new(
        JobConf::new("airline-avg-v3-inmapper")
            .map_cpu_per_record(JAVA_PARSE_CPU)
            .input(input)
            .output(output),
        InMapperDelayMapper::default,
        || AvgReducer,
    )
}

/// Parse `carrier \t avg` output lines into a map.
pub fn parse_output(lines: &[String]) -> BTreeMap<String, f64> {
    lines
        .iter()
        .filter_map(|l| {
            let (k, v) = l.split_once('\t')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_datagen::airline::AirlineGen;
    use hl_mapreduce::api::SideFiles;
    use hl_mapreduce::local::LocalRunner;

    fn expected(truth: &hl_datagen::airline::AirlineTruth) -> BTreeMap<String, f64> {
        truth
            .per_carrier
            .iter()
            .map(|(c, &(n, s))| {
                let mean = s as f64 / n as f64;
                (c.clone(), format!("{mean:.2}").parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn all_three_variants_compute_the_same_averages() {
        let (csv, truth) = AirlineGen::new(31).generate(20_000);
        let inputs = vec![("2008.csv".to_string(), csv.into_bytes())];
        let runner = LocalRunner::serial();
        let want = expected(&truth);

        for (name, lines) in [
            (
                "v1",
                runner
                    .run(&avg_delay_plain("/i", "/o"), &inputs, &SideFiles::new())
                    .unwrap()
                    .output,
            ),
            (
                "v2",
                runner
                    .run(&avg_delay_combiner("/i", "/o"), &inputs, &SideFiles::new())
                    .unwrap()
                    .output,
            ),
            (
                "v3",
                runner
                    .run(&avg_delay_inmapper("/i", "/o"), &inputs, &SideFiles::new())
                    .unwrap()
                    .output,
            ),
        ] {
            assert_eq!(parse_output(&lines), want, "{name}");
        }
    }

    #[test]
    fn header_rows_are_counted_not_crashed() {
        let (csv, _) = AirlineGen::new(1).generate(100);
        let report = LocalRunner::serial()
            .run(
                &avg_delay_plain("/i", "/o"),
                &[("a.csv".to_string(), csv.into_bytes())],
                &SideFiles::new(),
            )
            .unwrap();
        assert_eq!(report.counters.get("Airline", "malformed or header rows"), 1);
    }

    #[test]
    fn shuffle_volume_ranks_v1_over_v2_over_v3() {
        use hl_common::counters::TaskCounter;
        let (csv, _) = AirlineGen::new(8).generate(50_000);
        let inputs = vec![("2008.csv".to_string(), csv.into_bytes())];
        let mut runner = LocalRunner::serial();
        runner.split_bytes = 256 * 1024; // multiple map tasks

        let records = |job_output: &hl_mapreduce::local::LocalReport| {
            job_output.counters.task(TaskCounter::MapOutputRecords)
        };
        let v1 = runner.run(&avg_delay_plain("/i", "/o"), &inputs, &SideFiles::new()).unwrap();
        let v3 = runner.run(&avg_delay_inmapper("/i", "/o"), &inputs, &SideFiles::new()).unwrap();
        // V1 emits per record; V3 emits ~10 carriers per task.
        assert_eq!(records(&v1), 50_000);
        assert!(records(&v3) < 500, "v3 emitted {}", records(&v3));
        // V2 emits like V1 but the combiner collapses before shuffle:
        let v2 = runner.run(&avg_delay_combiner("/i", "/o"), &inputs, &SideFiles::new()).unwrap();
        assert_eq!(records(&v2), 50_000);
        assert!(v2.counters.task(TaskCounter::CombineOutputRecords) < 500);
    }
}
