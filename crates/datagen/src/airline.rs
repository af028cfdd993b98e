//! Airline on-time performance data — the 12 GB ASA Data Expo stand-in.
//!
//! The course's main lab dataset: "a reasonable size (12GB) with a
//! straightforward single-table data schematic". Rows follow the Data
//! Expo 2009 column layout (the subset the workloads touch), carriers have
//! distinct delay distributions (so "average delay per airline" has a
//! meaningful answer), and exact per-carrier ground truth is returned with
//! the data.

use std::collections::BTreeMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The carriers we synthesize, with (mean arrival delay, spread) minutes —
/// loosely shaped like the 2008 Data Expo reality (everyone is late, some
/// more than others).
const CARRIERS: [(&str, f64, f64); 10] = [
    ("AA", 9.5, 28.0),
    ("AQ", 1.2, 12.0),
    ("B6", 11.8, 33.0),
    ("CO", 8.0, 26.0),
    ("DL", 7.1, 25.0),
    ("EV", 13.4, 35.0),
    ("HA", -1.5, 10.0),
    ("NW", 5.9, 24.0),
    ("UA", 10.6, 30.0),
    ("WN", 4.8, 20.0),
];

/// Airports for origin/dest columns.
const AIRPORTS: [&str; 12] =
    ["ATL", "ORD", "DFW", "DEN", "LAX", "CLT", "PHX", "IAH", "SFO", "SEA", "GSP", "CAE"];

/// CSV header matching the Data Expo subset we emit.
const HEADER: &str =
    "Year,Month,DayofMonth,DayOfWeek,DepTime,UniqueCarrier,FlightNum,ArrDelay,DepDelay,Origin,Dest,Distance";

/// Exact ground truth accumulated while generating.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AirlineTruth {
    /// Per-carrier `(flights, total arrival delay minutes)`.
    pub per_carrier: BTreeMap<String, (u64, i64)>,
}

impl AirlineTruth {
    /// Average arrival delay for a carrier.
    pub fn avg_delay(&self, carrier: &str) -> Option<f64> {
        self.per_carrier.get(carrier).map(|&(n, sum)| sum as f64 / n as f64)
    }

    /// Carrier with the lowest average delay.
    pub fn best_carrier(&self) -> Option<(&str, f64)> {
        self.per_carrier
            .iter()
            .map(|(c, &(n, s))| (c.as_str(), s as f64 / n as f64))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// The generator.
#[derive(Debug, Clone)]
pub struct AirlineGen {
    seed: u64,
    /// Emit the CSV header line first (the real file has one; the course
    /// examples skip it by checking for non-numeric fields).
    pub with_header: bool,
}

impl AirlineGen {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        AirlineGen { seed, with_header: true }
    }

    /// Generate `rows` flights plus ground truth.
    pub fn generate(&self, rows: usize) -> (String, AirlineTruth) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut out = String::with_capacity(rows * 60);
        if self.with_header {
            out.push_str(HEADER);
            out.push('\n');
        }
        let mut truth = AirlineTruth::default();
        for _ in 0..rows {
            let (carrier, mean, spread) = CARRIERS[rng.gen_range(0..CARRIERS.len())];
            // Skewed delay: mostly near the mean, occasional big blowups —
            // a crude two-component mixture.
            let base: f64 = rng.gen_range(-1.0..1.0) * spread + mean;
            let delay = if rng.gen_bool(0.02) { base + rng.gen_range(60.0..240.0) } else { base };
            let arr_delay = delay.round() as i64;
            let dep_delay = (delay * rng.gen_range(0.5..1.0)).round() as i64;
            let month = rng.gen_range(1..=12u32);
            let day = rng.gen_range(1..=28u32);
            let dow = rng.gen_range(1..=7u32);
            let dep_time = rng.gen_range(500..2359u32);
            let flight = rng.gen_range(1..=9999u32);
            let o = AIRPORTS[rng.gen_range(0..AIRPORTS.len())];
            let mut d = AIRPORTS[rng.gen_range(0..AIRPORTS.len())];
            if d == o {
                d = AIRPORTS[(AIRPORTS.iter().position(|&a| a == o).unwrap() + 1) % AIRPORTS.len()];
            }
            let dist = rng.gen_range(100..2700u32);
            out.push_str(&format!(
                "2008,{month},{day},{dow},{dep_time},{carrier},{flight},{arr_delay},{dep_delay},{o},{d},{dist}\n"
            ));
            let e = truth.per_carrier.entry(carrier.to_string()).or_insert((0, 0));
            e.0 += 1;
            e.1 += arr_delay;
        }
        (out, truth)
    }
}

/// Parse one data row into `(carrier, arr_delay)`; returns `None` for the
/// header or malformed rows — the same tolerant parse the example
/// MapReduce code uses.
pub fn parse_carrier_delay(line: &str) -> Option<(&str, i64)> {
    let mut fields = line.split(',');
    let carrier = fields.nth(5)?;
    let arr_delay = fields.nth(1)?; // field 7
    arr_delay.parse().ok().map(|d| (carrier, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_matches_reparse() {
        let (csv, truth) = AirlineGen::new(11).generate(5_000);
        let mut recount: BTreeMap<String, (u64, i64)> = BTreeMap::new();
        for line in csv.lines() {
            if let Some((c, d)) = parse_carrier_delay(line) {
                let e = recount.entry(c.to_string()).or_insert((0, 0));
                e.0 += 1;
                e.1 += d;
            }
        }
        assert_eq!(recount, truth.per_carrier);
        assert_eq!(recount.values().map(|v| v.0).sum::<u64>(), 5_000);
    }

    #[test]
    fn header_is_skipped_by_parser() {
        assert_eq!(parse_carrier_delay(HEADER), None);
        assert_eq!(parse_carrier_delay("junk"), None);
        assert_eq!(parse_carrier_delay("2008,1,2,3,900,DL,123,-4,0,ATL,ORD,600"), Some(("DL", -4)));
    }

    #[test]
    fn carriers_have_distinct_averages() {
        let (_, truth) = AirlineGen::new(5).generate(50_000);
        assert_eq!(truth.per_carrier.len(), 10);
        let ha = truth.avg_delay("HA").unwrap();
        let ev = truth.avg_delay("EV").unwrap();
        assert!(ha < ev, "HA ({ha:.1}) should beat EV ({ev:.1})");
        let (best, avg) = truth.best_carrier().unwrap();
        assert_eq!(best, "HA");
        assert!(avg < 8.0, "best avg {avg:.1}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = AirlineGen::new(9).generate(100).0;
        let b = AirlineGen::new(9).generate(100).0;
        assert_eq!(a, b);
        assert_ne!(a, AirlineGen::new(10).generate(100).0);
    }

    #[test]
    fn header_toggle() {
        let mut gen = AirlineGen::new(1);
        gen.with_header = false;
        let (csv, _) = gen.generate(10);
        assert!(!csv.starts_with("Year"));
        assert_eq!(csv.lines().count(), 10);
    }
}
