//! Output digests: a 64-bit FNV-1a hash over every field of a run's results.
//!
//! [`output_digest`] covers every [`StatsSnapshot`] field and both probe
//! sections (time series and latency histogram). Floats enter by bit
//! pattern, so two digests agree only if every value is bitwise equal.
//! Fields are listed explicitly: a field added to these types later does
//! not change the digest of existing outputs.

use dtn_bench::RunRecord;
use dtn_sim::{LatencyHistogram, StatsSnapshot, TimeSeries};

/// Incremental FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Digest of one run's statistics and probe sections.
pub fn output_digest(
    stats: &StatsSnapshot,
    timeseries: Option<&TimeSeries>,
    latency: Option<&LatencyHistogram>,
) -> u64 {
    let mut h = Fnv::new();
    for v in [
        stats.created,
        stats.delivered,
        stats.duplicate_deliveries,
        stats.relayed,
        stats.aborted,
        stats.drops_buffer,
        stats.drops_ttl,
        stats.drops_protocol,
        stats.refused,
        stats.control_bytes,
        stats.hops_sum,
    ] {
        h.u64(v);
    }
    h.f64(stats.latency_sum);
    match timeseries {
        None => h.u64(0),
        Some(ts) => {
            h.u64(1);
            h.f64(ts.dt);
            h.u64(ts.samples.len() as u64);
            for s in &ts.samples {
                h.f64(s.t);
                for v in [
                    s.created,
                    s.delivered,
                    s.relayed,
                    s.dropped,
                    s.buffered_bytes,
                    s.buffered_msgs,
                ] {
                    h.u64(v);
                }
            }
        }
    }
    match latency {
        None => h.u64(0),
        Some(l) => {
            h.u64(1);
            h.u64(l.count);
            for v in [l.p50, l.p95, l.p99, l.max] {
                h.f64(v);
            }
            h.u64(l.buckets.len() as u64);
            for &b in &l.buckets {
                h.u64(b);
            }
        }
    }
    h.0
}

/// [`output_digest`] of a record's results.
pub fn record_output_digest(r: &RunRecord) -> u64 {
    output_digest(&r.stats, r.timeseries.as_ref(), r.latency.as_ref())
}

/// Digest of a whole record except `wall_s` and `cached`: its results plus
/// every identity field. A served record must match its cold twin on this.
pub fn record_digest(r: &RunRecord) -> u64 {
    let mut h = Fnv::new();
    h.u64(record_output_digest(r));
    for s in [
        &r.series,
        &r.scenario,
        &r.workload,
        &r.protocol,
        &r.cell,
        &r.group,
    ] {
        h.str(s);
    }
    h.u64(r.seed);
    h.u64(u64::from(r.n_nodes));
    h.f64(r.duration);
    match &r.artifact {
        None => h.u64(0),
        Some(a) => {
            h.u64(1);
            h.str(a);
        }
    }
    h.0
}

/// The committed digests of `workload` as `(cell key, digest)` pairs, read
/// from `digests.tsv` (`workload<TAB>cell<TAB>hex digest` per line).
pub fn committed(workload: &str) -> Vec<(String, u64)> {
    include_str!("../digests.tsv")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut cols = l.split('\t');
            let (w, cell, hex) = (cols.next()?, cols.next()?, cols.next()?);
            (w == workload).then(|| {
                let d = u64::from_str_radix(hex, 16).expect("digests.tsv holds hex digests");
                (cell.to_string(), d)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Floats enter by bit pattern: values that compare equal but differ in
    /// bits (0.0 and -0.0) digest differently, and so does any field.
    #[test]
    fn digest_sees_every_bit() {
        let base = StatsSnapshot {
            created: 10,
            delivered: 4,
            relayed: 9,
            ..StatsSnapshot::default()
        };
        let d = output_digest(&base, None, None);
        assert_eq!(d, output_digest(&base, None, None));
        let negative_zero = StatsSnapshot {
            latency_sum: -0.0,
            ..base
        };
        assert_ne!(d, output_digest(&negative_zero, None, None));
        let more_hops = StatsSnapshot {
            hops_sum: 1,
            ..base
        };
        assert_ne!(d, output_digest(&more_hops, None, None));
        let empty_series = TimeSeries {
            dt: 60.0,
            samples: Vec::new(),
        };
        assert_ne!(d, output_digest(&base, Some(&empty_series), None));
    }
}
