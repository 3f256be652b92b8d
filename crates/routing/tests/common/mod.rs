//! The trace-and-workload generator shared by the routing property suites.

use dtn_sim::prelude::*;
use proptest::prelude::*;

/// A contact trace over 4..9 nodes built from `1..max_contacts` random
/// contact draws (contacts of one pair never overlap), and a workload of up
/// to `max_messages` 500-byte messages with random endpoints, creation
/// times and TTLs.
pub fn trace_and_workload(
    max_contacts: usize,
    max_messages: usize,
) -> impl Strategy<Value = (ContactTrace, Vec<MessageSpec>)> {
    (
        4u32..9,
        proptest::collection::vec(
            (any::<u16>(), any::<u16>(), 1u16..120, 1u16..40),
            1..max_contacts,
        ),
    )
        .prop_flat_map(move |(n, raw)| {
            let mut cursor: std::collections::HashMap<(u32, u32), f64> = Default::default();
            let mut contacts = Vec::new();
            for (xa, xb, gap, dur) in raw {
                let a = u32::from(xa) % n;
                let b = u32::from(xb) % n;
                if a == b {
                    continue;
                }
                let key = (a.min(b), a.max(b));
                let start = cursor.get(&key).copied().unwrap_or(0.0) + f64::from(gap);
                let end = start + f64::from(dur);
                cursor.insert(key, end);
                contacts.push(Contact::new(key.0, key.1, start, end));
            }
            let horizon = contacts.iter().map(|c| c.end.as_secs()).fold(0.0, f64::max) + 5.0;
            let trace = ContactTrace::new(n, horizon, contacts);
            let wl = proptest::collection::vec(
                (any::<u16>(), any::<u16>(), 0u16..1000, 60u32..2000),
                0..max_messages,
            )
            .prop_map(move |raw| {
                raw.into_iter()
                    .filter_map(|(xs, xd, frac, ttl)| {
                        let src = u32::from(xs) % n;
                        let dst = u32::from(xd) % n;
                        (src != dst).then(|| MessageSpec {
                            create_at: SimTime::secs(horizon * f64::from(frac) / 1000.0),
                            src: NodeId(src),
                            dst: NodeId(dst),
                            size: 500,
                            ttl: f64::from(ttl),
                        })
                    })
                    .collect::<Vec<_>>()
            });
            (Just(trace), wl)
        })
}
