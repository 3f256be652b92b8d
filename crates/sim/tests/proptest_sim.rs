//! Property-based tests of the simulator's core data structures.

use dtn_sim::event::{EventKind, EventQueue};
use dtn_sim::prelude::*;
use proptest::prelude::*;

proptest! {
    /// The event queue pops in (time, insertion-order) order — i.e. it is a
    /// stable priority queue.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u32..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::secs(f64::from(*t)), EventKind::MessageCreate { spec_idx: i as u32 });
        }
        // Reference: stable sort by time.
        let mut expect: Vec<(u32, usize)> = times.iter().copied().zip(0..).collect();
        expect.sort_by_key(|(t, _)| *t);
        for (t, idx) in expect {
            let (pt, kind) = q.pop().expect("queue length matches");
            prop_assert_eq!(pt, SimTime::secs(f64::from(t)));
            match kind {
                EventKind::MessageCreate { spec_idx } => prop_assert_eq!(spec_idx as usize, idx),
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
        prop_assert!(q.pop().is_none());
    }

    /// Buffer byte accounting matches a model under arbitrary
    /// insert/remove interleavings.
    #[test]
    fn buffer_accounting_matches_model(ops in proptest::collection::vec((any::<bool>(), 0u32..30, 1u32..500), 1..200)) {
        let capacity = 2_000u64;
        let mut buf = Buffer::new(capacity);
        let mut model: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for (insert, id, size) in ops {
            if insert {
                let entry = BufferEntry {
                    msg: Message {
                        id: MessageId(id),
                        src: NodeId(0),
                        dst: NodeId(1),
                        size,
                        created: SimTime::ZERO,
                        ttl: 1e9,
                    },
                    copies: 1,
                    received_at: SimTime::ZERO,
                    hops: 0,
                };
                let used: u64 = model.values().map(|&s| u64::from(s)).sum();
                let should_fit = used + u64::from(size) <= capacity && !model.contains_key(&id);
                match buf.insert(entry) {
                    Ok(()) => {
                        prop_assert!(should_fit, "insert succeeded but model says no room/dup");
                        model.insert(id, size);
                    }
                    Err(_) => prop_assert!(!should_fit, "insert failed but model says ok"),
                }
            } else {
                let got = buf.remove(MessageId(id));
                let expect = model.remove(&id);
                prop_assert_eq!(got.map(|e| e.msg.size), expect);
            }
            let used: u64 = model.values().map(|&s| u64::from(s)).sum();
            prop_assert_eq!(buf.used(), used);
            prop_assert_eq!(buf.len(), model.len());
            prop_assert!(buf.used() <= buf.capacity());
        }
    }

    /// `Buffer` agrees with a reference model — a plain `Vec<BufferEntry>`
    /// in insertion order with linear lookups — under random insert, remove,
    /// copy-count and duplicate-insert sequences. Ids spread over four words
    /// of the membership bitset and arrive out of order. After every step,
    /// membership of every id (also past the largest one inserted), the
    /// entry views, length, bytes used, the id order and the expired ids at
    /// a random instant must match exactly.
    #[test]
    fn buffer_matches_reference_model(ops in proptest::collection::vec((0u8..4, 0u32..256, 1u32..400, 0u32..100, 1u32..200, 0u32..400), 1..200)) {
        let mut buf = Buffer::new(3_000);
        let mut model: Vec<BufferEntry> = Vec::new();
        let view = |e: Option<BufferEntry>| e.map(|e| (e.msg, e.copies, e.received_at, e.hops));
        for (op, raw, size, created, ttl, now) in ops {
            // Removes, copy updates and duplicate inserts mostly target an id
            // the model holds, so that they hit.
            let held = (!model.is_empty() && raw % 4 != 0)
                .then(|| model[raw as usize % model.len()].msg.id);
            match op {
                0 | 1 => {
                    let id = if op == 1 { held.unwrap_or(MessageId(raw)) } else { MessageId(raw) };
                    let entry = BufferEntry {
                        msg: Message {
                            id,
                            src: NodeId(0),
                            dst: NodeId(raw % 7 + 1),
                            size,
                            created: SimTime::secs(f64::from(created)),
                            ttl: f64::from(ttl),
                        },
                        copies: size % 5 + 1,
                        received_at: SimTime::secs(f64::from(created + ttl / 2)),
                        hops: raw % 4,
                    };
                    let used: u64 = model.iter().map(|e| u64::from(e.msg.size)).sum();
                    let fits = used + u64::from(size) <= buf.capacity()
                        && !model.iter().any(|e| e.msg.id == id);
                    prop_assert_eq!(buf.insert(entry).is_ok(), fits);
                    if fits {
                        model.push(entry);
                    }
                }
                2 => {
                    let id = held.unwrap_or(MessageId(raw));
                    let expect = model.iter().position(|e| e.msg.id == id).map(|k| model.remove(k));
                    prop_assert_eq!(view(buf.remove(id)), view(expect));
                }
                _ => {
                    let id = held.unwrap_or(MessageId(raw));
                    let copies = size % 9 + 1;
                    let got = buf.copies_mut(id).map(|c| *c = copies);
                    let expect = model.iter_mut().find(|e| e.msg.id == id).map(|e| e.copies = copies);
                    prop_assert_eq!(got, expect);
                }
            }
            for raw in 0..320 {
                let id = MessageId(raw);
                let expect = model.iter().find(|e| e.msg.id == id).copied();
                prop_assert_eq!(buf.contains(id), expect.is_some(), "contains({:?})", id);
                prop_assert_eq!(view(buf.get(id)), view(expect));
            }
            prop_assert_eq!(buf.len(), model.len());
            prop_assert_eq!(buf.used(), model.iter().map(|e| u64::from(e.msg.size)).sum::<u64>());
            let ids: Vec<MessageId> = model.iter().map(|e| e.msg.id).collect();
            prop_assert_eq!(buf.ids(), &ids[..]);
            let at = SimTime::secs(f64::from(now));
            let expired: Vec<MessageId> =
                model.iter().filter(|e| e.msg.expired(at)).map(|e| e.msg.id).collect();
            prop_assert_eq!(buf.expired(at).collect::<Vec<_>>(), expired);
        }
    }

    /// Trace text serialisation round-trips arbitrary valid traces.
    #[test]
    fn trace_text_round_trips(raw in proptest::collection::vec((0u32..6, 0u32..6, 1u32..100, 1u32..50), 0..50)) {
        let mut cursor = std::collections::HashMap::new();
        let mut contacts = Vec::new();
        for (a, b, gap, dur) in raw {
            if a == b { continue; }
            let key = (a.min(b), a.max(b));
            let start: f64 = *cursor.get(&key).unwrap_or(&0.0) + f64::from(gap) * 0.5;
            let end = start + f64::from(dur) * 0.25;
            cursor.insert(key, end);
            contacts.push(Contact::new(key.0, key.1, start, end));
        }
        let horizon = contacts.iter().map(|c| c.end.as_secs()).fold(0.0, f64::max) + 1.0;
        let trace = ContactTrace::new(6, horizon, contacts);
        prop_assert!(trace.validate().is_ok());
        let parsed = ContactTrace::from_text(&trace.to_text()).unwrap();
        prop_assert_eq!(parsed.n_nodes, trace.n_nodes);
        prop_assert_eq!(parsed.contacts.len(), trace.contacts.len());
        for (x, y) in parsed.contacts.iter().zip(&trace.contacts) {
            prop_assert_eq!(x.pair, y.pair);
            prop_assert!((x.start.as_secs() - y.start.as_secs()).abs() < 1e-9);
            prop_assert!((x.end.as_secs() - y.end.as_secs()).abs() < 1e-9);
        }
    }

    /// SimTime ordering agrees with f64 ordering on finite values.
    #[test]
    fn simtime_order_matches_f64(a in -1e12f64..1e12, b in -1e12f64..1e12) {
        let (ta, tb) = (SimTime::secs(a), SimTime::secs(b));
        prop_assert_eq!(ta.cmp(&tb), a.partial_cmp(&b).unwrap());
        prop_assert_eq!(ta.max(tb).as_secs(), a.max(b));
        prop_assert_eq!(ta.min(tb).as_secs(), a.min(b));
        prop_assert!(ta.since(tb) >= 0.0);
    }

    /// The traffic generator always produces a sane workload.
    #[test]
    fn traffic_generator_is_sane(n in 2u32..50, seed in any::<u64>()) {
        let cfg = TrafficConfig::paper(2_000.0);
        let wl = cfg.generate(n, seed);
        let mut prev = 0.0;
        for m in &wl {
            prop_assert!(m.src != m.dst);
            prop_assert!(m.src.0 < n && m.dst.0 < n);
            prop_assert!(m.create_at.as_secs() < 2_000.0);
            prop_assert!(m.create_at.as_secs() >= prev);
            prev = m.create_at.as_secs();
        }
    }
}
