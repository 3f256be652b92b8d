//! Criterion microbenchmarks of the hot per-contact primitives:
//! the Theorem 1/2 estimators, MI gossip merge, MEMD Dijkstra, contact
//! detection (bulk and large-n incremental stepping), event-queue
//! throughput and raw engine throughput.

use ce_core::{CommunityMap, ContactHistory, MemdSolver, MiMatrix};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dtn_mobility::scenario::ScenarioConfig;
use dtn_mobility::{ContactStepper, ScenarioSpec};
use dtn_sim::event::{EventKind, EventQueue};
use dtn_sim::observe::{EventLog, LatencyHistogramProbe, TimeSeriesProbe};
use dtn_sim::{NodeId, NodePair, SimConfig, SimTime, Simulation, TrafficConfig};
use std::hint::black_box;

const N: u32 = 240;

/// A history where node 0 met each of `peers` on a quasi-periodic schedule.
fn history_with(peers: impl IntoIterator<Item = u32>) -> ContactHistory {
    let mut h = ContactHistory::new(NodeId(0), N, 32);
    for peer in peers {
        let base = 50.0 + f64::from(peer % 17) * 13.0;
        let mut t = f64::from(peer % 7);
        for k in 0..20 {
            t += base + f64::from((k * peer) % 11);
            h.record_meeting(NodeId(peer), SimTime::secs(t));
        }
    }
    h
}

/// A history where node 0 met every peer.
fn warm_history() -> ContactHistory {
    history_with(1..N)
}

/// The `per_row` columns row `i` knows, spread evenly over the other nodes
/// (every other node when `per_row` is `N - 1`), ascending.
fn row_columns(i: u32, per_row: u32) -> Vec<u32> {
    let mut cols: Vec<u32> = (0..per_row)
        .map(|k| (i + 1 + k * (N - 1) / per_row) % N)
        .collect();
    cols.sort_unstable();
    cols
}

/// An MI whose rows hold `per_row` plausible finite entries each; row 0
/// comes from the real history `h`.
fn mi_with_rows(h: &ContactHistory, per_row: u32) -> MiMatrix {
    let mut mi = MiMatrix::new(N);
    for i in 1..N {
        let row = row_columns(i, per_row)
            .into_iter()
            .map(|j| (j, 100.0 + f64::from((i * 31 + j * 17) % 400)));
        mi.set_row(NodeId(i), row, 1.0);
    }
    mi.set_row(NodeId(0), h.mean_row(), 2.0);
    mi
}

/// Complete rows: every node knows every other — the heap solver's worst
/// case, and the most data a merge can share.
fn complete_mi(h: &ContactHistory) -> MiMatrix {
    mi_with_rows(h, N - 1)
}

fn bench_estimators(c: &mut Criterion) {
    let h = warm_history();
    let now = SimTime::secs(6000.0);
    c.bench_function("eev_theorem1_n240", |b| {
        b.iter(|| black_box(h.eev(black_box(now), black_box(336.0))))
    });
    c.bench_function("emd_theorem2_single_pair", |b| {
        b.iter(|| black_box(h.pair(NodeId(7)).expected_meeting_delay(black_box(now))))
    });
    let map = CommunityMap::new((0..N).map(|i| i % 4).collect());
    c.bench_function("enec_theorem4_n240_c4", |b| {
        b.iter(|| black_box(map.enec(&h, black_box(now), black_box(336.0))))
    });
}

fn bench_mi_merge(c: &mut Criterion) {
    let h = warm_history();
    let a = complete_mi(&h);
    let mut b_mi = MiMatrix::new(N);
    // Make half of b's rows fresher so the merge does real work.
    for i in (0..N).step_by(2) {
        let row: Vec<(u32, f64)> = (0..N).map(|j| (j, a.get(NodeId(i), NodeId(j)))).collect();
        b_mi.set_row(NodeId(i), row, 10.0);
    }
    c.bench_function("mi_merge_n240_half_fresher", |b| {
        b.iter_batched(
            || a.clone(),
            |mut mine| black_box(mine.merge_from(&b_mi)),
            BatchSize::LargeInput,
        )
    });
}

fn bench_memd(c: &mut Criterion) {
    // The mean-interval own row knows every met peer, so each solve below
    // finalizes all N nodes. (At any `now` after these schedules end, most
    // Theorem-2 entries are overdue and a `memd_all` solve would reach
    // almost nothing.)
    let mut solver = MemdSolver::new();
    let h = warm_history();
    let mi = complete_mi(&h);
    c.bench_function("memd_dijkstra_n240_complete_rows", |b| {
        b.iter(|| {
            let d = solver.memd_all_mean(&h, black_box(&mi), None);
            black_box(d[17])
        })
    });
    // City-like: each node knows about 16 peers, node 0 included.
    let h = history_with(row_columns(0, 16));
    let mi = mi_with_rows(&h, 16);
    c.bench_function("memd_dijkstra_n240_sparse_rows16", |b| {
        b.iter(|| {
            let d = solver.memd_all_mean(&h, black_box(&mi), None);
            black_box(d[17])
        })
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    c.bench_function("trace_gen_n40_1000s", |b| {
        b.iter(|| {
            let cfg = ScenarioConfig {
                duration: 1000.0,
                ..ScenarioConfig::paper(40)
            };
            black_box(cfg.build(1).trace.contacts.len())
        })
    });
}

/// Per-step cost of incremental contact detection at city scale, amortized
/// over a batch of 50 steps so open-contact bookkeeping participates
/// realistically. With the paper's buses the stepper rebuilds its neighbour
/// list (flat grid + cell-pair scan within `reach`) every 8 steps, 7 times
/// in the batch; the other 43 steps test only the listed pairs.
fn bench_contact_step(c: &mut Criterion) {
    for n in [1_000u32, 10_000] {
        let cfg = ScenarioConfig {
            duration: 60.0,
            ..ScenarioConfig::city(n, ScenarioSpec::districts_for(n))
        };
        let parts = cfg.build_parts(1);
        let steps = 50u32;
        c.bench_function(&format!("contact_step_n{n}_x{steps}"), |b| {
            b.iter(|| {
                let mut stepper = ContactStepper::new(&parts.trajectories, 60.0, cfg.contact);
                let mut downs = Vec::new();
                let mut ups = Vec::new();
                let mut emitted = 0usize;
                for _ in 0..steps {
                    downs.clear();
                    ups.clear();
                    stepper.step(&parts.trajectories, &mut downs, &mut ups);
                    emitted += downs.len() + ups.len();
                }
                black_box(emitted)
            })
        });
    }
}

/// The same 50-step detection batch through [`ShardedContactSource`] with a
/// 4-worker pool, for comparison against `contact_step_n10000_x50`: the gap
/// is the coordination overhead (or, on multi-core hosts, the speedup) of
/// the sharded scan, which fans out only on the 7 rebuild steps.
fn bench_contact_step_sharded(c: &mut Criterion) {
    use dtn_sim::ContactSource;
    let n = 10_000u32;
    let cfg = ScenarioConfig {
        duration: 60.0,
        ..ScenarioConfig::city(n, ScenarioSpec::districts_for(n))
    };
    let parts = cfg.build_parts(1);
    let steps = 50u32;
    // 50 steps at dt = 0.2 → a 10 s window of the 60 s horizon.
    let until = f64::from(steps) * cfg.contact.dt;
    c.bench_function(&format!("contact_step_sharded_n{n}_x{steps}"), |b| {
        b.iter(|| {
            let mut src = dtn_mobility::ShardedContactSource::new(
                parts.trajectories.clone(),
                60.0,
                cfg.contact,
                4,
            );
            let mut out = Vec::new();
            src.next_window(until, &mut out);
            black_box(out.len())
        })
    });
}

/// SoA vs AoS buffer scans: `Buffer::contains` walks a dense id column,
/// the reference walks full array-of-struct entries — the per-contact
/// membership probe the engine does for every summary-vector exchange.
fn bench_buffer_soa(c: &mut Criterion) {
    use dtn_sim::{Buffer, BufferEntry, Message, MessageId};
    let entries: Vec<BufferEntry> = (0..40u32)
        .map(|i| BufferEntry {
            msg: Message {
                id: MessageId(i * 3),
                src: NodeId(i % 7),
                dst: NodeId((i + 1) % 7),
                size: 25 * 1024,
                created: SimTime::secs(f64::from(i)),
                ttl: 1200.0,
            },
            copies: 4,
            received_at: SimTime::secs(f64::from(i)),
            hops: i % 5,
        })
        .collect();
    let mut soa = Buffer::new(64 * 1024 * 1024);
    for e in &entries {
        soa.insert(*e).unwrap();
    }
    let aos = entries;
    let probes: Vec<MessageId> = (0..256u32).map(|k| MessageId(k % 128)).collect();
    c.bench_function("buffer_contains_soa_40x256", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &id in &probes {
                hits += usize::from(soa.contains(id));
            }
            black_box(hits)
        })
    });
    c.bench_function("buffer_contains_aos_40x256", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &id in &probes {
                hits += usize::from(aos.iter().any(|e| e.msg.id == id));
            }
            black_box(hits)
        })
    });
}

/// Push/pop throughput of the [`EventQueue`] on a contact-shaped schedule:
/// dense bursts of equal-time contact events (dt-step batches) interleaved
/// with sparse non-contact events.
fn bench_event_queue(c: &mut Criterion) {
    // ~100 events per 0.2 s step plus a sparse second band, pre-generated
    // so every iteration replays the identical schedule.
    let schedule: Vec<(SimTime, bool)> = (0..100_000u32)
        .map(|i| {
            let mut x = u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^= x >> 31;
            if x % 50 == 0 {
                (SimTime::secs((x % 20_011) as f64 * 0.01), false)
            } else {
                (SimTime::secs(f64::from(i / 100) * 0.2), true)
            }
        })
        .collect();
    let pair = NodePair::new(NodeId(0), NodeId(1));
    c.bench_function("event_queue_100k_clustered", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for &(t, contact) in &schedule {
                if contact {
                    q.push_contact(t, EventKind::ContactUp { pair });
                } else {
                    q.push(t, EventKind::TtlSweep);
                }
            }
            let mut n = 0usize;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
}

fn bench_engine(c: &mut Criterion) {
    let cfg = ScenarioConfig {
        duration: 2000.0,
        ..ScenarioConfig::paper(40)
    };
    let scenario = cfg.build(1);
    let workload = TrafficConfig::paper(2000.0).generate(40, 1);
    // The observer-free engine: events are folded inline into SimStats and
    // discarded — the refactored equivalent of the old inline-mutation path.
    c.bench_function("engine_epidemic_n40_2000s", |b| {
        b.iter(|| {
            let stats = Simulation::new(
                &scenario.trace,
                workload.clone(),
                SimConfig::paper(1),
                |_, _| Box::new(dtn_routing::Epidemic::new()),
            )
            .run();
            black_box(stats.relayed)
        })
    });
    // The same run with the full probe set attached: batched dispatch to a
    // time-series probe, a latency histogram and a raw event log. The gap
    // between this and the bench above is the total observation cost.
    c.bench_function("engine_epidemic_n40_2000s_probed", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(
                &scenario.trace,
                workload.clone(),
                SimConfig::paper(1),
                |_, _| Box::new(dtn_routing::Epidemic::new()),
            );
            sim.add_observer(Box::new(TimeSeriesProbe::new(60.0)));
            sim.add_observer(Box::new(LatencyHistogramProbe::new()));
            sim.add_observer(Box::new(EventLog::default()));
            let (stats, _obs) = sim.run_observed();
            black_box(stats.relayed)
        })
    });
}

/// The work-stealing sweep fabric on 4 workers against a plain sequential
/// fold over the identical 8-job matrix (4 protocols x 2 seeds on a small
/// scenario): both paths run the very same simulations through the shared
/// [`ScenarioCache`], so the gap is the fabric's parallel speed-up net of
/// its coordination cost — thread spawn, the block takes and steals, and
/// the ordered result merge.
fn bench_matrix_fabric(c: &mut Criterion) {
    use dtn_bench::{
        run_matrix_records, ProtocolKind, ProtocolSpec, RunSpec, ScenarioCache,
        ScenarioSpec as BenchScenarioSpec, SweepConfig,
    };
    let specs: Vec<RunSpec> = [
        ProtocolKind::Epidemic,
        ProtocolKind::Eer,
        ProtocolKind::Cr,
        ProtocolKind::SprayAndWait,
    ]
    .into_iter()
    .map(|k| {
        RunSpec::on(
            k.name(),
            BenchScenarioSpec::paper(16),
            ProtocolSpec::paper(k),
        )
        .with_duration(400.0)
    })
    .collect();
    let cache = ScenarioCache::new();
    // Warm the scenario cache so both cells measure run + merge, not builds.
    let warm = SweepConfig {
        seeds: 2,
        threads: 1,
        verbose: false,
    };
    black_box(run_matrix_records(&cache, &specs, warm).len());
    for (label, threads) in [
        ("matrix_fabric_4_workers", 4usize),
        ("matrix_sequential_fold", 1),
    ] {
        let cfg = SweepConfig {
            seeds: 2,
            threads,
            verbose: false,
        };
        c.bench_function(label, |b| {
            b.iter(|| {
                let records = run_matrix_records(&cache, &specs, cfg);
                black_box(records.len())
            })
        });
    }
}

/// Result-store primitives. `store_roundtrip` is one publish + admit +
/// serve cycle of a synthetic record — the per-cell overhead a cold sweep
/// pays to populate the store and a warm sweep pays to hit it.
/// `matrix_warm_vs_cold` runs the fabric bench's 8-job matrix against a
/// populated store vs. no store at all: the gap locates the break-even
/// cell cost. Serving pays file read + full reportcheck admission
/// (~70 µs/cell), so on this deliberately tiny matrix (400 s, n = 16)
/// recomputing through the warm `ScenarioCache` can win — the store's
/// ≥10× payoff is on real cells, where a run costs milliseconds to
/// minutes (see the shootout warm-cache CI job).
fn bench_store(c: &mut Criterion) {
    use dtn_bench::{
        run_matrix_records_stored, CellStore, ProtocolKind, ProtocolSpec, RunSpec, ScenarioCache,
        ScenarioSpec as BenchScenarioSpec, SweepConfig,
    };
    let root = std::env::temp_dir().join(format!("dtn_bench_store_micro_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = CellStore::open(&root).expect("fresh store");

    let specs: Vec<RunSpec> = [
        ProtocolKind::Epidemic,
        ProtocolKind::Eer,
        ProtocolKind::Cr,
        ProtocolKind::SprayAndWait,
    ]
    .into_iter()
    .map(|k| {
        RunSpec::on(
            k.name(),
            BenchScenarioSpec::paper(16),
            ProtocolSpec::paper(k),
        )
        .with_duration(400.0)
    })
    .collect();
    let cache = ScenarioCache::new();
    let cfg = SweepConfig {
        seeds: 2,
        threads: 1,
        verbose: false,
    };
    // Populate the store (and warm the scenario cache for the cold cell).
    let records = run_matrix_records_stored(&cache, &specs, cfg, Some(&store));
    let record = records[0].clone();
    let key = record.cell.clone();

    c.bench_function("store_roundtrip", |b| {
        b.iter(|| {
            store.publish(&record).expect("publish");
            black_box(store.serve(&key, record.seed).expect("serve"))
        })
    });
    for (label, with_store) in [("matrix_warm", true), ("matrix_cold_nostore", false)] {
        let store = with_store.then_some(&store);
        c.bench_function(&format!("matrix_warm_vs_cold/{label}"), |b| {
            b.iter(|| {
                let records = run_matrix_records_stored(&cache, &specs, cfg, store);
                black_box(records.len())
            })
        });
    }
    let _ = std::fs::remove_dir_all(&root);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_estimators, bench_mi_merge, bench_memd,
              bench_trace_generation, bench_contact_step,
              bench_contact_step_sharded, bench_buffer_soa,
              bench_event_queue, bench_engine, bench_matrix_fabric,
              bench_store
}
criterion_main!(benches);
