//! MaxProp against the eager, dense layout it replaced, kept here as a
//! test-only router: an `n × n` likelihood table whose fresher rows are
//! copied on every contact, a Dijkstra solve at every cost refresh, and the
//! acks in a `HashSet`.
//!
//! The shared-version router solves its costs only when a decision reads
//! them, from the rows captured at the last refresh. So the runs use buffers
//! that hold a few messages (evictions rank travelled messages by cost),
//! hop thresholds down to 0 (every pick then reads costs) and refresh
//! periods from "every contact" to longer than most gaps between contacts.
//! Every comparison is bitwise: each statistic, and every node's meeting
//! probabilities and costs at the end of the run.

mod common;

use dtn_routing::{MaxProp, MaxPropConfig};
use dtn_sim::prelude::*;
use proptest::prelude::*;
use std::any::Any;

/// MaxProp as the router state stored it before the likelihood vectors
/// became shared versions.
mod dense {
    use dtn_routing::util::control_size;
    use dtn_routing::MaxPropConfig;
    use dtn_sim::prelude::*;
    use std::any::Any;
    use std::collections::HashSet;

    #[derive(Debug)]
    pub struct DenseMaxProp {
        me: NodeId,
        n: usize,
        cfg: MaxPropConfig,
        /// Own meeting-probability vector (normalised to sum 1).
        f: Vec<f64>,
        /// Latest known vector of every node, row-major `n × n`;
        /// `est_time[i]` is row `i`'s freshness, `-1` = unknown.
        est: Vec<f64>,
        est_time: Vec<f64>,
        acked: HashSet<MessageId>,
        cost: Vec<f64>,
        cost_valid: bool,
        cost_time: f64,
    }

    impl DenseMaxProp {
        pub fn with_config(me: NodeId, n: u32, cfg: MaxPropConfig) -> Self {
            let n = n as usize;
            let init = if n > 1 { 1.0 / (n as f64 - 1.0) } else { 0.0 };
            let mut f = vec![init; n];
            f[me.idx()] = 0.0;
            DenseMaxProp {
                me,
                n,
                cfg,
                f,
                est: vec![0.0; n * n],
                est_time: vec![-1.0; n],
                acked: HashSet::new(),
                cost: vec![f64::INFINITY; n],
                cost_valid: false,
                cost_time: f64::NEG_INFINITY,
            }
        }

        pub fn meeting_probability(&self, peer: NodeId) -> f64 {
            self.f[peer.idx()]
        }

        pub fn cost_to(&self, dst: NodeId) -> f64 {
            self.cost[dst.idx()]
        }

        fn bump(&mut self, peer: NodeId) {
            self.f[peer.idx()] += 1.0;
            let sum: f64 = self.f.iter().sum();
            if sum > 0.0 {
                for v in &mut self.f {
                    *v /= sum;
                }
            }
        }

        fn recompute_costs(&mut self, now: SimTime) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;

            #[derive(PartialEq)]
            struct K(f64);
            impl Eq for K {}
            impl PartialOrd for K {
                fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                    Some(self.cmp(o))
                }
            }
            impl Ord for K {
                fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                    self.0.total_cmp(&o.0)
                }
            }

            let me_lo = self.me.idx() * self.n;
            self.est[me_lo..me_lo + self.n].copy_from_slice(&self.f);
            self.est_time[self.me.idx()] = now.as_secs();
            for c in &mut self.cost {
                *c = f64::INFINITY;
            }
            self.cost[self.me.idx()] = 0.0;
            let mut heap = BinaryHeap::new();
            heap.push(Reverse((K(0.0), self.me.0)));
            let mut visited = vec![false; self.n];
            while let Some(Reverse((K(d), u))) = heap.pop() {
                let ui = u as usize;
                if visited[ui] {
                    continue;
                }
                visited[ui] = true;
                let vec_u: &[f64] = if ui == self.me.idx() {
                    &self.f
                } else if self.est_time[ui] >= 0.0 {
                    &self.est[ui * self.n..(ui + 1) * self.n]
                } else {
                    continue;
                };
                for (v, &p) in vec_u.iter().enumerate().take(self.n) {
                    if v == ui {
                        continue;
                    }
                    let nd = d + (1.0 - p);
                    if nd < self.cost[v] {
                        self.cost[v] = nd;
                        heap.push(Reverse((K(nd), v as u32)));
                    }
                }
            }
            self.cost_valid = true;
        }

        fn priority(&self, hops: u32, dst: NodeId) -> (u32, f64) {
            if hops < self.cfg.hop_threshold {
                (hops, 0.0)
            } else {
                (u32::MAX, self.cost[dst.idx()])
            }
        }
    }

    impl Router for DenseMaxProp {
        fn label(&self) -> &'static str {
            "MaxProp"
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }

        fn on_contact_up(&mut self, ctx: &mut ContactCtx<'_>, peer: &mut dyn Router) {
            let peer_router = peer
                .as_any_mut()
                .downcast_mut::<DenseMaxProp>()
                .expect("all nodes run DenseMaxProp");
            self.bump(ctx.peer);
            let now = ctx.now.as_secs();
            for i in 0..self.n {
                let (src, peer_time): (&[f64], f64) = if i == ctx.peer.idx() {
                    (&peer_router.f, now)
                } else if peer_router.est_time[i] >= 0.0 {
                    (
                        &peer_router.est[i * self.n..(i + 1) * self.n],
                        peer_router.est_time[i],
                    )
                } else {
                    continue;
                };
                if peer_time > self.est_time[i] {
                    self.est[i * self.n..(i + 1) * self.n].copy_from_slice(src);
                    self.est_time[i] = peer_time;
                }
            }
            for id in &peer_router.acked {
                self.acked.insert(*id);
            }
            let to_purge: Vec<MessageId> = ctx
                .buf
                .iter()
                .filter(|e| self.acked.contains(&e.msg.id))
                .map(|e| e.msg.id)
                .collect();
            ctx.purge.extend(to_purge);

            if ctx.now.as_secs() - self.cost_time > self.cfg.cost_refresh {
                self.recompute_costs(ctx.now);
                self.cost_time = ctx.now.as_secs();
            }
            ctx.control_bytes(control_size(self.n + self.acked.len()));
        }

        fn pick_transfer(&mut self, ctx: &mut ContactCtx<'_>) -> Option<TransferPlan> {
            if let Some(e) = ctx
                .buf
                .iter()
                .find(|e| e.msg.dst == ctx.peer && !ctx.sent.contains(&e.msg.id))
            {
                return Some(TransferPlan::forward(e.msg.id));
            }
            if !self.cost_valid {
                return None;
            }
            ctx.buf
                .iter()
                .filter(|e| ctx.can_offer(e.msg.id) && !self.acked.contains(&e.msg.id))
                .min_by(|a, b| {
                    let ka = self.priority(a.hops, a.msg.dst);
                    let kb = self.priority(b.hops, b.msg.dst);
                    ka.0.cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
                })
                .map(|e| TransferPlan::copy(e.msg.id))
        }

        fn on_sent(
            &mut self,
            _ctx: &mut NodeCtx<'_>,
            msg: &Message,
            _action: TransferAction,
            _to: NodeId,
            delivered: bool,
        ) {
            if delivered {
                self.acked.insert(msg.id);
            }
        }

        fn on_delivery_received(
            &mut self,
            _ctx: &mut NodeCtx<'_>,
            msg: &Message,
            _from: NodeId,
            _first: bool,
        ) {
            self.acked.insert(msg.id);
        }

        fn select_drops(
            &mut self,
            buf: &Buffer,
            incoming: &Message,
            _now: SimTime,
        ) -> Vec<MessageId> {
            let mut entries: Vec<(BufferEntry, (u32, f64))> = buf
                .iter()
                .filter(|e| e.msg.id != incoming.id)
                .map(|e| (e, self.priority(e.hops, e.msg.dst)))
                .collect();
            entries.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(b.1 .1.total_cmp(&a.1 .1)));
            entries.into_iter().map(|(e, _)| e.msg.id).collect()
        }
    }
}

use dense::DenseMaxProp;

/// What a run leaves behind: its statistics, and every node's meeting
/// probabilities and destination costs, one row per node.
struct Outcome {
    stats: SimStats,
    probabilities: Vec<Vec<f64>>,
    costs: Vec<Vec<f64>>,
}

/// Reads a node's end-of-run vectors out of a router of either layout.
trait Vectors: Router + Sized {
    fn vectors(&self, n: u32) -> (Vec<f64>, Vec<f64>);
}

impl Vectors for MaxProp {
    fn vectors(&self, n: u32) -> (Vec<f64>, Vec<f64>) {
        // `cost_to` solves a pending refresh, so it needs its own copy.
        let mut r = self.clone();
        (
            (0..n).map(|j| r.meeting_probability(NodeId(j))).collect(),
            (0..n).map(|j| r.cost_to(NodeId(j))).collect(),
        )
    }
}

impl Vectors for DenseMaxProp {
    fn vectors(&self, n: u32) -> (Vec<f64>, Vec<f64>) {
        (
            (0..n)
                .map(|j| self.meeting_probability(NodeId(j)))
                .collect(),
            (0..n).map(|j| self.cost_to(NodeId(j))).collect(),
        )
    }
}

fn run<R: Vectors>(
    trace: &ContactTrace,
    wl: Vec<MessageSpec>,
    capacity: u64,
    make: impl Fn(NodeId, u32) -> R,
) -> Outcome {
    let cfg = SimConfig {
        buffer_capacity: capacity,
        ..SimConfig::paper(0)
    };
    let mut sim = Simulation::new(trace, wl, cfg, |id, n| Box::new(make(id, n)));
    sim.run_to_end();
    let n = sim.n_nodes();
    let (probabilities, costs) = (0..n)
        .map(|i| {
            let router: &dyn Any = sim.router(NodeId(i));
            router
                .downcast_ref::<R>()
                .expect("every node runs the router under test")
                .vectors(n)
        })
        .unzip();
    Outcome {
        stats: sim.stats().clone(),
        probabilities,
        costs,
    }
}

fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{k}]: {x} vs {y}");
    }
}

fn assert_same(shared: &Outcome, dense: &Outcome, case: &str) {
    // Destructured in full, so a new statistic cannot go unchecked.
    let SimStats {
        created,
        delivered,
        duplicate_deliveries,
        relayed,
        aborted,
        drops_buffer,
        drops_ttl,
        drops_protocol,
        refused,
        control_bytes,
        latency_sum,
        hops_sum,
        delivered_at,
    } = &shared.stats;
    let d = &dense.stats;
    let counters = [
        ("created", *created, d.created),
        ("delivered", *delivered, d.delivered),
        (
            "duplicate_deliveries",
            *duplicate_deliveries,
            d.duplicate_deliveries,
        ),
        ("relayed", *relayed, d.relayed),
        ("aborted", *aborted, d.aborted),
        ("drops_buffer", *drops_buffer, d.drops_buffer),
        ("drops_ttl", *drops_ttl, d.drops_ttl),
        ("drops_protocol", *drops_protocol, d.drops_protocol),
        ("refused", *refused, d.refused),
        ("control_bytes", *control_bytes, d.control_bytes),
        ("hops_sum", *hops_sum, d.hops_sum),
    ];
    for (name, s, o) in counters {
        assert_eq!(s, o, "{case}: {name}");
    }
    assert_bits(
        &[*latency_sum],
        &[d.latency_sum],
        &format!("{case}: latency_sum"),
    );
    let times = |at: &[Option<SimTime>]| -> Vec<Option<u64>> {
        at.iter()
            .map(|t| t.map(|t| t.as_secs().to_bits()))
            .collect()
    };
    assert_eq!(
        times(delivered_at),
        times(&d.delivered_at),
        "{case}: delivered_at"
    );
    for (i, (s, o)) in shared
        .probabilities
        .iter()
        .zip(&dense.probabilities)
        .enumerate()
    {
        assert_bits(s, o, &format!("{case}: node {i} meeting_probability"));
    }
    for (i, (s, o)) in shared.costs.iter().zip(&dense.costs).enumerate() {
        assert_bits(s, o, &format!("{case}: node {i} cost_to"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shared versions, lazy solves and bitset acks change no output bit.
    #[test]
    fn shared_lazy_maxprop_matches_dense_eager(
        (trace, wl) in common::trace_and_workload(120, 40),
        capacity in 500u64..3000,
    ) {
        for hop_threshold in [0, 1, 3, 7] {
            for cost_refresh in [0.0, 5.0, 60.0] {
                let cfg = MaxPropConfig { hop_threshold, cost_refresh };
                let shared = run(&trace, wl.clone(), capacity, |id, n| {
                    MaxProp::with_config(id, n, cfg)
                });
                let dense = run(&trace, wl.clone(), capacity, |id, n| {
                    DenseMaxProp::with_config(id, n, cfg)
                });
                assert_same(
                    &shared,
                    &dense,
                    &format!("hops={hop_threshold} refresh={cost_refresh} capacity={capacity}"),
                );
            }
        }
    }
}
