//! Property-based tests of the mobility substrate: trajectory sampling and,
//! crucially, that the spatial-grid contact detector agrees with a
//! brute-force O(n²) reference.

use dtn_mobility::contacts::{generate_trace, ContactGenConfig};
use dtn_mobility::geometry::Point;
use dtn_mobility::trajectory::{Trajectory, TrajectoryCursor};
use dtn_sim::{Contact, ContactTrace, NodeId, NodePair};
use proptest::prelude::*;

/// Strategy: a piecewise-linear trajectory inside a box.
fn trajectory_strategy() -> impl Strategy<Value = Trajectory> {
    proptest::collection::vec((0.1f64..30.0, -60.0f64..60.0, -60.0f64..60.0), 1..12).prop_map(
        |segs| {
            let mut t = 0.0;
            let mut pts = vec![(0.0, Point::new(segs[0].1, segs[0].2))];
            for (dt, x, y) in segs {
                t += dt;
                pts.push((t, Point::new(x, y)));
            }
            Trajectory::new(pts)
        },
    )
}

/// Brute-force contact detection: sample every pair at every step.
fn brute_force(trajs: &[Trajectory], duration: f64, cfg: ContactGenConfig) -> ContactTrace {
    let n = trajs.len();
    let steps = (duration / cfg.dt).ceil() as u64;
    let mut open: std::collections::HashMap<(usize, usize), f64> = Default::default();
    let mut contacts = Vec::new();
    for step in 0..steps {
        let t = step as f64 * cfg.dt;
        let pos: Vec<Point> = trajs.iter().map(|tr| tr.position_at(t)).collect();
        for i in 0..n {
            for j in i + 1..n {
                let within = pos[i].dist_sq(pos[j]) <= cfg.range * cfg.range;
                match (within, open.contains_key(&(i, j))) {
                    (true, false) => {
                        open.insert((i, j), t);
                    }
                    (false, true) => {
                        let start = open.remove(&(i, j)).unwrap();
                        contacts.push(Contact {
                            pair: NodePair::new(NodeId(i as u32), NodeId(j as u32)),
                            start: dtn_sim::SimTime::secs(start),
                            end: dtn_sim::SimTime::secs(t),
                        });
                    }
                    _ => {}
                }
            }
        }
    }
    for ((i, j), start) in open {
        contacts.push(Contact {
            pair: NodePair::new(NodeId(i as u32), NodeId(j as u32)),
            start: dtn_sim::SimTime::secs(start),
            end: dtn_sim::SimTime::secs(duration),
        });
    }
    ContactTrace::new(n as u32, duration, contacts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The grid detector and the brute-force reference produce identical
    /// contact traces (same pairs, same intervals). Each axis of the 120 m
    /// box is stretched by one of `STRETCH`, so the grid table also wraps —
    /// on x, on y or on both, down to tables of one or two rows — and a node
    /// pinned 3 m from node 0, on the diagonal so the pair straddles row and
    /// column boundaries alike, keeps genuine contacts in every stretched
    /// world.
    #[test]
    fn grid_matches_brute_force(
        trajs in proptest::collection::vec(trajectory_strategy(), 2..7),
        stretch in (0usize..4, 0usize..4),
    ) {
        const STRETCH: [f64; 4] = [1.0, 0.3, 1.0e3, 1.0e5];
        let (sx, sy) = (STRETCH[stretch.0], STRETCH[stretch.1]);
        let moved = |traj: &Trajectory, f: &dyn Fn(Point) -> Point| {
            Trajectory::new(traj.points().iter().map(|&(t, p)| (t, f(p))).collect())
        };
        let mut trajs: Vec<Trajectory> = trajs
            .iter()
            .map(|traj| moved(traj, &|p| Point::new(p.x * sx, p.y * sy)))
            .collect();
        let pin = 3.0 / std::f64::consts::SQRT_2;
        trajs.push(moved(&trajs[0], &|p| Point::new(p.x + pin, p.y + pin)));
        let duration = 40.0;
        let cfg = ContactGenConfig { range: 10.0, dt: 0.5 };
        let fast = generate_trace(&trajs, duration, cfg);
        let slow = brute_force(&trajs, duration, cfg);
        prop_assert!(!slow.contacts.is_empty(), "the pinned pair must meet");
        prop_assert_eq!(fast.contacts.len(), slow.contacts.len());
        let key = |c: &Contact| (c.pair, c.start.as_secs().to_bits(), c.end.as_secs().to_bits());
        let mut a: Vec<_> = fast.contacts.iter().map(key).collect();
        let mut b: Vec<_> = slow.contacts.iter().map(key).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Cursor sampling equals random-access sampling at any monotone
    /// sequence of times.
    #[test]
    fn cursor_equals_random_access(
        traj in trajectory_strategy(),
        mut times in proptest::collection::vec(0.0f64..400.0, 1..64),
    ) {
        times.sort_by(f64::total_cmp);
        let mut cursor = TrajectoryCursor::new(&traj);
        for t in times {
            let a = cursor.position_at(t);
            let b = traj.position_at(t);
            prop_assert!(a.dist(b) < 1e-9, "cursor {a:?} vs direct {b:?} at t={t}");
        }
    }

    /// Positions are always interpolations: within the bounding box of the
    /// trajectory's breakpoints.
    #[test]
    fn positions_stay_in_hull_box(traj in trajectory_strategy(), t in -10.0f64..500.0) {
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(_, p) in traj.points() {
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        let p = traj.position_at(t);
        prop_assert!(p.x >= min_x - 1e-9 && p.x <= max_x + 1e-9);
        prop_assert!(p.y >= min_y - 1e-9 && p.y <= max_y + 1e-9);
    }

    /// The sharded contact source is bit-identical to the single-threaded
    /// stream for arbitrary trajectories, thread counts and window sizes —
    /// the equivalence that makes a run's thread count cache-key-invisible.
    #[test]
    fn sharded_source_matches_sequential_stream(
        trajs in proptest::collection::vec(trajectory_strategy(), 2..10),
        threads in 2usize..9,
        window in 5.0f64..60.0,
    ) {
        use dtn_mobility::{MobilityContactSource, ShardedContactSource};
        use dtn_sim::{ContactEvent, ContactSource};
        let duration = 40.0;
        let cfg = ContactGenConfig { range: 10.0, dt: 0.5 };
        let drain = |src: &mut dyn ContactSource, window: f64| {
            let mut out: Vec<ContactEvent> = Vec::new();
            let mut until = 0.0;
            while until < src.duration() {
                until = (until + window).min(src.duration());
                src.next_window(until, &mut out);
            }
            out
        };
        let mut seq = MobilityContactSource::new(trajs.clone(), duration, cfg);
        let reference = drain(&mut seq, duration);
        let mut sharded = ShardedContactSource::new(trajs, duration, cfg, threads);
        prop_assert_eq!(drain(&mut sharded, window), reference);
    }

    /// Generated traces always validate, whatever the trajectories.
    #[test]
    fn generated_traces_validate(
        trajs in proptest::collection::vec(trajectory_strategy(), 2..8),
        range in 1.0f64..40.0,
    ) {
        let cfg = ContactGenConfig { range, dt: 0.5 };
        let trace = generate_trace(&trajs, 30.0, cfg);
        prop_assert!(trace.validate().is_ok(), "{:?}", trace.validate());
    }
}
