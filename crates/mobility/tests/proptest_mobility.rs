//! Property-based tests of the mobility substrate: trajectory sampling and,
//! crucially, that the contact stepper's neighbour list agrees with a
//! brute-force O(n²) reference. The fast trajectories of the first
//! proptests rebuild the list at every step; the slow ones, the head-on
//! ladder and the jumping node check the steps between rebuilds.

use dtn_mobility::contacts::{generate_trace, ContactGenConfig};
use dtn_mobility::geometry::Point;
use dtn_mobility::trajectory::{Trajectory, TrajectoryCursor};
use dtn_mobility::MobilityContactSource;
use dtn_sim::{
    Contact, ContactEvent, ContactSource, ContactTrace, NodeId, NodePair, TraceReplaySource,
};
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

/// Strategy: a trajectory inside a 60 m box whose legs move at 0.5–15 m/s
/// (the paper's buses top out at 13.9 m/s), some followed by a pause. Slow
/// enough that the stepper rebuilds its neighbour list every 3 to 8 steps.
fn slow_trajectory_strategy() -> impl Strategy<Value = Trajectory> {
    proptest::collection::vec(
        (0.5f64..15.0, -30.0f64..30.0, -30.0f64..30.0, 0.0f64..6.0),
        1..10,
    )
    .prop_map(|legs| {
        let mut t = 0.0;
        let mut at = Point::new(legs[0].1, legs[0].2);
        let mut pts = vec![(0.0, at)];
        for (speed, x, y, pause) in legs {
            let to = Point::new(x, y);
            t += at.dist(to) / speed;
            pts.push((t, to));
            if pause > 3.0 {
                t += pause;
                pts.push((t, to));
            }
            at = to;
        }
        Trajectory::new(pts)
    })
}

/// A copy of `traj` with every breakpoint moved by `f`.
fn moved(traj: &Trajectory, f: &dyn Fn(Point) -> Point) -> Trajectory {
    Trajectory::new(traj.points().iter().map(|&(t, p)| (t, f(p))).collect())
}

/// `trajs` plus a copy of node 0 pinned 3 m away on the diagonal, so the
/// set has genuine contacts and the pinned pair straddles row and column
/// boundaries alike.
fn with_pinned_twin(mut trajs: Vec<Trajectory>) -> Vec<Trajectory> {
    let pin = 3.0 / std::f64::consts::SQRT_2;
    trajs.push(moved(&trajs[0], &|p| Point::new(p.x + pin, p.y + pin)));
    trajs
}

/// The contacts as sortable bit-exact keys, sorted.
fn contact_keys(contacts: &[Contact]) -> Vec<(NodePair, u64, u64)> {
    let mut keys: Vec<_> = contacts
        .iter()
        .map(|c| {
            (
                c.pair,
                c.start.as_secs().to_bits(),
                c.end.as_secs().to_bits(),
            )
        })
        .collect();
    keys.sort();
    keys
}

/// Pumps a source dry in windows of `window` seconds.
fn drain(src: &mut dyn ContactSource, window: f64) -> Vec<ContactEvent> {
    let mut out = Vec::new();
    let mut until = 0.0;
    while until < src.duration() {
        until = (until + window).min(src.duration());
        src.next_window(until, &mut out);
    }
    out
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
        let trajs = with_pinned_twin(
            trajs
                .iter()
                .map(|traj| moved(traj, &|p| Point::new(p.x * sx, p.y * sy)))
                .collect(),
        );
        let duration = 40.0;
        let cfg = ContactGenConfig { range: 10.0, dt: 0.5 };
        let fast = generate_trace(&trajs, duration, cfg);
        let slow = brute_force(&trajs, duration, cfg);
        prop_assert!(!slow.contacts.is_empty(), "the pinned pair must meet");
        prop_assert_eq!(fast.contacts.len(), slow.contacts.len());
        prop_assert_eq!(contact_keys(&fast.contacts), contact_keys(&slow.contacts));
    }

    /// Slow trajectories, whose neighbour list lives for several steps,
    /// agree with the brute-force reference at every `dt`, and their
    /// streamed windows — which end at arbitrary steps between rebuilds —
    /// replay the materialized trace event for event.
    #[test]
    fn slow_trajectories_match_brute_force_and_stream(
        trajs in proptest::collection::vec(slow_trajectory_strategy(), 2..8),
        dt in 0usize..3,
        window in 0.7f64..7.0,
    ) {
        let trajs = with_pinned_twin(trajs);
        let duration = 30.0;
        let cfg = ContactGenConfig { range: 10.0, dt: [0.1, 0.2, 0.5][dt] };
        let trace = generate_trace(&trajs, duration, cfg);
        let slow = brute_force(&trajs, duration, cfg);
        prop_assert!(!slow.contacts.is_empty(), "the pinned pair must meet");
        prop_assert_eq!(contact_keys(&trace.contacts), contact_keys(&slow.contacts));

        // A stable sort by time puts both supplies in the engine's pop order.
        let mut replayed = drain(&mut TraceReplaySource::new(&trace), duration);
        replayed.sort_by_key(|e| e.at());
        let mut streamed = drain(&mut MobilityContactSource::new(trajs, duration, cfg), window);
        streamed.sort_by_key(|e| e.at());
        prop_assert_eq!(streamed, replayed);
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

/// Head-on approaches at the paper's top bus speed: on lanes 1 km apart,
/// pairs drive at each other at 13.9 m/s from gaps of 200–320 m in 0.25 m
/// steps, so at every `dt` some pair sits just beyond the neighbour list's
/// reach at a rebuild and comes within range before the next one — the
/// case a skin sized one step short, or a rebuild one step late, gets
/// wrong. Lanes never meet, so the reference is each lane's brute-force
/// trace, renumbered.
#[test]
fn head_on_ladder_matches_brute_force() {
    const SPEED: f64 = 13.9;
    let duration = 14.0;
    let gaps: Vec<f64> = (0..=480).map(|k| 200.0 + 0.25 * f64::from(k)).collect();
    let drive = |from: Point, heading: f64| {
        let to = Point::new(from.x + heading * SPEED * duration, from.y);
        Trajectory::new(vec![(0.0, from), (duration, to)])
    };
    let mut trajs = Vec::new();
    for (lane, &gap) in gaps.iter().enumerate() {
        let y = lane as f64 * 1000.0;
        trajs.push(drive(Point::new(0.0, y), 1.0));
        trajs.push(drive(Point::new(gap, y), -1.0));
    }
    for dt in [0.1, 0.2, 0.5] {
        let cfg = ContactGenConfig { range: 10.0, dt };
        let fast = generate_trace(&trajs, duration, cfg);
        let mut reference = Vec::new();
        for (lane, pair) in trajs.chunks(2).enumerate() {
            let ids = NodePair::new(NodeId(2 * lane as u32), NodeId(2 * lane as u32 + 1));
            let lane_trace = brute_force(pair, duration, cfg);
            reference.extend(
                lane_trace
                    .contacts
                    .iter()
                    .map(|&c| Contact { pair: ids, ..c }),
            );
        }
        assert_eq!(
            reference.len(),
            gaps.len(),
            "dt {dt}: every pair meets once"
        );
        assert_eq!(
            contact_keys(&fast.contacts),
            contact_keys(&reference),
            "dt {dt}"
        );
    }
}

/// A node that jumps (a zero-duration segment) into range of a parked one
/// and later out of it. Its speed bound is infinite, so the list is rebuilt
/// at every step and the contact opens at the first step after the jump, as
/// in the brute-force reference.
#[test]
fn jumping_node_matches_brute_force() {
    let parked = Trajectory::stationary(Point::new(0.0, 0.0));
    let far = Point::new(100.0, 0.0);
    let near = Point::new(3.0, 0.0);
    let jumper = Trajectory::new(vec![
        (0.0, far),
        (5.03, far),
        (5.03, near),
        (9.07, near),
        (9.07, far),
    ]);
    let trajs = [parked, jumper];
    for dt in [0.1, 0.2, 0.5] {
        let cfg = ContactGenConfig { range: 10.0, dt };
        let fast = generate_trace(&trajs, 12.0, cfg);
        let slow = brute_force(&trajs, 12.0, cfg);
        assert_eq!(slow.contacts.len(), 1, "dt {dt}");
        assert_eq!(
            contact_keys(&fast.contacts),
            contact_keys(&slow.contacts),
            "dt {dt}"
        );
    }
}
