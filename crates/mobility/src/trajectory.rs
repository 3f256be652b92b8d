//! Piecewise-linear trajectories.
//!
//! Every mobility model reduces a node's movement to a [`Trajectory`]: a
//! sequence of `(time, point)` breakpoints with linear motion in between
//! (a pause is two breakpoints at the same position). Contact generation
//! samples trajectories monotonically through a [`TrajectoryCursor`], which
//! is O(1) amortised per sample.

use crate::geometry::Point;

/// A node's movement as time-stamped breakpoints, strictly increasing in
/// time, linearly interpolated.
#[derive(Clone, Debug)]
pub struct Trajectory {
    points: Vec<(f64, Point)>,
}

impl Trajectory {
    /// Builds a trajectory from breakpoints.
    ///
    /// # Panics
    /// Panics if empty or timestamps are not non-decreasing.
    pub fn new(points: Vec<(f64, Point)>) -> Self {
        assert!(!points.is_empty(), "trajectory needs at least one point");
        for w in points.windows(2) {
            assert!(w[1].0 >= w[0].0, "timestamps must be non-decreasing");
        }
        Trajectory { points }
    }

    /// A node that never moves.
    pub fn stationary(p: Point) -> Self {
        Trajectory {
            points: vec![(0.0, p)],
        }
    }

    /// The breakpoints.
    pub fn points(&self) -> &[(f64, Point)] {
        &self.points
    }

    /// Position at time `t` (clamped to the first/last breakpoint).
    pub fn position_at(&self, t: f64) -> Point {
        match self.points.binary_search_by(|(pt, _)| pt.total_cmp(&t)) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) if i == self.points.len() => self.points[i - 1].1,
            Err(i) => segment_pos(self.points[i - 1], self.points[i], t),
        }
    }

    /// Last breakpoint time.
    pub fn end_time(&self) -> f64 {
        self.points.last().unwrap().0
    }

    /// Maximum speed over all segments, m/s: an upper bound on how far the
    /// node moves per second, which the contact stepper's neighbour list
    /// relies on. A pause (two breakpoints at one point) has speed 0 whatever
    /// its duration; a jump (two breakpoints at one time, at different
    /// points) has speed `f64::INFINITY`.
    pub fn max_speed(&self) -> f64 {
        // Squared speeds, so a segment costs no square root.
        let mut max_sq = 0.0;
        for w in self.points.windows(2) {
            let d_sq = w[0].1.dist_sq(w[1].1);
            if d_sq > 0.0 {
                let dt = w[1].0 - w[0].0;
                let v_sq = d_sq / (dt * dt);
                if v_sq > max_sq {
                    max_sq = v_sq;
                }
            }
        }
        f64::sqrt(max_sq)
    }
}

#[inline]
fn segment_pos(a: (f64, Point), b: (f64, Point), t: f64) -> Point {
    if b.0 <= a.0 {
        return b.1;
    }
    let frac = (t - a.0) / (b.0 - a.0);
    a.1.lerp(b.1, frac)
}

/// Monotone-time sampler over a [`Trajectory`].
#[derive(Clone, Debug)]
pub struct TrajectoryCursor<'a> {
    traj: &'a Trajectory,
    seg: usize,
}

impl<'a> TrajectoryCursor<'a> {
    /// Creates a cursor positioned at the start.
    pub fn new(traj: &'a Trajectory) -> Self {
        TrajectoryCursor { traj, seg: 0 }
    }

    /// Creates a cursor resuming from a segment index previously obtained
    /// via [`TrajectoryCursor::seg`]. Sampling continues bitwise-identically
    /// to the cursor the index was taken from, which lets callers store the
    /// per-trajectory scan state as a plain `usize` instead of holding a
    /// borrowing cursor across calls.
    pub fn with_seg(traj: &'a Trajectory, seg: usize) -> Self {
        TrajectoryCursor { traj, seg }
    }

    /// The current segment index (monotone scan state), for
    /// [`TrajectoryCursor::with_seg`].
    pub fn seg(&self) -> usize {
        self.seg
    }

    /// Position at `t`; successive calls must use non-decreasing `t`.
    pub fn position_at(&mut self, t: f64) -> Point {
        let pts = &self.traj.points;
        while self.seg + 1 < pts.len() && pts[self.seg + 1].0 <= t {
            self.seg += 1;
        }
        if self.seg + 1 >= pts.len() {
            return pts[pts.len() - 1].1;
        }
        if t <= pts[self.seg].0 {
            return pts[self.seg].1;
        }
        segment_pos(pts[self.seg], pts[self.seg + 1], t)
    }
}

/// Builds a trajectory by walking `polyline` at per-segment `speed`,
/// starting at `start_time`, optionally pausing `pause` seconds at each
/// interior polyline vertex flagged as a stop.
///
/// `speeds` yields the speed for each segment; `stops` yields the pause for
/// each vertex after the first (0.0 = no stop).
pub fn walk_polyline(
    polyline: &[Point],
    start_time: f64,
    mut speeds: impl FnMut(usize) -> f64,
    mut stops: impl FnMut(usize) -> f64,
) -> Trajectory {
    assert!(!polyline.is_empty());
    let mut pts = Vec::with_capacity(polyline.len() * 2);
    let mut t = start_time;
    pts.push((t, polyline[0]));
    for i in 1..polyline.len() {
        let a = polyline[i - 1];
        let b = polyline[i];
        let len = a.dist(b);
        if len > 0.0 {
            let v = speeds(i - 1);
            assert!(v > 0.0, "segment speed must be positive");
            t += len / v;
            pts.push((t, b));
        }
        let pause = stops(i);
        if pause > 0.0 {
            t += pause;
            pts.push((t, b));
        }
    }
    Trajectory::new(pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj() -> Trajectory {
        Trajectory::new(vec![
            (0.0, Point::new(0.0, 0.0)),
            (10.0, Point::new(10.0, 0.0)),
            (15.0, Point::new(10.0, 0.0)), // pause
            (20.0, Point::new(10.0, 5.0)),
        ])
    }

    #[test]
    fn position_interpolates() {
        let t = traj();
        assert_eq!(t.position_at(0.0), Point::new(0.0, 0.0));
        assert_eq!(t.position_at(5.0), Point::new(5.0, 0.0));
        assert_eq!(t.position_at(12.0), Point::new(10.0, 0.0), "paused");
        assert_eq!(t.position_at(17.5), Point::new(10.0, 2.5));
        assert_eq!(t.position_at(99.0), Point::new(10.0, 5.0), "clamped");
        assert_eq!(t.position_at(-1.0), Point::new(0.0, 0.0), "clamped");
    }

    #[test]
    fn cursor_matches_binary_search() {
        let t = traj();
        let mut c = TrajectoryCursor::new(&t);
        for i in 0..200 {
            let tt = i as f64 * 0.25;
            let a = c.position_at(tt);
            let b = t.position_at(tt);
            assert!(a.dist(b) < 1e-9, "mismatch at {tt}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn max_speed_ignores_pauses() {
        let t = traj();
        assert!((t.max_speed() - 1.0).abs() < 1e-12);
        assert_eq!(t.end_time(), 20.0);
    }

    /// A zero-duration segment between two points is a jump at infinite
    /// speed; one at a single point is a pause, like the timed one.
    #[test]
    fn max_speed_is_infinite_for_a_jump() {
        let jump = Trajectory::new(vec![
            (0.0, Point::new(0.0, 0.0)),
            (5.0, Point::new(10.0, 0.0)),
            (5.0, Point::new(40.0, 0.0)),
            (9.0, Point::new(40.0, 0.0)),
        ]);
        assert_eq!(jump.max_speed(), f64::INFINITY);
        let still = Trajectory::new(vec![
            (0.0, Point::new(0.0, 0.0)),
            (5.0, Point::new(10.0, 0.0)),
            (5.0, Point::new(10.0, 0.0)),
        ]);
        assert_eq!(still.max_speed(), 2.0);
    }

    #[test]
    fn walk_polyline_with_stops() {
        let poly = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ];
        let t = walk_polyline(&poly, 5.0, |_| 2.0, |i| if i == 1 { 3.0 } else { 0.0 });
        // start 5, reach (10,0) at 10, pause until 13, reach (10,10) at 18.
        assert_eq!(t.position_at(5.0), Point::new(0.0, 0.0));
        assert_eq!(t.position_at(10.0), Point::new(10.0, 0.0));
        assert_eq!(t.position_at(12.0), Point::new(10.0, 0.0));
        assert_eq!(t.position_at(18.0), Point::new(10.0, 10.0));
        assert_eq!(t.end_time(), 18.0);
    }

    #[test]
    fn stationary_never_moves() {
        let t = Trajectory::stationary(Point::new(3.0, 4.0));
        assert_eq!(t.position_at(0.0), Point::new(3.0, 4.0));
        assert_eq!(t.position_at(1e6), Point::new(3.0, 4.0));
        assert_eq!(t.max_speed(), 0.0);
    }

    #[test]
    #[should_panic]
    fn decreasing_times_rejected() {
        let _ = Trajectory::new(vec![
            (1.0, Point::new(0.0, 0.0)),
            (0.5, Point::new(1.0, 0.0)),
        ]);
    }
}
