//! Contact detection from trajectories.
//!
//! Positions are sampled every `dt` seconds; nodes within `range` metres are
//! in contact. [`ContactStepper`] keeps a Verlet neighbour list: every
//! `K`-th step (a *rebuild*) bins the positions into a reused flat
//! counting-sort grid whose cell side is `reach`, so two nodes within
//! `reach` always sit in the same or in adjacent (wrapped) table cells, and
//! lists every pair within `reach`. Every step tests only the listed pairs
//! against `range`.
//!
//! The list is exact. Both numbers come from `v_max`, the largest
//! [`Trajectory::max_speed`] of the set: two nodes close in by at most
//! `2·v_max·dt` per step, so with `reach = range + 2·v_max·(K−1)·dt + slack`
//! a pair that was more than `reach` apart at a rebuild cannot come within
//! `range` before the next one. `K = min(8, 1 + ⌊4·range / (2·v_max·dt)⌋)`
//! keeps the skin within four ranges; a trajectory that jumps has
//! `v_max = ∞`, so `K = 1` and the list is rebuilt at every step. The
//! `slack`, `1e-9` of the largest coordinate plus 1 mm, absorbs the rounding
//! of interpolated positions. Every step therefore finds exactly the
//! in-range pairs a test of all pairs would.
//!
//! A rebuild computes each node's wrapped table cell once; the pair scan
//! then visits every pair of adjacent cells from one side only — a cell
//! with itself, with its east neighbour and with the three cells below it —
//! with no integer division and no hashing. Two stable counting passes over
//! node ids, by `b` and then by `a`, sort the pairs it finds into the list.
//! With fewer than three cells on an axis a cell pair can be reached from
//! both of its cells, so a pair can be found twice; the sort deduplicates.
//!
//! Each listed pair carries its open state beside the list: the start time
//! of its open contact, or none. A step is one pass over the list that
//! tests each pair against `range` and touches the state only of a pair
//! whose in-range bit flipped: it opens (an up, in pair order) or closes (a
//! down carrying its recorded start). A rebuild carries the open times of
//! pairs the new list keeps and closes every open pair it drops, which is
//! out of `reach` and so out of range. A step costs O(n + list) for the
//! sparse densities of vehicular scenarios and allocates nothing in steady
//! state.
//!
//! [`ContactStepper`] exposes the detector one sampling step at a time,
//! emitting opened and closed contacts — which is what lets contact supply
//! stream into the engine window-by-window (see [`crate::stream`]) instead
//! of materializing a whole-horizon trace. [`generate_trace`] drives the
//! same stepper to completion when a materialized [`ContactTrace`] is
//! wanted.

use crate::geometry::Point;
use crate::trajectory::{Trajectory, TrajectoryCursor};
use dtn_sim::{Contact, ContactTrace, NodeId, NodePair, SimTime};
use std::ops::Range;

/// Contact-detection parameters.
#[derive(Clone, Copy, Debug)]
pub struct ContactGenConfig {
    /// Radio range in metres (paper: 10).
    pub range: f64,
    /// Sampling step in seconds. The ONE simulator uses 0.1 s; with the
    /// paper's max speed (13.9 m/s) a 0.2 s step bounds the worst-case
    /// detection error at ≈ 5.6 m of relative motion.
    pub dt: f64,
}

impl Default for ContactGenConfig {
    fn default() -> Self {
        ContactGenConfig {
            range: 10.0,
            dt: 0.2,
        }
    }
}

/// A flat counting-sort spatial grid, rebuilt each step from reused buffers.
///
/// Layout: `starts[c]..starts[c + 1]` indexes into `items` and `points`, the
/// node ids and positions that fall in table cell `c = row * cols + col`.
/// World cell `(cx, cy)` — the cell formula `((p.x - min_x) / cell) as usize`
/// per axis — maps to table cell `(cx mod cols, cy mod rows)`. The table is
/// capped at O(n) cells; a world larger than the cap wraps (aliases) onto
/// the table, which only adds false candidates that the exact distance test
/// rejects. Adjacent world cells always map to the same or to adjacent
/// wrapped table cells, so the scan's coverage holds either way.
#[derive(Debug, Default)]
struct FlatGrid {
    cols: usize,
    rows: usize,
    /// Per-cell occupancy during the build; zeroed again by the scatter.
    counts: Vec<u32>,
    /// Exclusive prefix sums of `counts`: cell start offsets into `items`.
    starts: Vec<u32>,
    /// Node ids grouped by cell.
    items: Vec<u32>,
    /// The positions of `items`, slot for slot, so the scan reads them
    /// sequentially.
    points: Vec<Point>,
    /// Table cell of each node, kept for the scatter pass.
    cell_of: Vec<u32>,
}

impl FlatGrid {
    /// Rebuilds the grid over `positions` with cell size `cell`. O(n) time;
    /// buffers only ever grow, so a steady-state rebuild never allocates.
    fn build(&mut self, positions: &[Point], cell: f64) {
        let n = positions.len();
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let need_cols = (((max_x - min_x) / cell) as usize).saturating_add(1);
        let need_rows = (((max_y - min_y) / cell) as usize).saturating_add(1);
        (self.cols, self.rows) = table_shape(need_cols, need_rows, n.max(64) * 4);
        let (cols, rows) = (self.cols, self.rows);
        let cells = cols * rows;

        if self.counts.len() < cells + 1 {
            self.counts.resize(cells + 1, 0);
        }
        if self.starts.len() < cells + 1 {
            self.starts.resize(cells + 1, 0);
        }
        if self.items.len() < n {
            self.items.resize(n, 0);
            self.points.resize(n, Point::default());
        }
        if self.cell_of.len() < n {
            self.cell_of.resize(n, 0);
        }
        self.counts[..cells].fill(0);

        for (i, p) in positions.iter().enumerate() {
            let cx = ((p.x - min_x) / cell) as usize;
            let cy = ((p.y - min_y) / cell) as usize;
            let c = (cy % rows) * cols + cx % cols;
            self.cell_of[i] = c as u32;
            self.counts[c] += 1;
        }
        let mut running = 0u32;
        for c in 0..cells {
            self.starts[c] = running;
            running += self.counts[c];
        }
        self.starts[cells] = running;
        // Scatter, reusing `counts` as per-cell countdown cursors (this
        // leaves `counts` all-zero again for the next build).
        for (i, &p) in positions.iter().enumerate() {
            let c = self.cell_of[i] as usize;
            self.counts[c] -= 1;
            let slot = (self.starts[c] + self.counts[c]) as usize;
            self.items[slot] = i as u32;
            self.points[slot] = p;
        }
    }

    /// The slots of table cell `c`.
    #[inline]
    fn cell(&self, c: usize) -> Range<usize> {
        self.starts[c] as usize..self.starts[c + 1] as usize
    }

    /// Pushes every pair of nodes within `reach` of each other onto `out`,
    /// unsorted. `reach` must not exceed the cell side of the last build.
    ///
    /// Each table cell is scanned against itself, its east neighbour and the
    /// three cells of the row below (all wrapped), skipping a neighbour that
    /// is the cell itself or repeats an earlier one. Every pair of adjacent
    /// cells is thereby scanned from one of its two cells: a west neighbour
    /// scans the cell as its east, a cell in the row above as one of its
    /// three below. With fewer than three cells on an axis a cell pair can
    /// be scanned from both of its cells, so a pair can repeat.
    fn pairs_within(&self, reach: f64, out: &mut Vec<NodePair>) {
        let (cols, rows, starts) = (self.cols, self.rows, &self.starts);
        let reach_sq = reach * reach;
        let test = |a: usize, b: usize, out: &mut Vec<NodePair>| {
            if self.points[a].dist_sq(self.points[b]) <= reach_sq {
                out.push(NodePair::new(NodeId(self.items[a]), NodeId(self.items[b])));
            }
        };
        for row in 0..rows {
            let here = row * cols;
            let below = if row + 1 == rows { 0 } else { (row + 1) * cols };
            for col in 0..cols {
                let c = here + col;
                let own = self.cell(c);
                if own.is_empty() {
                    continue;
                }
                // Slot `a` of the cell pairs with the slots after it up to
                // `tail` and with the slot ranges in `near`.
                let tail;
                let mut near: [Range<usize>; 4] = Default::default();
                let mut k = 0;
                if rows >= 2 && col >= 1 && col + 1 < cols {
                    // Away from the table's edge columns, the cell and its
                    // east neighbour are adjacent slot ranges, and so are
                    // the three cells below.
                    tail = starts[c + 2] as usize;
                    near[0] = starts[below + col - 1] as usize..starts[below + col + 2] as usize;
                    k = 1;
                } else {
                    tail = own.end;
                    let west = if col == 0 { cols - 1 } else { col - 1 };
                    let east = if col + 1 == cols { 0 } else { col + 1 };
                    let cells = [here + east, below + west, below + col, below + east];
                    for (i, &nb) in cells.iter().enumerate() {
                        if nb != c && !cells[..i].contains(&nb) {
                            near[k] = self.cell(nb);
                            k += 1;
                        }
                    }
                }
                for a in own {
                    for b in a + 1..tail {
                        test(a, b, out);
                    }
                    for slots in &near[..k] {
                        for b in slots.clone() {
                            test(a, b, out);
                        }
                    }
                }
            }
        }
    }
}

/// The `(cols, rows)` of a table for a world `need_cols × need_rows` cells
/// large, holding at most `cap` cells. When the world is larger, both axes
/// shrink by the same factor — the shorter axis to its scaled length (never
/// below one cell), the longer one to whatever the cap leaves — so a wide
/// world wraps on both axes alike instead of collapsing to a few rows.
fn table_shape(need_cols: usize, need_rows: usize, cap: usize) -> (usize, usize) {
    if need_cols.saturating_mul(need_rows) <= cap {
        return (need_cols, need_rows);
    }
    let (short, long) = (need_cols.min(need_rows), need_cols.max(need_rows));
    let scale = (cap as f64 / (short as f64 * long as f64)).sqrt();
    let short = ((short as f64 * scale).round() as usize).max(1);
    let long = (cap / short).min(long);
    if need_cols <= need_rows {
        (short, long)
    } else {
        (long, short)
    }
}

/// The longest rebuild period `K` of the neighbour list, in steps. At the
/// paper's bus speeds both limits of `K` agree: 8 steps give a 39 m skin,
/// just under four ranges.
const MAX_REBUILD_PERIOD: u64 = 8;

/// The rebuild period `K` and the list radius `reach` for `trajs` (see the
/// module doc): `v_max` is the largest [`Trajectory::max_speed`], and the
/// slack scales with the largest breakpoint coordinate, which bounds every
/// interpolated position.
fn neighbour_list_shape(trajs: &[Trajectory], cfg: ContactGenConfig) -> (u64, f64) {
    let (mut v_max, mut extent) = (0.0f64, 0.0f64);
    for traj in trajs {
        v_max = v_max.max(traj.max_speed());
        for &(_, p) in traj.points() {
            let far = p.x.abs().max(p.y.abs());
            // A compare, not `f64::max`, keeps the loop free of NaN
            // handling: this pass runs in every stream build.
            if far > extent {
                extent = far;
            }
        }
    }
    // How much closer two nodes can get in one step. At `v_max = 0` the
    // quotient is infinite and the period is the cap; at `v_max = ∞` it is 0
    // and the period is 1, whose skin is empty (not `∞ · 0`).
    let closing = 2.0 * v_max * cfg.dt;
    let period = (1.0 + (4.0 * cfg.range / closing).floor()).min(MAX_REBUILD_PERIOD as f64) as u64;
    let skin = if period > 1 {
        closing * (period - 1) as f64
    } else {
        0.0
    };
    let reach = cfg.range + skin;
    (period, reach + 1e-9 * (extent + reach) + 1e-3)
}

/// Incremental, windowed contact detector over a fixed trajectory set.
///
/// Owns all scratch state — per-trajectory cursor positions, the flat
/// spatial grid, the neighbour list with each listed pair's open state, and
/// the rebuild's sort buffers — so that a steady-state
/// [`ContactStepper::step`] performs zero heap allocations once buffers are
/// warm. A step samples every position; on a rebuild step it bins them into
/// the grid, lists the pairs within `reach` and carries the open contacts
/// over; then one pass over the list tests each pair against `range`.
/// [`generate_trace`] drives the stepper to completion for the materialized
/// path; [`crate::stream::MobilityContactSource`] drives it
/// window-by-window so a run never holds the whole-horizon contact process
/// in memory.
#[derive(Debug)]
pub struct ContactStepper {
    cfg: ContactGenConfig,
    duration: f64,
    steps: u64,
    step: u64,
    finalized: bool,
    /// Steps from one neighbour-list rebuild to the next (`K`).
    period: u64,
    /// The list radius: `range`, the skin and the float slack.
    reach: f64,
    /// Per-trajectory monotone cursor state ([`TrajectoryCursor::seg`]).
    segs: Vec<usize>,
    positions: Vec<Point>,
    grid: FlatGrid,
    /// The pairs within `reach` at the last rebuild, sorted by pair.
    neighbours: Vec<NodePair>,
    /// Per listed pair, slot for slot, the start of its open contact, or
    /// [`CLOSED`].
    since: Vec<f64>,
    /// Rebuild scratch: the scanned pairs, sorted into the next list.
    scanned: Vec<NodePair>,
    /// Rebuild scratch: the first counting pass's output.
    by_b: Vec<NodePair>,
    /// Rebuild scratch: per-node-id counts and offsets of a counting pass.
    counts: Vec<u32>,
    /// Rebuild scratch: the next list's open times.
    next_since: Vec<f64>,
}

/// The `since` of a listed pair that is not in contact.
const CLOSED: f64 = f64::NEG_INFINITY;

/// The contact of `pair` from `start` to `end`.
fn closed(pair: NodePair, start: f64, end: f64) -> Contact {
    Contact {
        pair,
        start: SimTime::secs(start),
        end: SimTime::secs(end),
    }
}

/// Sorts `pairs` by `(a, b)` and drops repeats, with two stable counting
/// passes over node ids below `n`: by `b` into `tmp`, then by `a` back into
/// `pairs`. `tmp` and `counts` are scratch, reused across calls.
fn sort_pairs(pairs: &mut Vec<NodePair>, tmp: &mut Vec<NodePair>, counts: &mut Vec<u32>, n: usize) {
    tmp.clone_from(pairs);
    counts.resize(n, 0);
    counting_pass(pairs, tmp, counts, |p| p.b);
    counting_pass(tmp, pairs, counts, |p| p.a);
    pairs.dedup();
}

/// Scatters `src` into `dst`, stably ordered by `key`. `counts` has one
/// entry per possible key.
fn counting_pass(
    src: &[NodePair],
    dst: &mut [NodePair],
    counts: &mut [u32],
    key: impl Fn(&NodePair) -> NodeId,
) {
    counts.fill(0);
    for p in src {
        counts[key(p).idx()] += 1;
    }
    let mut offset = 0;
    for c in counts.iter_mut() {
        (*c, offset) = (offset, offset + *c);
    }
    for p in src {
        let slot = &mut counts[key(p).idx()];
        dst[*slot as usize] = *p;
        *slot += 1;
    }
}

impl ContactStepper {
    /// Creates a stepper for `trajs` over `[0, duration)`, with the
    /// neighbour list's rebuild period and radius derived from their speeds.
    ///
    /// # Panics
    /// Panics if `range` or `dt` is not positive.
    pub fn new(trajs: &[Trajectory], duration: f64, cfg: ContactGenConfig) -> Self {
        assert!(cfg.range > 0.0 && cfg.dt > 0.0);
        let n = trajs.len();
        let (period, reach) = neighbour_list_shape(trajs, cfg);
        ContactStepper {
            cfg,
            duration,
            steps: (duration / cfg.dt).ceil() as u64,
            step: 0,
            finalized: false,
            period,
            reach,
            segs: vec![0; n],
            positions: vec![Point::default(); n],
            grid: FlatGrid::default(),
            neighbours: Vec::new(),
            since: Vec::new(),
            scanned: Vec::new(),
            by_b: Vec::new(),
            counts: Vec::new(),
            next_since: Vec::new(),
        }
    }

    /// The timestamp the next [`ContactStepper::step`] call will process:
    /// each sampling instant in turn, then `duration` once for the horizon
    /// close-out, then `None`.
    pub fn next_time(&self) -> Option<f64> {
        if self.finalized {
            None
        } else if self.step < self.steps {
            Some(self.step as f64 * self.cfg.dt)
        } else {
            Some(self.duration)
        }
    }

    /// Advances one sampling step, appending contacts that closed at its
    /// time `t` to `downs` (sorted by `(start, pair)`) and pairs that came
    /// into contact at `t` to `ups` (sorted by pair). The final call — at
    /// `t = duration` — closes every still-open contact. Returns the
    /// processed timestamp, or `None` once the horizon has been finalized.
    ///
    /// `trajs` must be the slice given to [`ContactStepper::new`], unchanged
    /// across calls.
    pub fn step(
        &mut self,
        trajs: &[Trajectory],
        downs: &mut Vec<Contact>,
        ups: &mut Vec<NodePair>,
    ) -> Option<f64> {
        assert_eq!(trajs.len(), self.segs.len(), "trajectory set changed");
        if self.finalized {
            return None;
        }
        let down_base = downs.len();
        let t = if self.step >= self.steps {
            self.finalized = true;
            let end = self.duration;
            for (&pair, &since) in self.neighbours.iter().zip(&self.since) {
                if since != CLOSED {
                    downs.push(closed(pair, since, end));
                }
            }
            end
        } else {
            let t = self.step as f64 * self.cfg.dt;
            for (i, traj) in trajs.iter().enumerate() {
                let mut cur = TrajectoryCursor::with_seg(traj, self.segs[i]);
                self.positions[i] = cur.position_at(t);
                self.segs[i] = cur.seg();
            }
            if self.step.is_multiple_of(self.period) {
                self.rebuild(t, downs);
            }
            // Only a pair whose in-range bit flipped touches its state; the
            // list is pair-sorted, so the ups need no sort.
            let range_sq = self.cfg.range * self.cfg.range;
            let positions = &self.positions;
            for (&pair, since) in self.neighbours.iter().zip(&mut self.since) {
                let within = positions[pair.a.idx()].dist_sq(positions[pair.b.idx()]) <= range_sq;
                if within != (*since != CLOSED) {
                    if within {
                        *since = t;
                        ups.push(pair);
                    } else {
                        downs.push(closed(pair, *since, t));
                        *since = CLOSED;
                    }
                }
            }
            self.step += 1;
            t
        };
        downs[down_base..].sort_unstable_by_key(|c| (c.start, c.pair));
        Some(t)
    }

    /// Lists the pairs within `reach` of the positions at `t` as the new
    /// neighbour list, carrying each listed pair's open state over from the
    /// old list and closing at `t`, onto `downs`, every open pair the new
    /// list lacks: it is out of `reach`, so out of range.
    fn rebuild(&mut self, t: f64, downs: &mut Vec<Contact>) {
        self.grid.build(&self.positions, self.reach);
        self.scanned.clear();
        self.grid.pairs_within(self.reach, &mut self.scanned);
        let n = self.positions.len();
        sort_pairs(&mut self.scanned, &mut self.by_b, &mut self.counts, n);
        // Both lists are pair-sorted: merge them.
        self.next_since.clear();
        let mut old = self.neighbours.iter().zip(&self.since).peekable();
        for &pair in &self.scanned {
            while let Some((&gone, &since)) = old.next_if(|&(&o, _)| o < pair) {
                if since != CLOSED {
                    downs.push(closed(gone, since, t));
                }
            }
            let kept = old.next_if(|&(&o, _)| o == pair);
            self.next_since
                .push(kept.map_or(CLOSED, |(_, &since)| since));
        }
        for (&gone, &since) in old {
            if since != CLOSED {
                downs.push(closed(gone, since, t));
            }
        }
        std::mem::swap(&mut self.neighbours, &mut self.scanned);
        std::mem::swap(&mut self.since, &mut self.next_since);
    }
}

/// Generates the contact trace of `trajs` over `[0, duration)`.
///
/// # Panics
/// Panics if `range` or `dt` is not positive.
pub fn generate_trace(trajs: &[Trajectory], duration: f64, cfg: ContactGenConfig) -> ContactTrace {
    let mut stepper = ContactStepper::new(trajs, duration, cfg);
    let mut contacts = Vec::new();
    let mut ups = Vec::new();
    while stepper.step(trajs, &mut contacts, &mut ups).is_some() {
        ups.clear();
    }
    ContactTrace::new(trajs.len() as u32, duration, contacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    /// Two nodes crossing: A fixed at origin, B drives past along x.
    #[test]
    fn crossing_nodes_make_one_contact() {
        let a = Trajectory::stationary(Point::new(0.0, 0.0));
        let b = Trajectory::new(vec![
            (0.0, Point::new(-100.0, 0.0)),
            (40.0, Point::new(100.0, 0.0)), // 5 m/s
        ]);
        let trace = generate_trace(
            &[a, b],
            60.0,
            ContactGenConfig {
                range: 10.0,
                dt: 0.2,
            },
        );
        assert_eq!(trace.contacts.len(), 1);
        let c = trace.contacts[0];
        // In range for |x| <= 10 → 20 m at 5 m/s = 4 s around t = 20.
        assert!(
            (c.duration() - 4.0).abs() <= 0.5,
            "duration {}",
            c.duration()
        );
        assert!((c.start.as_secs() - 18.0).abs() <= 0.5);
        assert!(trace.validate().is_ok());
    }

    #[test]
    fn far_nodes_never_meet() {
        let a = Trajectory::stationary(Point::new(0.0, 0.0));
        let b = Trajectory::stationary(Point::new(1000.0, 0.0));
        let trace = generate_trace(&[a, b], 100.0, ContactGenConfig::default());
        assert!(trace.contacts.is_empty());
    }

    #[test]
    fn contact_open_at_horizon_is_closed() {
        let a = Trajectory::stationary(Point::new(0.0, 0.0));
        let b = Trajectory::stationary(Point::new(5.0, 0.0));
        let trace = generate_trace(&[a, b], 50.0, ContactGenConfig::default());
        assert_eq!(trace.contacts.len(), 1);
        assert_eq!(trace.contacts[0].start.as_secs(), 0.0);
        assert_eq!(trace.contacts[0].end.as_secs(), 50.0);
        assert!(trace.validate().is_ok());
    }

    /// Repeated approach/retreat produces one contact per approach.
    #[test]
    fn oscillating_node_produces_multiple_contacts() {
        let a = Trajectory::stationary(Point::new(0.0, 0.0));
        let mut pts = vec![(0.0, Point::new(50.0, 0.0))];
        let mut t = 0.0;
        for _ in 0..3 {
            t += 10.0;
            pts.push((t, Point::new(0.0, 0.0)));
            t += 10.0;
            pts.push((t, Point::new(50.0, 0.0)));
        }
        let b = Trajectory::new(pts);
        let trace = generate_trace(&[a, b], t + 5.0, ContactGenConfig::default());
        assert_eq!(trace.contacts.len(), 3);
        assert!(trace.validate().is_ok());
    }

    /// The grid must not miss pairs straddling cell boundaries.
    #[test]
    fn grid_boundary_pairs_detected() {
        // Exactly range apart, straddling a cell boundary.
        let a = Trajectory::stationary(Point::new(9.99, 0.0));
        let b = Trajectory::stationary(Point::new(10.01, 0.0));
        let c = Trajectory::stationary(Point::new(19.0, 0.0));
        let trace = generate_trace(&[a, b, c], 10.0, ContactGenConfig::default());
        // a-b touch; b-c touch; a-c are 9.01 apart → touch too.
        assert_eq!(trace.contacts.len(), 3);
    }

    /// Negative coordinates hash correctly (floor division).
    #[test]
    fn negative_coordinates() {
        let a = Trajectory::stationary(Point::new(-3.0, -3.0));
        let b = Trajectory::stationary(Point::new(3.0, 3.0));
        let trace = generate_trace(&[a, b], 5.0, ContactGenConfig::default());
        assert_eq!(trace.contacts.len(), 1);
    }

    /// A world far wider than the cell cap wraps onto the table; aliased
    /// candidates must not turn into false contacts.
    #[test]
    fn wide_world_wraps_without_false_contacts() {
        let mut trajs = Vec::new();
        for k in 0..6 {
            trajs.push(Trajectory::stationary(Point::new(k as f64 * 1.0e5, 0.0)));
        }
        // One genuinely close pair.
        trajs.push(Trajectory::stationary(Point::new(3.0, 0.0)));
        let trace = generate_trace(&trajs, 5.0, ContactGenConfig::default());
        assert_eq!(trace.contacts.len(), 1);
        let c = trace.contacts[0];
        assert_eq!(c.pair, NodePair::new(NodeId(0), NodeId(6)));
    }

    /// A world within the cap keeps its shape; a larger one shrinks both
    /// axes alike, within the cap, never below one cell per axis.
    #[test]
    fn table_shape_shrinks_both_axes_alike() {
        assert_eq!(table_shape(5, 6, 256), (5, 6));
        assert_eq!(table_shape(1, 1, 256), (1, 1));
        // A 5 km x 3 km world at n = 2000: both axes wrap, by about the same
        // factor, instead of keeping every column and a handful of rows.
        assert_eq!(table_shape(500, 300, 8000), (115, 69));
        assert_eq!(table_shape(300, 500, 8000), (69, 115));
        assert_eq!(table_shape(12_000, 12_000, 256), (16, 16));
        // A thin world: the short axis bottoms out at one cell.
        assert_eq!(table_shape(12_000, 4, 256), (256, 1));
        assert_eq!(table_shape(100, 3, 256), (85, 3));
        for (w, h, cap) in [
            (7, 1000, 64),
            (1 << 40, 3, 256),
            (usize::MAX, usize::MAX, 400),
        ] {
            let (cols, rows) = table_shape(w, h, cap);
            assert!(cols >= 1 && rows >= 1 && cols * rows <= cap, "{w}x{h}");
            assert!(cols <= w && rows <= h, "{w}x{h}");
        }
    }

    /// The rebuild period and the list radius follow the speed bound: the
    /// paper's buses rebuild every 8 steps, a fast or jumping node every
    /// step with no skin, a parked set every 8 steps with no skin.
    #[test]
    fn neighbour_list_shape_follows_the_speed_bound() {
        let cfg = ContactGenConfig::default();
        let drive = |v: f64| {
            Trajectory::new(vec![
                (0.0, Point::new(0.0, 0.0)),
                (10.0, Point::new(10.0 * v, 0.0)),
            ])
        };
        let parked = Trajectory::stationary(Point::new(0.0, 0.0));
        let jump = Trajectory::new(vec![
            (0.0, Point::new(0.0, 0.0)),
            (0.0, Point::new(100.0, 0.0)),
        ]);
        let shape = |trajs: &[Trajectory]| neighbour_list_shape(trajs, cfg);
        let (k, reach) = shape(&[parked.clone(), drive(13.9)]);
        assert_eq!(k, 8);
        assert!(
            (reach - (10.0 + 2.0 * 13.9 * 0.2 * 7.0)).abs() < 2e-3,
            "{reach}"
        );
        // 4·range / (2·v·dt) = 2.5: the skin stays within four ranges.
        assert_eq!(shape(&[drive(40.0)]).0, 3);
        for (trajs, want) in [
            (vec![parked.clone()], 8),
            (vec![drive(1_700.0)], 1),
            (vec![parked, jump], 1),
        ] {
            let (k, reach) = shape(&trajs);
            assert_eq!(k, want);
            assert!(reach > 10.0 && reach < 10.002, "{reach}");
        }
    }

    /// The stepper emits per-step ups/downs consistent with the trace, and
    /// finalizes exactly once.
    #[test]
    fn stepper_streams_the_same_contacts() {
        let a = Trajectory::stationary(Point::new(0.0, 0.0));
        let b = Trajectory::new(vec![
            (0.0, Point::new(-100.0, 0.0)),
            (40.0, Point::new(100.0, 0.0)),
        ]);
        let trajs = [a, b];
        let trace = generate_trace(&trajs, 60.0, ContactGenConfig::default());

        let mut stepper = ContactStepper::new(&trajs, 60.0, ContactGenConfig::default());
        let mut downs = Vec::new();
        let mut ups = Vec::new();
        let mut n_ups = 0;
        while let Some(t) = stepper.next_time() {
            let processed = stepper.step(&trajs, &mut downs, &mut ups).unwrap();
            assert_eq!(processed, t);
            n_ups += ups.len();
            ups.clear();
        }
        assert!(stepper.next_time().is_none());
        assert!(stepper.step(&trajs, &mut downs, &mut ups).is_none());
        assert_eq!(downs.len(), trace.contacts.len());
        assert_eq!(n_ups, trace.contacts.len());
        assert_eq!(downs, trace.contacts);
    }

    /// The whole-table scan lists exactly the brute-force set of pairs
    /// within the stepper's `reach` — no pair missed, none listed twice (in
    /// a world small enough not to wrap the grid table) — and a rebuild step
    /// installs that set as the neighbour list.
    #[test]
    fn band_scan_owns_every_pair_exactly_once() {
        // A lattice spread across many grid rows, with pairs deliberately
        // straddling row boundaries, drifting east at 1 m/s: the skin makes
        // `reach` about 12.8 m, so pairs 12 m apart are listed though out of
        // range.
        let mut trajs = Vec::new();
        for r in 0..7 {
            for c in 0..8 {
                let p = Point::new(c as f64 * 6.0, r as f64 * 9.5);
                trajs.push(Trajectory::new(vec![
                    (0.0, p),
                    (10.0, Point::new(p.x + 10.0, p.y)),
                ]));
            }
        }
        let cfg = ContactGenConfig::default();
        let mut stepper = ContactStepper::new(&trajs, 10.0, cfg);
        assert_eq!(stepper.period, 8);
        assert!(
            stepper.reach > 12.5 && stepper.reach < 13.0,
            "{}",
            stepper.reach
        );
        let reach_sq = stepper.reach * stepper.reach;

        let mut brute: Vec<NodePair> = Vec::new();
        let mut out_of_range = 0;
        for i in 0..trajs.len() {
            for j in i + 1..trajs.len() {
                let (pi, pj) = (trajs[i].points()[0].1, trajs[j].points()[0].1);
                if pi.dist_sq(pj) <= reach_sq {
                    brute.push(NodePair::new(NodeId(i as u32), NodeId(j as u32)));
                    out_of_range += usize::from(pi.dist_sq(pj) > cfg.range * cfg.range);
                }
            }
        }
        brute.sort_unstable();
        assert!(brute.len() > 20, "lattice should be well connected");
        assert!(out_of_range > 0, "the skin should list pairs out of range");

        let (mut downs, mut ups) = (Vec::new(), Vec::new());
        assert_eq!(stepper.step(&trajs, &mut downs, &mut ups), Some(0.0));
        assert_eq!(stepper.neighbours, brute);
        // The raw scan of that rebuild's grid lists no pair twice.
        let grid = &stepper.grid;
        assert!(grid.cols >= 3 && grid.rows >= 3, "the table must not wrap");
        let mut listed = Vec::new();
        grid.pairs_within(stepper.reach, &mut listed);
        let raw_len = listed.len();
        listed.sort_unstable();
        listed.dedup();
        assert_eq!(raw_len, listed.len(), "the scan listed a pair twice");
        assert_eq!(listed, brute, "the scan missed or invented pairs");
    }

    /// The two counting passes sort and deduplicate exactly as
    /// `sort_unstable` plus `dedup` do, on random pairs with repeats and
    /// with ids up to `n − 1`, reusing their scratch across calls.
    #[test]
    fn counting_sort_matches_sort_and_dedup() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(26);
        let (mut tmp, mut counts) = (Vec::new(), Vec::new());
        for n in [2u32, 3, 17, 300] {
            for len in [0usize, 1, 5, 64, 2000] {
                let mut pairs: Vec<NodePair> = (0..len)
                    .map(|_| {
                        let a = rng.gen_range(0..n);
                        let b = (a + rng.gen_range(1..n)) % n;
                        NodePair::new(NodeId(a), NodeId(b))
                    })
                    .collect();
                pairs.push(NodePair::new(NodeId(n - 1), NodeId(0)));
                // Repeats, apart and adjacent, as a scan over a narrow
                // table finds them.
                let repeats: Vec<NodePair> = pairs.iter().step_by(3).copied().collect();
                pairs.extend(repeats);
                pairs.push(pairs[0]);
                let mut want = pairs.clone();
                want.sort_unstable();
                want.dedup();
                sort_pairs(&mut pairs, &mut tmp, &mut counts, n as usize);
                assert_eq!(pairs, want, "n {n}, {len} random pairs");
            }
        }
    }
}
