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
//! with no integer division and no hashing, and sorts the pairs it finds
//! into the list. A step costs O(n + list) for the sparse densities of
//! vehicular scenarios and allocates nothing in steady state.
//!
//! Open contacts are a pair-sorted list. Each step merges it with the
//! listed pairs in range, which are pair-sorted as the list is: a pair only
//! in the open list has closed, a pair only in the step has opened.
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
/// spatial grid, the neighbour list, the pair-sorted list of open contacts
/// and its merge target — so that a steady-state [`ContactStepper::step`]
/// performs zero heap allocations once buffers are warm. A step runs in
/// three phases: `prepare_step` samples the positions and, on a rebuild
/// step, rebuilds the grid; `scan_band` collects the pairs within `reach`
/// of a band of grid rows; and `commit_step` installs them as the list on a
/// rebuild step, then merges the listed pairs in range into the open
/// contacts. [`ContactStepper::step`] runs the three with one band;
/// [`crate::shard`] runs the scan on a worker pool. [`generate_trace`]
/// drives the stepper to completion for the materialized path;
/// [`crate::stream::MobilityContactSource`] drives it window-by-window so a
/// run never holds the whole-horizon contact process in memory.
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
    /// Open contacts `(pair, start time)`, sorted by pair.
    open: Vec<(NodePair, f64)>,
    /// The merge target of the next commit; swapped with `open` after it.
    next_open: Vec<(NodePair, f64)>,
    /// Pairs within `reach` of a rebuild step, for [`ContactStepper::step`].
    candidates: Vec<NodePair>,
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
            open: Vec::new(),
            next_open: Vec::new(),
            candidates: Vec::new(),
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
        let scan = self.prepare_step(trajs)?;
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        if scan {
            self.scan_band(0, 1, &mut candidates);
        }
        let t = self.commit_step(&mut candidates, downs, ups);
        self.candidates = candidates;
        t
    }

    /// Whether the current step rebuilds the neighbour list.
    #[inline]
    fn rebuilds(&self) -> bool {
        self.step.is_multiple_of(self.period)
    }

    /// Phase 1 of a step: advances every trajectory cursor to the next
    /// sampling instant and, on a rebuild step, rebuilds the grid, without
    /// touching the open contacts or the step counter.
    ///
    /// Returns `None` once the horizon has been finalized, `Some(true)` on a
    /// rebuild step, when the grid is ready for
    /// [`ContactStepper::scan_band`], and `Some(false)` otherwise — between
    /// rebuilds and at the horizon close-out there is nothing to scan, so go
    /// straight to [`ContactStepper::commit_step`].
    pub(crate) fn prepare_step(&mut self, trajs: &[Trajectory]) -> Option<bool> {
        assert_eq!(trajs.len(), self.segs.len(), "trajectory set changed");
        if self.finalized {
            return None;
        }
        if self.step >= self.steps {
            return Some(false);
        }
        let t = self.step as f64 * self.cfg.dt;
        for (i, traj) in trajs.iter().enumerate() {
            let mut cur = TrajectoryCursor::with_seg(traj, self.segs[i]);
            self.positions[i] = cur.position_at(t);
            self.segs[i] = cur.seg();
        }
        let rebuild = self.rebuilds();
        if rebuild {
            self.grid.build(&self.positions, self.reach);
        }
        Some(rebuild)
    }

    /// Phase 2 of a rebuild step: scans band `band` of `n_bands` horizontal
    /// bands of grid rows, pushing every pair within `reach` found from a
    /// cell of the band. Read-only, so any number of workers can scan
    /// disjoint bands of one prepared step concurrently.
    ///
    /// Each table cell is scanned against itself, its east neighbour and the
    /// three cells of the row below (all wrapped), skipping a neighbour that
    /// is the cell itself or repeats an earlier one. Every pair of adjacent
    /// cells is thereby scanned from exactly one of its two cells: a west
    /// neighbour scans the cell as its east, a cell in the row above as one
    /// of its three below. Every row lies in exactly one band, so the union
    /// over the bands is exactly the pair set of the one-band scan that
    /// [`ContactStepper::step`] runs — independently of `n_bands`. With fewer
    /// than three cells on an axis a cell pair can be scanned from both of
    /// its cells, so a pair can repeat; [`ContactStepper::commit_step`]
    /// dedups.
    pub(crate) fn scan_band(&self, band: usize, n_bands: usize, out: &mut Vec<NodePair>) {
        let grid = &self.grid;
        let (cols, rows, starts) = (grid.cols, grid.rows, &grid.starts);
        let reach_sq = self.reach * self.reach;
        let test = |a: usize, b: usize, out: &mut Vec<NodePair>| {
            if grid.points[a].dist_sq(grid.points[b]) <= reach_sq {
                out.push(NodePair::new(NodeId(grid.items[a]), NodeId(grid.items[b])));
            }
        };
        for row in band * rows / n_bands..(band + 1) * rows / n_bands {
            let here = row * cols;
            let below = if row + 1 == rows { 0 } else { (row + 1) * cols };
            for col in 0..cols {
                let c = here + col;
                let own = grid.cell(c);
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
                            near[k] = grid.cell(nb);
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

    /// Phase 3 of a step: on a rebuild step installs the pairs the bands
    /// found as the neighbour list, then merges the listed pairs in range
    /// into the open contacts and emits `downs` sorted by `(start, pair)`
    /// and `ups` sorted by pair. Also handles the horizon close-out step.
    /// `candidates` is read only when [`ContactStepper::prepare_step`]
    /// returned `Some(true)`. Returns the processed timestamp.
    ///
    /// On a rebuild step `candidates` is sorted and deduplicated, then
    /// swapped with the previous list, which it holds on return; the
    /// candidate *set* — not its order — determines the outcome, so the band
    /// count and the workers' completion order can never change the result.
    pub(crate) fn commit_step(
        &mut self,
        candidates: &mut Vec<NodePair>,
        downs: &mut Vec<Contact>,
        ups: &mut Vec<NodePair>,
    ) -> Option<f64> {
        if self.finalized {
            return None;
        }
        let down_base = downs.len();
        let closed = |(pair, start): (NodePair, f64), end: f64| Contact {
            pair,
            start: SimTime::secs(start),
            end: SimTime::secs(end),
        };
        let t = if self.step >= self.steps {
            self.finalized = true;
            let end = self.duration;
            downs.extend(self.open.drain(..).map(|o| closed(o, end)));
            end
        } else {
            let t = self.step as f64 * self.cfg.dt;
            if self.rebuilds() {
                // The key orders pairs as `NodePair`'s `Ord` does, in one
                // compare.
                candidates.sort_unstable_by_key(|p| (u64::from(p.a.0) << 32) | u64::from(p.b.0));
                candidates.dedup();
                std::mem::swap(&mut self.neighbours, candidates);
            }
            let range_sq = self.cfg.range * self.cfg.range;
            let positions = &self.positions;
            let in_range = self.neighbours.iter().filter(|p| {
                positions[p.a.0 as usize].dist_sq(positions[p.b.0 as usize]) <= range_sq
            });
            // Both lists are pair-sorted: a pair only in `open` has closed,
            // one only in range has opened — in pair order, so the ups need
            // no sort.
            self.next_open.clear();
            let mut open = self.open.iter().peekable();
            for &pair in in_range {
                while let Some(&gone) = open.next_if(|o| o.0 < pair) {
                    downs.push(closed(gone, t));
                }
                match open.next_if(|o| o.0 == pair) {
                    Some(&kept) => self.next_open.push(kept),
                    None => {
                        self.next_open.push((pair, t));
                        ups.push(pair);
                    }
                }
            }
            downs.extend(open.map(|&gone| closed(gone, t)));
            std::mem::swap(&mut self.open, &mut self.next_open);
            self.step += 1;
            t
        };
        downs[down_base..].sort_unstable_by_key(|c| (c.start, c.pair));
        Some(t)
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

    /// Band partition ownership: for any band count, the union of the bands'
    /// candidates equals the brute-force set of pairs within the stepper's
    /// `reach` — no pair missed, none owned by two bands (in a world small
    /// enough not to wrap the grid table).
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
        let probe = ContactStepper::new(&trajs, 10.0, cfg);
        assert_eq!(probe.period, 8);
        assert!(probe.reach > 12.5 && probe.reach < 13.0, "{}", probe.reach);
        let reach_sq = probe.reach * probe.reach;

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

        for n_bands in [1usize, 2, 3, 5, 8] {
            let mut stepper = ContactStepper::new(&trajs, 10.0, cfg);
            assert_eq!(stepper.prepare_step(&trajs), Some(true));
            let mut union = Vec::new();
            for band in 0..n_bands {
                stepper.scan_band(band, n_bands, &mut union);
            }
            let raw_len = union.len();
            union.sort_unstable();
            union.dedup();
            assert_eq!(
                raw_len,
                union.len(),
                "{n_bands} bands produced duplicate candidates"
            );
            assert_eq!(union, brute, "{n_bands} bands missed or invented pairs");
        }
    }

    /// The prepare/scan/commit decomposition reproduces the sequential
    /// stepper's downs/ups streams bit for bit, including the horizon
    /// close-out.
    #[test]
    fn phased_step_matches_sequential_step() {
        let mut trajs = Vec::new();
        for k in 0..8 {
            trajs.push(Trajectory::new(vec![
                (0.0, Point::new(k as f64 * 7.0, 0.0)),
                (30.0, Point::new((7 - k) as f64 * 7.0, 12.0)),
            ]));
        }
        let cfg = ContactGenConfig::default();

        let mut seq = ContactStepper::new(&trajs, 30.0, cfg);
        let mut seq_downs = Vec::new();
        let mut seq_ups = Vec::new();
        let mut phased = ContactStepper::new(&trajs, 30.0, cfg);
        let mut ph_downs = Vec::new();
        let mut ph_ups = Vec::new();
        let mut cands = Vec::new();

        loop {
            let a = seq.step(&trajs, &mut seq_downs, &mut seq_ups);
            let scan = phased.prepare_step(&trajs);
            cands.clear();
            if scan == Some(true) {
                for band in 0..3 {
                    phased.scan_band(band, 3, &mut cands);
                }
            }
            let b = if scan.is_some() {
                phased.commit_step(&mut cands, &mut ph_downs, &mut ph_ups)
            } else {
                None
            };
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(seq_downs, ph_downs);
        assert_eq!(seq_ups, ph_ups);
        assert!(!seq_downs.is_empty());
    }
}
