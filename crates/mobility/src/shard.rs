//! Sharded contact detection: one simulation step, many scanning threads.
//!
//! [`ShardedContactSource`] is a drop-in replacement for
//! [`MobilityContactSource`](crate::stream::MobilityContactSource) that
//! splits the pair scan of each neighbour-list rebuild (see
//! [`crate::contacts`]) across a worker pool. A step runs in three phases
//! on one shared [`ContactStepper`] — the phases its own
//! [`ContactStepper::step`] runs with a single band:
//!
//! 1. **prepare** (coordinator, write lock): advance every trajectory cursor
//!    and, on a rebuild step, rebuild the spatial grid;
//! 2. **scan** (workers, read lock, rebuild steps only): each worker scans a
//!    horizontal band of grid rows, pushing the pairs within `reach` of
//!    every cell pair scanned from a cell in the band into a per-shard
//!    buffer;
//! 3. **commit** (coordinator, write lock): on a rebuild step, merge the
//!    shard buffers (sort + dedup) into the neighbour list; then merge the
//!    listed pairs in range into the pair-sorted open contacts.
//!
//! Between rebuilds there is nothing to scan, so the pool fans out only on
//! rebuild steps, once every `K` steps. The scan visits each pair of
//! adjacent cells from exactly one of its two cells, and every grid row
//! belongs to exactly one band, so the union of the shard buffers is exactly
//! the pair set of the one-band scan; the sort + dedup in commit
//! canonicalizes away both the workers' completion order and the repeats a
//! table with fewer than three cells on an axis can produce. The committed
//! `downs`/`ups` are therefore bit-identical to the sequential path for
//! every band count — which is why a run's thread count is *not* part of
//! its cache key.

use std::sync::{mpsc, Mutex, RwLock};
use std::thread;

use crate::contacts::{ContactGenConfig, ContactStepper};
use crate::stream::emit;
use crate::trajectory::Trajectory;
use dtn_sim::{Contact, ContactEvent, ContactSource, NodePair};

/// A [`ContactSource`] that detects contacts with a pool of scanning
/// threads, bit-identical to the single-threaded
/// [`MobilityContactSource`](crate::stream::MobilityContactSource).
#[derive(Debug)]
pub struct ShardedContactSource {
    trajs: Vec<Trajectory>,
    state: RwLock<ContactStepper>,
    threads: usize,
    duration: f64,
    /// Scratch reused across steps.
    downs: Vec<Contact>,
    ups: Vec<NodePair>,
    merged: Vec<NodePair>,
    shard_bufs: Vec<Vec<NodePair>>,
}

impl ShardedContactSource {
    /// Builds a source that samples `trajs` over `[0, duration)` with `cfg`,
    /// scanning each step with `threads` workers (clamped to at least 1).
    ///
    /// # Panics
    /// Panics if `range` or `dt` is not positive.
    pub fn new(
        trajs: Vec<Trajectory>,
        duration: f64,
        cfg: ContactGenConfig,
        threads: usize,
    ) -> Self {
        let stepper = ContactStepper::new(&trajs, duration, cfg);
        let threads = threads.max(1);
        ShardedContactSource {
            trajs,
            state: RwLock::new(stepper),
            threads,
            duration,
            downs: Vec::new(),
            ups: Vec::new(),
            merged: Vec::new(),
            shard_bufs: vec![Vec::new(); threads],
        }
    }

    /// The resolved worker count this source scans with.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl ContactSource for ShardedContactSource {
    fn n_nodes(&self) -> u32 {
        self.trajs.len() as u32
    }

    fn duration(&self) -> f64 {
        self.duration
    }

    /// Runs the worker pool over one window. A fresh scope per window keeps
    /// the source free of lifetime plumbing; windows are ~60 s of simulated
    /// time (hundreds of steps), so the spawn cost is noise.
    fn next_window(&mut self, until: f64, out: &mut Vec<ContactEvent>) {
        let n_shards = self.threads;
        let state = &self.state;
        let trajs = &self.trajs;
        let duration = self.duration;
        let downs = &mut self.downs;
        let ups = &mut self.ups;
        let merged = &mut self.merged;
        let shard_bufs = &mut self.shard_bufs;

        // Band jobs travel with their recycled buffer; results carry the
        // filled buffer back so no allocation recurs per step. Created
        // outside the scope so worker borrows outlive it.
        let (job_tx, job_rx) = mpsc::channel::<(usize, Vec<NodePair>)>();
        let job_rx = Mutex::new(job_rx);
        let (res_tx, res_rx) = mpsc::channel::<(usize, Vec<NodePair>)>();

        thread::scope(|scope| {
            for _ in 0..n_shards {
                let res_tx = res_tx.clone();
                let job_rx = &job_rx;
                scope.spawn(move || loop {
                    let job = job_rx.lock().expect("job lock poisoned").recv();
                    let Ok((band, mut buf)) = job else { break };
                    buf.clear();
                    state
                        .read()
                        .expect("stepper lock poisoned")
                        .scan_band(band, n_shards, &mut buf);
                    if res_tx.send((band, buf)).is_err() {
                        break;
                    }
                });
            }
            drop(res_tx);

            loop {
                let t = state.read().expect("stepper lock poisoned").next_time();
                let Some(t) = t else { break };
                if t >= until && until < duration {
                    break;
                }
                downs.clear();
                ups.clear();
                merged.clear();
                let scan = state
                    .write()
                    .expect("stepper lock poisoned")
                    .prepare_step(trajs)
                    .expect("next_time returned Some, prepare must advance");
                if scan {
                    for (band, slot) in shard_bufs.iter_mut().enumerate() {
                        let buf = std::mem::take(slot);
                        job_tx.send((band, buf)).expect("worker pool hung up");
                    }
                    for _ in 0..n_shards {
                        let (band, buf) = res_rx.recv().expect("worker pool hung up");
                        merged.extend_from_slice(&buf);
                        shard_bufs[band] = buf;
                    }
                }
                let processed = state
                    .write()
                    .expect("stepper lock poisoned")
                    .commit_step(merged, downs, ups)
                    .expect("prepared step must commit");
                debug_assert_eq!(processed, t);
                emit(downs, ups, t, out);
            }
            // Dropping the job sender ends the workers' recv loops.
            drop(job_tx);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use crate::stream::MobilityContactSource;

    /// Pumps a source dry with the given window length, returning all events.
    fn drain(src: &mut dyn ContactSource, window: f64) -> Vec<ContactEvent> {
        let mut out = Vec::new();
        let mut until = 0.0;
        while until < src.duration() {
            until = (until + window).min(src.duration());
            src.next_window(until, &mut out);
        }
        out
    }

    /// Sharded output equals the single-threaded stream event-for-event —
    /// same events, same order, any thread count, any window size.
    #[test]
    fn sharded_stream_is_bit_identical_to_sequential() {
        for cfg in [
            ScenarioConfig::small(12, 400.0),
            ScenarioConfig::city(24, 4).sized(1_500.0),
        ] {
            let sc = cfg.build(7);
            let mut seq =
                MobilityContactSource::new(sc.trajectories.clone(), cfg.duration, cfg.contact);
            let reference = drain(&mut seq, 60.0);
            assert!(
                reference.len() >= 4,
                "scenario too sparse to be a meaningful test"
            );

            for threads in [1usize, 2, 3, 8] {
                for window in [13.0, 60.0, cfg.duration] {
                    let mut sharded = ShardedContactSource::new(
                        sc.trajectories.clone(),
                        cfg.duration,
                        cfg.contact,
                        threads,
                    );
                    assert_eq!(sharded.threads(), threads);
                    assert_eq!(sharded.n_nodes(), sc.trajectories.len() as u32);
                    let events = drain(&mut sharded, window);
                    assert_eq!(events, reference, "threads {threads}, window {window}");
                }
            }
        }
    }

    /// More bands than grid rows: trailing bands are empty, result unchanged.
    #[test]
    fn more_threads_than_rows_is_harmless() {
        let cfg = ScenarioConfig::small(6, 200.0);
        let sc = cfg.build(3);
        let mut seq =
            MobilityContactSource::new(sc.trajectories.clone(), cfg.duration, cfg.contact);
        let reference = drain(&mut seq, 50.0);
        let mut sharded = ShardedContactSource::new(sc.trajectories, cfg.duration, cfg.contact, 32);
        assert_eq!(drain(&mut sharded, 50.0), reference);
    }
}
