//! Scenario resolution and memoisation.
//!
//! A [`BuiltScenario`] is one fully materialised experiment input — contact
//! trace, community ground truth and message workload — built from a
//! `(ScenarioSpec, WorkloadSpec, seed, duration)` quadruple. The
//! [`ScenarioCache`] memoises builds under a [`ScenarioKey`] derived from
//! the *full* quadruple, so distinct scenario families with identical node
//! counts can never collide (the old `(n_nodes, seed, duration)` key could
//! not tell the paper's bus-city from anything else).

use dtn_mobility::scenario::Scenario;
use dtn_mobility::{ScenarioSpec, WorkloadSpec};
use dtn_sim::{ContactTrace, MessageSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default [`ScenarioCache`] capacity (built scenarios held at once). Big
/// enough that every paper figure's sweep — a handful of families × node
/// counts × seeds per family — stays fully memoised, small enough that a
/// million-cell matrix over many distinct scenario specs cannot grow memory
/// without bound.
pub const DEFAULT_SCENARIO_CACHE_CAP: usize = 64;

/// Cache identity of a built scenario — and, with
/// [`ScenarioKey::with_protocol`], of a full sweep cell. The canonical
/// encodings of the scenario and workload specs plus seed and resolved
/// horizon, optionally extended by a protocol encoding. Injective over
/// everything that shapes the build (and, for cell keys, the run).
///
/// The [`ScenarioCache`] memoises builds under the *protocol-agnostic* form
/// (scenario builds are shared across protocols); the runner derives the
/// protocol-qualified form per cell
/// ([`RunSpec::cell_key`](crate::RunSpec::cell_key)), so two differently
/// tuned variants of one protocol — e.g. `eer:lambda=4` vs `eer:lambda=16` —
/// can never collide in any map keyed by cells.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ScenarioKey {
    scenario: String,
    workload: String,
    /// Canonical protocol encoding of the cell, empty for the
    /// protocol-agnostic scenario identity the build cache uses.
    protocol: String,
    seed: u64,
    /// Bit pattern of the resolved duration; `ScenarioKey::NATIVE` when
    /// the spec runs at its own native horizon (trace replay).
    duration_bits: u64,
}

impl ScenarioKey {
    /// Sentinel for "the spec's native horizon" (trace replay, where the
    /// duration is known only after loading the recording).
    const NATIVE: u64 = u64::MAX;

    /// Derives the protocol-agnostic key for a
    /// `(scenario, workload, seed, duration)` cell.
    /// `duration` of `None` resolves to the spec's default horizon so that
    /// `None` and an explicit default-length override share one entry. A
    /// trace-replay spec always keys as `ScenarioKey::NATIVE`: the only
    /// override its build accepts is one equal to the recording's horizon,
    /// so `None` and that explicit value are the same scenario.
    pub fn new(
        scenario: &ScenarioSpec,
        workload: &WorkloadSpec,
        seed: u64,
        duration: Option<f64>,
    ) -> Self {
        let duration_bits = match scenario.default_duration() {
            None => Self::NATIVE,
            Some(default) => duration.unwrap_or(default).to_bits(),
        };
        ScenarioKey {
            scenario: scenario.cache_key(),
            workload: workload.cache_key(),
            protocol: String::new(),
            seed,
            duration_bits,
        }
    }

    /// Extends the key with a protocol encoding
    /// ([`ProtocolSpec::cache_key`](crate::ProtocolSpec::cache_key) plus any
    /// run-level qualifiers), turning a scenario identity into a full cell
    /// identity.
    pub fn with_protocol(mut self, encoding: impl Into<String>) -> Self {
        self.protocol = encoding.into();
        self
    }

    /// The key's canonical string form — injective over everything the key
    /// holds (the component encodings are canonical and none of them can
    /// produce the `|seed=` / `|dur=` separator pattern, so joining them is
    /// lossless). This is the cell identity the report layer records.
    pub fn encoded(&self) -> String {
        format!(
            "{}|seed={}|{}",
            self.group_encoded_prefix(),
            self.seed,
            self.encoded_suffix()
        )
    }

    /// [`ScenarioKey::encoded`] with the seed elided: the identity of a
    /// *cell family* that multi-seed statistics aggregate over. Two records
    /// belong to the same summary cell iff their group encodings match.
    pub fn group_encoded(&self) -> String {
        format!("{}|{}", self.group_encoded_prefix(), self.encoded_suffix())
    }

    fn group_encoded_prefix(&self) -> String {
        format!(
            "scenario={}|workload={}|protocol={}",
            self.scenario, self.workload, self.protocol
        )
    }

    fn encoded_suffix(&self) -> String {
        format!("dur={:016x}", self.duration_bits)
    }
}

/// One fully built experiment input: the contact trace, community ground
/// truth and message workload for a `(spec, workload, seed)` cell.
#[derive(Clone)]
pub struct BuiltScenario {
    /// The mobility/contact scenario.
    pub scenario: Arc<Scenario>,
    /// The message workload for this seed.
    pub workload: Arc<Vec<MessageSpec>>,
    /// Node count (resolved — for trace replay, the recording's).
    pub n_nodes: u32,
    /// Seed used for mobility and traffic.
    pub seed: u64,
    /// Cache identity this scenario was built under.
    pub key: ScenarioKey,
}

impl BuiltScenario {
    /// Builds the full `(scenario, workload, seed)` cell without a cache.
    /// Trace-replay specs get their communities from online detection (a raw
    /// trace carries no ground truth).
    pub fn from_specs(
        spec: &ScenarioSpec,
        workload: &WorkloadSpec,
        seed: u64,
        duration: Option<f64>,
    ) -> Result<Self, String> {
        let key = ScenarioKey::new(spec, workload, seed, duration);
        let mut scenario = spec.build(seed, duration)?;
        if matches!(spec, ScenarioSpec::TraceReplay { .. }) {
            detect_ground_truth(&mut scenario);
        }
        let n_nodes = scenario.trace.n_nodes;
        let messages = workload.generate(n_nodes, scenario.trace.duration, seed);
        Ok(BuiltScenario {
            scenario: Arc::new(scenario),
            workload: Arc::new(messages),
            n_nodes,
            seed,
            key,
        })
    }

    /// Wraps a replayed (e.g. real-world) contact trace as a runnable
    /// scenario: the paper's traffic model is fitted to the trace's node
    /// count and horizon, and communities are detected online.
    pub fn from_trace(trace: ContactTrace, seed: u64) -> Self {
        Self::from_specs(
            &ScenarioSpec::trace(Arc::new(trace)),
            &WorkloadSpec::PaperUniform,
            seed,
            None,
        )
        .expect("an already-parsed trace cannot fail to build")
    }
}

/// Replaces a replayed trace's placeholder communities with the output of
/// online detection — the closest thing to ground truth a raw recording has.
fn detect_ground_truth(scenario: &mut Scenario) {
    let dets = ce_core::detect_over_trace(&scenario.trace, ce_core::DetectorConfig::default());
    let map = ce_core::detected_map(&dets);
    let communities: Vec<u32> = (0..scenario.trace.n_nodes)
        .map(|i| map.cid(dtn_sim::NodeId(i)))
        .collect();
    scenario.n_communities = communities.iter().copied().max().map_or(0, |c| c + 1);
    scenario.communities = communities;
}

/// Thread-safe memo of built scenarios, so every protocol and λ value runs
/// against the *identical* contact process and workload for a given
/// [`ScenarioKey`]. Bounded: the cache holds at most
/// [`capacity`](ScenarioCache::capacity) scenarios
/// ([`DEFAULT_SCENARIO_CACHE_CAP`] by default; tune with
/// [`ScenarioCache::with_capacity`]) and evicts the least recently used
/// entry — along with its memoised community detection — when full, so a
/// matrix over arbitrarily many distinct scenario specs runs in bounded
/// memory. Eviction only drops the memo, never correctness: a re-requested
/// scenario is rebuilt bit-identically from its spec.
pub struct ScenarioCache {
    /// Built scenarios plus the logical time of their last use.
    map: Mutex<HashMap<ScenarioKey, (BuiltScenario, u64)>>,
    /// Memoised online community detection per scenario (detection replays
    /// the whole trace — worth doing once, not once per consumer).
    detected: Mutex<HashMap<ScenarioKey, Arc<ce_core::CommunityMap>>>,
    /// Monotone logical clock stamping every hit/insert for LRU ordering.
    tick: AtomicU64,
    /// Maximum number of scenarios held at once (≥ 1).
    cap: usize,
}

impl Default for ScenarioCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SCENARIO_CACHE_CAP)
    }
}

impl ScenarioCache {
    /// Creates an empty cache with the default capacity
    /// ([`DEFAULT_SCENARIO_CACHE_CAP`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `cap` scenarios (clamped to
    /// at least 1 — a cache that can hold nothing would rebuild the current
    /// scenario on every consumer).
    pub fn with_capacity(cap: usize) -> Self {
        ScenarioCache {
            map: Mutex::new(HashMap::new()),
            detected: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            cap: cap.max(1),
        }
    }

    /// The maximum number of scenarios this cache holds at once.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Returns the scenario for the full `(spec, workload, seed, duration)`
    /// quadruple, building it on first use.
    ///
    /// # Panics
    /// Panics if the spec cannot be built (unreadable trace file, horizon
    /// conflict) — sweep cells are validated configuration, not user input.
    pub fn get_spec(
        &self,
        spec: &ScenarioSpec,
        workload: &WorkloadSpec,
        seed: u64,
        duration: Option<f64>,
    ) -> BuiltScenario {
        self.try_get_spec(spec, workload, seed, duration)
            .unwrap_or_else(|e| panic!("cannot build scenario {spec}: {e}"))
    }

    /// [`ScenarioCache::get_spec`], propagating build failures (the path for
    /// CLI-supplied trace files).
    pub fn try_get_spec(
        &self,
        spec: &ScenarioSpec,
        workload: &WorkloadSpec,
        seed: u64,
        duration: Option<f64>,
    ) -> Result<BuiltScenario, String> {
        let key = ScenarioKey::new(spec, workload, seed, duration);
        if let Some(s) = {
            let mut map = self.map.lock().unwrap();
            map.get_mut(&key).map(|slot| {
                slot.1 = self.tick.fetch_add(1, Ordering::Relaxed);
                slot.0.clone()
            })
        } {
            // Trace replay keys as NATIVE whatever the override, so a hit
            // must still enforce what the build would have rejected.
            if let Some(d) = duration {
                if (d - s.scenario.trace.duration).abs() > 1e-9 {
                    return Err(format!(
                        "duration override {d} conflicts with the trace's recorded horizon {}",
                        s.scenario.trace.duration
                    ));
                }
            }
            return Ok(s);
        }
        let built = BuiltScenario::from_specs(spec, workload, seed, duration)?;
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock().unwrap();
        // A racing builder may have inserted first; keep whichever scenario
        // is already cached so every consumer shares one Arc.
        let out = {
            let slot = map.entry(key.clone()).or_insert((built, tick));
            slot.1 = tick;
            slot.0.clone()
        };
        if map.len() > self.cap {
            // Evict the least recently used entry (never the one just
            // touched) together with its community-detection memo.
            let victim = map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, v)| v.1)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                map.remove(&victim);
                drop(map);
                self.detected.lock().unwrap().remove(&victim);
            }
        }
        Ok(out)
    }

    /// Returns the paper-horizon bus-city scenario for `(n_nodes, seed)`,
    /// building it on first use.
    pub fn get(&self, n_nodes: u32, seed: u64) -> BuiltScenario {
        self.get_with_duration(n_nodes, seed, None)
    }

    /// The paper bus-city for `(n_nodes, seed)` with an optional horizon
    /// override (`None` = the paper's duration), building it on first use.
    pub fn get_with_duration(
        &self,
        n_nodes: u32,
        seed: u64,
        duration: Option<f64>,
    ) -> BuiltScenario {
        self.get_spec(
            &ScenarioSpec::paper(n_nodes),
            &WorkloadSpec::PaperUniform,
            seed,
            duration,
        )
    }

    /// The online-detected community map for `bs`, memoised per scenario so
    /// every consumer — sweep runs, agreement metrics — shares one detection
    /// pass per trace. Memoisation requires `bs` to be *this cache's* entry
    /// (checked by pointer identity, so a foreign scenario — e.g. built
    /// directly via [`BuiltScenario::from_trace`] — can never collide with a
    /// cached one); foreign scenarios are detected fresh.
    pub fn detected_communities(&self, bs: &BuiltScenario) -> Arc<ce_core::CommunityMap> {
        let ours = self
            .map
            .lock()
            .unwrap()
            .get(&bs.key)
            .is_some_and(|cached| Arc::ptr_eq(&cached.0.scenario, &bs.scenario));
        if ours {
            if let Some(m) = self.detected.lock().unwrap().get(&bs.key) {
                return Arc::clone(m);
            }
        }
        let dets =
            ce_core::detect_over_trace(&bs.scenario.trace, ce_core::DetectorConfig::default());
        let map = Arc::new(ce_core::detected_map(&dets));
        if ours {
            self.detected
                .lock()
                .unwrap()
                .insert(bs.key.clone(), Arc::clone(&map));
        }
        map
    }

    /// Number of cached scenarios.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_mobility::scenario::ScenarioConfig;
    use dtn_sim::Contact;

    fn tiny_trace() -> ContactTrace {
        ContactTrace::new(
            6,
            300.0,
            vec![
                Contact::new(0, 1, 10.0, 40.0),
                Contact::new(2, 3, 15.0, 50.0),
                Contact::new(4, 5, 20.0, 60.0),
                Contact::new(0, 1, 100.0, 130.0),
            ],
        )
    }

    #[test]
    fn cache_reuses_scenarios() {
        let cache = ScenarioCache::new();
        assert!(cache.is_empty());
        let a = cache.get(8, 1);
        let b = cache.get(8, 1);
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&a.scenario, &b.scenario));
        let c = cache.get(8, 2);
        assert_eq!(cache.len(), 2);
        assert!(!Arc::ptr_eq(&a.scenario, &c.scenario));
    }

    #[test]
    fn cache_evicts_least_recently_used_beyond_capacity() {
        let cache = ScenarioCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cache.get(8, 1);
        let _b = cache.get(8, 2);
        // Re-get seed 1 so seed 2 becomes the LRU victim, and memoise seed
        // 1's detection so we can observe it survives eviction of others.
        let a = cache.get(8, 1);
        let det_a = cache.detected_communities(&a);
        let c = cache.get(8, 3);
        assert_eq!(cache.len(), 2, "capacity bounds the cache");
        // Seed 1 (recently used) and seed 3 (just inserted) survive; seed 2
        // was evicted, so re-requesting it rebuilds rather than errors.
        let a2 = cache.get(8, 1);
        assert!(Arc::ptr_eq(&a.scenario, &a2.scenario));
        assert!(Arc::ptr_eq(&det_a, &cache.detected_communities(&a2)));
        let b2 = cache.get(8, 2);
        assert_eq!(b2.scenario.trace.duration, c.scenario.trace.duration);
        assert_eq!(cache.len(), 2);
        // The clamp: a zero capacity still caches the current scenario.
        let one = ScenarioCache::with_capacity(0);
        assert_eq!(one.capacity(), 1);
        one.get(8, 1);
        one.get(8, 2);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn cache_keys_include_duration() {
        let cache = ScenarioCache::new();
        let paper = cache.get(8, 1);
        let short = cache.get_with_duration(8, 1, Some(400.0));
        assert_eq!(cache.len(), 2);
        assert!(!Arc::ptr_eq(&paper.scenario, &short.scenario));
        assert_eq!(short.scenario.trace.duration, 400.0);
    }

    /// `None` and an explicit paper-length duration are the same entry: the
    /// key is the resolved duration, not a sentinel.
    #[test]
    fn default_and_explicit_paper_duration_share_entry() {
        let cache = ScenarioCache::new();
        let paper_d = ScenarioConfig::paper(8).duration;
        let a = cache.get(8, 1);
        let b = cache.get_with_duration(8, 1, Some(paper_d));
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&a.scenario, &b.scenario));
    }

    /// The regression the old `(n_nodes, seed, duration)` key allowed:
    /// distinct scenario families (and workloads) with identical node count,
    /// seed and horizon must occupy distinct cache entries.
    #[test]
    fn distinct_specs_get_distinct_entries() {
        let cache = ScenarioCache::new();
        let d = Some(300.0);
        let paper = cache.get_spec(&ScenarioSpec::paper(6), &WorkloadSpec::PaperUniform, 1, d);
        let rwp = cache.get_spec(&ScenarioSpec::rwp(6), &WorkloadSpec::PaperUniform, 1, d);
        let trace = cache.get_spec(
            &ScenarioSpec::trace(Arc::new(tiny_trace())),
            &WorkloadSpec::PaperUniform,
            1,
            None,
        );
        let hotspot = cache.get_spec(&ScenarioSpec::paper(6), &WorkloadSpec::hotspot(), 1, d);
        assert_eq!(cache.len(), 4, "four distinct cells, four entries");
        assert!(!Arc::ptr_eq(&paper.scenario, &rwp.scenario));
        assert!(!Arc::ptr_eq(&paper.scenario, &trace.scenario));
        // Same mobility, different workload: the trace may be rebuilt, but
        // the workloads must differ.
        assert_ne!(paper.workload, hotspot.workload);
    }

    /// A foreign scenario (not built by this cache) never reads or poisons
    /// the memoised detection of a cached scenario with a matching key.
    #[test]
    fn detected_memo_ignores_foreign_scenarios() {
        let cache = ScenarioCache::new();
        let short = cache.get_with_duration(6, 7, Some(300.0));
        let cached_map = cache.detected_communities(&short);

        let mut foreign = BuiltScenario::from_trace(tiny_trace(), 7);
        // Forge the cached entry's key: identity is still checked by pointer.
        foreign.key = short.key.clone();
        let foreign_map = cache.detected_communities(&foreign);
        assert!(
            !Arc::ptr_eq(&cached_map, &foreign_map),
            "foreign scenario must get its own detection, not the memo"
        );
        // And the memo still serves the cached scenario afterwards.
        assert!(Arc::ptr_eq(
            &cached_map,
            &cache.detected_communities(&short)
        ));
    }

    #[test]
    fn scaled_scenario_is_shorter() {
        let s = BuiltScenario::from_specs(
            &ScenarioSpec::paper(8),
            &WorkloadSpec::PaperUniform,
            1,
            Some(500.0),
        )
        .unwrap();
        assert_eq!(s.scenario.trace.duration, 500.0);
        assert!(s.workload.iter().all(|m| m.create_at.as_secs() < 500.0));
    }

    #[test]
    fn from_trace_round_trips_node_count() {
        let ps = BuiltScenario::from_trace(tiny_trace(), 7);
        assert_eq!(ps.n_nodes, 6);
        assert_eq!(ps.scenario.communities.len(), 6);
        assert!(ps.workload.iter().all(|m| m.create_at.as_secs() < 300.0));
    }

    /// For trace replay, `None` and an explicit native-length override are
    /// the same scenario — one entry, one detection pass — while a
    /// conflicting override still errors even on a cache hit.
    #[test]
    fn trace_native_and_explicit_duration_share_entry() {
        let cache = ScenarioCache::new();
        let spec = ScenarioSpec::trace(Arc::new(tiny_trace()));
        let a = cache.get_spec(&spec, &WorkloadSpec::PaperUniform, 1, None);
        let b = cache.get_spec(&spec, &WorkloadSpec::PaperUniform, 1, Some(300.0));
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&a.scenario, &b.scenario));
        assert!(cache
            .try_get_spec(&spec, &WorkloadSpec::PaperUniform, 1, Some(500.0))
            .is_err());
    }

    #[test]
    fn bad_trace_path_propagates_error() {
        let cache = ScenarioCache::new();
        let r = cache.try_get_spec(
            &ScenarioSpec::trace_path("/nonexistent/never.trace"),
            &WorkloadSpec::PaperUniform,
            1,
            None,
        );
        assert!(r.is_err());
        assert!(cache.is_empty(), "failed builds must not be cached");
    }
}
