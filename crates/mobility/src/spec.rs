//! First-class scenario and workload specifications.
//!
//! A [`ScenarioSpec`] is a *value* describing how to obtain a contact
//! process — the paper's bus-city, random waypoint, or a replayed trace —
//! and a [`WorkloadSpec`] is a value describing the message workload laid on
//! top of it. The two compose freely: any workload runs on any mobility
//! model. Both are deterministic functions of `(spec, seed, duration)` and
//! expose a canonical [`cache_key`](ScenarioSpec::cache_key) string so
//! downstream caches can memoise builds without a lossy `(n, seed)` tuple.
//!
//! ```
//! use dtn_mobility::{ScenarioSpec, WorkloadSpec};
//!
//! // Parse → build: an 8-node random-waypoint scenario on a 300 s horizon
//! // with a hotspot workload laid over it.
//! let spec = ScenarioSpec::parse("rwp", 8).unwrap();
//! let scenario = spec.build(1, Some(300.0)).unwrap();
//! assert_eq!(scenario.trace.n_nodes, 8);
//! let workload = WorkloadSpec::parse("hotspot").unwrap()
//!     .generate(8, scenario.trace.duration, 1);
//! assert!(!workload.is_empty());
//!
//! // Builds are deterministic functions of (spec, seed, duration) ...
//! let again = spec.build(1, Some(300.0)).unwrap();
//! assert_eq!(scenario.trace.contacts.len(), again.trace.contacts.len());
//! // ... and distinct specs can never share a cache key.
//! assert_ne!(spec.cache_key(), ScenarioSpec::paper(8).cache_key());
//! ```

use crate::contacts::{generate_trace, ContactGenConfig};
use crate::geometry::{Point, Rect};
use crate::rwp::RwpConfig;
use crate::scenario::{Scenario, ScenarioConfig};
use crate::stream::MobilityContactSource;
use crate::trajectory::Trajectory;
use crate::RoadGraphBuilder;
use dtn_sim::{
    fnv1a, ContactSource, ContactTrace, MessageSpec, NodeId, SimTime, TraceReplaySource,
    TrafficConfig, FNV_OFFSET,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// Where a replayed contact trace comes from.
#[derive(Clone, Debug)]
pub enum TraceSource {
    /// A plain-text trace file (the `dtn_sim::trace` format).
    Path(String),
    /// A pre-parsed trace, e.g. built programmatically or already loaded.
    Inline {
        /// The trace itself.
        trace: Arc<ContactTrace>,
        /// FNV-1a content fingerprint, computed once at construction so
        /// cache-key derivation never rehashes the contact list.
        fingerprint: u64,
    },
}

/// A first-class, buildable description of a contact scenario.
///
/// Every variant builds deterministically from `(self, seed, duration)`;
/// [`ScenarioSpec::cache_key`] is injective over the variant's parameters
/// (floats are keyed by their bit patterns) so distinct specs never collide
/// in a cache.
#[derive(Clone, Debug)]
pub enum ScenarioSpec {
    /// The ICPP'11 §V-A setting: buses on a synthetic downtown map with
    /// district communities.
    PaperBusCity {
        /// Number of buses (network nodes).
        n_nodes: u32,
    },
    /// The city-scale family: districts on a wide map with day/night
    /// schedule halves ([`ScenarioConfig::city`]). Designed for large `n`
    /// through the streaming contact path.
    City {
        /// Number of buses (network nodes).
        n_nodes: u32,
        /// Number of districts (= communities and map bands).
        districts: u32,
        /// Buses-per-route cap: the route count is raised until no route
        /// carries more than `bpr` buses, so per-route density — and with it
        /// contact volume — stops growing with `n`.
        bpr: u32,
    },
    /// Random waypoint in a square area — a memoryless, community-free
    /// baseline.
    RandomWaypoint {
        /// Number of nodes.
        n_nodes: u32,
        /// Side of the square movement area in metres.
        area_side: f64,
        /// Minimum speed (m/s).
        speed_min: f64,
        /// Maximum speed (m/s).
        speed_max: f64,
        /// Radio range in metres.
        range: f64,
        /// Maximum pause at each waypoint (uniform in `[0, max]`).
        pause_max: f64,
    },
    /// Replay of a recorded contact trace; runs at the trace's native
    /// horizon.
    TraceReplay {
        /// Where the trace comes from.
        source: TraceSource,
    },
}

impl ScenarioSpec {
    /// The default horizon used by every generated scenario (the paper's
    /// 10 000 s).
    pub const DEFAULT_DURATION: f64 = 10_000.0;

    /// The paper's bus-city for `n_nodes` nodes.
    pub fn paper(n_nodes: u32) -> Self {
        ScenarioSpec::PaperBusCity { n_nodes }
    }

    /// The city-scale family with an explicit district count and the
    /// default buses-per-route cap ([`ScenarioSpec::bpr_for`]).
    pub fn city(n_nodes: u32, districts: u32) -> Self {
        Self::city_with_bpr(n_nodes, districts, Self::bpr_for(n_nodes))
    }

    /// The city-scale family with explicit district count and buses-per-route
    /// cap.
    pub fn city_with_bpr(n_nodes: u32, districts: u32, bpr: u32) -> Self {
        ScenarioSpec::City {
            n_nodes,
            districts: districts.max(1),
            bpr: bpr.max(1),
        }
    }

    /// The default district count for a city of `n` nodes: grows like √n so
    /// per-district fleet density stays roughly constant (n = 10³ → 4,
    /// 10⁴ → 13, 10⁵ → 40).
    pub fn districts_for(n_nodes: u32) -> u32 {
        (((f64::from(n_nodes)).sqrt() / 8.0).round() as u32).max(4)
    }

    /// The default buses-per-route cap for a city of `n` nodes: grows like
    /// √n but clamps at 64, so contact volume grows ~n·64 at scale instead
    /// of ~n^1.5 (n ≤ 10³ → 4, 10⁴ → 13, 10⁵ → 40, 10⁶ → 64). Below
    /// n ≈ 1000 the cap never binds — the district-driven route count
    /// already spreads buses thinner.
    pub fn bpr_for(n_nodes: u32) -> u32 {
        (((f64::from(n_nodes)).sqrt() / 8.0).round() as u32).clamp(4, 64)
    }

    /// Random waypoint with the paper's speed range and radio range in a
    /// 1 km × 1 km area.
    pub fn rwp(n_nodes: u32) -> Self {
        ScenarioSpec::RandomWaypoint {
            n_nodes,
            area_side: 1_000.0,
            speed_min: 2.7,
            speed_max: 13.9,
            range: 10.0,
            pause_max: 10.0,
        }
    }

    /// Replay of the trace file at `path`.
    pub fn trace_path(path: impl Into<String>) -> Self {
        ScenarioSpec::TraceReplay {
            source: TraceSource::Path(path.into()),
        }
    }

    /// Replay of an already-parsed trace.
    pub fn trace(trace: Arc<ContactTrace>) -> Self {
        let fingerprint = trace_fingerprint(&trace);
        ScenarioSpec::TraceReplay {
            source: TraceSource::Inline { trace, fingerprint },
        }
    }

    /// Parses a CLI scenario argument: `paper`, `paper:n=<n>` (the city
    /// family at paper-like defaults), `city[:n=<n>][:d=<d>]`, `rwp` (alias
    /// `random-waypoint`), or `trace:<path>`. A generated family needs at
    /// least two nodes, whether they come from `n_nodes` or from `n=`.
    pub fn parse(s: &str, n_nodes: u32) -> Result<Self, String> {
        fn kv(part: &str, key: &str) -> Option<Result<u32, String>> {
            let v = part.strip_prefix(key)?.strip_prefix('=')?;
            Some(v.parse::<u32>().map_err(|e| format!("{key}: {e}")))
        }
        let bad = || {
            format!(
                "unknown scenario `{s}` (expected paper[:n=<n>], city[:n=<n>][:d=<d>], \
                 rwp, or trace:<path>)"
            )
        };
        let spec = match s {
            "paper" => ScenarioSpec::paper(n_nodes),
            "rwp" | "random-waypoint" => ScenarioSpec::rwp(n_nodes),
            "city" => ScenarioSpec::city(n_nodes, Self::districts_for(n_nodes)),
            _ => match s.split_once(':') {
                Some(("trace", path)) if !path.is_empty() => ScenarioSpec::trace_path(path),
                Some(("paper", rest)) => {
                    let n = kv(rest, "n").ok_or_else(bad)??;
                    ScenarioSpec::city(n, Self::districts_for(n))
                }
                Some(("city", rest)) => {
                    let mut n = n_nodes;
                    let mut d = None;
                    let mut bpr = None;
                    for part in rest.split(':') {
                        if let Some(v) = kv(part, "n") {
                            n = v?;
                        } else if let Some(v) = kv(part, "d") {
                            d = Some(v?);
                        } else if let Some(v) = kv(part, "bpr") {
                            bpr = Some(v?);
                        } else {
                            return Err(bad());
                        }
                    }
                    let d = d.unwrap_or_else(|| Self::districts_for(n));
                    if d == 0 {
                        return Err("city scenario needs d >= 1".into());
                    }
                    let bpr = bpr.unwrap_or_else(|| Self::bpr_for(n));
                    if bpr == 0 {
                        return Err("city scenario needs bpr >= 1".into());
                    }
                    ScenarioSpec::city_with_bpr(n, d, bpr)
                }
                _ => return Err(bad()),
            },
        };
        match spec.declared_nodes() {
            Some(n) if n < 2 => Err(format!("scenario `{s}` needs n >= 2 nodes, got {n}")),
            _ => Ok(spec),
        }
    }

    /// The node count declared by the spec, or `None` for trace replay
    /// (known only after loading).
    pub fn declared_nodes(&self) -> Option<u32> {
        match *self {
            ScenarioSpec::PaperBusCity { n_nodes }
            | ScenarioSpec::City { n_nodes, .. }
            | ScenarioSpec::RandomWaypoint { n_nodes, .. } => Some(n_nodes),
            ScenarioSpec::TraceReplay { .. } => None,
        }
    }

    /// The horizon the spec runs at when no override is given: the paper's
    /// duration for generated scenarios, `None` (= the recording's native
    /// horizon) for trace replay.
    pub fn default_duration(&self) -> Option<f64> {
        match self {
            ScenarioSpec::TraceReplay { .. } => None,
            _ => Some(Self::DEFAULT_DURATION),
        }
    }

    /// Canonical, injective encoding of the spec for cache keys. Floats are
    /// encoded by bit pattern; inline traces by a content fingerprint, so
    /// equal trace contents share a cache entry.
    pub fn cache_key(&self) -> String {
        match self {
            ScenarioSpec::PaperBusCity { n_nodes } => format!("paper:n={n_nodes}"),
            ScenarioSpec::City {
                n_nodes,
                districts,
                bpr,
            } => {
                format!("city:n={n_nodes}:d={districts}:bpr={bpr}")
            }
            ScenarioSpec::RandomWaypoint {
                n_nodes,
                area_side,
                speed_min,
                speed_max,
                range,
                pause_max,
            } => format!(
                "rwp:n={n_nodes}:a={:016x}:v={:016x}-{:016x}:r={:016x}:p={:016x}",
                area_side.to_bits(),
                speed_min.to_bits(),
                speed_max.to_bits(),
                range.to_bits(),
                pause_max.to_bits()
            ),
            ScenarioSpec::TraceReplay { source } => match source {
                TraceSource::Path(p) => format!("trace:path={p}"),
                TraceSource::Inline { fingerprint, .. } => {
                    format!("trace:inline={fingerprint:016x}")
                }
            },
        }
    }

    /// Builds the scenario deterministically.
    ///
    /// `duration` of `None` means the spec's default horizon. Trace replay
    /// always runs at the recording's native horizon and rejects a
    /// conflicting override. Replayed traces carry no community ground
    /// truth; their `communities` come back all-zero — callers that need
    /// real structure run online detection on the trace.
    pub fn build(&self, seed: u64, duration: Option<f64>) -> Result<Scenario, String> {
        match self {
            ScenarioSpec::PaperBusCity { .. } | ScenarioSpec::City { .. } => {
                Ok(self.bus_config(duration).build(seed))
            }
            ScenarioSpec::RandomWaypoint { n_nodes, range, .. } => {
                let dur = duration.unwrap_or(Self::DEFAULT_DURATION);
                let trajectories = self.rwp_trajectories(dur, seed);
                let trace = generate_trace(
                    &trajectories,
                    dur,
                    ContactGenConfig {
                        range: *range,
                        ..ContactGenConfig::default()
                    },
                );
                Ok(Scenario {
                    trace,
                    communities: vec![0; *n_nodes as usize],
                    n_communities: 1,
                    graph: RoadGraphBuilder::new().build(),
                    trajectories,
                })
            }
            ScenarioSpec::TraceReplay { source } => {
                let trace = load_trace(source, duration)?;
                let n = trace.n_nodes;
                Ok(Scenario {
                    trace,
                    communities: vec![0; n as usize],
                    n_communities: 1,
                    graph: RoadGraphBuilder::new().build(),
                    trajectories: Vec::new(),
                })
            }
        }
    }

    /// Builds the streaming form of the scenario: a demand-driven
    /// [`ContactSource`] plus community ground truth, without ever
    /// materializing the contact trace. For generated scenarios this drives
    /// bit-identical simulations to [`ScenarioSpec::build`] + trace replay
    /// (see [`crate::stream`]); at city scale it is the only feasible path,
    /// since peak memory stays bounded by the generation window.
    pub fn build_stream(&self, seed: u64, duration: Option<f64>) -> Result<StreamScenario, String> {
        match self {
            ScenarioSpec::PaperBusCity { .. } | ScenarioSpec::City { .. } => {
                let cfg = self.bus_config(duration);
                let parts = cfg.build_parts(seed);
                Ok(StreamScenario {
                    n_nodes: cfg.n_nodes,
                    duration: cfg.duration,
                    communities: parts.communities,
                    n_communities: parts.n_communities,
                    source: Box::new(MobilityContactSource::new(
                        parts.trajectories,
                        cfg.duration,
                        cfg.contact,
                    )),
                })
            }
            ScenarioSpec::RandomWaypoint { n_nodes, range, .. } => {
                let dur = duration.unwrap_or(Self::DEFAULT_DURATION);
                let trajectories = self.rwp_trajectories(dur, seed);
                Ok(StreamScenario {
                    n_nodes: *n_nodes,
                    duration: dur,
                    communities: vec![0; *n_nodes as usize],
                    n_communities: 1,
                    source: Box::new(MobilityContactSource::new(
                        trajectories,
                        dur,
                        ContactGenConfig {
                            range: *range,
                            ..ContactGenConfig::default()
                        },
                    )),
                })
            }
            ScenarioSpec::TraceReplay { source } => {
                let trace = load_trace(source, duration)?;
                Ok(StreamScenario {
                    n_nodes: trace.n_nodes,
                    duration: trace.duration,
                    communities: vec![0; trace.n_nodes as usize],
                    n_communities: 1,
                    source: Box::new(TraceReplaySource::new(&trace)),
                })
            }
        }
    }

    /// [`ScenarioSpec::build_stream`] for a caller that passes a worker
    /// count, which must be 1: a stream scans its contacts on one thread.
    /// Kept only because the benchmark package calls it; it goes with
    /// ROADMAP item 7's benchmark change.
    ///
    /// # Panics
    /// Panics if `threads` is not 1.
    pub fn build_stream_threads(
        &self,
        seed: u64,
        duration: Option<f64>,
        threads: u32,
    ) -> Result<StreamScenario, String> {
        assert_eq!(
            threads, 1,
            "the sharded contact scan is removed; a stream scans on one thread"
        );
        self.build_stream(seed, duration)
    }

    /// The [`ScenarioConfig`] behind the bus-based variants, with the
    /// duration override applied.
    ///
    /// # Panics
    /// Panics if called on a non-bus variant.
    fn bus_config(&self, duration: Option<f64>) -> ScenarioConfig {
        let base = match *self {
            ScenarioSpec::PaperBusCity { n_nodes } => ScenarioConfig::paper(n_nodes),
            ScenarioSpec::City {
                n_nodes,
                districts,
                bpr,
            } => {
                let mut cfg = ScenarioConfig::city(n_nodes, districts);
                // Enough routes that none carries more than `bpr` buses.
                cfg.n_routes = cfg.n_routes.max(n_nodes.div_ceil(bpr));
                cfg
            }
            _ => unreachable!("bus_config on a non-bus spec"),
        };
        ScenarioConfig {
            duration: duration.unwrap_or(Self::DEFAULT_DURATION),
            ..base
        }
    }

    /// The random-waypoint trajectory set (shared by the materialized and
    /// streaming builds; per-node seeding keeps it order-independent).
    ///
    /// # Panics
    /// Panics if called on a non-RWP variant.
    fn rwp_trajectories(&self, dur: f64, seed: u64) -> Vec<Trajectory> {
        let ScenarioSpec::RandomWaypoint {
            n_nodes,
            area_side,
            speed_min,
            speed_max,
            pause_max,
            ..
        } = *self
        else {
            unreachable!("rwp_trajectories on a non-RWP spec");
        };
        let cfg = RwpConfig {
            area: Rect::new(Point::new(0.0, 0.0), Point::new(area_side, area_side)),
            speed_min,
            speed_max,
            pause_max,
        };
        (0..n_nodes)
            .map(|k| {
                let mut rng = SmallRng::seed_from_u64(
                    (seed ^ 0x7277_705f_u64)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(u64::from(k)),
                );
                cfg.trajectory(dur, &mut rng)
            })
            .collect()
    }
}

/// Loads and validates the trace behind a [`TraceSource`], rejecting a
/// conflicting duration override.
fn load_trace(source: &TraceSource, duration: Option<f64>) -> Result<ContactTrace, String> {
    let trace = match source {
        TraceSource::Path(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            ContactTrace::from_text(&text).map_err(|e| format!("cannot parse {path}: {e}"))?
        }
        TraceSource::Inline { trace, .. } => trace.as_ref().clone(),
    };
    if let Some(d) = duration {
        if (d - trace.duration).abs() > 1e-9 {
            return Err(format!(
                "duration override {d} conflicts with the trace's recorded \
                 horizon {}; trace replay runs at its native duration",
                trace.duration
            ));
        }
    }
    Ok(trace)
}

/// The streaming counterpart of [`Scenario`]: the contact process as a
/// demand-driven [`ContactSource`] instead of a materialized trace.
pub struct StreamScenario {
    /// The contact supply, ready for `dtn_sim::Simulation::from_source`.
    pub source: Box<dyn ContactSource>,
    /// Number of nodes.
    pub n_nodes: u32,
    /// Horizon in seconds.
    pub duration: f64,
    /// Community id per node (all-zero when the model carries none).
    pub communities: Vec<u32>,
    /// Number of communities.
    pub n_communities: u32,
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioSpec::PaperBusCity { n_nodes } => write!(f, "paper(n={n_nodes})"),
            ScenarioSpec::City {
                n_nodes,
                districts,
                bpr,
            } => {
                write!(f, "city(n={n_nodes}, d={districts}, bpr={bpr})")
            }
            ScenarioSpec::RandomWaypoint { n_nodes, .. } => write!(f, "rwp(n={n_nodes})"),
            ScenarioSpec::TraceReplay { source } => match source {
                TraceSource::Path(p) => write!(f, "trace({p})"),
                TraceSource::Inline { trace, .. } => {
                    write!(f, "trace(inline, n={})", trace.n_nodes)
                }
            },
        }
    }
}

/// A message workload laid over a scenario, decoupled from mobility: any
/// workload composes with any [`ScenarioSpec`].
#[derive(Clone, Debug, Default)]
pub enum WorkloadSpec {
    /// The paper's uniform traffic: one message per uniform 25–35 s
    /// interval, uniformly random distinct endpoints.
    #[default]
    PaperUniform,
    /// Skewed endpoints: with probability `bias` the source is one of the
    /// first `hot_nodes` nodes and, independently, the destination one of
    /// the last `hot_nodes` nodes; otherwise uniform. Creation timing
    /// follows the paper's intervals.
    Hotspot {
        /// Size of the hot source set (and of the sink set).
        hot_nodes: u32,
        /// Probability a message uses the hot set on each side.
        bias: f64,
    },
    /// On/off traffic: bursts of `on_secs` with one message per ~`interval`
    /// seconds, separated by silent gaps of `off_secs`.
    Bursty {
        /// Length of each active burst in seconds.
        on_secs: f64,
        /// Length of each silent gap in seconds.
        off_secs: f64,
        /// Mean message spacing inside a burst (uniform 0.5–1.5×).
        interval: f64,
    },
}

impl WorkloadSpec {
    /// The default hotspot skew: 4 hot nodes, 80 % bias.
    pub fn hotspot() -> Self {
        WorkloadSpec::Hotspot {
            hot_nodes: 4,
            bias: 0.8,
        }
    }

    /// The default bursty pattern: 300 s bursts every 1 000 s, one message
    /// per ~10 s inside a burst.
    pub fn bursty() -> Self {
        WorkloadSpec::Bursty {
            on_secs: 300.0,
            off_secs: 700.0,
            interval: 10.0,
        }
    }

    /// Parses a CLI workload argument: `paper` (alias `uniform`),
    /// `hotspot[:<hot_nodes>]`, or `bursty[:<on_secs>:<off_secs>]`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let bad = || {
            format!(
                "unknown workload `{s}` (expected paper, hotspot[:<k>], or bursty[:<on>:<off>])"
            )
        };
        match (head, rest.as_slice()) {
            ("paper" | "uniform", []) => Ok(WorkloadSpec::PaperUniform),
            ("hotspot", []) => Ok(WorkloadSpec::hotspot()),
            ("hotspot", [k]) => {
                let hot_nodes: u32 = k.parse().map_err(|e| format!("hotspot size: {e}"))?;
                if hot_nodes == 0 {
                    return Err("hotspot size must be at least 1".into());
                }
                Ok(WorkloadSpec::Hotspot {
                    hot_nodes,
                    bias: 0.8,
                })
            }
            ("bursty", []) => Ok(WorkloadSpec::bursty()),
            ("bursty", [on, off]) => {
                let on_secs: f64 = on.parse().map_err(|e| format!("bursty on: {e}"))?;
                let off_secs: f64 = off.parse().map_err(|e| format!("bursty off: {e}"))?;
                if !on_secs.is_finite() || on_secs <= 0.0 || !off_secs.is_finite() || off_secs < 0.0
                {
                    return Err(format!(
                        "bursty needs on > 0 and off >= 0, got on={on_secs} off={off_secs}"
                    ));
                }
                Ok(WorkloadSpec::Bursty {
                    on_secs,
                    off_secs,
                    interval: 10.0,
                })
            }
            _ => Err(bad()),
        }
    }

    /// Canonical, injective encoding for cache keys.
    pub fn cache_key(&self) -> String {
        match self {
            WorkloadSpec::PaperUniform => "paper".into(),
            WorkloadSpec::Hotspot { hot_nodes, bias } => {
                format!("hotspot:k={hot_nodes}:b={:016x}", bias.to_bits())
            }
            WorkloadSpec::Bursty {
                on_secs,
                off_secs,
                interval,
            } => format!(
                "bursty:on={:016x}:off={:016x}:iv={:016x}",
                on_secs.to_bits(),
                off_secs.to_bits(),
                interval.to_bits()
            ),
        }
    }

    /// Generates the deterministic workload for `n_nodes` nodes over
    /// `duration` seconds from `seed`.
    ///
    /// # Panics
    /// Panics if `n_nodes < 2` or the variant's parameters are not sane.
    pub fn generate(&self, n_nodes: u32, duration: f64, seed: u64) -> Vec<MessageSpec> {
        assert!(n_nodes >= 2, "a workload needs at least two nodes");
        match self {
            WorkloadSpec::PaperUniform => TrafficConfig::paper(duration).generate(n_nodes, seed),
            WorkloadSpec::Hotspot { hot_nodes, bias } => {
                assert!((0.0..=1.0).contains(bias), "hotspot bias must be in [0, 1]");
                let hot = (*hot_nodes).clamp(1, n_nodes);
                let base = TrafficConfig::paper(duration);
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x0068_6f74_7370_6f74_u64);
                let mut out = Vec::new();
                let mut t = rng.gen_range(base.interval_min..=base.interval_max);
                while t < duration {
                    let src = if rng.gen::<f64>() < *bias {
                        NodeId(rng.gen_range(0..hot))
                    } else {
                        NodeId(rng.gen_range(0..n_nodes))
                    };
                    let mut dst = src;
                    while dst == src {
                        dst = if rng.gen::<f64>() < *bias {
                            NodeId(n_nodes - 1 - rng.gen_range(0..hot))
                        } else {
                            NodeId(rng.gen_range(0..n_nodes))
                        };
                    }
                    out.push(MessageSpec {
                        create_at: SimTime::secs(t),
                        src,
                        dst,
                        size: base.msg_size,
                        ttl: base.ttl,
                    });
                    t += rng.gen_range(base.interval_min..=base.interval_max);
                }
                out
            }
            WorkloadSpec::Bursty {
                on_secs,
                off_secs,
                interval,
            } => {
                assert!(
                    *on_secs > 0.0 && *off_secs >= 0.0 && *interval > 0.0,
                    "bursty workload needs positive on length and interval"
                );
                let base = TrafficConfig::paper(duration);
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x6275_7273_7479_u64);
                let mut out = Vec::new();
                let cycle = on_secs + off_secs;
                let mut t = rng.gen_range(0.5 * interval..=1.5 * interval);
                while t < duration {
                    // Skip ahead if `t` landed in the silent part of a cycle.
                    let phase = t % cycle;
                    if phase >= *on_secs {
                        t += cycle - phase + rng.gen_range(0.5 * interval..=1.5 * interval);
                        continue;
                    }
                    let src = NodeId(rng.gen_range(0..n_nodes));
                    let mut dst = NodeId(rng.gen_range(0..n_nodes));
                    while dst == src {
                        dst = NodeId(rng.gen_range(0..n_nodes));
                    }
                    out.push(MessageSpec {
                        create_at: SimTime::secs(t),
                        src,
                        dst,
                        size: base.msg_size,
                        ttl: base.ttl,
                    });
                    t += rng.gen_range(0.5 * interval..=1.5 * interval);
                }
                out
            }
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadSpec::PaperUniform => write!(f, "paper"),
            WorkloadSpec::Hotspot { hot_nodes, bias } => {
                write!(f, "hotspot(k={hot_nodes}, bias={bias})")
            }
            WorkloadSpec::Bursty {
                on_secs, off_secs, ..
            } => write!(f, "bursty({on_secs}s on / {off_secs}s off)"),
        }
    }
}

/// FNV-1a content fingerprint of a trace, so equal inline traces share one
/// cache identity. Stable across processes (unlike `DefaultHasher`).
fn trace_fingerprint(t: &ContactTrace) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| h = fnv1a(h, &v.to_le_bytes());
    mix(u64::from(t.n_nodes));
    mix(t.duration.to_bits());
    for c in &t.contacts {
        mix(u64::from(c.pair.a.0));
        mix(u64::from(c.pair.b.0));
        mix(c.start.as_secs().to_bits());
        mix(c.end.as_secs().to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::Contact;

    fn tiny_trace() -> ContactTrace {
        ContactTrace::new(
            4,
            200.0,
            vec![
                Contact::new(0, 1, 10.0, 40.0),
                Contact::new(2, 3, 20.0, 60.0),
                Contact::new(1, 2, 80.0, 120.0),
            ],
        )
    }

    #[test]
    fn parse_scenarios() {
        assert!(matches!(
            ScenarioSpec::parse("paper", 40),
            Ok(ScenarioSpec::PaperBusCity { n_nodes: 40 })
        ));
        assert!(matches!(
            ScenarioSpec::parse("rwp", 20),
            Ok(ScenarioSpec::RandomWaypoint { n_nodes: 20, .. })
        ));
        match ScenarioSpec::parse("trace:foo.trace", 0) {
            Ok(ScenarioSpec::TraceReplay {
                source: TraceSource::Path(p),
            }) => assert_eq!(p, "foo.trace"),
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(ScenarioSpec::parse("bogus", 8).is_err());
        assert!(ScenarioSpec::parse("trace:", 8).is_err());
        // Every generated family rejects a node count below 2 by name; a
        // trace ignores `n_nodes`.
        for (family, n) in [
            ("paper", 1),
            ("rwp", 1),
            ("random-waypoint", 0),
            ("city", 1),
        ] {
            assert_eq!(
                ScenarioSpec::parse(family, n).unwrap_err(),
                format!("scenario `{family}` needs n >= 2 nodes, got {n}")
            );
        }
        assert_eq!(
            ScenarioSpec::parse("paper:n=1", 40).unwrap_err(),
            "scenario `paper:n=1` needs n >= 2 nodes, got 1"
        );
        assert!(ScenarioSpec::parse("city:n=0:d=1", 40).is_err());
        assert!(ScenarioSpec::parse("city:d=2", 1).is_err());
        assert!(ScenarioSpec::parse("paper", 2).is_ok());
        assert!(ScenarioSpec::parse("trace:foo.trace", 1).is_ok());
    }

    #[test]
    fn parse_city_family() {
        assert!(matches!(
            ScenarioSpec::parse("city", 100),
            Ok(ScenarioSpec::City {
                n_nodes: 100,
                districts: 4,
                bpr: 4
            })
        ));
        assert!(matches!(
            ScenarioSpec::parse("city:n=1000", 8),
            Ok(ScenarioSpec::City {
                n_nodes: 1000,
                districts: 4,
                bpr: 4
            })
        ));
        assert!(matches!(
            ScenarioSpec::parse("city:n=1000:d=7", 8),
            Ok(ScenarioSpec::City {
                n_nodes: 1000,
                districts: 7,
                bpr: 4
            })
        ));
        assert!(matches!(
            ScenarioSpec::parse("city:d=7", 64),
            Ok(ScenarioSpec::City {
                n_nodes: 64,
                districts: 7,
                bpr: 4
            })
        ));
        assert!(matches!(
            ScenarioSpec::parse("city:n=1000:bpr=9", 8),
            Ok(ScenarioSpec::City {
                n_nodes: 1000,
                districts: 4,
                bpr: 9
            })
        ));
        // `paper:n=N` is the city family at paper-like defaults.
        assert!(matches!(
            ScenarioSpec::parse("paper:n=10000", 8),
            Ok(ScenarioSpec::City {
                n_nodes: 10000,
                districts: 13,
                bpr: 13
            })
        ));
        assert!(ScenarioSpec::parse("city:x=3", 8).is_err());
        assert!(ScenarioSpec::parse("city:n=", 8).is_err());
        assert!(ScenarioSpec::parse("city:n=1", 8).is_err());
        assert!(ScenarioSpec::parse("city:n=10:d=0", 8).is_err());
        assert!(ScenarioSpec::parse("city:n=10:bpr=0", 8).is_err());
        assert!(ScenarioSpec::parse("paper:bogus", 8).is_err());
        assert_eq!(ScenarioSpec::districts_for(100_000), 40);
        assert_eq!(ScenarioSpec::bpr_for(100), 4);
        assert_eq!(ScenarioSpec::bpr_for(10_000), 13);
        assert_eq!(ScenarioSpec::bpr_for(100_000), 40);
        assert_eq!(ScenarioSpec::bpr_for(1_000_000), 64);
    }

    #[test]
    fn city_round_trips_and_builds() {
        let spec = ScenarioSpec::parse("city:n=24:d=4", 8).unwrap();
        assert_eq!(spec.to_string(), "city(n=24, d=4, bpr=4)");
        assert_eq!(spec.cache_key(), "city:n=24:d=4:bpr=4");
        assert_ne!(spec.cache_key(), ScenarioSpec::paper(24).cache_key());
        assert_eq!(spec.declared_nodes(), Some(24));
        let s = spec.build(3, Some(500.0)).unwrap();
        assert_eq!(s.trace.n_nodes, 24);
        assert_eq!(s.n_communities, 4);
        assert!(s.trace.validate().is_ok());
    }

    /// The buses-per-route cap thins routes at scale (so contact volume
    /// grows ~n·bpr, not ~n^1.5) and never binds on small fleets.
    #[test]
    fn bpr_caps_route_density() {
        // Small city: district-driven routes already spread buses thinner
        // than the cap, so the config is unchanged.
        let small = ScenarioSpec::city(60, 5).bus_config(None);
        assert_eq!(small.n_routes, ScenarioConfig::city(60, 5).n_routes);

        // Large city: the cap binds and raises the route count.
        let spec = ScenarioSpec::parse("paper:n=100000", 8).unwrap();
        let cfg = spec.bus_config(None);
        assert_eq!(cfg.n_routes, 2500); // ceil(100000 / 40)
        assert!(cfg.n_routes > ScenarioConfig::city(100_000, 40).n_routes);

        // An explicit bpr overrides the default and changes the cache key.
        let thin = ScenarioSpec::parse("city:n=100000:bpr=10", 8).unwrap();
        assert_eq!(thin.bus_config(None).n_routes, 10_000);
        assert_ne!(thin.cache_key(), spec.cache_key());
        // Round trip through parse preserves the knob.
        let reparsed = ScenarioSpec::parse("city:n=100000:d=40:bpr=10", 8).unwrap();
        assert_eq!(reparsed.cache_key(), thin.cache_key());
    }

    #[test]
    fn build_stream_mirrors_build() {
        use dtn_sim::TraceReplaySource;
        for spec in [
            ScenarioSpec::paper(8),
            ScenarioSpec::city(12, 3),
            ScenarioSpec::rwp(8),
        ] {
            let s = spec.build(5, Some(300.0)).unwrap();
            let mut stream = spec.build_stream(5, Some(300.0)).unwrap();
            assert_eq!(stream.n_nodes, s.trace.n_nodes, "{spec}");
            assert_eq!(stream.duration, 300.0, "{spec}");
            assert_eq!(stream.communities, s.communities, "{spec}");
            assert_eq!(stream.n_communities, s.n_communities, "{spec}");
            // Same events, same engine-pop order, as trace replay.
            let mut expect = Vec::new();
            TraceReplaySource::new(&s.trace).next_window(300.0, &mut expect);
            expect.sort_by_key(|e| e.at());
            let mut got = Vec::new();
            stream.source.next_window(300.0, &mut got);
            got.sort_by_key(|e| e.at());
            assert_eq!(got, expect, "{spec}");
        }
    }

    #[test]
    fn parse_workloads() {
        assert!(matches!(
            WorkloadSpec::parse("paper"),
            Ok(WorkloadSpec::PaperUniform)
        ));
        assert!(matches!(
            WorkloadSpec::parse("hotspot:6"),
            Ok(WorkloadSpec::Hotspot { hot_nodes: 6, .. })
        ));
        assert!(matches!(
            WorkloadSpec::parse("bursty:100:400"),
            Ok(WorkloadSpec::Bursty { .. })
        ));
        assert!(WorkloadSpec::parse("nope").is_err());
        assert!(WorkloadSpec::parse("hotspot:x").is_err());
        // Parameter ranges are enforced at parse time, not deep inside a
        // sweep worker via generate()'s asserts.
        assert!(WorkloadSpec::parse("hotspot:0").is_err());
        assert!(WorkloadSpec::parse("bursty:0:500").is_err());
        assert!(WorkloadSpec::parse("bursty:-100:200").is_err());
        assert!(WorkloadSpec::parse("bursty:100:-1").is_err());
    }

    #[test]
    fn cache_keys_are_distinct_across_specs() {
        let keys = [
            ScenarioSpec::paper(8).cache_key(),
            ScenarioSpec::rwp(8).cache_key(),
            ScenarioSpec::trace(Arc::new(tiny_trace())).cache_key(),
            ScenarioSpec::trace_path("a.trace").cache_key(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Equal inline contents share an identity; different contents don't.
        let same = ScenarioSpec::trace(Arc::new(tiny_trace())).cache_key();
        assert_eq!(keys[2], same);
        let other = ContactTrace::new(4, 200.0, vec![Contact::new(0, 1, 10.0, 40.0)]);
        assert_ne!(keys[2], ScenarioSpec::trace(Arc::new(other)).cache_key());
    }

    #[test]
    fn rwp_builds_deterministically() {
        let spec = ScenarioSpec::rwp(10);
        let a = spec.build(3, Some(600.0)).unwrap();
        let b = spec.build(3, Some(600.0)).unwrap();
        assert_eq!(a.trace.n_nodes, 10);
        assert_eq!(a.trace.contacts, b.trace.contacts);
        assert!(a.trace.validate().is_ok());
        assert_eq!(a.n_communities, 1);
        let c = spec.build(4, Some(600.0)).unwrap();
        assert_ne!(a.trace.contacts, c.trace.contacts);
        assert!(
            !a.trace.contacts.is_empty(),
            "10 RWP nodes in 1 km² must meet within 600 s"
        );
    }

    #[test]
    fn trace_replay_keeps_native_horizon() {
        let spec = ScenarioSpec::trace(Arc::new(tiny_trace()));
        let s = spec.build(1, None).unwrap();
        assert_eq!(s.trace.duration, 200.0);
        assert_eq!(s.communities.len(), 4);
        assert!(spec.build(1, Some(500.0)).is_err());
        assert!(spec.build(1, Some(200.0)).is_ok());
    }

    #[test]
    fn trace_replay_missing_file_is_an_error() {
        let spec = ScenarioSpec::trace_path("/nonexistent/never.trace");
        assert!(spec.build(1, None).is_err());
    }

    #[test]
    fn hotspot_workload_skews_endpoints() {
        let w = WorkloadSpec::Hotspot {
            hot_nodes: 2,
            bias: 0.9,
        };
        let msgs = w.generate(20, 10_000.0, 5);
        assert!(!msgs.is_empty());
        let hot_src = msgs.iter().filter(|m| m.src.0 < 2).count();
        let hot_dst = msgs.iter().filter(|m| m.dst.0 >= 18).count();
        // 90 % bias on each side; uniform would give 10 %.
        assert!(
            hot_src * 2 > msgs.len(),
            "src skew too weak: {hot_src}/{}",
            msgs.len()
        );
        assert!(
            hot_dst * 2 > msgs.len(),
            "dst skew too weak: {hot_dst}/{}",
            msgs.len()
        );
        assert!(msgs.iter().all(|m| m.src != m.dst));
        assert_eq!(msgs, w.generate(20, 10_000.0, 5));
    }

    #[test]
    fn bursty_workload_has_silent_gaps() {
        let w = WorkloadSpec::Bursty {
            on_secs: 100.0,
            off_secs: 400.0,
            interval: 5.0,
        };
        let msgs = w.generate(10, 5_000.0, 2);
        assert!(!msgs.is_empty());
        for m in &msgs {
            let phase = m.create_at.as_secs() % 500.0;
            assert!(
                phase < 100.0 + 1e-9,
                "message in silent window at phase {phase}"
            );
        }
        assert_eq!(msgs, w.generate(10, 5_000.0, 2));
    }

    #[test]
    fn workloads_stay_in_bounds() {
        for w in [
            WorkloadSpec::PaperUniform,
            WorkloadSpec::hotspot(),
            WorkloadSpec::bursty(),
        ] {
            let msgs = w.generate(8, 2_000.0, 1);
            assert!(!msgs.is_empty(), "{w} generated nothing");
            for m in &msgs {
                assert!(m.create_at.as_secs() < 2_000.0);
                assert!(m.src.0 < 8 && m.dst.0 < 8);
                assert_ne!(m.src, m.dst);
            }
        }
    }
}
