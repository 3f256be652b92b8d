//! The protocol registry: first-class, parameterized protocol
//! specifications.
//!
//! A [`ProtocolSpec`] is a *value* describing exactly how traffic is routed —
//! the protocol family plus every tunable the family exposes (quota λ,
//! EER/CR estimator knobs, PRoPHET's P₀/β/γ, spray utility parameters, …) —
//! mirroring the scenario subsystem's `ScenarioSpec`/`WorkloadSpec` design.
//! Paper defaults come from [`ProtocolSpec::paper`]; everything else is data,
//! so a sweep matrix can put differently-tuned variants of one protocol side
//! by side as series (`eer:lambda=4` vs `eer:lambda=16` vs
//! `prophet:beta=0.25`).
//!
//! # CLI grammar
//!
//! Specs parse from the `--protocol` grammar
//!
//! ```text
//! <name>[:<key>=<value>[,<key>=<value>...]]
//! ```
//!
//! where `<name>` is a (case-insensitive) protocol name from
//! [`ProtocolKind::parse`] and each `<key>` is one of the family's tunables.
//! Unset keys keep their paper defaults; values are validated at parse time
//! (range checks, unknown keys list the valid ones). Examples:
//!
//! ```text
//! eer                          the paper's EER (λ = 10, α = 0.28)
//! eer:lambda=8,ttl=3600        EER with 8 copies and a 1 h message TTL
//! prophet:beta=0.25,gamma=0.99 tuned PRoPHET
//! spraywait:lambda=4,mode=source   source-spray Spray-and-Wait
//! ```
//!
//! Per-family keys (beyond the common `ttl` seconds / `buffer` bytes
//! overrides, accepted everywhere):
//!
//! | family | keys |
//! |---|---|
//! | `eer` | `lambda`, `alpha` (TTL fraction in (0, 1]), `window`, `hysteresis` (s), `refresh` (s), `emd` (`t2`\|`mean`), `policy` (`oldest`\|`lrv`), `adaptive` (`MIN..MAX`) |
//! | `cr` | `lambda`, `alpha` (TTL fraction in (0, 1]), `window`, `hysteresis` (s), `physt` (probability), `refresh` (s), `policy` (`oldest`\|`lrv`) |
//! | `ebr` | `lambda`, `alpha` (EWMA weight), `window` (s) |
//! | `maxprop` | `hops` (protection threshold), `refresh` (s) |
//! | `spraywait` | `lambda`, `mode` (`binary`\|`source`) |
//! | `sprayfocus` | `lambda`, `threshold` (s), `penalty` (s) |
//! | `prophet` | `pinit`, `beta`, `gamma`, `unit` (s) |
//! | `epidemic`, `direct`, `firstcontact` | common keys only |
//!
//! [`ProtocolSpec`]'s `Display` prints the canonical form of this grammar
//! (name plus the non-default parameters), so `parse ∘ Display` is the
//! identity and every printed spec is a reproducible `--protocol` argument.
//! [`ProtocolSpec::cache_key`] is a fully injective encoding (all parameters,
//! floats by bit pattern) used to key sweep cells.
//!
//! ```
//! use dtn_bench::{ProtocolKind, ProtocolSpec};
//!
//! let spec = ProtocolSpec::parse("eer:lambda=8,ttl=3600").unwrap();
//! assert_eq!(spec.kind(), ProtocolKind::Eer);
//! assert_eq!(spec.ttl, Some(3600.0));
//!
//! // Display is canonical: parse ∘ Display is the identity, so any printed
//! // spec is a reproducible `--protocol` argument.
//! assert_eq!(ProtocolSpec::parse(&spec.to_string()).unwrap(), spec);
//!
//! // Validation happens at parse time: unknown keys list the valid ones.
//! let err = ProtocolSpec::parse("eer:bogus=1").unwrap_err();
//! assert!(err.contains("lambda"));
//!
//! // Tuned variants of one family never share a sweep-cell key.
//! let tuned = ProtocolSpec::parse("eer:lambda=16").unwrap();
//! assert_ne!(spec.cache_key(), tuned.cache_key());
//! ```

use ce_core::{BufferPolicy, CommunityMap, Cr, CrConfig, Eer, EerConfig, EmdMode};
use dtn_routing::{
    DirectDelivery, Ebr, EbrConfig, Epidemic, FirstContact, MaxProp, MaxPropConfig, Prophet,
    ProphetConfig, SprayAndFocus, SprayAndWait, SprayFocusConfig,
};
use dtn_sim::{NodeId, Router};
use std::fmt;
use std::sync::Arc;

/// Which protocol family to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Paper's EER (quota λ).
    Eer,
    /// Paper's CR (quota λ).
    Cr,
    /// EBR baseline (quota λ).
    Ebr,
    /// MaxProp baseline.
    MaxProp,
    /// Spray-and-Wait baseline (quota λ).
    SprayAndWait,
    /// Spray-and-Focus baseline (quota λ).
    SprayAndFocus,
    /// Epidemic flooding.
    Epidemic,
    /// PRoPHET.
    Prophet,
    /// Direct delivery.
    Direct,
    /// First contact.
    FirstContact,
}

impl ProtocolKind {
    /// Every protocol the registry knows, paper protocols first.
    pub const ALL: [ProtocolKind; 10] = [
        ProtocolKind::Eer,
        ProtocolKind::Cr,
        ProtocolKind::Ebr,
        ProtocolKind::MaxProp,
        ProtocolKind::SprayAndWait,
        ProtocolKind::SprayAndFocus,
        ProtocolKind::Epidemic,
        ProtocolKind::Prophet,
        ProtocolKind::Direct,
        ProtocolKind::FirstContact,
    ];

    /// Comma-separated list of every valid protocol name, for CLI error
    /// messages.
    pub fn names() -> String {
        Self::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// All protocols compared in the paper's Figure 2, in its legend order.
    pub const FIG2: [ProtocolKind; 6] = [
        ProtocolKind::Eer,
        ProtocolKind::Cr,
        ProtocolKind::Ebr,
        ProtocolKind::MaxProp,
        ProtocolKind::SprayAndWait,
        ProtocolKind::SprayAndFocus,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Eer => "EER",
            ProtocolKind::Cr => "CR",
            ProtocolKind::Ebr => "EBR",
            ProtocolKind::MaxProp => "MaxProp",
            ProtocolKind::SprayAndWait => "SprayAndWait",
            ProtocolKind::SprayAndFocus => "SprayAndFocus",
            ProtocolKind::Epidemic => "Epidemic",
            ProtocolKind::Prophet => "PRoPHET",
            ProtocolKind::Direct => "Direct",
            ProtocolKind::FirstContact => "FirstContact",
        }
    }

    /// Canonical lowercase grammar name ([`ProtocolSpec::parse`] /
    /// `Display`).
    pub fn key(self) -> &'static str {
        match self {
            ProtocolKind::Eer => "eer",
            ProtocolKind::Cr => "cr",
            ProtocolKind::Ebr => "ebr",
            ProtocolKind::MaxProp => "maxprop",
            ProtocolKind::SprayAndWait => "spraywait",
            ProtocolKind::SprayAndFocus => "sprayfocus",
            ProtocolKind::Epidemic => "epidemic",
            ProtocolKind::Prophet => "prophet",
            ProtocolKind::Direct => "direct",
            ProtocolKind::FirstContact => "firstcontact",
        }
    }

    /// The parameter keys this family accepts (excluding the common
    /// `ttl`/`buffer` overrides), for error messages.
    pub fn param_keys(self) -> &'static [&'static str] {
        match self {
            ProtocolKind::Eer => &[
                "lambda",
                "alpha",
                "window",
                "hysteresis",
                "refresh",
                "emd",
                "policy",
                "adaptive",
            ],
            ProtocolKind::Cr => &[
                "lambda",
                "alpha",
                "window",
                "hysteresis",
                "physt",
                "refresh",
                "policy",
            ],
            ProtocolKind::Ebr => &["lambda", "alpha", "window"],
            ProtocolKind::MaxProp => &["hops", "refresh"],
            ProtocolKind::SprayAndWait => &["lambda", "mode"],
            ProtocolKind::SprayAndFocus => &["lambda", "threshold", "penalty"],
            ProtocolKind::Prophet => &["pinit", "beta", "gamma", "unit"],
            ProtocolKind::Epidemic | ProtocolKind::Direct | ProtocolKind::FirstContact => &[],
        }
    }

    /// Parses a (case-insensitive) protocol name.
    pub fn parse(s: &str) -> Option<Self> {
        let k = match s.to_ascii_lowercase().as_str() {
            "eer" => ProtocolKind::Eer,
            "cr" => ProtocolKind::Cr,
            "ebr" => ProtocolKind::Ebr,
            "maxprop" => ProtocolKind::MaxProp,
            "spraywait" | "sprayandwait" | "snw" => ProtocolKind::SprayAndWait,
            "sprayfocus" | "sprayandfocus" | "snf" => ProtocolKind::SprayAndFocus,
            "epidemic" => ProtocolKind::Epidemic,
            "prophet" => ProtocolKind::Prophet,
            "direct" => ProtocolKind::Direct,
            "firstcontact" | "fc" => ProtocolKind::FirstContact,
            _ => return None,
        };
        Some(k)
    }
}

/// Per-family protocol parameters: the family's full config struct (or
/// inline fields where the router has no config struct), carried by value.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolParams {
    /// EER parameters.
    Eer(EerConfig),
    /// CR parameters.
    Cr(CrConfig),
    /// EBR parameters.
    Ebr(EbrConfig),
    /// MaxProp parameters.
    MaxProp(MaxPropConfig),
    /// Spray-and-Wait: quota and spray mode (`binary` halves the copies per
    /// encounter; `!binary` is source spray, one copy at a time).
    SprayAndWait {
        /// Quota λ.
        lambda: u32,
        /// Binary (true) vs source (false) spray.
        binary: bool,
    },
    /// Spray-and-Focus parameters.
    SprayAndFocus(SprayFocusConfig),
    /// Epidemic flooding (no parameters).
    Epidemic,
    /// PRoPHET parameters.
    Prophet(ProphetConfig),
    /// Direct delivery (no parameters).
    Direct,
    /// First contact (no parameters).
    FirstContact,
}

impl ProtocolParams {
    /// The paper-default parameters for `kind` (λ = 10 for every quota
    /// protocol, each family's published constants otherwise).
    pub fn paper(kind: ProtocolKind) -> Self {
        match kind {
            ProtocolKind::Eer => ProtocolParams::Eer(EerConfig::default()),
            ProtocolKind::Cr => ProtocolParams::Cr(CrConfig::default()),
            ProtocolKind::Ebr => ProtocolParams::Ebr(EbrConfig::default()),
            ProtocolKind::MaxProp => ProtocolParams::MaxProp(MaxPropConfig::default()),
            ProtocolKind::SprayAndWait => ProtocolParams::SprayAndWait {
                lambda: 10,
                binary: true,
            },
            ProtocolKind::SprayAndFocus => {
                ProtocolParams::SprayAndFocus(SprayFocusConfig::default())
            }
            ProtocolKind::Epidemic => ProtocolParams::Epidemic,
            ProtocolKind::Prophet => ProtocolParams::Prophet(ProphetConfig::default()),
            ProtocolKind::Direct => ProtocolParams::Direct,
            ProtocolKind::FirstContact => ProtocolParams::FirstContact,
        }
    }

    /// The family these parameters belong to.
    pub fn kind(&self) -> ProtocolKind {
        match self {
            ProtocolParams::Eer(_) => ProtocolKind::Eer,
            ProtocolParams::Cr(_) => ProtocolKind::Cr,
            ProtocolParams::Ebr(_) => ProtocolKind::Ebr,
            ProtocolParams::MaxProp(_) => ProtocolKind::MaxProp,
            ProtocolParams::SprayAndWait { .. } => ProtocolKind::SprayAndWait,
            ProtocolParams::SprayAndFocus(_) => ProtocolKind::SprayAndFocus,
            ProtocolParams::Epidemic => ProtocolKind::Epidemic,
            ProtocolParams::Prophet(_) => ProtocolKind::Prophet,
            ProtocolParams::Direct => ProtocolKind::Direct,
            ProtocolParams::FirstContact => ProtocolKind::FirstContact,
        }
    }
}

/// A fully specified protocol: family parameters plus the common per-run
/// knobs (message-TTL and buffer-capacity overrides). Serializable data —
/// see the [module docs](self) for the CLI grammar.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtocolSpec {
    /// Family parameters.
    pub params: ProtocolParams,
    /// Message-TTL override in seconds (`None` = the workload's TTL, the
    /// paper's 20 min). Applied by the runner to every message of the run.
    pub ttl: Option<f64>,
    /// Per-node buffer-capacity override in bytes (`None` = the paper's
    /// 1 MB). An explicit `RunSpec::with_buffer` wins over this.
    pub buffer: Option<u64>,
}

impl From<ProtocolParams> for ProtocolSpec {
    fn from(params: ProtocolParams) -> Self {
        ProtocolSpec {
            params,
            ttl: None,
            buffer: None,
        }
    }
}

impl ProtocolSpec {
    /// The paper's configuration of `kind`: λ = 10 and each family's
    /// published default parameters, no TTL/buffer overrides.
    pub fn paper(kind: ProtocolKind) -> Self {
        ProtocolParams::paper(kind).into()
    }

    /// An EER spec with explicit parameters.
    pub fn eer(cfg: EerConfig) -> Self {
        ProtocolParams::Eer(cfg).into()
    }

    /// A CR spec with explicit parameters.
    pub fn cr(cfg: CrConfig) -> Self {
        ProtocolParams::Cr(cfg).into()
    }

    /// An EBR spec with explicit parameters.
    pub fn ebr(cfg: EbrConfig) -> Self {
        ProtocolParams::Ebr(cfg).into()
    }

    /// A PRoPHET spec with explicit parameters.
    pub fn prophet(cfg: ProphetConfig) -> Self {
        ProtocolParams::Prophet(cfg).into()
    }

    /// The protocol family.
    pub fn kind(&self) -> ProtocolKind {
        self.params.kind()
    }

    /// Sets the quota λ. Applies to the quota families (EER, CR, EBR,
    /// Spray-and-Wait/-Focus); a no-op for the others, mirroring how those
    /// routers ignore quotas.
    pub fn with_lambda(mut self, lambda: u32) -> Self {
        match &mut self.params {
            ProtocolParams::Eer(c) => c.lambda = lambda,
            ProtocolParams::Cr(c) => c.lambda = lambda,
            ProtocolParams::Ebr(c) => c.lambda = lambda,
            ProtocolParams::SprayAndWait { lambda: l, .. } => *l = lambda,
            ProtocolParams::SprayAndFocus(c) => c.lambda = lambda,
            _ => {}
        }
        self
    }

    /// Overrides the per-node buffer capacity (bytes) for runs of this spec.
    pub fn with_buffer(mut self, bytes: u64) -> Self {
        self.buffer = Some(bytes);
        self
    }

    /// Whether [`ProtocolSpec::make_router`] requires a community map (CR).
    pub fn needs_communities(&self) -> bool {
        matches!(self.params, ProtocolParams::Cr(_))
    }

    /// Parses the CLI grammar `name[:key=value[,key=value...]]` with
    /// parse-time validation. See the [module docs](self) for the grammar and
    /// the per-family keys.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (name, rest) = match s.split_once(':') {
            Some((n, r)) => (n, Some(r)),
            None => (s, None),
        };
        let kind = ProtocolKind::parse(name).ok_or_else(|| {
            format!(
                "unknown protocol `{name}` (valid: {})",
                ProtocolKind::names()
            )
        })?;
        let mut spec = ProtocolSpec::paper(kind);
        if let Some(rest) = rest {
            if rest.is_empty() {
                return Err(format!(
                    "empty parameter list in `{s}` (expected {name}:key=value,...)"
                ));
            }
            for kv in rest.split(',') {
                let (key, value) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("bad parameter `{kv}` in `{s}` (expected key=value)"))?;
                spec.set(key.trim(), value.trim())
                    .map_err(|e| format!("{}: {e}", kind.key()))?;
            }
        }
        Ok(spec)
    }

    /// Sets one grammar parameter, validating key and value.
    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "ttl" => {
                self.ttl = Some(parse_pos_f64("ttl", value)?);
                return Ok(());
            }
            "buffer" => {
                let b: u64 = value.parse().map_err(|e| format!("buffer: {e}"))?;
                if b == 0 {
                    return Err("buffer: must be at least 1 byte".into());
                }
                self.buffer = Some(b);
                return Ok(());
            }
            _ => {}
        }
        let unknown = |kind: ProtocolKind| {
            let keys = kind.param_keys();
            let valid = if keys.is_empty() {
                "only the common keys ttl, buffer".to_string()
            } else {
                format!("{}, ttl, buffer", keys.join(", "))
            };
            Err(format!("unknown parameter `{key}` (valid: {valid})"))
        };
        match &mut self.params {
            ProtocolParams::Eer(c) => match key {
                "lambda" => c.lambda = parse_lambda(value)?,
                "alpha" => c.alpha = parse_ttl_fraction(value)?,
                "window" => c.window = parse_window(value)?,
                "hysteresis" => c.forward_hysteresis = parse_nonneg_f64("hysteresis", value)?,
                "refresh" => c.refresh = parse_nonneg_f64("refresh", value)?,
                "emd" => {
                    c.emd_mode = match value {
                        "t2" | "theorem2" => EmdMode::Theorem2,
                        "mean" => EmdMode::MeanInterval,
                        _ => return Err(format!("emd: unknown mode `{value}` (valid: t2, mean)")),
                    }
                }
                "policy" => c.buffer_policy = parse_policy(value)?,
                "adaptive" => {
                    let (lo, hi) = value
                        .split_once("..")
                        .ok_or_else(|| format!("adaptive: expected MIN..MAX, got `{value}`"))?;
                    let lo: u32 = lo.parse().map_err(|e| format!("adaptive min: {e}"))?;
                    let hi: u32 = hi.parse().map_err(|e| format!("adaptive max: {e}"))?;
                    if lo < 1 || hi < lo {
                        return Err(format!("adaptive: need 1 <= MIN <= MAX, got {lo}..{hi}"));
                    }
                    c.adaptive_lambda = Some((lo, hi));
                }
                _ => return unknown(ProtocolKind::Eer),
            },
            ProtocolParams::Cr(c) => match key {
                "lambda" => c.lambda = parse_lambda(value)?,
                "alpha" => c.alpha = parse_ttl_fraction(value)?,
                "window" => c.window = parse_window(value)?,
                "hysteresis" => c.forward_hysteresis = parse_nonneg_f64("hysteresis", value)?,
                "physt" => c.probability_hysteresis = parse_nonneg_f64("physt", value)?,
                "refresh" => c.refresh = parse_nonneg_f64("refresh", value)?,
                "policy" => c.buffer_policy = parse_policy(value)?,
                _ => return unknown(ProtocolKind::Cr),
            },
            ProtocolParams::Ebr(c) => match key {
                "lambda" => c.lambda = parse_lambda(value)?,
                "alpha" => {
                    let a = parse_nonneg_f64("alpha", value)?;
                    if a > 1.0 {
                        return Err(format!("alpha: EWMA weight must be in [0, 1], got {a}"));
                    }
                    c.alpha = a;
                }
                "window" => c.window = parse_pos_f64("window", value)?,
                _ => return unknown(ProtocolKind::Ebr),
            },
            ProtocolParams::MaxProp(c) => match key {
                "hops" => c.hop_threshold = value.parse().map_err(|e| format!("hops: {e}"))?,
                "refresh" => c.cost_refresh = parse_nonneg_f64("refresh", value)?,
                _ => return unknown(ProtocolKind::MaxProp),
            },
            ProtocolParams::SprayAndWait { lambda, binary } => match key {
                "lambda" => *lambda = parse_lambda(value)?,
                "mode" => {
                    *binary = match value {
                        "binary" => true,
                        "source" => false,
                        _ => {
                            return Err(format!(
                                "mode: unknown spray mode `{value}` (valid: binary, source)"
                            ))
                        }
                    }
                }
                _ => return unknown(ProtocolKind::SprayAndWait),
            },
            ProtocolParams::SprayAndFocus(c) => match key {
                "lambda" => c.lambda = parse_lambda(value)?,
                "threshold" => c.utility_threshold = parse_nonneg_f64("threshold", value)?,
                "penalty" => c.transitivity_penalty = parse_nonneg_f64("penalty", value)?,
                _ => return unknown(ProtocolKind::SprayAndFocus),
            },
            ProtocolParams::Prophet(c) => match key {
                "pinit" => {
                    let v = parse_pos_f64("pinit", value)?;
                    if v > 1.0 {
                        return Err(format!("pinit: probability must be in (0, 1], got {v}"));
                    }
                    c.p_init = v;
                }
                "beta" => {
                    let v = parse_nonneg_f64("beta", value)?;
                    if v > 1.0 {
                        return Err(format!("beta: must be in [0, 1], got {v}"));
                    }
                    c.beta = v;
                }
                "gamma" => {
                    let v = parse_pos_f64("gamma", value)?;
                    if v > 1.0 {
                        return Err(format!("gamma: aging base must be in (0, 1], got {v}"));
                    }
                    c.gamma = v;
                }
                "unit" => c.time_unit = parse_pos_f64("unit", value)?,
                _ => return unknown(ProtocolKind::Prophet),
            },
            ProtocolParams::Epidemic => return unknown(ProtocolKind::Epidemic),
            ProtocolParams::Direct => return unknown(ProtocolKind::Direct),
            ProtocolParams::FirstContact => return unknown(ProtocolKind::FirstContact),
        }
        Ok(())
    }

    /// The non-default parameters in canonical grammar order (`key=value`
    /// strings) — the payload of `Display`.
    fn non_default_params(&self) -> Vec<String> {
        let mut out = Vec::new();
        match &self.params {
            ProtocolParams::Eer(c) => {
                let d = EerConfig::default();
                push_ne(&mut out, "lambda", c.lambda, d.lambda);
                push_ne(&mut out, "alpha", c.alpha, d.alpha);
                push_ne(&mut out, "window", c.window, d.window);
                push_ne(
                    &mut out,
                    "hysteresis",
                    c.forward_hysteresis,
                    d.forward_hysteresis,
                );
                push_ne(&mut out, "refresh", c.refresh, d.refresh);
                if c.emd_mode != d.emd_mode {
                    out.push("emd=mean".into());
                }
                if c.buffer_policy != d.buffer_policy {
                    out.push("policy=lrv".into());
                }
                if let Some((lo, hi)) = c.adaptive_lambda {
                    out.push(format!("adaptive={lo}..{hi}"));
                }
            }
            ProtocolParams::Cr(c) => {
                let d = CrConfig::default();
                push_ne(&mut out, "lambda", c.lambda, d.lambda);
                push_ne(&mut out, "alpha", c.alpha, d.alpha);
                push_ne(&mut out, "window", c.window, d.window);
                push_ne(
                    &mut out,
                    "hysteresis",
                    c.forward_hysteresis,
                    d.forward_hysteresis,
                );
                push_ne(
                    &mut out,
                    "physt",
                    c.probability_hysteresis,
                    d.probability_hysteresis,
                );
                push_ne(&mut out, "refresh", c.refresh, d.refresh);
                if c.buffer_policy != d.buffer_policy {
                    out.push("policy=lrv".into());
                }
            }
            ProtocolParams::Ebr(c) => {
                let d = EbrConfig::default();
                push_ne(&mut out, "lambda", c.lambda, d.lambda);
                push_ne(&mut out, "alpha", c.alpha, d.alpha);
                push_ne(&mut out, "window", c.window, d.window);
            }
            ProtocolParams::MaxProp(c) => {
                let d = MaxPropConfig::default();
                push_ne(&mut out, "hops", c.hop_threshold, d.hop_threshold);
                push_ne(&mut out, "refresh", c.cost_refresh, d.cost_refresh);
            }
            ProtocolParams::SprayAndWait { lambda, binary } => {
                // No config struct to take defaults from — derive them from
                // the paper params so the literal lives in exactly one place.
                let ProtocolParams::SprayAndWait {
                    lambda: dl,
                    binary: db,
                } = ProtocolParams::paper(ProtocolKind::SprayAndWait)
                else {
                    unreachable!("paper(SprayAndWait) returns SprayAndWait params")
                };
                push_ne(&mut out, "lambda", *lambda, dl);
                if *binary != db {
                    out.push(
                        if *binary {
                            "mode=binary"
                        } else {
                            "mode=source"
                        }
                        .into(),
                    );
                }
            }
            ProtocolParams::SprayAndFocus(c) => {
                let d = SprayFocusConfig::default();
                push_ne(&mut out, "lambda", c.lambda, d.lambda);
                push_ne(
                    &mut out,
                    "threshold",
                    c.utility_threshold,
                    d.utility_threshold,
                );
                push_ne(
                    &mut out,
                    "penalty",
                    c.transitivity_penalty,
                    d.transitivity_penalty,
                );
            }
            ProtocolParams::Prophet(c) => {
                let d = ProphetConfig::default();
                push_ne(&mut out, "pinit", c.p_init, d.p_init);
                push_ne(&mut out, "beta", c.beta, d.beta);
                push_ne(&mut out, "gamma", c.gamma, d.gamma);
                push_ne(&mut out, "unit", c.time_unit, d.time_unit);
            }
            ProtocolParams::Epidemic | ProtocolParams::Direct | ProtocolParams::FirstContact => {}
        }
        if let Some(t) = self.ttl {
            out.push(format!("ttl={t}"));
        }
        if let Some(b) = self.buffer {
            out.push(format!("buffer={b}"));
        }
        out
    }

    /// Canonical, injective encoding of the spec for cache/series keys:
    /// every parameter is encoded (floats by bit pattern), so
    /// differently-tuned variants of one protocol never collide.
    pub fn cache_key(&self) -> String {
        let mut k = String::from(self.kind().key());
        let mut pu = |name: &str, v: u64| {
            k.push_str(&format!(":{name}={v:x}"));
        };
        match &self.params {
            ProtocolParams::Eer(c) => {
                pu("l", u64::from(c.lambda));
                pu("a", c.alpha.to_bits());
                pu("w", c.window as u64);
                pu("h", c.forward_hysteresis.to_bits());
                pu("r", c.refresh.to_bits());
                pu("e", u64::from(c.emd_mode == EmdMode::MeanInterval));
                pu(
                    "p",
                    u64::from(c.buffer_policy == BufferPolicy::LeastRemainingValue),
                );
                match c.adaptive_lambda {
                    None => k.push_str(":ad=none"),
                    Some((lo, hi)) => k.push_str(&format!(":ad={lo:x}..{hi:x}")),
                }
            }
            ProtocolParams::Cr(c) => {
                pu("l", u64::from(c.lambda));
                pu("a", c.alpha.to_bits());
                pu("w", c.window as u64);
                pu("h", c.forward_hysteresis.to_bits());
                pu("ph", c.probability_hysteresis.to_bits());
                pu("r", c.refresh.to_bits());
                pu(
                    "p",
                    u64::from(c.buffer_policy == BufferPolicy::LeastRemainingValue),
                );
            }
            ProtocolParams::Ebr(c) => {
                pu("l", u64::from(c.lambda));
                pu("a", c.alpha.to_bits());
                pu("w", c.window.to_bits());
            }
            ProtocolParams::MaxProp(c) => {
                pu("ht", u64::from(c.hop_threshold));
                pu("r", c.cost_refresh.to_bits());
            }
            ProtocolParams::SprayAndWait { lambda, binary } => {
                pu("l", u64::from(*lambda));
                pu("b", u64::from(*binary));
            }
            ProtocolParams::SprayAndFocus(c) => {
                pu("l", u64::from(c.lambda));
                pu("t", c.utility_threshold.to_bits());
                pu("p", c.transitivity_penalty.to_bits());
            }
            ProtocolParams::Prophet(c) => {
                pu("pi", c.p_init.to_bits());
                pu("be", c.beta.to_bits());
                pu("ga", c.gamma.to_bits());
                pu("u", c.time_unit.to_bits());
            }
            ProtocolParams::Epidemic | ProtocolParams::Direct | ProtocolParams::FirstContact => {}
        }
        match self.ttl {
            None => k.push_str(":ttl=none"),
            Some(t) => k.push_str(&format!(":ttl={:x}", t.to_bits())),
        }
        match self.buffer {
            None => k.push_str(":buf=none"),
            Some(b) => k.push_str(&format!(":buf={b:x}")),
        }
        k
    }

    /// Builds the router for node `id` in a network of `n` nodes.
    /// `communities` supplies the community map for protocols that need one
    /// ([`ProtocolSpec::needs_communities`]); the runner resolves it from the
    /// run's [`CommunitySource`](crate::CommunitySource).
    ///
    /// # Panics
    /// Panics if CR is requested without a community map.
    pub fn make_router(
        &self,
        id: NodeId,
        n: u32,
        communities: Option<&Arc<CommunityMap>>,
    ) -> Box<dyn Router> {
        match &self.params {
            ProtocolParams::Eer(cfg) => Box::new(Eer::with_config(id, n, *cfg)),
            ProtocolParams::Cr(cfg) => {
                let map = communities
                    .cloned()
                    .expect("CR needs a community map (RunSpec::with_communities / make_router)");
                Box::new(Cr::with_config(id, n, map, *cfg))
            }
            ProtocolParams::Ebr(cfg) => Box::new(Ebr::with_config(*cfg)),
            ProtocolParams::MaxProp(cfg) => Box::new(MaxProp::with_config(id, n, *cfg)),
            ProtocolParams::SprayAndWait { lambda, binary } => Box::new(if *binary {
                SprayAndWait::new(*lambda)
            } else {
                SprayAndWait::source_spray(*lambda)
            }),
            ProtocolParams::SprayAndFocus(cfg) => Box::new(SprayAndFocus::with_config(*cfg, n)),
            ProtocolParams::Epidemic => Box::new(Epidemic::new()),
            ProtocolParams::Prophet(cfg) => Box::new(Prophet::with_config(id, n, *cfg)),
            ProtocolParams::Direct => Box::new(DirectDelivery::new()),
            ProtocolParams::FirstContact => Box::new(FirstContact::new()),
        }
    }
}

impl fmt::Display for ProtocolSpec {
    /// Canonical grammar form: the family name plus every non-default
    /// parameter, so the printed spec parses back to an equal value
    /// (`ProtocolSpec::parse ∘ Display` = identity). Width and alignment
    /// apply to the whole spec (`{:<14}` pads it as one column).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key = self.kind().key();
        let params = self.non_default_params();
        if params.is_empty() {
            f.pad(key)
        } else {
            f.pad(&format!("{key}:{}", params.join(",")))
        }
    }
}

/// Pushes `key=value` when the value differs from the family default.
fn push_ne<T: PartialEq + fmt::Display>(out: &mut Vec<String>, key: &str, v: T, default: T) {
    if v != default {
        out.push(format!("{key}={v}"));
    }
}

fn parse_lambda(value: &str) -> Result<u32, String> {
    let l: u32 = value.parse().map_err(|e| format!("lambda: {e}"))?;
    if l == 0 {
        return Err("lambda: quota must be at least 1".into());
    }
    Ok(l)
}

fn parse_window(value: &str) -> Result<usize, String> {
    let w: usize = value.parse().map_err(|e| format!("window: {e}"))?;
    if w == 0 {
        return Err("window: history window must be at least 1".into());
    }
    Ok(w)
}

fn parse_pos_f64(key: &str, value: &str) -> Result<f64, String> {
    let v: f64 = value.parse().map_err(|e| format!("{key}: {e}"))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!(
            "{key}: must be a positive finite number, got {value}"
        ));
    }
    Ok(v)
}

/// EER/CR's α: the fraction of a message's TTL its horizon spans, in (0, 1].
fn parse_ttl_fraction(value: &str) -> Result<f64, String> {
    let a = parse_pos_f64("alpha", value)?;
    if a > 1.0 {
        return Err(format!(
            "alpha: TTL fraction must be in (0, 1], got {value}"
        ));
    }
    Ok(a)
}

fn parse_nonneg_f64(key: &str, value: &str) -> Result<f64, String> {
    let v: f64 = value.parse().map_err(|e| format!("{key}: {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!(
            "{key}: must be a non-negative finite number, got {value}"
        ));
    }
    Ok(v)
}

fn parse_policy(value: &str) -> Result<BufferPolicy, String> {
    match value {
        "oldest" => Ok(BufferPolicy::OldestReceived),
        "lrv" => Ok(BufferPolicy::LeastRemainingValue),
        _ => Err(format!(
            "policy: unknown buffer policy `{value}` (valid: oldest, lrv)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.name()), Some(kind));
            assert_eq!(ProtocolKind::parse(kind.key()), Some(kind));
        }
        assert_eq!(ProtocolKind::parse("nope"), None);
        let names = ProtocolKind::names();
        assert!(names.contains("EER") && names.contains("FirstContact"));
    }

    #[test]
    fn factories_build_routers() {
        let map = Arc::new(CommunityMap::new(vec![0, 0, 1, 1]));
        for kind in ProtocolKind::FIG2 {
            let p = ProtocolSpec::paper(kind);
            let r = p.make_router(NodeId(0), 4, Some(&map));
            assert!(!r.label().is_empty());
            assert_eq!(
                r.initial_copies(&dummy_msg()),
                if matches!(kind, ProtocolKind::MaxProp) {
                    1
                } else {
                    10
                }
            );
        }
    }

    fn dummy_msg() -> dtn_sim::Message {
        dtn_sim::Message {
            id: dtn_sim::MessageId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1,
            created: dtn_sim::SimTime::ZERO,
            ttl: 10.0,
        }
    }

    #[test]
    #[should_panic]
    fn cr_requires_communities() {
        ProtocolSpec::paper(ProtocolKind::Cr).make_router(NodeId(0), 4, None);
    }

    #[test]
    fn grammar_parses_and_validates() {
        let s = ProtocolSpec::parse("eer:lambda=8,ttl=3600").unwrap();
        assert_eq!(s.kind(), ProtocolKind::Eer);
        assert_eq!(s.ttl, Some(3600.0));
        match &s.params {
            ProtocolParams::Eer(c) => assert_eq!(c.lambda, 8),
            other => panic!("wrong params: {other:?}"),
        }
        // Case-insensitive names, aliases.
        assert_eq!(
            ProtocolSpec::parse("EER:lambda=8").unwrap(),
            ProtocolSpec::parse("eer:lambda=8").unwrap()
        );
        assert_eq!(
            ProtocolSpec::parse("snw:mode=source").unwrap().params,
            ProtocolParams::SprayAndWait {
                lambda: 10,
                binary: false
            }
        );
        // Validation failures are parse-time errors, not worker panics.
        assert!(ProtocolSpec::parse("bogus").is_err());
        assert!(ProtocolSpec::parse("eer:").is_err());
        assert!(ProtocolSpec::parse("eer:lambda").is_err());
        assert!(ProtocolSpec::parse("eer:lambda=0").is_err());
        assert!(ProtocolSpec::parse("eer:alpha=-1").is_err());
        for family in ["eer", "cr"] {
            let e = ProtocolSpec::parse(&format!("{family}:alpha=1.5")).unwrap_err();
            assert_eq!(
                e,
                format!("{family}: alpha: TTL fraction must be in (0, 1], got 1.5")
            );
        }
        // α = 1 (the whole TTL) is the top of the `alpha` ablation grid.
        for spec in ["eer:alpha=1", "cr:alpha=1"] {
            let s = ProtocolSpec::parse(spec).unwrap();
            match &s.params {
                ProtocolParams::Eer(c) => assert_eq!(c.alpha, 1.0),
                ProtocolParams::Cr(c) => assert_eq!(c.alpha, 1.0),
                other => panic!("wrong params: {other:?}"),
            }
        }
        assert!(ProtocolSpec::parse("eer:frobnicate=3").is_err());
        assert!(ProtocolSpec::parse("epidemic:lambda=3").is_err());
        assert!(ProtocolSpec::parse("prophet:beta=1.5").is_err());
        assert!(ProtocolSpec::parse("ebr:alpha=2").is_err());
        assert!(ProtocolSpec::parse("eer:adaptive=16..4").is_err());
        assert!(ProtocolSpec::parse("eer:ttl=0").is_err());
        assert!(ProtocolSpec::parse("eer:buffer=0").is_err());
        // Unknown-name and unknown-key errors name the valid alternatives.
        let e = ProtocolSpec::parse("nope").unwrap_err();
        assert!(e.contains("EER") && e.contains("FirstContact"), "{e}");
        let e = ProtocolSpec::parse("eer:zz=1").unwrap_err();
        assert!(e.contains("lambda") && e.contains("adaptive"), "{e}");
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        for kind in ProtocolKind::ALL {
            let paper = ProtocolSpec::paper(kind);
            assert_eq!(format!("{paper}"), kind.key(), "paper spec is bare name");
            assert_eq!(ProtocolSpec::parse(&format!("{paper}")).unwrap(), paper);
        }
        let tuned = ProtocolSpec::parse("eer:lambda=8,emd=mean,ttl=3600").unwrap();
        let shown = format!("{tuned}");
        assert_eq!(shown, "eer:lambda=8,emd=mean,ttl=3600");
        assert_eq!(ProtocolSpec::parse(&shown).unwrap(), tuned);
    }

    /// `smoke` prints the spec in a `{:<14}` column.
    #[test]
    fn display_honours_width_and_alignment() {
        let eer = ProtocolSpec::paper(ProtocolKind::Eer);
        assert_eq!(format!("{eer:<14}|"), "eer           |");
        assert_eq!(format!("{eer:>5}"), "  eer");
        let tuned = ProtocolSpec::parse("maxprop:hops=2").unwrap();
        assert_eq!(format!("{tuned:<16}|"), "maxprop:hops=2  |");
        assert_eq!(format!("{tuned:<4}"), "maxprop:hops=2", "never truncated");
    }

    #[test]
    fn cache_keys_separate_tuned_variants() {
        let a = ProtocolSpec::parse("eer:lambda=4").unwrap().cache_key();
        let b = ProtocolSpec::parse("eer:lambda=16").unwrap().cache_key();
        let c = ProtocolSpec::paper(ProtocolKind::Eer).cache_key();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Every kind's paper key is distinct from every other kind's.
        let keys: Vec<String> = ProtocolKind::ALL
            .iter()
            .map(|&k| ProtocolSpec::paper(k).cache_key())
            .collect();
        for (i, x) in keys.iter().enumerate() {
            for y in &keys[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }
}
