//! TRACE/1.0 — durable, hash-chained event-log artifacts and replay.
//!
//! The observation layer ([`crate::observe`]) streams every occurrence in a
//! run as a [`SimEvent`]; this module makes that stream *durable*. An
//! [`EventLogWriter`] is an ordinary [`SimObserver`] that serializes the
//! batched stream into a compact binary artifact, and a [`TraceReader`]
//! validates the artifact and re-folds any observer set over the recorded
//! stream — no re-simulation. Because the in-tree probes are pure functions
//! of the event stream, replayed [`SimStats`] and probe outputs are bitwise
//! identical to live observation.
//!
//! (The module is named `eventlog` rather than `trace` because
//! [`crate::trace`] already names *contact* traces — the mobility input —
//! while this is the *event* output.)
//!
//! # Format (TRACE/1.0)
//!
//! All integers are little-endian; times are `f64` bit patterns so the
//! round trip is lossless. Strings are `u32` length + UTF-8 bytes.
//!
//! ```text
//! magic      "TRACE/1.0\n"                          (10 bytes)
//! header     cell_key: string                        canonical RunSpec cell key
//!            seed: u64, horizon: u64 (f64 bits)
//!            n_nodes: u32, n_messages: u64
//!            labels: u32 count, then (key, value) string pairs
//! record*    tag: u8 (0..=8), seq: u64, payload, chain: u64
//! trailer    0xFF, record_count: u64, end_time: u64 (f64 bits),
//!            control_bytes: u64, fingerprint: u64
//! ```
//!
//! `control_bytes` rides in the trailer because it is the one statistic
//! the event stream cannot carry: routers account control-plane traffic
//! straight into [`SimStats`] through their contexts, so the engine hands
//! the final total to [`SimObserver::on_end`] and the writer persists it
//! there — which is exactly why replayed statistics match the live run on
//! *every* field.
//!
//! The hash chain is FNV-1a (64-bit): the chain starts from the FNV offset
//! basis folded over the magic and header bytes, and each record folds its
//! own `tag ‖ seq ‖ payload` into the running value, which is then stored
//! as the record's `chain` field. The trailer's `fingerprint` folds the
//! trailer prefix into the final chain value, so it covers every byte of
//! the artifact: any single-bit flip fails verification at the first
//! affected sequence number. Records are append-only and `seq` is dense
//! from zero, so two artifacts of the same run are byte-identical.

use crate::buffer::DropReason;
use crate::ids::{MessageId, NodeId, NodePair};
use crate::observe::{SimEvent, SimObserver};
use crate::stats::{SimStats, StatsSnapshot};
use crate::time::SimTime;
use std::any::Any;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Leading magic of a TRACE/1.0 artifact (carries the format version).
pub const TRACE_MAGIC: &[u8; 10] = b"TRACE/1.0\n";

/// FNV-1a 64-bit offset basis: the starting value of every [`fnv1a`] hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Records are delivered to observers on replay in chunks of this size.
/// Batch boundaries are invisible to observers (every event carries its own
/// timestamp), so the value only bounds the replay scratch slice; it matches
/// the engine's batch size for symmetry.
const REPLAY_BATCH: usize = 256;

/// Largest encoded record body (`tag ‖ seq ‖ payload ‖ chain`):
/// `Delivered` at 1 + 8 + 33 + 8 bytes.
const MAX_RECORD: usize = 50;

/// Folds `bytes` into an FNV-1a 64-bit running hash; start from
/// [`FNV_OFFSET`]. The workspace's one stable, dependency-free hash: the
/// TRACE/1.0 chain, inline-trace fingerprints and result-store entry paths
/// all fold through it, so it must never change.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Run identity carried in a trace header: enough to reconstruct *which*
/// cell produced the stream and to size replay-side collectors, without the
/// sim crate knowing anything about the bench layer's spec types.
///
/// `labels` is an ordered list of opaque `(key, value)` pairs for
/// higher-layer provenance (the bench layer stores series / scenario /
/// workload / protocol names there so a replayed run folds back into a
/// normal report record).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMeta {
    /// Canonical cell key of the recorded run (the bench `RunSpec` cell
    /// key; any stable run identifier for other embedders).
    pub cell_key: String,
    /// Seed of the recorded run.
    pub seed: u64,
    /// Simulation horizon in seconds.
    pub horizon: f64,
    /// Number of nodes in the scenario.
    pub n_nodes: u32,
    /// Number of workload messages (sizes the replay-side [`SimStats`]).
    pub n_messages: u64,
    /// Opaque provenance labels, in a caller-chosen stable order.
    pub labels: Vec<(String, String)>,
}

/// Byte-appender for header/record encoding.
struct Enc<'a> {
    buf: &'a mut [u8],
    n: usize,
}

impl Enc<'_> {
    #[inline]
    fn u8(&mut self, v: u8) {
        self.buf[self.n] = v;
        self.n += 1;
    }
    #[inline]
    fn u32(&mut self, v: u32) {
        self.buf[self.n..self.n + 4].copy_from_slice(&v.to_le_bytes());
        self.n += 4;
    }
    #[inline]
    fn u64(&mut self, v: u64) {
        self.buf[self.n..self.n + 8].copy_from_slice(&v.to_le_bytes());
        self.n += 8;
    }
    #[inline]
    fn time(&mut self, t: SimTime) {
        self.u64(t.as_secs().to_bits());
    }
    #[inline]
    fn node(&mut self, v: NodeId) {
        self.u32(v.0);
    }
    #[inline]
    fn msg(&mut self, v: MessageId) {
        self.u32(v.0);
    }
}

/// Encodes `tag ‖ seq ‖ payload` (everything the chain covers) into `buf`,
/// returning the encoded length.
fn encode_body(seq: u64, ev: &SimEvent, buf: &mut [u8; MAX_RECORD]) -> usize {
    let mut e = Enc { buf, n: 0 };
    match *ev {
        SimEvent::Generated { at, msg, src } => {
            e.u8(0);
            e.u64(seq);
            e.time(at);
            e.msg(msg);
            e.node(src);
        }
        SimEvent::Forwarded {
            at,
            msg,
            from,
            to,
            duplicate,
        } => {
            e.u8(1);
            e.u64(seq);
            e.time(at);
            e.msg(msg);
            e.node(from);
            e.node(to);
            e.u8(u8::from(duplicate));
        }
        SimEvent::Refused { at, msg, from, to } => {
            e.u8(2);
            e.u64(seq);
            e.time(at);
            e.msg(msg);
            e.node(from);
            e.node(to);
        }
        SimEvent::Delivered {
            at,
            msg,
            from,
            to,
            created,
            hops,
            first,
        } => {
            e.u8(3);
            e.u64(seq);
            e.time(at);
            e.msg(msg);
            e.node(from);
            e.node(to);
            e.time(created);
            e.u32(hops);
            e.u8(u8::from(first));
        }
        SimEvent::Dropped {
            at,
            msg,
            node,
            reason,
        } => {
            e.u8(4);
            e.u64(seq);
            e.time(at);
            e.msg(msg);
            e.node(node);
            e.u8(match reason {
                DropReason::Expired => 0,
                DropReason::BufferFull => 1,
                DropReason::ForwardedAway => 2,
                DropReason::Protocol => 3,
            });
        }
        SimEvent::Aborted { at, msg, from, to } => {
            e.u8(5);
            e.u64(seq);
            e.time(at);
            e.msg(msg);
            e.node(from);
            e.node(to);
        }
        SimEvent::ContactStart { at, pair } => {
            e.u8(6);
            e.u64(seq);
            e.time(at);
            e.node(pair.a);
            e.node(pair.b);
        }
        SimEvent::ContactEnd { at, pair } => {
            e.u8(7);
            e.u64(seq);
            e.time(at);
            e.node(pair.a);
            e.node(pair.b);
        }
        SimEvent::Tick {
            at,
            buffered_bytes,
            buffered_msgs,
        } => {
            e.u8(8);
            e.u64(seq);
            e.time(at);
            e.u64(buffered_bytes);
            e.u64(buffered_msgs);
        }
    }
    e.n
}

/// Payload size (bytes between `seq` and `chain`) for each record tag.
fn payload_len(tag: u8) -> Option<usize> {
    Some(match tag {
        0 => 16,     // Generated
        1 => 21,     // Forwarded
        2 => 20,     // Refused
        3 => 33,     // Delivered
        4 => 17,     // Dropped
        5 => 20,     // Aborted
        6 | 7 => 16, // ContactStart / ContactEnd
        8 => 24,     // Tick
        _ => return None,
    })
}

/// Encodes the header (everything after the magic) for `meta`.
fn encode_header(meta: &TraceMeta) -> Vec<u8> {
    fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    let mut out = Vec::new();
    put_str(&mut out, &meta.cell_key);
    out.extend_from_slice(&meta.seed.to_le_bytes());
    out.extend_from_slice(&meta.horizon.to_bits().to_le_bytes());
    out.extend_from_slice(&meta.n_nodes.to_le_bytes());
    out.extend_from_slice(&meta.n_messages.to_le_bytes());
    out.extend_from_slice(&(meta.labels.len() as u32).to_le_bytes());
    for (k, v) in &meta.labels {
        put_str(&mut out, k);
        put_str(&mut out, v);
    }
    out
}

/// A [`SimObserver`] that serializes the event stream into a TRACE/1.0
/// artifact.
///
/// The writer encodes each event into a stack buffer (no per-event
/// allocation) and appends it through a [`io::BufWriter`]. I/O errors
/// cannot surface through the observer callbacks, so the first error is
/// latched and the artifact is abandoned; callers **must** check
/// [`EventLogWriter::status`] after the run (the bench runner does, and
/// fails the run loudly).
pub struct EventLogWriter {
    out: io::BufWriter<std::fs::File>,
    path: PathBuf,
    chain: u64,
    seq: u64,
    err: Option<io::Error>,
    finished: bool,
}

impl EventLogWriter {
    /// Creates the artifact at `path` and writes the header immediately.
    ///
    /// The parent directory must exist (the bench layer routes every
    /// artifact path through `report::ensure_parent` first).
    pub fn create(path: &Path, meta: &TraceMeta) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let mut out = io::BufWriter::new(file);
        let header = encode_header(meta);
        out.write_all(TRACE_MAGIC)?;
        out.write_all(&header)?;
        let chain = fnv1a(fnv1a(FNV_OFFSET, TRACE_MAGIC), &header);
        Ok(EventLogWriter {
            out,
            path: path.to_path_buf(),
            chain,
            seq: 0,
            err: None,
            finished: false,
        })
    }

    /// The artifact path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `Ok` if every write so far succeeded and, once the run has ended,
    /// the trailer was flushed; otherwise the latched I/O error, naming the
    /// artifact path.
    pub fn status(&self) -> Result<(), String> {
        match &self.err {
            None => Ok(()),
            Some(e) => Err(format!(
                "trace write to {} failed: {e}",
                self.path.display()
            )),
        }
    }

    #[inline]
    fn write_bytes(&mut self, bytes: &[u8]) {
        if self.err.is_none() {
            if let Err(e) = self.out.write_all(bytes) {
                self.err = Some(e);
            }
        }
    }
}

impl SimObserver for EventLogWriter {
    fn on_events(&mut self, batch: &[SimEvent]) {
        let mut buf = [0u8; MAX_RECORD];
        for ev in batch {
            let n = encode_body(self.seq, ev, &mut buf);
            self.chain = fnv1a(self.chain, &buf[..n]);
            buf[n..n + 8].copy_from_slice(&self.chain.to_le_bytes());
            self.seq += 1;
            self.write_bytes(&buf[..n + 8]);
        }
    }

    fn on_end(&mut self, now: SimTime, final_stats: &StatsSnapshot) {
        if self.finished {
            return;
        }
        self.finished = true;
        let mut tail = [0u8; 25];
        tail[0] = 0xFF;
        tail[1..9].copy_from_slice(&self.seq.to_le_bytes());
        tail[9..17].copy_from_slice(&now.as_secs().to_bits().to_le_bytes());
        tail[17..25].copy_from_slice(&final_stats.control_bytes.to_le_bytes());
        let fingerprint = fnv1a(self.chain, &tail);
        self.write_bytes(&tail);
        self.write_bytes(&fingerprint.to_le_bytes());
        if self.err.is_none() {
            if let Err(e) = self.out.flush() {
                self.err = Some(e);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Bounds-checked byte reader for decoding.
struct Dec<'a> {
    buf: &'a [u8],
    n: usize,
}

impl<'a> Dec<'a> {
    fn need(&self, k: usize) -> Result<(), String> {
        if self.n + k > self.buf.len() {
            Err("truncated".into())
        } else {
            Ok(())
        }
    }
    fn u8(&mut self) -> Result<u8, String> {
        self.need(1)?;
        let v = self.buf[self.n];
        self.n += 1;
        Ok(v)
    }
    fn u32(&mut self) -> Result<u32, String> {
        self.need(4)?;
        let v = u32::from_le_bytes(self.buf[self.n..self.n + 4].try_into().unwrap());
        self.n += 4;
        Ok(v)
    }
    fn u64(&mut self) -> Result<u64, String> {
        self.need(8)?;
        let v = u64::from_le_bytes(self.buf[self.n..self.n + 8].try_into().unwrap());
        self.n += 8;
        Ok(v)
    }
    fn time(&mut self) -> Result<SimTime, String> {
        let secs = f64::from_bits(self.u64()?);
        if !secs.is_finite() {
            return Err("non-finite timestamp".into());
        }
        Ok(SimTime::secs(secs))
    }
    fn node(&mut self) -> Result<NodeId, String> {
        Ok(NodeId(self.u32()?))
    }
    fn msg(&mut self) -> Result<MessageId, String> {
        Ok(MessageId(self.u32()?))
    }
    fn flag(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid boolean byte {v:#04x}")),
        }
    }
    fn pair(&mut self) -> Result<NodePair, String> {
        let a = self.node()?;
        let b = self.node()?;
        if a.0 >= b.0 {
            return Err(format!("invalid node pair ({}, {})", a.0, b.0));
        }
        Ok(NodePair { a, b })
    }
    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let s = std::str::from_utf8(&self.buf[self.n..self.n + len])
            .map_err(|_| "invalid UTF-8 string".to_string())?
            .to_string();
        self.n += len;
        Ok(s)
    }
}

/// Decodes one event payload; `tag` has already been validated by
/// [`payload_len`].
fn decode_payload(tag: u8, d: &mut Dec<'_>) -> Result<SimEvent, String> {
    Ok(match tag {
        0 => SimEvent::Generated {
            at: d.time()?,
            msg: d.msg()?,
            src: d.node()?,
        },
        1 => SimEvent::Forwarded {
            at: d.time()?,
            msg: d.msg()?,
            from: d.node()?,
            to: d.node()?,
            duplicate: d.flag()?,
        },
        2 => SimEvent::Refused {
            at: d.time()?,
            msg: d.msg()?,
            from: d.node()?,
            to: d.node()?,
        },
        3 => SimEvent::Delivered {
            at: d.time()?,
            msg: d.msg()?,
            from: d.node()?,
            to: d.node()?,
            created: d.time()?,
            hops: d.u32()?,
            first: d.flag()?,
        },
        4 => SimEvent::Dropped {
            at: d.time()?,
            msg: d.msg()?,
            node: d.node()?,
            reason: match d.u8()? {
                0 => DropReason::Expired,
                1 => DropReason::BufferFull,
                2 => DropReason::ForwardedAway,
                3 => DropReason::Protocol,
                v => return Err(format!("invalid drop reason {v}")),
            },
        },
        5 => SimEvent::Aborted {
            at: d.time()?,
            msg: d.msg()?,
            from: d.node()?,
            to: d.node()?,
        },
        6 => SimEvent::ContactStart {
            at: d.time()?,
            pair: d.pair()?,
        },
        7 => SimEvent::ContactEnd {
            at: d.time()?,
            pair: d.pair()?,
        },
        8 => SimEvent::Tick {
            at: d.time()?,
            buffered_bytes: d.u64()?,
            buffered_msgs: d.u64()?,
        },
        _ => unreachable!("tag validated by payload_len"),
    })
}

/// A validated, fully decoded TRACE/1.0 artifact.
///
/// [`TraceReader::open`] verifies the magic and version, the monotone
/// sequence numbers, the per-record hash chain and the trailing
/// fingerprint before returning; every error names the artifact and, for
/// record-level corruption, the offending sequence number.
#[derive(Debug)]
pub struct TraceReader {
    meta: TraceMeta,
    events: Vec<SimEvent>,
    end_time: SimTime,
    control_bytes: u64,
    fingerprint: u64,
}

impl TraceReader {
    /// Reads and validates the artifact at `path`.
    pub fn open(path: &Path) -> Result<Self, String> {
        let name = path.display().to_string();
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read trace {name}: {e}"))?;
        Self::from_bytes(&bytes, &name)
    }

    /// Validates an in-memory artifact; `name` labels errors (usually the
    /// path).
    pub fn from_bytes(bytes: &[u8], name: &str) -> Result<Self, String> {
        if bytes.len() < TRACE_MAGIC.len() || !bytes.starts_with(b"TRACE/") {
            return Err(format!("{name}: not a TRACE artifact (bad magic)"));
        }
        if &bytes[..TRACE_MAGIC.len()] != TRACE_MAGIC {
            let found = String::from_utf8_lossy(&bytes[..TRACE_MAGIC.len()]);
            return Err(format!(
                "{name}: unsupported trace version {:?} (this build reads {:?})",
                found.trim_end(),
                "TRACE/1.0"
            ));
        }
        let mut d = Dec {
            buf: bytes,
            n: TRACE_MAGIC.len(),
        };
        let err = |what: &str| format!("{name}: {what}");
        let header_err = |e: String| format!("{name}: corrupt header: {e}");

        let cell_key = d.string().map_err(header_err)?;
        let seed = d.u64().map_err(header_err)?;
        let horizon = f64::from_bits(d.u64().map_err(header_err)?);
        if !horizon.is_finite() {
            return Err(err("corrupt header: non-finite horizon"));
        }
        let n_nodes = d.u32().map_err(header_err)?;
        let n_messages = d.u64().map_err(header_err)?;
        let n_labels = d.u32().map_err(header_err)? as usize;
        let mut labels = Vec::with_capacity(n_labels.min(64));
        for _ in 0..n_labels {
            let k = d.string().map_err(header_err)?;
            let v = d.string().map_err(header_err)?;
            labels.push((k, v));
        }
        let mut chain = fnv1a(FNV_OFFSET, &bytes[..d.n]);

        let mut events = Vec::new();
        loop {
            let record_start = d.n;
            let tag = d
                .u8()
                .map_err(|_| err(&format!("truncated after record {}", events.len())))?;
            if tag == 0xFF {
                // Trailer.
                let tail_start = record_start;
                let count = d.u64().map_err(|_| err("truncated trailer"))?;
                let end_bits = d.u64().map_err(|_| err("truncated trailer"))?;
                let control_bytes = d.u64().map_err(|_| err("truncated trailer"))?;
                let fingerprint = fnv1a(chain, &bytes[tail_start..d.n]);
                let stored = d.u64().map_err(|_| err("truncated trailer"))?;
                if count != events.len() as u64 {
                    return Err(err(&format!(
                        "trailer record count {count} does not match {} records read",
                        events.len()
                    )));
                }
                if stored != fingerprint {
                    return Err(err(&format!(
                        "content fingerprint mismatch: stored {stored:#018x}, computed {fingerprint:#018x}"
                    )));
                }
                if d.n != bytes.len() {
                    return Err(err(&format!(
                        "{} trailing bytes after trailer",
                        bytes.len() - d.n
                    )));
                }
                let end_secs = f64::from_bits(end_bits);
                if !end_secs.is_finite() {
                    return Err(err("corrupt trailer: non-finite end time"));
                }
                return Ok(TraceReader {
                    meta: TraceMeta {
                        cell_key,
                        seed,
                        horizon,
                        n_nodes,
                        n_messages,
                        labels,
                    },
                    events,
                    end_time: SimTime::secs(end_secs),
                    control_bytes,
                    fingerprint,
                });
            }
            let expect_seq = events.len() as u64;
            let body_len = match payload_len(tag) {
                Some(p) => 1 + 8 + p,
                None => {
                    return Err(err(&format!(
                        "invalid record tag {tag:#04x} at seq {expect_seq}"
                    )))
                }
            };
            if record_start + body_len + 8 > bytes.len() {
                return Err(err(&format!("truncated record at seq {expect_seq}")));
            }
            // Verify the chain over the raw bytes *before* decoding, so a
            // flipped byte is reported as corruption, not a decode error.
            chain = fnv1a(chain, &bytes[record_start..record_start + body_len]);
            let mut body = Dec {
                buf: &bytes[record_start..record_start + body_len],
                n: 1,
            };
            let seq = body.u64().expect("length checked");
            let mut tail = Dec {
                buf: bytes,
                n: record_start + body_len,
            };
            let stored_chain = tail.u64().expect("length checked");
            if stored_chain != chain {
                return Err(err(&format!(
                    "hash chain mismatch at seq {expect_seq}: stored {stored_chain:#018x}, computed {chain:#018x}"
                )));
            }
            if seq != expect_seq {
                return Err(err(&format!(
                    "sequence numbers not monotone: expected {expect_seq}, found {seq}"
                )));
            }
            let ev = decode_payload(tag, &mut body)
                .map_err(|e| err(&format!("corrupt record at seq {expect_seq}: {e}")))?;
            events.push(ev);
            d.n = record_start + body_len + 8;
        }
    }

    /// The run identity recorded in the header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The decoded event stream, in occurrence order.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// The simulated end time the engine passed to
    /// [`SimObserver::on_end`] when the run was recorded.
    pub fn end_time(&self) -> SimTime {
        self.end_time
    }

    /// The verified content fingerprint (the final chain value).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The recorded run's control-plane byte total (router-side accounting
    /// that never travels the event stream; persisted in the trailer).
    pub fn control_bytes(&self) -> u64 {
        self.control_bytes
    }

    /// Re-folds `observers` over the recorded stream, mimicking the live
    /// delivery contract: ordered batches followed by exactly one
    /// [`SimObserver::on_end`] at the recorded end time, carrying the
    /// recorded run's final statistics. Observer outputs are bitwise
    /// identical to live observation because batch boundaries carry no
    /// information.
    pub fn replay(&self, observers: &mut [Box<dyn SimObserver>]) {
        for chunk in self.events.chunks(REPLAY_BATCH) {
            for obs in observers.iter_mut() {
                obs.on_events(chunk);
            }
        }
        let final_stats = self.replay_stats().snapshot();
        for obs in observers.iter_mut() {
            obs.on_end(self.end_time, &final_stats);
        }
    }

    /// Folds the recorded stream through [`SimStats::apply`] — the same
    /// fold the engine applies inline — and restores `control_bytes` from
    /// the trailer, reproducing the live run's statistics bitwise on every
    /// field.
    pub fn replay_stats(&self) -> SimStats {
        let mut stats = SimStats::new(self.meta.n_messages as usize);
        for ev in &self.events {
            stats.apply(ev);
        }
        stats.control_bytes = self.control_bytes;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            cell_key: "scenario=paper:n=4|workload=paper|protocol=epidemic|seed=7".into(),
            seed: 7,
            horizon: 1_000.0,
            n_nodes: 4,
            n_messages: 3,
            labels: vec![
                ("series".into(), "epidemic @ paper".into()),
                ("scenario".into(), "paper:n=4".into()),
            ],
        }
    }

    fn sample_events() -> Vec<SimEvent> {
        vec![
            SimEvent::Generated {
                at: SimTime::secs(1.0),
                msg: MessageId(0),
                src: NodeId(0),
            },
            SimEvent::ContactStart {
                at: SimTime::secs(2.5),
                pair: NodePair::new(NodeId(0), NodeId(1)),
            },
            SimEvent::Forwarded {
                at: SimTime::secs(3.0),
                msg: MessageId(0),
                from: NodeId(0),
                to: NodeId(1),
                duplicate: false,
            },
            SimEvent::Refused {
                at: SimTime::secs(3.5),
                msg: MessageId(1),
                from: NodeId(1),
                to: NodeId(0),
            },
            SimEvent::Delivered {
                at: SimTime::secs(4.0),
                msg: MessageId(0),
                from: NodeId(1),
                to: NodeId(2),
                created: SimTime::secs(1.0),
                hops: 2,
                first: true,
            },
            SimEvent::Dropped {
                at: SimTime::secs(5.0),
                msg: MessageId(1),
                node: NodeId(0),
                reason: DropReason::BufferFull,
            },
            SimEvent::Aborted {
                at: SimTime::secs(6.0),
                msg: MessageId(2),
                from: NodeId(2),
                to: NodeId(3),
            },
            SimEvent::ContactEnd {
                at: SimTime::secs(7.0),
                pair: NodePair::new(NodeId(0), NodeId(1)),
            },
            SimEvent::Tick {
                at: SimTime::secs(8.0),
                buffered_bytes: 4_096,
                buffered_msgs: 3,
            },
        ]
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dtn_eventlog_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{tag}_{}.trace", std::process::id()))
    }

    /// Pinned control-byte total for the sample artifact (rides in the
    /// trailer, not the stream).
    const CONTROL: u64 = 4_242;

    fn end_stats() -> StatsSnapshot {
        StatsSnapshot {
            control_bytes: CONTROL,
            ..StatsSnapshot::default()
        }
    }

    fn write_sample(tag: &str) -> PathBuf {
        let path = temp_path(tag);
        let mut w = EventLogWriter::create(&path, &meta()).expect("create");
        // Deliver across two batches to show boundaries don't matter.
        let events = sample_events();
        w.on_events(&events[..4]);
        w.on_events(&events[4..]);
        w.on_end(SimTime::secs(1_000.0), &end_stats());
        w.status().expect("clean write");
        path
    }

    /// The standard FNV-1a 64 test vectors.
    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding in pieces is folding the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn round_trip_is_lossless() {
        let path = write_sample("round_trip");
        let r = TraceReader::open(&path).expect("valid artifact");
        assert_eq!(r.meta(), &meta());
        assert_eq!(r.events(), &sample_events()[..]);
        assert_eq!(r.end_time(), SimTime::secs(1_000.0));
        let stats = r.replay_stats();
        assert_eq!(stats.created, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.control_bytes, CONTROL, "restored from the trailer");
        assert_eq!(r.control_bytes(), CONTROL);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rewrite_is_byte_identical() {
        let a = write_sample("rewrite_a");
        let b = write_sample("rewrite_b");
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn empty_log_round_trips() {
        let path = temp_path("empty");
        let mut w = EventLogWriter::create(&path, &meta()).expect("create");
        w.on_end(SimTime::ZERO, &StatsSnapshot::default());
        w.status().expect("clean write");
        let r = TraceReader::open(&path).expect("valid artifact");
        assert!(r.events().is_empty());
        assert_eq!(r.meta().seed, 7);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flipped_byte_names_offending_seq() {
        let path = write_sample("corrupt");
        let clean = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let header_len = TRACE_MAGIC.len() + encode_header(&meta()).len();
        // Record 0 is Generated: 1 + 8 + 16 payload + 8 chain = 33 bytes.
        // Flip a payload byte of record 1 (starts at header_len + 33).
        let mut bytes = clean.clone();
        bytes[header_len + 33 + 12] ^= 0x40;
        let e = TraceReader::from_bytes(&bytes, "t").unwrap_err();
        assert!(e.contains("hash chain mismatch at seq 1"), "got: {e}");
        // Flipping a later record leaves earlier seqs verifiable.
        let mut bytes = clean;
        let len = bytes.len();
        bytes[len - 30] ^= 0x01;
        let e = TraceReader::from_bytes(&bytes, "t").unwrap_err();
        assert!(
            e.contains("mismatch") || e.contains("trailer"),
            "tail corruption detected: {e}"
        );
    }

    #[test]
    fn truncation_is_loud() {
        let path = write_sample("trunc");
        let clean = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let cut = &clean[..clean.len() - 9];
        let e = TraceReader::from_bytes(cut, "t").unwrap_err();
        assert!(e.contains("truncated"), "got: {e}");
    }

    #[test]
    fn bad_magic_and_version_are_schema_errors() {
        let e = TraceReader::from_bytes(b"garbage not a trace", "t").unwrap_err();
        assert!(e.contains("not a TRACE artifact"), "got: {e}");
        let e = TraceReader::from_bytes(b"TRACE/9.9\nmore", "t").unwrap_err();
        assert!(e.contains("unsupported trace version"), "got: {e}");
    }

    #[test]
    fn trailer_count_mismatch_detected() {
        let path = write_sample("count");
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // The trailer count is 8 bytes after the 0xFF tag, 32 bytes from
        // the end: 0xFF + count(8) + end(8) + control(8) + fingerprint(8)
        // = 33.
        let len = bytes.len();
        bytes[len - 32] = bytes[len - 32].wrapping_add(1);
        let e = TraceReader::from_bytes(&bytes, "t").unwrap_err();
        // Count is chained, so this trips the fingerprint or count check.
        assert!(
            e.contains("record count") || e.contains("fingerprint"),
            "got: {e}"
        );
    }
}
