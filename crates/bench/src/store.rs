//! Persistent, content-addressed result store: `(cell_key, seed) → RunRecord`.
//!
//! Every experiment in the stack is addressed by an injective, canonical
//! cell key ([`RunSpec::cell_key`](crate::RunSpec::cell_key) — scenario,
//! workload, protocol, probes, buffer, community source, seed and horizon,
//! floats by bit pattern). Because the key is injective over everything
//! that shapes a run's result, and runs are bit-deterministic, a record
//! filed under its key can be *served* instead of recomputed — across
//! processes and code revisions. The [`CellStore`] is that durable memo:
//!
//! * **Layout** — a configurable root (default [`DEFAULT_STORE_ROOT`])
//!   holding a `manifest.json` plus 256 fan-out shard directories
//!   (`<2-hex>/<16-hex>.json`, FNV-1a 64 over the encoded cell key). Key
//!   collisions are benign: every load re-checks the stored cell key, so a
//!   colliding entry is a miss that gets overwritten, never wrong data.
//! * **Entry format** — each entry is a complete one-record
//!   `cen-dtn.report` document (the existing schema-versioned JSON model),
//!   with the document title bound to the cell key. `reportcheck` validates
//!   entries unmodified.
//! * **Publication** — write-to-temp then [`std::fs::rename`], so readers
//!   never observe a half-written entry and concurrent producers of the
//!   same cell (which compute identical records) settle on a whole file.
//! * **Admission** — a record is served only after passing the full
//!   `reportcheck` validation ([`validate_and_decode`]) *and* identity checks
//!   (stored cell key == requested key, stored seed == requested seed). A
//!   truncated, bit-flipped or otherwise invalid entry is a miss: the cell
//!   is recomputed and republished, never served.
//! * **Maintenance** — the `dtnstore` binary wraps [`CellStore::stats`],
//!   [`CellStore::verify`] and [`CellStore::gc`] (LRU by access time).
//!
//! Served records are marked [`RunRecord::cached`] — informational
//! provenance like `wall_s`, excluded from `dtndiff` comparison — and get
//! their `wall_s` restamped with the (file-read) serve time, so warm-sweep
//! trajectories report what the host actually paid.

use crate::report::{validate_and_decode, ReportSpec, RunRecord, SCHEMA_VERSION};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Default store root, relative to the working directory.
pub const DEFAULT_STORE_ROOT: &str = "results/store";

/// Schema name stamped into the store manifest.
pub const STORE_SCHEMA: &str = "cen-dtn.store";

/// Store layout version; bump when the directory layout or entry binding
/// changes shape (record contents are versioned separately by the report
/// schema's `SCHEMA_VERSION`).
pub const STORE_VERSION: u32 = 1;

/// Census of a store: entry count and payload bytes (manifest excluded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of entry files.
    pub entries: usize,
    /// Total entry bytes.
    pub bytes: u64,
}

/// What one [`CellStore::gc`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Entries evicted (least recently accessed first).
    pub evicted: usize,
    /// Bytes freed by the evictions.
    pub freed_bytes: u64,
    /// Entry bytes remaining after the pass.
    pub remaining_bytes: u64,
}

/// A persistent, content-addressed `(cell_key, seed) → RunRecord` store.
/// See the [module docs](self) for layout and admission rules.
pub struct CellStore {
    root: PathBuf,
}

impl CellStore {
    /// Opens (creating if needed) the store at `root`. A fresh root gets a
    /// manifest recording the store layout version, the record schema
    /// version and the producing crate revision; an existing root's
    /// manifest is validated — a root claiming a different store layout is
    /// refused rather than silently misread.
    pub fn open(root: &Path) -> Result<CellStore, String> {
        fs::create_dir_all(root)
            .map_err(|e| format!("cannot create store root {}: {e}", root.display()))?;
        let store = CellStore {
            root: root.to_path_buf(),
        };
        let manifest = store.manifest_path();
        if manifest.exists() {
            store.validate_manifest(&manifest)?;
        } else {
            store.write_manifest(&manifest)?;
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the store manifest.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    fn write_manifest(&self, path: &Path) -> Result<(), String> {
        use crate::report::json::Json;
        let doc = Json::obj([
            ("schema", Json::str(STORE_SCHEMA)),
            ("version", Json::uint(u64::from(STORE_VERSION))),
            (
                "record_schema",
                Json::str(crate::report::record::REPORT_SCHEMA),
            ),
            ("record_version", Json::uint(u64::from(SCHEMA_VERSION))),
            ("producer", Json::str(env!("CARGO_PKG_VERSION"))),
        ])
        .render();
        write_via_rename(path, &doc)
    }

    fn validate_manifest(&self, path: &Path) -> Result<(), String> {
        use crate::report::json::Json;
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("manifest {}: {e}", path.display()))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == STORE_SCHEMA => {}
            other => {
                return Err(format!(
                    "{} is not a {STORE_SCHEMA} manifest (schema: {other:?})",
                    path.display()
                ))
            }
        }
        match doc.get("version").and_then(Json::as_u64) {
            Some(v) if v == u64::from(STORE_VERSION) => {}
            other => {
                return Err(format!(
                    "{}: unsupported store version {other:?} (expected {STORE_VERSION})",
                    path.display()
                ))
            }
        }
        // The producer revision and record schema version are provenance,
        // not compatibility gates: admission validates every entry on load,
        // so records from any revision that pass are servable.
        Ok(())
    }

    /// The entry path an encoded cell key files under: a 256-way fan-out on
    /// the key hash, so city-scale sweeps never pile every entry into one
    /// directory. Distinct keys can share a path only on a 64-bit hash
    /// collision, which [`CellStore::serve`] detects by re-checking the
    /// stored key.
    pub fn entry_path(&self, cell: &str) -> PathBuf {
        let h = dtn_sim::fnv1a(dtn_sim::FNV_OFFSET, cell.as_bytes());
        self.root
            .join(format!("{:02x}", h >> 56))
            .join(format!("{h:016x}.json"))
    }

    /// Admission: validates one entry's text exactly as `reportcheck` would
    /// (schema, versions, finiteness, probe-section invariants), then binds
    /// it to its identity — a one-record document whose title equals the
    /// record's cell key. Returns the record on success.
    pub fn admit(text: &str) -> Result<RunRecord, String> {
        let report = validate_and_decode(text)?
            .1
            .ok_or("store entry is a bench trajectory, not a report")?;
        let [record] = report.records.as_slice() else {
            return Err(format!(
                "store entry must hold exactly one record, found {}",
                report.records.len()
            ));
        };
        if record.cell != report.title {
            return Err(format!(
                "entry title `{}` does not match its record's cell `{}`",
                report.title, record.cell
            ));
        }
        Ok(record.clone())
    }

    /// Serves the record for `(cell, seed)` when a valid entry exists:
    /// missing, unreadable, corrupt, mis-keyed or otherwise inadmissible
    /// entries are all misses (`None`), never errors — the caller recomputes
    /// and republishes. A served record is marked [`RunRecord::cached`] with
    /// `wall_s` restamped to the serve (file-read) time.
    pub fn serve(&self, cell: &str, seed: u64) -> Option<RunRecord> {
        let t0 = std::time::Instant::now();
        let text = fs::read_to_string(self.entry_path(cell)).ok()?;
        let mut record = Self::admit(&text).ok()?;
        if record.cell != cell || record.seed != seed {
            return None;
        }
        record.cached = true;
        record.wall_s = t0.elapsed().as_secs_f64();
        Some(record)
    }

    /// Publishes `record` under its cell key, atomically (write-to-temp
    /// then rename). Records that were themselves served from a store
    /// ([`RunRecord::cached`]) are skipped — republishing one would launder
    /// its serve-time `wall_s` into a computed-looking entry.
    pub fn publish(&self, record: &RunRecord) -> Result<(), String> {
        if record.cached {
            return Ok(());
        }
        let mut doc = ReportSpec::new(record.cell.clone());
        doc.push(record.clone());
        write_via_rename(&self.entry_path(&record.cell), &doc.to_json_string())
    }

    /// Every entry path currently in the store (manifest excluded), in
    /// deterministic (shard, name) order.
    pub fn entries(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let Ok(shards) = fs::read_dir(&self.root) else {
            return out;
        };
        let mut dirs: Vec<PathBuf> = shards
            .flatten()
            .map(|d| d.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let Ok(files) = fs::read_dir(&dir) else {
                continue;
            };
            let mut paths: Vec<PathBuf> = files
                .flatten()
                .map(|f| f.path())
                .filter(|p| p.extension().is_some_and(|e| e == "json"))
                .collect();
            paths.sort();
            out.extend(paths);
        }
        out
    }

    /// Entry count and total payload bytes.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for path in self.entries() {
            stats.entries += 1;
            stats.bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        }
        stats
    }

    /// Validates every entry through [`CellStore::admit`] plus the layout
    /// invariant (an entry must live at the path its record's cell key
    /// hashes to). Returns the failures; an empty vector means the store is
    /// fully admissible.
    pub fn verify(&self) -> Vec<(PathBuf, String)> {
        let mut failures = Vec::new();
        for path in self.entries() {
            let text = match fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    failures.push((path, format!("cannot read: {e}")));
                    continue;
                }
            };
            match Self::admit(&text) {
                Ok(record) => {
                    let expected = self.entry_path(&record.cell);
                    if expected != path {
                        failures.push((
                            path,
                            format!("misfiled: cell hashes to {}", expected.display()),
                        ));
                    }
                }
                Err(e) => failures.push((path, e)),
            }
        }
        failures
    }

    /// Evicts least-recently-accessed entries until the store's payload is
    /// at most `max_bytes` (access time falls back to modification time on
    /// filesystems that do not track atime).
    pub fn gc(&self, max_bytes: u64) -> GcOutcome {
        let mut entries: Vec<(PathBuf, u64, SystemTime)> = self
            .entries()
            .into_iter()
            .filter_map(|path| {
                let meta = fs::metadata(&path).ok()?;
                let used = meta
                    .accessed()
                    .or_else(|_| meta.modified())
                    .unwrap_or(SystemTime::UNIX_EPOCH);
                Some((path, meta.len(), used))
            })
            .collect();
        entries.sort_by_key(|(_, _, used)| *used);
        let mut remaining: u64 = entries.iter().map(|(_, len, _)| len).sum();
        let mut out = GcOutcome::default();
        for (path, len, _) in entries {
            if remaining <= max_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                out.evicted += 1;
                out.freed_bytes += len;
                remaining -= len;
            }
        }
        out.remaining_bytes = remaining;
        out
    }
}

/// Resolves the shared `--store DIR | --no-store` CLI contract: `None` when
/// disabled, otherwise the store at `dir` (default [`DEFAULT_STORE_ROOT`]).
/// A store that fails to open degrades to a cold run with a warning —
/// memoization is an optimization, never a prerequisite.
pub fn resolve_store(dir: Option<&str>, disabled: bool) -> Option<CellStore> {
    if disabled {
        return None;
    }
    let root = dir.unwrap_or(DEFAULT_STORE_ROOT);
    match CellStore::open(Path::new(root)) {
        Ok(store) => Some(store),
        Err(e) => {
            eprintln!("warning: result store at {root} unavailable, running cold: {e}");
            None
        }
    }
}

/// Writes `text` to `path` atomically: temp file in the target directory,
/// then rename. Readers never observe a partial entry.
fn write_via_rename(path: &Path, text: &str) -> Result<(), String> {
    crate::report::ensure_parent(path).map_err(|e| e.to_string())?;
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, text).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        format!("publishing {}: {e}", path.display())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::StatsSnapshot;

    fn tmp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dtn_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn record(seed: u64) -> RunRecord {
        let cell = format!("scenario=paper:n=8|workload=paper|protocol=eer|seed={seed}|dur=0");
        let group = "scenario=paper:n=8|workload=paper|protocol=eer|dur=0".to_string();
        RunRecord {
            series: "EER".into(),
            scenario: "paper:n=8".into(),
            workload: "paper".into(),
            protocol: "eer".into(),
            seed,
            n_nodes: 8,
            duration: 400.0,
            cell,
            group,
            stats: StatsSnapshot {
                created: 40,
                delivered: 20 + seed,
                relayed: 60,
                latency_sum: 1234.5,
                hops_sum: 44,
                control_bytes: 4096,
                ..Default::default()
            },
            wall_s: 0.25,
            timeseries: None,
            latency: None,
            artifact: None,
            cached: false,
        }
    }

    #[test]
    fn publish_then_serve_round_trips() {
        let root = tmp_store("roundtrip");
        let store = CellStore::open(&root).unwrap();
        let rec = record(1);
        store.publish(&rec).unwrap();

        let served = store.serve(&rec.cell, 1).expect("published entry serves");
        assert!(served.cached, "served records are marked cached");
        // Identical on every field except the non-semantic serve provenance.
        let mut normalized = served.clone();
        normalized.cached = false;
        normalized.wall_s = rec.wall_s;
        assert_eq!(normalized, rec);

        // Wrong seed or unknown cell: a miss, not an error.
        assert!(store.serve(&rec.cell, 2).is_none());
        assert!(store.serve("scenario=other|seed=1|dur=0", 1).is_none());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn served_records_are_never_republished() {
        let root = tmp_store("norepub");
        let store = CellStore::open(&root).unwrap();
        store.publish(&record(1)).unwrap();
        let served = store.serve(&record(1).cell, 1).unwrap();
        let before = std::fs::read_to_string(store.entry_path(&served.cell)).unwrap();
        store.publish(&served).unwrap();
        let after = std::fs::read_to_string(store.entry_path(&served.cell)).unwrap();
        assert_eq!(before, after, "cached records must not overwrite entries");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_entries_are_rejected_not_served() {
        let root = tmp_store("corrupt");
        let store = CellStore::open(&root).unwrap();
        let rec = record(3);
        store.publish(&rec).unwrap();
        let path = store.entry_path(&rec.cell);

        // Truncation: half the document is not a document.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(
            store.serve(&rec.cell, 3).is_none(),
            "truncated entry served"
        );
        assert_eq!(store.verify().len(), 1, "verify must flag the truncation");

        // A bit flip that keeps the JSON well-formed but breaks a value.
        store.publish(&rec).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let flipped = text.replace("\"delivered\": 23", "\"delivered\": 1e999");
        assert_ne!(flipped, text, "tamper target must exist");
        std::fs::write(&path, flipped).unwrap();
        assert!(
            store.serve(&rec.cell, 3).is_none(),
            "non-finite entry served"
        );
        assert_eq!(store.verify().len(), 1);

        // An entry whose stored identity disagrees with its requested key.
        store.publish(&rec).unwrap();
        let other = record(4);
        std::fs::write(&path, {
            let mut doc = ReportSpec::new(other.cell.clone());
            doc.push(other.clone());
            doc.to_json_string()
        })
        .unwrap();
        assert!(
            store.serve(&rec.cell, 3).is_none(),
            "hash-collision-shaped entry served"
        );
        // Republishing heals the slot and serving works again.
        store.publish(&rec).unwrap();
        assert!(store.serve(&rec.cell, 3).is_some());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn manifest_guards_the_root() {
        let root = tmp_store("manifest");
        {
            let store = CellStore::open(&root).unwrap();
            assert!(store.manifest_path().exists());
        }
        // Re-opening an existing store validates and succeeds.
        assert!(CellStore::open(&root).is_ok());
        // A root claiming a different layout is refused.
        std::fs::write(
            root.join("manifest.json"),
            "{\n  \"schema\": \"cen-dtn.store\",\n  \"version\": 999\n}\n",
        )
        .unwrap();
        assert!(CellStore::open(&root).is_err());
        std::fs::write(root.join("manifest.json"), "not json").unwrap();
        assert!(CellStore::open(&root).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stats_and_gc_evict_lru() {
        let root = tmp_store("gc");
        let store = CellStore::open(&root).unwrap();
        for seed in 1..=4 {
            store.publish(&record(seed)).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.entries, 4);
        assert!(stats.bytes > 0);

        // Touch seed 4's entry so it is the most recently used, then shrink.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(store.serve(&record(4).cell, 4).is_some());
        let keep = stats.bytes / 3;
        let out = store.gc(keep);
        assert!(out.evicted >= 1, "gc must evict under a tight budget");
        assert!(out.remaining_bytes <= keep);
        assert_eq!(store.stats().bytes, out.remaining_bytes);
        // A full wipe leaves a valid, empty store.
        let out = store.gc(0);
        assert_eq!(out.remaining_bytes, 0);
        assert_eq!(store.stats().entries, 0);
        assert!(CellStore::open(&root).is_ok(), "manifest survives gc");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn entry_paths_fan_out_and_resolve_store_degrades() {
        let root = tmp_store("fanout");
        let store = CellStore::open(&root).unwrap();
        let a = store.entry_path("cell-a");
        let b = store.entry_path("cell-b");
        assert_ne!(a, b);
        assert_eq!(a, store.entry_path("cell-a"), "paths are deterministic");
        assert!(a.starts_with(&root));

        assert!(resolve_store(None, true).is_none(), "--no-store wins");
        let good = resolve_store(Some(root.to_str().unwrap()), false);
        assert!(good.is_some());
        // An unopenable root (a file in the way) degrades to None.
        let blocked = root.join("blocked");
        std::fs::write(&blocked, "x").unwrap();
        assert!(resolve_store(Some(blocked.to_str().unwrap()), false).is_none());
        std::fs::remove_dir_all(&root).ok();
    }
}
