//! Storage behind the template cache: compiled templates as **portable
//! artifacts**.
//!
//! One compiled template serves every branch of a plan, and a
//! [`TemplateCache`](crate::TemplateCache) shares it across the jobs of
//! a batch and the clients of a shard. This module makes it shareable
//! across *processes*: a [`TemplateArtifact`] is a versioned,
//! fingerprint-addressed document (key + template, canonical JSON) that
//! can spill to disk and travel between shards, so restarts and sibling
//! workers start warm instead of recompiling every shape.
//!
//! * [`TemplateStore`] — the storage seam the
//!   [`TemplateCache`](crate::TemplateCache) compiles through. The cache
//!   keeps the concurrency story (one compile slot per key, hit/miss
//!   accounting); stores keep bytes.
//! * [`MemoryStore`] — the store: sharded maps with an optional LRU
//!   bound and exact eviction counters, over an optional spill directory
//!   ([`MemoryStore::spill_to`]) that holds one `<fingerprint>.fqt.json`
//!   file per artifact. Files are written temp-then-rename (atomic on
//!   POSIX renames), so readers never observe a half-written artifact,
//!   and corrupt, truncated or version-skewed files are **misses, never
//!   errors** — the worst a bad cache file can cause is a recompile.
//!
//! Fingerprints are stable FNV-1a hashes of everything that determines
//! the compiled artifact (sub-circuit shape, device identity and
//! calibration, layer count, compile options) — deliberately *not*
//! `DefaultHasher`, whose output Rust does not promise across versions;
//! an on-disk cache and a peer shard must agree on names across builds.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;

use fq_transpile::{CompileOptions, Device, Fnv64};
use serde::json::Value;

use crate::api::wire::{compile_from_value, compile_to_value};
use crate::plan::ShapeSignature;
use crate::{CompiledTemplate, FqError};

/// Wire-format version of [`TemplateArtifact`] documents, bumped on
/// breaking changes; a version-skewed artifact is a cache miss, never an
/// error.
pub const TEMPLATE_WIRE_VERSION: u64 = 1;

/// File suffix of on-disk artifacts.
const ARTIFACT_SUFFIX: &str = ".fqt.json";

// --------------------------------------------------------------------
// TemplateKey
// --------------------------------------------------------------------

/// Everything that determines a compiled template: sub-circuit
/// [`ShapeSignature`], device identity (name **plus** the stable
/// topology/calibration fingerprint), QAOA layer count, and
/// [`CompileOptions`].
///
/// The key's [`TemplateKey::fingerprint`] is the artifact's address
/// everywhere outside the process: the spill-tier filename and the
/// `/v1/templates/{fingerprint}` HTTP path.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TemplateKey {
    shape: ShapeSignature,
    device: String,
    device_fingerprint: u64,
    layers: usize,
    options: CompileOptions,
}

impl TemplateKey {
    /// The key of `shape` compiled for `device` at `layers` QAOA layers
    /// under `options`.
    #[must_use]
    pub fn new(
        shape: ShapeSignature,
        device: &Device,
        layers: usize,
        options: CompileOptions,
    ) -> TemplateKey {
        TemplateKey {
            shape,
            device: device.name().to_string(),
            device_fingerprint: device.fingerprint(),
            layers,
            options,
        }
    }

    /// The stable 16-hex-digit fingerprint addressing this key's artifact
    /// on disk and over HTTP. Equal keys always fingerprint equally,
    /// across processes, machines and Rust versions.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", self.fingerprint_u64())
    }

    /// The raw fingerprint hash — allocation-free, for hot-path uses
    /// like shard selection.
    pub(crate) fn fingerprint_u64(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_usize(self.shape.num_vars());
        for &(i, j) in self.shape.couplings() {
            h.write_usize(i);
            h.write_usize(j);
        }
        h.write_usize(self.device.len());
        h.write(self.device.as_bytes());
        h.write_u64(self.device_fingerprint);
        h.write_usize(self.layers);
        // Exhaustive on purpose: a new LayoutStrategy variant must fail
        // to compile here until it gets a stable fingerprint byte.
        let layout_tag: u8 = match self.options.layout {
            fq_transpile::LayoutStrategy::Trivial => 0,
            fq_transpile::LayoutStrategy::NoiseAdaptive => 1,
        };
        h.write(&[layout_tag, u8::from(self.options.optimize)]);
        h.finish()
    }

    fn to_value(&self) -> Value {
        Value::object(vec![
            ("num_vars", Value::UInt(self.shape.num_vars() as u64)),
            (
                "couplings",
                Value::Array(
                    self.shape
                        .couplings()
                        .iter()
                        .map(|&(i, j)| {
                            Value::Array(vec![Value::UInt(i as u64), Value::UInt(j as u64)])
                        })
                        .collect(),
                ),
            ),
            ("device", Value::string(&self.device)),
            ("device_fingerprint", Value::UInt(self.device_fingerprint)),
            ("layers", Value::UInt(self.layers as u64)),
            ("compile", compile_to_value(self.options)),
        ])
    }

    fn from_value(v: &Value) -> Result<TemplateKey, FqError> {
        let couplings = v
            .field("couplings")?
            .as_array()?
            .iter()
            .map(|item| {
                let pair = item.as_array()?;
                if pair.len() != 2 {
                    return Err(serde::json::JsonError("couplings are [i, j] pairs".into()));
                }
                Ok((pair[0].as_usize()?, pair[1].as_usize()?))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TemplateKey {
            shape: ShapeSignature::from_parts(v.field("num_vars")?.as_usize()?, couplings),
            device: v.field("device")?.as_str()?.to_string(),
            device_fingerprint: v.field("device_fingerprint")?.as_u64()?,
            layers: v.field("layers")?.as_usize()?,
            options: compile_from_value(v.field("compile")?)?,
        })
    }
}

// --------------------------------------------------------------------
// TemplateArtifact
// --------------------------------------------------------------------

/// A compiled template plus its full key, in the canonical versioned
/// wire form — the unit of disk spill and shard-to-shard warm transfer.
///
/// The document embeds the fingerprint, the key and the template:
///
/// ```json
/// {"v":1,"fingerprint":"9f…","key":{…},"template":{…}}
/// ```
///
/// [`TemplateArtifact::from_json`] verifies the version, the embedded
/// fingerprint against the key, and the template's width against the
/// key's shape, so a corrupted or mismatched artifact is rejected as a
/// whole — a store treats that as a miss and recompiles.
#[derive(Clone, Debug, PartialEq)]
pub struct TemplateArtifact {
    key: TemplateKey,
    template: CompiledTemplate,
}

impl TemplateArtifact {
    /// Packages a template under its key.
    #[must_use]
    pub fn new(key: TemplateKey, template: CompiledTemplate) -> TemplateArtifact {
        TemplateArtifact { key, template }
    }

    /// The artifact's key.
    #[must_use]
    pub fn key(&self) -> &TemplateKey {
        &self.key
    }

    /// The compiled template.
    #[must_use]
    pub fn template(&self) -> &CompiledTemplate {
        &self.template
    }

    /// The key's stable fingerprint (the artifact's address).
    #[must_use]
    pub fn fingerprint(&self) -> String {
        self.key.fingerprint()
    }

    /// Serializes to the canonical versioned wire form.
    #[must_use]
    pub fn to_json(&self) -> String {
        Value::object(vec![
            ("v", Value::UInt(TEMPLATE_WIRE_VERSION)),
            ("fingerprint", Value::string(self.fingerprint())),
            ("key", self.key.to_value()),
            ("template", self.template.to_value()),
        ])
        .to_json()
    }

    /// Parses the canonical wire form, verifying version, fingerprint
    /// consistency and template width.
    ///
    /// # Errors
    ///
    /// Returns [`FqError::Serde`] for malformed documents, version skew,
    /// a fingerprint that does not match the embedded key, or a template
    /// whose width disagrees with the key's shape.
    pub fn from_json(text: &str) -> Result<TemplateArtifact, FqError> {
        let v = Value::parse(text)?;
        let version = v.field("v")?.as_u64()?;
        if version != TEMPLATE_WIRE_VERSION {
            return Err(FqError::Serde(format!(
                "unsupported template wire version {version}"
            )));
        }
        let key = TemplateKey::from_value(v.field("key")?)?;
        let claimed = v.field("fingerprint")?.as_str()?;
        let actual = key.fingerprint();
        if claimed != actual {
            return Err(FqError::Serde(format!(
                "artifact fingerprint `{claimed}` does not match its key (`{actual}`)"
            )));
        }
        let template = CompiledTemplate::from_value(v.field("template")?)?;
        if template.compiled().logical_qubits != key.shape.num_vars() {
            return Err(FqError::Serde(format!(
                "template is {}-wide but the key's shape has {} variables",
                template.compiled().logical_qubits,
                key.shape.num_vars()
            )));
        }
        Ok(TemplateArtifact { key, template })
    }
}

// --------------------------------------------------------------------
// The store trait
// --------------------------------------------------------------------

/// One row of a store's [`TemplateStore::index`]: enough for a peer to
/// decide which templates are worth pulling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TemplateIndexEntry {
    /// The artifact's stable fingerprint.
    pub fingerprint: String,
    /// Recency stamp, comparable only within one index listing (the
    /// memory tier uses a logical clock; spill-only entries report 0 and
    /// therefore sort coldest).
    pub last_used: u64,
}

/// Exact operation counters of a [`TemplateStore`] and of the
/// [`TemplateCache`](crate::TemplateCache) over it: a store fills the
/// fields it keeps, and the cache adds `hits` and `misses`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups served from an already-compiled template (including
    /// lookups that waited for a concurrent in-flight compile).
    pub hits: u64,
    /// Lookups that had to compile (successful or not).
    pub misses: u64,
    /// Templates evicted from the memory tier by the LRU bound.
    pub evictions: u64,
    /// Templates currently resident in the memory tier.
    pub len: usize,
    /// The LRU bound, if one is set.
    pub capacity: Option<usize>,
    /// Artifacts written to the spill tier (0 without one).
    pub spills: u64,
    /// Spill-tier hits promoted back into the memory tier.
    pub promotions: u64,
    /// Artifacts resident in the spill tier.
    pub spill_len: usize,
    /// Distinct artifacts resident across both tiers. The memory tier
    /// is written through to the spill tier, so the larger tier holds
    /// every artifact and one held in both counts once.
    pub resident: usize,
}

/// Where compiled templates live — the storage seam behind
/// [`TemplateCache`](crate::TemplateCache).
///
/// The cache owns concurrency (one compile slot per key) and hit/miss
/// accounting; implementations own bytes. Every method is infallible by
/// contract: a store that cannot read an entry (corrupt file, version
/// skew, I/O error) reports a miss and a store that cannot write one
/// drops the write — the cache then simply recompiles, so storage
/// trouble can cost time but never correctness.
pub trait TemplateStore: Send + Sync + std::fmt::Debug {
    /// The template under `key`, if resident.
    fn fetch(&self, key: &TemplateKey) -> Option<CompiledTemplate>;

    /// Inserts (or refreshes) the template under `key`.
    fn insert(&self, key: &TemplateKey, template: &CompiledTemplate);

    /// The full artifact addressed by `fingerprint`, if resident — the
    /// lookup behind `GET /v1/templates/{fingerprint}`.
    fn fetch_fingerprint(&self, fingerprint: &str) -> Option<TemplateArtifact>;

    /// Every resident artifact's fingerprint with a recency stamp,
    /// hottest first — what a peer pulls to decide its warm set.
    fn index(&self) -> Vec<TemplateIndexEntry>;

    /// Exact operation counters, with `hits` and `misses` left at 0.
    fn stats(&self) -> CacheStats;
}

// --------------------------------------------------------------------
// MemoryStore
// --------------------------------------------------------------------

/// Shard count: enough to make cross-key contention negligible on large
/// machines while keeping the LRU eviction scan trivial.
const STORE_SHARDS: usize = 16;

#[derive(Debug)]
struct MemEntry {
    template: CompiledTemplate,
    fingerprint: String,
    last_used: AtomicU64,
}

/// The template store: sharded in-process maps with an optional LRU
/// bound and exact eviction counters, over an optional spill directory
/// (the store behind `--cache-dir`).
///
/// With a spill directory ([`MemoryStore::spill_to`]):
///
/// * **insert** writes through: the template lands on disk, then in
///   memory, so a restarted process (or a sibling shard mounting the
///   same directory) finds every template ever compiled, not just the
///   ones the LRU bound happened to push out;
/// * **fetch** promotes: a memory miss that hits the disk re-seats the
///   template in memory (counted in [`CacheStats::promotions`]);
/// * **LRU eviction** demotes: an evictee whose artifact file has
///   vanished is written again, so the union of both tiers never
///   shrinks below everything compiled.
#[derive(Debug)]
pub struct MemoryStore {
    shards: Vec<RwLock<HashMap<TemplateKey, MemEntry>>>,
    capacity: Option<usize>,
    /// Monotonic logical clock stamping every access for LRU ordering.
    clock: AtomicU64,
    resident: AtomicUsize,
    evictions: AtomicU64,
    spill: Option<DiskStore>,
    promotions: AtomicU64,
}

impl Default for MemoryStore {
    fn default() -> MemoryStore {
        MemoryStore::new()
    }
}

impl MemoryStore {
    /// An empty, unbounded store.
    #[must_use]
    pub fn new() -> MemoryStore {
        MemoryStore {
            shards: (0..STORE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            capacity: None,
            clock: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
            spill: None,
            promotions: AtomicU64::new(0),
        }
    }

    /// An empty store holding at most `capacity` templates in memory,
    /// evicting the least-recently-used beyond that. `capacity = 0`
    /// disables retention entirely (every insert is immediately evicted)
    /// — legal, but only useful for measuring the uncached baseline.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> MemoryStore {
        MemoryStore {
            capacity: Some(capacity),
            ..MemoryStore::new()
        }
    }

    /// The same store over a spill directory at `dir`, created if
    /// needed: every insert is written through to it, and a later store
    /// over the same directory starts warm.
    ///
    /// # Errors
    ///
    /// Returns [`FqError::Io`] when the directory cannot be created —
    /// the one storage error worth surfacing, because it means the
    /// operator's `--cache-dir` can never work.
    pub fn spill_to(self, dir: impl AsRef<Path>) -> Result<MemoryStore, FqError> {
        Ok(MemoryStore {
            spill: Some(DiskStore::new(dir)?),
            ..self
        })
    }

    fn shard_of(&self, key: &TemplateKey) -> usize {
        // The raw hash, not the formatted string: fetches run once per
        // planned sub-problem unit and must not allocate.
        (key.fingerprint_u64() as usize) % self.shards.len()
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Seats `template` in memory, then enforces the LRU bound.
    fn insert_memory(&self, key: &TemplateKey, template: &CompiledTemplate) {
        let stamp = self.stamp();
        let entry = MemEntry {
            template: template.clone(),
            fingerprint: key.fingerprint(),
            last_used: AtomicU64::new(stamp),
        };
        let replaced = {
            let mut map = self.shards[self.shard_of(key)]
                .write()
                .expect("store shard lock");
            map.insert(key.clone(), entry).is_some()
        };
        if !replaced {
            self.resident.fetch_add(1, Ordering::Relaxed);
        }
        self.enforce_capacity();
    }

    /// Evicts least-recently-used templates until the resident count
    /// respects the bound, demoting each evictee to the spill tier when
    /// its artifact file has vanished.
    fn enforce_capacity(&self) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while self.resident.load(Ordering::Relaxed) > capacity {
            let mut victim: Option<(u64, usize, TemplateKey)> = None;
            for (si, shard) in self.shards.iter().enumerate() {
                let map = shard.read().expect("store shard lock");
                for (key, entry) in map.iter() {
                    let stamp = entry.last_used.load(Ordering::Relaxed);
                    if victim.as_ref().is_none_or(|&(s, ..)| stamp < s) {
                        victim = Some((stamp, si, key.clone()));
                    }
                }
            }
            let Some((_, si, key)) = victim else {
                return;
            };
            // A concurrent evictor may have removed it already; the loop
            // then simply rescans.
            let removed = self.shards[si]
                .write()
                .expect("store shard lock")
                .remove(&key);
            if let Some(entry) = removed {
                self.resident.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                if let Some(disk) = &self.spill {
                    if !disk.contains(&key.fingerprint()) {
                        disk.write(&TemplateArtifact::new(key, entry.template));
                    }
                }
            }
        }
    }
}

impl TemplateStore for MemoryStore {
    fn fetch(&self, key: &TemplateKey) -> Option<CompiledTemplate> {
        {
            let map = self.shards[self.shard_of(key)]
                .read()
                .expect("store shard lock");
            if let Some(entry) = map.get(key) {
                entry.last_used.store(self.stamp(), Ordering::Relaxed);
                return Some(entry.template.clone());
            }
        }
        let template = self.spill.as_ref()?.fetch(key)?;
        self.promotions.fetch_add(1, Ordering::Relaxed);
        self.insert_memory(key, &template);
        Some(template)
    }

    fn insert(&self, key: &TemplateKey, template: &CompiledTemplate) {
        if let Some(disk) = &self.spill {
            disk.write(&TemplateArtifact::new(key.clone(), template.clone()));
        }
        self.insert_memory(key, template);
    }

    fn fetch_fingerprint(&self, fingerprint: &str) -> Option<TemplateArtifact> {
        for shard in &self.shards {
            let map = shard.read().expect("store shard lock");
            for (key, entry) in map.iter() {
                if entry.fingerprint == fingerprint {
                    return Some(TemplateArtifact::new(key.clone(), entry.template.clone()));
                }
            }
        }
        self.spill.as_ref()?.read(fingerprint)
    }

    fn index(&self) -> Vec<TemplateIndexEntry> {
        let mut entries: Vec<TemplateIndexEntry> = self
            .shards
            .iter()
            .flat_map(|shard| {
                let map = shard.read().expect("store shard lock");
                map.values()
                    .map(|e| TemplateIndexEntry {
                        fingerprint: e.fingerprint.clone(),
                        last_used: e.last_used.load(Ordering::Relaxed),
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.last_used));
        if let Some(disk) = &self.spill {
            // Spill-only entries follow with stamp 0 — hottest first
            // within what one process can know.
            let hot: HashSet<String> = entries.iter().map(|e| e.fingerprint.clone()).collect();
            for fingerprint in disk.fingerprints() {
                if !hot.contains(&fingerprint) {
                    entries.push(TemplateIndexEntry {
                        fingerprint,
                        last_used: 0,
                    });
                }
            }
        }
        entries
    }

    fn stats(&self) -> CacheStats {
        let len = self.resident.load(Ordering::Relaxed);
        let (spills, spill_len) = self.spill.as_ref().map_or((0, 0), |disk| {
            (disk.spills.load(Ordering::Relaxed), disk.file_count())
        });
        CacheStats {
            evictions: self.evictions.load(Ordering::Relaxed),
            len,
            capacity: self.capacity,
            spills,
            promotions: self.promotions.load(Ordering::Relaxed),
            spill_len,
            resident: len.max(spill_len),
            ..CacheStats::default()
        }
    }
}

// --------------------------------------------------------------------
// The spill tier
// --------------------------------------------------------------------

/// Whether `s` is a well-formed artifact fingerprint (exactly 16
/// lower-case hex digits) — also the path-traversal guard for
/// fingerprints arriving over HTTP. The single source of the format
/// check: routers and stores must agree on what a fingerprint is.
#[must_use]
pub fn is_template_fingerprint(s: &str) -> bool {
    s.len() == 16
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// A [`MemoryStore`]'s spill directory: one `<fingerprint>.fqt.json`
/// artifact per file.
///
/// Writes go to a temp file in the same directory and are renamed into
/// place, so a concurrent reader (or a crash mid-write) can never observe
/// a half-written artifact. Reads that fail for any reason — missing or
/// unreadable file, corrupt JSON, version skew, fingerprint/key
/// mismatch — are misses; writes that fail are dropped. A disk cache can
/// cost recompiles, never correctness.
#[derive(Debug)]
struct DiskStore {
    dir: PathBuf,
    /// Artifacts written.
    spills: AtomicU64,
}

/// Temp-file sequence shared by every spill directory in the process:
/// two stores over the same directory (e.g. two runners sharing one
/// cache dir) must never collide on an in-flight temp name, or one could
/// rename the other's half-written bytes into place.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl DiskStore {
    /// Opens (creating if needed) the spill directory.
    fn new(dir: impl AsRef<Path>) -> Result<DiskStore, FqError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| FqError::Io(format!("creating cache dir `{}`: {e}", dir.display())))?;
        Ok(DiskStore {
            dir,
            spills: AtomicU64::new(0),
        })
    }

    fn path_of(&self, fingerprint: &str) -> PathBuf {
        self.dir.join(format!("{fingerprint}{ARTIFACT_SUFFIX}"))
    }

    /// Whether an artifact file for `fingerprint` exists (it may still
    /// turn out corrupt on read).
    fn contains(&self, fingerprint: &str) -> bool {
        is_template_fingerprint(fingerprint) && self.path_of(fingerprint).exists()
    }

    fn read(&self, fingerprint: &str) -> Option<TemplateArtifact> {
        if !is_template_fingerprint(fingerprint) {
            return None;
        }
        let text = std::fs::read_to_string(self.path_of(fingerprint)).ok()?;
        let artifact = TemplateArtifact::from_json(&text).ok()?;
        // The filename must agree with the content (a renamed or
        // colliding file is a miss, not someone else's template).
        (artifact.fingerprint() == fingerprint).then_some(artifact)
    }

    fn fetch(&self, key: &TemplateKey) -> Option<CompiledTemplate> {
        let artifact = self.read(&key.fingerprint())?;
        // A fingerprint collision (or tampered file) must not hand a
        // different shape's template to this key.
        (artifact.key() == key).then(|| artifact.template().clone())
    }

    /// Writes `bytes` to `tmp` and fsyncs the file before returning.
    /// The rename only makes the name durable if the *bytes* already
    /// are: rename-before-fsync can survive a crash as a zero-length
    /// (or partial) `.fqt.json` under the final name on some
    /// filesystems, which readers would then keep probing and
    /// rejecting forever.
    fn write_durable(tmp: &Path, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::File::create(tmp)?;
        file.write_all(bytes)?;
        file.sync_all()
    }

    fn write(&self, artifact: &TemplateArtifact) {
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let target = self.path_of(&artifact.fingerprint());
        if Self::write_durable(&tmp, artifact.to_json().as_bytes()).is_ok() {
            if std::fs::rename(&tmp, &target).is_ok() {
                self.spills.fetch_add(1, Ordering::Relaxed);
                // Make the rename itself durable: fsync the directory so
                // a crash after this point cannot forget the new name.
                // Best-effort — a cache that loses an entry on crash is
                // merely cold, but one that keeps a torn entry is noisy.
                if let Ok(dir) = std::fs::File::open(&self.dir) {
                    let _ = dir.sync_all();
                }
            } else {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    fn file_count(&self) -> usize {
        std::fs::read_dir(&self.dir).map_or(0, |entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|name| name.ends_with(ARTIFACT_SUFFIX))
                })
                .count()
        })
    }

    /// Every artifact file's fingerprint, newest first (by modification
    /// time in seconds, then by fingerprint).
    fn fingerprints(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut files: Vec<(u64, String)> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name();
                let fingerprint = name.to_str()?.strip_suffix(ARTIFACT_SUFFIX)?.to_string();
                is_template_fingerprint(&fingerprint).then(|| {
                    let modified = e
                        .metadata()
                        .ok()
                        .and_then(|m| m.modified().ok())
                        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                        .map_or(0, |d| d.as_secs());
                    (modified, fingerprint)
                })
            })
            .collect();
        files.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        files
            .into_iter()
            .map(|(_, fingerprint)| fingerprint)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrozenQubitsConfig;
    use fq_graphs::{gen, to_ising_pm1};
    use fq_ising::IsingModel;

    fn ba_model(n: usize, seed: u64) -> IsingModel {
        to_ising_pm1(&gen::barabasi_albert(n, 1, seed).unwrap(), seed)
    }

    fn key_and_template(n: usize, seed: u64) -> (TemplateKey, CompiledTemplate) {
        let model = ba_model(n, seed);
        let device = Device::ibm_montreal();
        let options = CompileOptions::level3();
        let template = CompiledTemplate::compile(&model, 1, &device, options).unwrap();
        let key = TemplateKey::new(ShapeSignature::of(&model), &device, 1, options);
        (key, template)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fq-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprints_are_stable_and_key_sensitive() {
        let (key, _) = key_and_template(8, 1);
        assert_eq!(key.fingerprint(), key.clone().fingerprint());
        assert!(is_template_fingerprint(&key.fingerprint()));
        let (other, _) = key_and_template(10, 1);
        assert_ne!(key.fingerprint(), other.fingerprint());
        // Same shape, different options → different artifact address.
        let relaxed = TemplateKey {
            options: CompileOptions {
                optimize: false,
                ..key.options
            },
            ..key.clone()
        };
        assert_ne!(key.fingerprint(), relaxed.fingerprint());
    }

    #[test]
    fn artifact_json_round_trips_byte_for_byte() {
        let (key, template) = key_and_template(9, 2);
        let artifact = TemplateArtifact::new(key, template);
        let text = artifact.to_json();
        let back = TemplateArtifact::from_json(&text).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn artifact_rejects_version_skew_and_fingerprint_mismatch() {
        let (key, template) = key_and_template(8, 3);
        let good = TemplateArtifact::new(key, template).to_json();
        let skewed = good.replacen("\"v\":1", "\"v\":2", 1);
        assert!(matches!(
            TemplateArtifact::from_json(&skewed),
            Err(FqError::Serde(msg)) if msg.contains("version")
        ));
        let tampered = good.replacen("\"layers\":1", "\"layers\":2", 1);
        assert!(
            TemplateArtifact::from_json(&tampered).is_err(),
            "a key edit must break the embedded fingerprint"
        );
    }

    #[test]
    fn disk_store_spills_and_restores() {
        let dir = temp_dir("spill");
        let disk = MemoryStore::new().spill_to(&dir).unwrap();
        let (key, template) = key_and_template(8, 4);
        assert!(disk.fetch(&key).is_none());
        disk.insert(&key, &template);
        assert_eq!(disk.fetch(&key).unwrap(), template);
        assert_eq!(disk.stats().spill_len, 1);

        // A second store over the same directory (the "restart") sees it.
        let restarted = MemoryStore::new().spill_to(&dir).unwrap();
        assert_eq!(restarted.fetch(&key).unwrap(), template);
        let index = restarted.index();
        assert_eq!(index.len(), 1);
        assert_eq!(index[0].fingerprint, key.fingerprint());
        assert_eq!(
            restarted.fetch_fingerprint(&key.fingerprint()).unwrap(),
            TemplateArtifact::new(key, template)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_treats_damage_as_misses() {
        let dir = temp_dir("damage");
        // A memory tier that retains nothing: every read is the disk's.
        let disk = MemoryStore::with_capacity(0).spill_to(&dir).unwrap();
        let (key, template) = key_and_template(8, 5);
        disk.insert(&key, &template);
        let path = dir.join(format!("{}{ARTIFACT_SUFFIX}", key.fingerprint()));

        // Truncation, garbage and version skew are all silent misses.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(disk.fetch(&key).is_none(), "truncated file");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(disk.fetch(&key).is_none(), "garbage file");
        std::fs::write(&path, full.replacen("\"v\":1", "\"v\":9", 1)).unwrap();
        assert!(disk.fetch(&key).is_none(), "version-skewed file");

        // Hostile fingerprints never touch the filesystem as paths.
        assert!(disk.fetch_fingerprint("../../etc/passwd").is_none());
        assert!(disk.fetch_fingerprint("ABCDEF0123456789").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_survives_crash_leftovers() {
        // The worst a crash mid-spill can now leave is (a) an orphaned
        // temp file — never the final name, because bytes are fsynced
        // before the rename — or (b) on a filesystem that reorders
        // metadata anyway, a zero-length or truncated `.fqt.json`.
        // Both must read as misses and a rewrite must heal them.
        let dir = temp_dir("crash");
        let disk = MemoryStore::with_capacity(0).spill_to(&dir).unwrap();
        let (key, template) = key_and_template(8, 7);
        let path = dir.join(format!("{}{ARTIFACT_SUFFIX}", key.fingerprint()));

        // Zero-length file under the final name: a miss, not an error.
        std::fs::write(&path, "").unwrap();
        assert!(disk.fetch(&key).is_none(), "zero-length file");
        assert!(disk.fetch_fingerprint(&key.fingerprint()).is_none());

        // The index lists by filename (content is only validated on
        // read), so the torn entry may appear there — but an orphaned
        // temp file never does, and a peer pulling the torn name just
        // misses.
        std::fs::write(dir.join(".tmp-999-0"), "half a doc").unwrap();
        let index = disk.index();
        assert!(
            index.iter().all(|e| e.fingerprint == key.fingerprint()),
            "temp files never index"
        );

        // A fresh insert heals the torn entry in place.
        disk.insert(&key, &template);
        assert_eq!(disk.fetch(&key).unwrap(), template);
        assert_eq!(
            disk.index().len(),
            1,
            "healed entry indexes once, temp orphan still invisible"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_store_promotes_and_demotes() {
        let dir = temp_dir("tiered");
        let (key_a, template_a) = key_and_template(8, 6);
        let (key_b, template_b) = key_and_template(10, 6);
        // A 1-slot memory tier: inserting B evicts (demotes) A.
        let store = MemoryStore::with_capacity(1).spill_to(&dir).unwrap();
        store.insert(&key_a, &template_a);
        store.insert(&key_b, &template_b);
        let s = store.stats();
        assert_eq!((s.len, s.evictions), (1, 1));
        assert_eq!(s.spill_len, 2, "write-through spills both");

        // Fetching A misses memory, hits disk, and promotes (evicting B).
        assert_eq!(store.fetch(&key_a).unwrap(), template_a);
        let s = store.stats();
        assert_eq!(s.promotions, 1);
        assert_eq!(s.len, 1);
        // B is still reachable through the spill tier.
        assert_eq!(store.fetch(&key_b).unwrap(), template_b);
        assert_eq!(store.index().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_capacity_memory_still_serves_through_disk() {
        let dir = temp_dir("zero-mem");
        let store = MemoryStore::with_capacity(0).spill_to(&dir).unwrap();
        let (key, template) = key_and_template(8, 7);
        store.insert(&key, &template);
        assert_eq!(store.stats().len, 0, "memory retains nothing");
        assert_eq!(store.fetch(&key).unwrap(), template, "disk still serves");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_config_smoke_uses_the_same_compile_options() {
        // Guard: the default config's options must be representable in a
        // fingerprint (the exhaustive layout match above).
        let cfg = FrozenQubitsConfig::default();
        let (key, _) = key_and_template(8, 8);
        assert_eq!(key.options, cfg.compile);
    }
}
