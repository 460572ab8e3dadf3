//! Tiered storage behind the template cache: compiled templates as
//! **portable artifacts**.
//!
//! PR 1 made a compiled template shareable across branches, PR 3 across
//! jobs, PR 4 across HTTP clients of one process. This module makes it
//! shareable across *processes*: a [`TemplateArtifact`] is a versioned,
//! fingerprint-addressed document (key + template, canonical JSON) that
//! can spill to disk and travel between shards, so restarts and sibling
//! workers start warm instead of recompiling every shape.
//!
//! The pieces compose:
//!
//! * [`TemplateStore`] — the storage seam the
//!   [`TemplateCache`](crate::TemplateCache) compiles through. The cache
//!   keeps the concurrency story (per-key once-compile slots, hit/miss
//!   accounting); stores keep bytes.
//! * [`MemoryStore`] — the in-process tier: sharded maps, optional LRU
//!   bound, exact eviction counters (the storage half of the pre-refactor
//!   `TemplateCache`).
//! * [`DiskStore`] — the spill tier: one `<fingerprint>.fqt.json` file
//!   per artifact, written temp-then-rename (atomic on POSIX renames), so
//!   readers never observe a half-written artifact. Corrupt, truncated or
//!   version-skewed files are treated as **misses, never errors** — the
//!   worst a bad cache file can cause is a recompile.
//! * [`TieredStore`] — memory over disk: write-through on insert (that is
//!   what makes a restart warm), promote on spill-tier hit, demote on LRU
//!   eviction.
//!
//! Fingerprints are stable FNV-1a hashes of everything that determines
//! the compiled artifact (sub-circuit shape, device identity and
//! calibration, layer count, compile options) — deliberately *not*
//! `DefaultHasher`, whose output Rust does not promise across versions;
//! an on-disk cache and a peer shard must agree on names across builds.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;

use fq_transpile::{CompileOptions, Device};
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
// Stable hashing
// --------------------------------------------------------------------

/// A stable 64-bit FNV-1a hasher. Template fingerprints name files on
/// disk and artifacts on the wire (and scenario-suite fingerprints name
/// corpus entries across runs), so they must not depend on
/// `DefaultHasher`'s unstable algorithm.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// A stable fingerprint of every device property that layout, routing,
/// scheduling or the noise models read: topology, per-edge CNOT errors,
/// per-qubit readout errors and coherence times, and gate durations.
/// Two same-named but differently calibrated devices get different
/// fingerprints, so their templates can never collide — in memory, on
/// disk, or across shards.
pub(crate) fn device_fingerprint(device: &Device) -> u64 {
    let mut h = Fnv64::new();
    let n = device.num_qubits();
    h.write_usize(n);
    for &(a, b) in device.topology().edges() {
        h.write_usize(a);
        h.write_usize(b);
        h.write_f64(device.cnot_error(a, b));
    }
    for q in 0..n {
        h.write_f64(device.readout_error(q));
        h.write_f64(device.t1_us(q));
        h.write_f64(device.t2_us(q));
    }
    let durations = device.durations();
    h.write_f64(durations.single_ns);
    h.write_f64(durations.cx_ns);
    h.write_f64(durations.readout_ns);
    h.finish()
}

/// A borrowed device together with its [`device_fingerprint`], computed
/// once per job instead of once per branch: the hash walks the whole
/// calibration byte by byte, a large share of a warm fast-tier branch's
/// cost.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeyedDevice<'a> {
    device: &'a Device,
    fingerprint: u64,
}

impl<'a> KeyedDevice<'a> {
    pub(crate) fn new(device: &'a Device) -> KeyedDevice<'a> {
        KeyedDevice {
            device,
            fingerprint: device_fingerprint(device),
        }
    }

    pub(crate) fn device(&self) -> &'a Device {
        self.device
    }

    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

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
            device_fingerprint: device_fingerprint(device),
            layers,
            options,
        }
    }

    /// The sub-circuit shape.
    #[must_use]
    pub fn shape(&self) -> &ShapeSignature {
        &self.shape
    }

    /// The device name the template was compiled for.
    #[must_use]
    pub fn device_name(&self) -> &str {
        &self.device
    }

    /// The QAOA layer count.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The compile options.
    #[must_use]
    pub fn options(&self) -> CompileOptions {
        self.options
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

/// Operation counters of a [`TemplateStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreStats {
    /// Templates evicted from the primary (memory) tier by its LRU bound.
    pub evictions: u64,
    /// Templates resident in the primary tier.
    pub len: usize,
    /// The primary tier's LRU bound, if one is set.
    pub capacity: Option<usize>,
    /// Artifacts written to the spill tier.
    pub spills: u64,
    /// Spill-tier hits promoted into the primary tier.
    pub promotions: u64,
    /// Artifacts resident in the spill tier.
    pub spill_len: usize,
}

impl StoreStats {
    /// Distinct artifacts resident across both tiers. The primary tier
    /// is written through to the spill tier, so the larger tier holds
    /// every artifact and one held in both counts once.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.len.max(self.spill_len)
    }
}

/// Where compiled templates live — the storage seam behind
/// [`TemplateCache`](crate::TemplateCache).
///
/// The cache owns concurrency (per-key once-compile slots) and hit/miss
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

    /// Exact operation counters.
    fn stats(&self) -> StoreStats;
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

/// The in-process tier: sharded hash maps with an optional LRU bound and
/// exact eviction counters — the storage behavior the pre-refactor
/// `TemplateCache` carried inline.
#[derive(Debug)]
pub struct MemoryStore {
    shards: Vec<RwLock<HashMap<TemplateKey, MemEntry>>>,
    capacity: Option<usize>,
    /// Monotonic logical clock stamping every access for LRU ordering.
    clock: AtomicU64,
    resident: AtomicUsize,
    evictions: AtomicU64,
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
        }
    }

    /// An empty store holding at most `capacity` templates, evicting the
    /// least-recently-used beyond that. `capacity = 0` disables retention
    /// entirely (every insert is immediately evicted) — legal, but only
    /// useful for measuring the uncached baseline.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> MemoryStore {
        MemoryStore {
            capacity: Some(capacity),
            ..MemoryStore::new()
        }
    }

    fn shard_of(&self, key: &TemplateKey) -> usize {
        // The raw hash, not the formatted string: fetches run once per
        // planned sub-problem unit and must not allocate.
        (key.fingerprint_u64() as usize) % self.shards.len()
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Inserts and returns whatever the LRU bound evicted to make room —
    /// the hook [`TieredStore`] uses to demote evictees to its spill
    /// tier.
    pub(crate) fn insert_evicting(
        &self,
        key: &TemplateKey,
        template: &CompiledTemplate,
    ) -> Vec<(TemplateKey, CompiledTemplate)> {
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
        self.enforce_capacity()
    }

    /// Evicts least-recently-used templates until the resident count
    /// respects the bound, returning the evicted pairs.
    fn enforce_capacity(&self) -> Vec<(TemplateKey, CompiledTemplate)> {
        let Some(capacity) = self.capacity else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
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
                return evicted;
            };
            let mut map = self.shards[si].write().expect("store shard lock");
            // A concurrent evictor may have removed it already; the loop
            // then simply rescans.
            if let Some(entry) = map.remove(&key) {
                self.resident.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted.push((key, entry.template));
            }
        }
        evicted
    }
}

impl TemplateStore for MemoryStore {
    fn fetch(&self, key: &TemplateKey) -> Option<CompiledTemplate> {
        let map = self.shards[self.shard_of(key)]
            .read()
            .expect("store shard lock");
        let entry = map.get(key)?;
        entry.last_used.store(self.stamp(), Ordering::Relaxed);
        Some(entry.template.clone())
    }

    fn insert(&self, key: &TemplateKey, template: &CompiledTemplate) {
        self.insert_evicting(key, template);
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
        None
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
        entries
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.resident.load(Ordering::Relaxed),
            capacity: self.capacity,
            ..StoreStats::default()
        }
    }
}

// --------------------------------------------------------------------
// DiskStore
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

/// The spill tier: one `<fingerprint>.fqt.json` artifact per file.
///
/// Writes go to a temp file in the same directory and are renamed into
/// place, so a concurrent reader (or a crash mid-write) can never observe
/// a half-written artifact. Reads that fail for any reason — missing or
/// unreadable file, corrupt JSON, version skew, fingerprint/key
/// mismatch — are misses; writes that fail are dropped. A disk cache can
/// cost recompiles, never correctness.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    spills: AtomicU64,
}

/// Temp-file sequence shared by every [`DiskStore`] in the process: two
/// stores over the same directory (e.g. two runners sharing one cache
/// dir) must never collide on an in-flight temp name, or one could
/// rename the other's half-written bytes into place.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl DiskStore {
    /// Opens (creating if needed) the spill directory.
    ///
    /// # Errors
    ///
    /// Returns [`FqError::Io`] when the directory cannot be created —
    /// the one storage error worth surfacing, because it means the
    /// operator's `--cache-dir` can never work.
    pub fn new(dir: impl AsRef<Path>) -> Result<DiskStore, FqError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| FqError::Io(format!("creating cache dir `{}`: {e}", dir.display())))?;
        Ok(DiskStore {
            dir,
            spills: AtomicU64::new(0),
        })
    }

    /// The spill directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, fingerprint: &str) -> PathBuf {
        self.dir.join(format!("{fingerprint}{ARTIFACT_SUFFIX}"))
    }

    /// Whether an artifact file for `fingerprint` exists (it may still
    /// turn out corrupt on read).
    pub(crate) fn contains(&self, fingerprint: &str) -> bool {
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
}

impl TemplateStore for DiskStore {
    fn fetch(&self, key: &TemplateKey) -> Option<CompiledTemplate> {
        let artifact = self.read(&key.fingerprint())?;
        // A fingerprint collision (or tampered file) must not hand a
        // different shape's template to this key.
        (artifact.key() == key).then(|| artifact.template().clone())
    }

    fn insert(&self, key: &TemplateKey, template: &CompiledTemplate) {
        self.write(&TemplateArtifact::new(key.clone(), template.clone()));
    }

    fn fetch_fingerprint(&self, fingerprint: &str) -> Option<TemplateArtifact> {
        self.read(fingerprint)
    }

    fn index(&self) -> Vec<TemplateIndexEntry> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out: Vec<TemplateIndexEntry> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name();
                let fingerprint = name.to_str()?.strip_suffix(ARTIFACT_SUFFIX)?.to_string();
                is_template_fingerprint(&fingerprint).then(|| {
                    // Recency from mtime, comparable within this listing.
                    let last_used = e
                        .metadata()
                        .ok()
                        .and_then(|m| m.modified().ok())
                        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                        .map_or(0, |d| d.as_secs());
                    TemplateIndexEntry {
                        fingerprint,
                        last_used,
                    }
                })
            })
            .collect();
        out.sort_by(|a, b| {
            b.last_used
                .cmp(&a.last_used)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        out
    }

    fn stats(&self) -> StoreStats {
        let files = self.file_count();
        StoreStats {
            len: files,
            spills: self.spills.load(Ordering::Relaxed),
            spill_len: files,
            ..StoreStats::default()
        }
    }
}

// --------------------------------------------------------------------
// TieredStore
// --------------------------------------------------------------------

/// Memory over disk: the tier composition behind `--cache-dir`.
///
/// * **insert** writes through: the template lands in memory *and* on
///   disk, so a restarted process (or a sibling shard mounting the same
///   directory) finds every template ever compiled, not just the ones
///   the LRU bound happened to push out.
/// * **fetch** promotes: a memory miss that hits the spill tier re-seats
///   the template in memory (counted in
///   [`StoreStats::promotions`]).
/// * **LRU eviction** demotes: templates the memory bound pushes out are
///   (re-)spilled if their artifact file has vanished, so the union of
///   both tiers never shrinks below everything compiled.
#[derive(Debug)]
pub struct TieredStore {
    memory: MemoryStore,
    disk: DiskStore,
    promotions: AtomicU64,
}

impl TieredStore {
    /// Composes a memory tier over a disk spill tier.
    #[must_use]
    pub fn new(memory: MemoryStore, disk: DiskStore) -> TieredStore {
        TieredStore {
            memory,
            disk,
            promotions: AtomicU64::new(0),
        }
    }

    fn demote(&self, evicted: Vec<(TemplateKey, CompiledTemplate)>) {
        for (key, template) in evicted {
            if !self.disk.contains(&key.fingerprint()) {
                self.disk.insert(&key, &template);
            }
        }
    }
}

impl TemplateStore for TieredStore {
    fn fetch(&self, key: &TemplateKey) -> Option<CompiledTemplate> {
        if let Some(template) = self.memory.fetch(key) {
            return Some(template);
        }
        let template = self.disk.fetch(key)?;
        self.promotions.fetch_add(1, Ordering::Relaxed);
        self.demote(self.memory.insert_evicting(key, &template));
        Some(template)
    }

    fn insert(&self, key: &TemplateKey, template: &CompiledTemplate) {
        self.disk.insert(key, template);
        self.demote(self.memory.insert_evicting(key, template));
    }

    fn fetch_fingerprint(&self, fingerprint: &str) -> Option<TemplateArtifact> {
        self.memory
            .fetch_fingerprint(fingerprint)
            .or_else(|| self.disk.fetch_fingerprint(fingerprint))
    }

    fn index(&self) -> Vec<TemplateIndexEntry> {
        // Memory entries first (logical-clock recency), then spill-only
        // entries with stamp 0 — hottest-first within what one process
        // can know.
        let mut entries = self.memory.index();
        let hot: std::collections::HashSet<String> =
            entries.iter().map(|e| e.fingerprint.clone()).collect();
        for e in self.disk.index() {
            if !hot.contains(&e.fingerprint) {
                entries.push(TemplateIndexEntry {
                    fingerprint: e.fingerprint,
                    last_used: 0,
                });
            }
        }
        entries
    }

    fn stats(&self) -> StoreStats {
        let memory = self.memory.stats();
        let disk = self.disk.stats();
        StoreStats {
            evictions: memory.evictions,
            len: memory.len,
            capacity: memory.capacity,
            spills: disk.spills,
            promotions: self.promotions.load(Ordering::Relaxed),
            spill_len: disk.spill_len,
        }
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
                ..key.options()
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
        let disk = DiskStore::new(&dir).unwrap();
        let (key, template) = key_and_template(8, 4);
        assert!(disk.fetch(&key).is_none());
        disk.insert(&key, &template);
        assert_eq!(disk.fetch(&key).unwrap(), template);
        assert_eq!(disk.stats().spill_len, 1);

        // A second store over the same directory (the "restart") sees it.
        let restarted = DiskStore::new(&dir).unwrap();
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
        let disk = DiskStore::new(&dir).unwrap();
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
        let disk = DiskStore::new(&dir).unwrap();
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
        let store = TieredStore::new(MemoryStore::with_capacity(1), DiskStore::new(&dir).unwrap());
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
        let store = TieredStore::new(MemoryStore::with_capacity(0), DiskStore::new(&dir).unwrap());
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
        assert_eq!(key.options(), cfg.compile);
    }
}
