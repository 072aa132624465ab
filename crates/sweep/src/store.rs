//! The on-disk artifact store: content-addressed blobs plus an append-only
//! manifest.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/spec.txt            the canonical SweepSpec encoding
//! <root>/manifest.txt        append-only cell ledger (see below)
//! <root>/artifacts/<hex>.art content-addressed record blobs
//! ```
//!
//! Blobs are named by the stable hash of their bytes, so writing the same
//! record twice is a no-op and a resumed sweep can never produce a
//! different file for a cell it already completed. The manifest is the
//! single source of truth for sweep progress: one `cell` line per decided
//! cell, appended strictly in cell-index order by the engine's checkpoint
//! committer, never rewritten. Killing a sweep mid-flight therefore leaves
//! a valid store — the manifest simply ends early, and resume picks up at
//! the first unrecorded index.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use mapwave_harness::hash::{CacheKey, StableHasher};
use mapwave_harness::telemetry;

use crate::spec::SweepSpec;

/// Header of the manifest file (followed by the spec key).
const MANIFEST_HEADER_PREFIX: &str = "mapwave-sweep manifest v1 spec ";

/// The decided state of one cell, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellState {
    /// Completed: its record blob is `artifacts/<content_key>.art`.
    Ok {
        /// Content hash of the encoded record (also its blob filename).
        content_key: CacheKey,
        /// Length of the encoded record in bytes.
        len: u64,
    },
    /// Dead-lettered: the design flow rejected the cell's configuration.
    DeadLetter {
        /// Attempts made (the engine writes 1; stores written while it
        /// still retried cells may hold more).
        attempts: u32,
    },
}

/// One parsed manifest line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The cell's index in the spec's canonical enumeration.
    pub index: usize,
    /// The cell's semantic key ([`crate::spec::SweepCell::key`]).
    pub cell_key: CacheKey,
    /// The decided state.
    pub state: CellState,
}

/// A parsed manifest: the spec key it was written for and every decided
/// cell, keyed by index.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Key of the spec the manifest belongs to.
    pub spec_key: CacheKey,
    /// Decided cells by index.
    pub entries: BTreeMap<usize, ManifestEntry>,
}

impl Manifest {
    /// Number of completed cells.
    pub fn completed(&self) -> usize {
        self.entries
            .values()
            .filter(|e| matches!(e.state, CellState::Ok { .. }))
            .count()
    }

    /// Number of dead-lettered cells.
    pub fn dead_lettered(&self) -> usize {
        self.entries.len() - self.completed()
    }
}

fn hex_key(hex: &str) -> Result<CacheKey, String> {
    u128::from_str_radix(hex, 16)
        .map(CacheKey)
        .map_err(|e| format!("bad key {hex:?}: {e}"))
}

/// Stable content hash of a byte string (blob addressing).
pub fn content_key(bytes: &[u8]) -> CacheKey {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

/// A sweep store rooted at one directory.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if necessary) a store at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("artifacts"))?;
        Ok(ArtifactStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.txt")
    }

    /// Path of the persisted spec.
    pub fn spec_path(&self) -> PathBuf {
        self.root.join("spec.txt")
    }

    fn blob_path(&self, key: CacheKey) -> PathBuf {
        self.root
            .join("artifacts")
            .join(format!("{}.art", key.to_hex()))
    }

    /// Persists the sweep spec (no-op if an identical spec is already
    /// stored).
    ///
    /// # Errors
    ///
    /// Fails if a *different* spec is already stored at this root, or on
    /// I/O failure.
    pub fn write_spec(&self, spec: &SweepSpec) -> io::Result<()> {
        let text = spec.encode();
        match fs::read_to_string(self.spec_path()) {
            Ok(existing) if existing == text => Ok(()),
            Ok(_) => Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "store {} already holds a different sweep spec",
                    self.root.display()
                ),
            )),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                write_atomic(&self.spec_path(), text.as_bytes())
            }
            Err(e) => Err(e),
        }
    }

    /// Reads back the persisted sweep spec.
    ///
    /// # Errors
    ///
    /// Fails on I/O failure or a malformed spec file.
    pub fn read_spec(&self) -> io::Result<SweepSpec> {
        let text = fs::read_to_string(self.spec_path())?;
        SweepSpec::decode(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt spec at {}: {e}", self.spec_path().display()),
            )
        })
    }

    /// Writes `text` as a content-addressed blob and returns its key and
    /// byte length. Idempotent: re-writing identical content touches
    /// nothing.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn put_blob(&self, text: &str) -> io::Result<(CacheKey, u64)> {
        let key = content_key(text.as_bytes());
        let path = self.blob_path(key);
        if !path.exists() {
            write_atomic(&path, text.as_bytes())?;
        }
        Ok((key, text.len() as u64))
    }

    /// Reads a blob back and verifies its content hash. Counts
    /// `sweep.artifact_hits` on success — the telemetry signal that a
    /// query was answered from the store rather than by re-simulation.
    ///
    /// # Errors
    ///
    /// Fails on I/O failure or a hash mismatch (corrupt blob).
    pub fn read_blob(&self, key: CacheKey) -> io::Result<String> {
        let path = self.blob_path(key);
        let text = fs::read_to_string(&path)?;
        if content_key(text.as_bytes()) != key {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("artifact {} fails its content hash", path.display()),
            ));
        }
        telemetry::count("sweep.artifact_hits", 1);
        Ok(text)
    }

    /// Appends the manifest header (only valid on an empty manifest).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_manifest_header(&self, spec_key: CacheKey) -> io::Result<()> {
        append_line(
            &self.manifest_path(),
            &format!("{MANIFEST_HEADER_PREFIX}{}", spec_key.to_hex()),
        )
    }

    /// Appends one decided-cell line to the manifest.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append_manifest_entry(&self, entry: &ManifestEntry) -> io::Result<()> {
        let line = match entry.state {
            CellState::Ok { content_key, len } => format!(
                "cell {} {} ok {} {}",
                entry.index,
                entry.cell_key.to_hex(),
                content_key.to_hex(),
                len
            ),
            CellState::DeadLetter { attempts } => format!(
                "cell {} {} dlq {}",
                entry.index,
                entry.cell_key.to_hex(),
                attempts
            ),
        };
        append_line(&self.manifest_path(), &line)
    }

    /// Parses the manifest; `Ok(None)` if none has been written yet.
    ///
    /// # Errors
    ///
    /// Fails on I/O failure or a malformed manifest.
    pub fn load_manifest(&self) -> io::Result<Option<Manifest>> {
        let path = self.manifest_path();
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        parse_manifest(&text).map(Some).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt manifest at {}: {e}", path.display()),
            )
        })
    }
}

fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty manifest")?;
    let spec_hex = header
        .strip_prefix(MANIFEST_HEADER_PREFIX)
        .ok_or_else(|| format!("bad manifest header {header:?}"))?;
    let spec_key = hex_key(spec_hex)?;
    let mut entries = BTreeMap::new();
    for line in lines {
        let mut parts = line.split(' ');
        if parts.next() != Some("cell") {
            return Err(format!("bad manifest line {line:?}"));
        }
        let index: usize = parts
            .next()
            .ok_or("missing cell index")?
            .parse()
            .map_err(|e| format!("bad cell index in {line:?}: {e}"))?;
        let cell_key = hex_key(parts.next().ok_or("missing cell key")?)?;
        let state = match parts.next() {
            Some("ok") => CellState::Ok {
                content_key: hex_key(parts.next().ok_or("missing content key")?)?,
                len: parts
                    .next()
                    .ok_or("missing blob length")?
                    .parse()
                    .map_err(|e| format!("bad blob length in {line:?}: {e}"))?,
            },
            Some("dlq") => CellState::DeadLetter {
                attempts: parts
                    .next()
                    .ok_or("missing attempt count")?
                    .parse()
                    .map_err(|e| format!("bad attempt count in {line:?}: {e}"))?,
            },
            other => return Err(format!("bad cell state {other:?} in {line:?}")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing tokens in {line:?}"));
        }
        if entries
            .insert(
                index,
                ManifestEntry {
                    index,
                    cell_key,
                    state,
                },
            )
            .is_some()
        {
            return Err(format!("duplicate manifest entry for cell {index}"));
        }
    }
    Ok(Manifest { spec_key, entries })
}

/// `tmp + rename` write, so readers never observe a partial file.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

fn append_line(path: &Path, line: &str) -> io::Result<()> {
    use std::io::Write;
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("mapwave-sweep-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).expect("open store")
    }

    #[test]
    fn blobs_are_content_addressed_and_idempotent() {
        let store = temp_store("blob");
        let (k1, len) = store.put_blob("hello artifact").unwrap();
        let (k2, _) = store.put_blob("hello artifact").unwrap();
        assert_eq!(k1, k2);
        assert_eq!(len, 14);
        assert_eq!(store.read_blob(k1).unwrap(), "hello artifact");
        let (k3, _) = store.put_blob("different").unwrap();
        assert_ne!(k1, k3);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_blob_fails_its_hash() {
        let store = temp_store("corrupt");
        let (key, _) = store.put_blob("pristine bytes").unwrap();
        fs::write(store.blob_path(key), "tampered").unwrap();
        let err = store.read_blob(key).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn manifest_roundtrips() {
        let store = temp_store("manifest");
        assert!(store.load_manifest().unwrap().is_none());
        let spec_key = CacheKey(0xABCD);
        store.write_manifest_header(spec_key).unwrap();
        store
            .append_manifest_entry(&ManifestEntry {
                index: 0,
                cell_key: CacheKey(1),
                state: CellState::Ok {
                    content_key: CacheKey(2),
                    len: 99,
                },
            })
            .unwrap();
        store
            .append_manifest_entry(&ManifestEntry {
                index: 1,
                cell_key: CacheKey(3),
                state: CellState::DeadLetter { attempts: 4 },
            })
            .unwrap();
        let m = store.load_manifest().unwrap().expect("manifest exists");
        assert_eq!(m.spec_key, spec_key);
        assert_eq!(m.entries.len(), 2);
        assert_eq!(m.completed(), 1);
        assert_eq!(m.dead_lettered(), 1);
        assert_eq!(
            m.entries[&0].state,
            CellState::Ok {
                content_key: CacheKey(2),
                len: 99
            }
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn spec_conflicts_are_rejected() {
        let store = temp_store("spec");
        store.write_spec(&SweepSpec::smoke()).unwrap();
        store.write_spec(&SweepSpec::smoke()).unwrap(); // idempotent
        let err = store.write_spec(&SweepSpec::paper()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(store.read_spec().unwrap(), SweepSpec::smoke());
        let _ = fs::remove_dir_all(store.root());
    }
}
