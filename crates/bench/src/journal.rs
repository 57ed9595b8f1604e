//! Append-only JSONL sweep journal: the checkpoint-resume layer under
//! supervised campaigns.
//!
//! One line per completed job, flushed as the job lands, carrying the
//! job index, a human key (the spec label), the spec's config digest, the
//! attempt count, a status tag, the digest of the serialized slot, and
//! the slot itself. A resumed sweep restores every entry whose index,
//! key, and config digest still match the spec list and runs only the
//! rest — the merged output is byte-identical to an uninterrupted run
//! because slot serialization round-trips exactly (floats are written
//! in Rust's shortest round-trip form).
//!
//! A journal truncated mid-line (the process died inside a write) is
//! fine: the corrupt tail line fails to parse and its job simply
//! re-runs.

use crate::run::RunSpec;
use crate::supervisor::{slot_to_value, SlotResult};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a over a byte string (the workspace's standard content
/// digest; matches the determinism tests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Digest of a spec's full configuration (via its `Debug` form, which
/// covers every field including the link). Two specs with the same
/// digest produce the same run, so a journal entry is only restored
/// when its recorded digest still matches.
pub fn spec_digest(spec: &RunSpec) -> u64 {
    fnv1a(format!("{spec:?}").as_bytes())
}

/// One journal line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Job index within the spec list.
    pub job: u64,
    /// Human-readable job key (the spec label).
    pub key: String,
    /// Hex FNV-1a digest of the spec configuration.
    pub config_digest: String,
    /// Attempts the job consumed.
    pub attempts: u64,
    /// `"ok"` or the failure kind (`panic`, `deadline`, `sim_budget`,
    /// `lost`).
    pub status: String,
    /// Hex FNV-1a digest of `slot` (integrity/debugging aid).
    pub result_digest: String,
    /// The serialized slot: `{"ok": ...}` or `{"err": ...}` JSON.
    pub slot: String,
}

/// Directory for named sweep journals: `<workspace>/target/experiments/journal`.
pub fn journal_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    p.push("target");
    p.push("experiments");
    p.push("journal");
    p
}

/// An open sweep journal: previously loaded entries plus an append
/// handle that flushes after every record.
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
    entries: BTreeMap<u64, JournalEntry>,
}

impl Journal {
    /// Start a fresh journal at `path`, truncating any previous one.
    pub fn fresh(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(Journal {
            path,
            file,
            entries: BTreeMap::new(),
        })
    }

    /// Open `path` for resumption: parse whatever valid lines exist
    /// (later entries for the same job win; corrupt or truncated lines
    /// are skipped) and append new records after them.
    pub fn resume(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut entries = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                if let Ok(entry) = serde_json::from_str::<JournalEntry>(line) {
                    entries.insert(entry.job, entry);
                }
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Journal {
            path,
            file,
            entries,
        })
    }

    /// Open the named journal under [`journal_dir`]: resuming keeps
    /// prior entries, otherwise the file is truncated.
    pub fn for_bin(name: &str, resume: bool) -> std::io::Result<Journal> {
        let path = journal_dir().join(format!("{name}.jsonl"));
        if resume {
            Journal::resume(path)
        } else {
            Journal::fresh(path)
        }
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Entries loaded at open (plus any recorded since), by job index.
    pub fn entries(&self) -> impl Iterator<Item = (&u64, &JournalEntry)> {
        self.entries.iter()
    }

    /// Number of entries currently known.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append one completed job and flush it to disk before returning.
    /// A full disk or yanked volume must not kill the campaign — the
    /// sweep's results are still merged in memory — so IO errors are
    /// reported to stderr rather than propagated.
    pub fn record(
        &mut self,
        job: u64,
        key: &str,
        config_digest: u64,
        attempts: u64,
        slot: &SlotResult,
    ) {
        let slot_json = match serde_json::to_string(&slot_to_value(slot)) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("journal: could not serialize job {job}: {e}");
                return;
            }
        };
        let entry = JournalEntry {
            job,
            key: key.to_string(),
            config_digest: format!("{config_digest:016x}"),
            attempts,
            status: match slot {
                Ok(_) => "ok".to_string(),
                Err(failure) => failure.error.kind().to_string(),
            },
            result_digest: format!("{:016x}", fnv1a(slot_json.as_bytes())),
            slot: slot_json,
        };
        match serde_json::to_string(&entry) {
            Ok(line) => {
                if let Err(e) = writeln!(self.file, "{line}").and_then(|()| self.file.flush()) {
                    eprintln!(
                        "journal: could not append job {job} to {}: {e}",
                        self.path.display()
                    );
                }
            }
            Err(e) => eprintln!("journal: could not serialize entry for job {job}: {e}"),
        }
        self.entries.insert(job, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_types::{JobError, JobFailure};

    fn tmp_path(name: &str) -> PathBuf {
        journal_dir().join(format!("test_{name}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn fnv1a_matches_known_vector() {
        // FNV-1a test vectors: empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn fresh_truncates_and_resume_restores() {
        let path = tmp_path("roundtrip");
        let failure: SlotResult = Err(JobFailure {
            error: JobError::Deadline { limit_ms: 9 },
            attempts: 3,
        });
        {
            let mut j = Journal::fresh(&path).expect("fresh");
            j.record(0, "a", 0x1234, 3, &failure);
            j.record(1, "b", 0x5678, 1, &failure);
        }
        {
            let j = Journal::resume(&path).expect("resume");
            assert_eq!(j.len(), 2);
            let entry = &j.entries[&0];
            assert_eq!(entry.key, "a");
            assert_eq!(entry.config_digest, format!("{:016x}", 0x1234));
            assert_eq!(entry.status, "deadline");
            assert_eq!(
                entry.result_digest,
                format!("{:016x}", fnv1a(entry.slot.as_bytes()))
            );
        }
        {
            let j = Journal::fresh(&path).expect("fresh again");
            assert!(j.is_empty());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_tail_line_is_skipped() {
        let path = tmp_path("corrupt");
        let failure: SlotResult = Err(JobFailure {
            error: JobError::Lost {
                message: "x".into(),
            },
            attempts: 2,
        });
        {
            let mut j = Journal::fresh(&path).expect("fresh");
            j.record(0, "a", 1, 2, &failure);
            j.record(1, "b", 2, 2, &failure);
        }
        // Chop the file mid-way through the last line, as a kill would.
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &text[..text.len() - 10]).expect("truncate");
        let j = Journal::resume(&path).expect("resume");
        assert_eq!(j.len(), 1, "only the intact line should survive");
        assert!(j.entries.contains_key(&0));
        let _ = std::fs::remove_file(&path);
    }
}
