//! The write-ahead journal: epoch-keyed commit records between snapshots.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! magic "DNABSJNL" | u32 FORMAT_VERSION | u64 seed      (20-byte header)
//! { u32 payload_len | u64 fnv64(payload) | payload }*   (one frame per commit)
//! ```
//!
//! Every committed mutation appends one frame and fsyncs it *before* the
//! commit is applied in memory. Records carry the shard's post-commit
//! epoch, so recovery can replay exactly the records strictly above the
//! snapshot's epoch, each of which must re-derive itself record for
//! record. A crash mid-append leaves a torn final frame, which
//! [`scan_journal`] detects (length or checksum mismatch) and recovery
//! truncates — the committed prefix before it is always intact.

use super::image::{decode_config, encode_config};
use super::{Dec, Enc, FORMAT_VERSION};
use crate::block::checksum64;
use crate::partition::PartitionConfig;
use crate::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes opening every journal file.
pub(crate) const JOURNAL_MAGIC: [u8; 8] = *b"DNABSJNL";

/// Length of the journal header: magic + format version + archive seed.
pub const JOURNAL_HEADER_LEN: u64 = 20;

fn io(what: &str, e: std::io::Error) -> StoreError {
    StoreError::Persist(format!("{what}: {e}"))
}

/// One committed mutation, as recorded in the journal.
///
/// Records that mutate a shard carry the shard's **post-commit epoch**;
/// recovery skips records at or below the restored shard's epoch and
/// asserts that replaying the rest re-derives each record exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A data partition was created and received the next free primer
    /// pair. Partition ids are allocated densely in creation order, so
    /// replaying creations in journal order reproduces the ids.
    CreatePartition {
        /// The id the new partition received.
        pid: u64,
        /// The configuration it was created with.
        config: PartitionConfig,
    },
    /// The shared DedicatedLog partition was created.
    CreateLogPartition {
        /// The id the log partition received.
        pid: u64,
        /// The configuration it was created with.
        config: PartitionConfig,
    },
    /// A whole-file bulk write into `pid` starting at `first_block`.
    WriteFile {
        /// Target partition.
        pid: u64,
        /// First block of the contiguous write.
        first_block: u64,
        /// The raw file bytes, exactly as passed to the store.
        data: Vec<u8>,
        /// The shard's epoch after this commit.
        epoch: u64,
    },
    /// An update committed against block `block` of `pid` (any layout —
    /// for DedicatedLog the *target* shard's epoch is recorded; the log
    /// shard's own bookkeeping replays deterministically alongside).
    Update {
        /// Target partition.
        pid: u64,
        /// Updated block.
        block: u64,
        /// The full 256-byte post-update block image. Replay re-derives
        /// the patch by diffing against the pre-update logical image,
        /// which reproduces the original commit exactly.
        content: Vec<u8>,
        /// The target shard's epoch after this commit.
        epoch: u64,
    },
    /// A partition compaction committed (Interleaved / TwoStacks).
    Compact {
        /// Compacted partition.
        pid: u64,
        /// The shard's epoch after the compaction.
        epoch: u64,
    },
    /// The shared log was folded into its data partitions.
    CompactLog {
        /// The *log* shard's epoch after the fold.
        epoch: u64,
    },
    /// The DedicatedLog configuration template was replaced before the
    /// log partition existed. Without this record a configured-but-unused
    /// log config would silently revert to the default on recovery.
    SetLogConfig {
        /// The new template.
        config: PartitionConfig,
    },
}

impl JournalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            JournalRecord::CreatePartition { pid, config } => {
                e.u8(0);
                e.u64(*pid);
                encode_config(&mut e, config);
            }
            JournalRecord::CreateLogPartition { pid, config } => {
                e.u8(1);
                e.u64(*pid);
                encode_config(&mut e, config);
            }
            JournalRecord::WriteFile {
                pid,
                first_block,
                data,
                epoch,
            } => {
                e.u8(2);
                e.u64(*pid);
                e.u64(*first_block);
                e.bytes(data);
                e.u64(*epoch);
            }
            JournalRecord::Update {
                pid,
                block,
                content,
                epoch,
            } => {
                e.u8(3);
                e.u64(*pid);
                e.u64(*block);
                e.bytes(content);
                e.u64(*epoch);
            }
            JournalRecord::Compact { pid, epoch } => {
                e.u8(4);
                e.u64(*pid);
                e.u64(*epoch);
            }
            JournalRecord::CompactLog { epoch } => {
                e.u8(5);
                e.u64(*epoch);
            }
            JournalRecord::SetLogConfig { config } => {
                e.u8(6);
                encode_config(&mut e, config);
            }
        }
        e.buf
    }

    fn decode(bytes: &[u8]) -> Result<JournalRecord, StoreError> {
        let mut d = Dec::new(bytes);
        let record = match d.u8()? {
            0 => JournalRecord::CreatePartition {
                pid: d.u64()?,
                config: decode_config(&mut d)?,
            },
            1 => JournalRecord::CreateLogPartition {
                pid: d.u64()?,
                config: decode_config(&mut d)?,
            },
            2 => JournalRecord::WriteFile {
                pid: d.u64()?,
                first_block: d.u64()?,
                data: d.bytes()?,
                epoch: d.u64()?,
            },
            3 => JournalRecord::Update {
                pid: d.u64()?,
                block: d.u64()?,
                content: d.bytes()?,
                epoch: d.u64()?,
            },
            4 => JournalRecord::Compact {
                pid: d.u64()?,
                epoch: d.u64()?,
            },
            5 => JournalRecord::CompactLog { epoch: d.u64()? },
            6 => JournalRecord::SetLogConfig {
                config: decode_config(&mut d)?,
            },
            t => return Err(StoreError::Persist(format!("unknown record tag {t}"))),
        };
        if !d.finished() {
            return Err(StoreError::Persist(
                "trailing bytes after journal record".to_string(),
            ));
        }
        Ok(record)
    }
}

fn header_bytes(seed: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(JOURNAL_HEADER_LEN as usize);
    h.extend_from_slice(&JOURNAL_MAGIC);
    h.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    h.extend_from_slice(&seed.to_le_bytes());
    h
}

fn check_header(bytes: &[u8], expected_seed: u64) -> Result<(), StoreError> {
    if bytes.len() < JOURNAL_HEADER_LEN as usize {
        return Err(StoreError::Persist(format!(
            "journal too short for its header: {} bytes",
            bytes.len()
        )));
    }
    if bytes[..8] != JOURNAL_MAGIC {
        return Err(StoreError::Persist("bad journal magic".to_string()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::Persist(format!(
            "journal format version {version}, this build reads {FORMAT_VERSION}; \
             migration required"
        )));
    }
    let seed = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    if seed != expected_seed {
        return Err(StoreError::Persist(format!(
            "journal belongs to archive seed {seed:#x}, expected {expected_seed:#x}"
        )));
    }
    Ok(())
}

/// Result of validating a journal file: the decodable committed prefix.
#[derive(Debug)]
pub struct JournalScan {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + intact frames). Anything
    /// past it is a torn or corrupt tail that recovery truncates.
    pub valid_len: u64,
    /// Total bytes in the file — `valid_len < file_len` means a torn tail
    /// was detected.
    pub file_len: u64,
}

/// Reads and validates a journal file, stopping at the first torn or
/// corrupt frame.
///
/// # Errors
///
/// [`StoreError::Persist`] when the *header* is unreadable, damaged, from
/// another format version, or from a different archive seed — those are
/// not torn tails but wrong-file conditions that recovery must surface. A
/// damaged frame, by contrast, terminates the scan normally with
/// `valid_len` marking the committed prefix.
pub fn scan_journal(path: &Path, expected_seed: u64) -> Result<JournalScan, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| io("read journal", e))?;
    check_header(&bytes, expected_seed)?;
    let mut records = Vec::new();
    let mut pos = JOURNAL_HEADER_LEN as usize;
    let mut valid_len = pos as u64;
    while pos + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let Some(end) = pos.checked_add(12).and_then(|p| p.checked_add(len)) else {
            break; // corrupt length: torn tail
        };
        if end > bytes.len() {
            break; // frame extends past EOF: torn tail
        }
        let recorded = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let payload = &bytes[pos + 12..end];
        if recorded != checksum64(payload) {
            break; // corrupt frame: torn tail
        }
        match JournalRecord::decode(payload) {
            Ok(record) => records.push(record),
            Err(_) => break, // undecodable payload: torn tail
        }
        pos = end;
        valid_len = pos as u64;
    }
    Ok(JournalScan {
        records,
        valid_len,
        file_len: bytes.len() as u64,
    })
}

/// An open write-ahead journal. Appends are framed, checksummed and
/// fsync'd one commit at a time.
#[derive(Debug)]
pub struct Journal {
    file: File,
    /// Current byte length of the file (all appends go through us).
    written: u64,
    /// Testing-only crash injection: abort the process once the file
    /// would grow past this absolute byte offset, flushing the partial
    /// frame first to simulate a torn append.
    crash_after_bytes: Option<u64>,
}

impl Journal {
    /// Creates (truncating) a fresh journal containing only the header.
    ///
    /// # Errors
    ///
    /// [`StoreError::Persist`] on I/O failure.
    pub fn create(path: &Path, seed: u64) -> Result<Journal, StoreError> {
        let mut file = File::create(path).map_err(|e| io("create journal", e))?;
        let header = header_bytes(seed);
        file.write_all(&header)
            .and_then(|()| file.sync_all())
            .map_err(|e| io("write journal header", e))?;
        Ok(Journal {
            file,
            written: JOURNAL_HEADER_LEN,
            crash_after_bytes: None,
        })
    }

    /// Opens an existing journal for appending, validating its header.
    /// The caller (recovery) must already have truncated any torn tail.
    ///
    /// # Errors
    ///
    /// [`StoreError::Persist`] on I/O failure or a header that does not
    /// match this archive.
    pub fn open_append(path: &Path, expected_seed: u64) -> Result<Journal, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io("open journal", e))?;
        let mut header = vec![0u8; JOURNAL_HEADER_LEN as usize];
        file.read_exact(&mut header)
            .map_err(|e| io("read journal header", e))?;
        check_header(&header, expected_seed)?;
        let written = file
            .seek(SeekFrom::End(0))
            .map_err(|e| io("seek journal end", e))?;
        Ok(Journal {
            file,
            written,
            crash_after_bytes: None,
        })
    }

    /// Appends one record frame and fsyncs it. On return the record is
    /// durable; only then may the commit be acknowledged.
    ///
    /// # Errors
    ///
    /// [`StoreError::Persist`] on I/O failure. The in-memory commit has
    /// already happened at that point; the caller surfaces the ambiguous
    /// durability to the client (standard write-ahead semantics).
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), StoreError> {
        let payload = record.encode();
        let mut frame = Vec::with_capacity(payload.len() + 12);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if let Some(limit) = self.crash_after_bytes {
            if self.written + frame.len() as u64 > limit {
                // Simulated crash mid-append: persist the torn prefix,
                // then die without unwinding.
                let keep = limit.saturating_sub(self.written) as usize;
                let _ = self.file.write_all(&frame[..keep.min(frame.len())]);
                let _ = self.file.sync_all();
                std::process::abort();
            }
        }
        self.file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io("append journal record", e))?;
        self.written += frame.len() as u64;
        Ok(())
    }

    /// Resets the journal to just its header after a successful snapshot
    /// (all journaled state is now in the image).
    ///
    /// # Errors
    ///
    /// [`StoreError::Persist`] on I/O failure.
    pub fn truncate_to_header(&mut self) -> Result<(), StoreError> {
        self.file
            .set_len(JOURNAL_HEADER_LEN)
            .and_then(|()| self.file.seek(SeekFrom::End(0)))
            .and_then(|_| self.file.sync_all())
            .map_err(|e| io("truncate journal", e))?;
        self.written = JOURNAL_HEADER_LEN;
        Ok(())
    }

    /// Current byte length of the journal file.
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Arms (or disarms) the crash-injection knob: once the file would
    /// grow past `limit` absolute bytes, the next append flushes a torn
    /// prefix and aborts the process. **Testing only.**
    pub fn set_crash_after_bytes(&mut self, limit: Option<u64>) {
        self.crash_after_bytes = limit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::UpdateLayout;

    fn sample_records() -> Vec<JournalRecord> {
        let config = PartitionConfig::small(9, 2, UpdateLayout::paper_default());
        vec![
            JournalRecord::CreatePartition { pid: 0, config },
            JournalRecord::CreateLogPartition { pid: 1, config },
            JournalRecord::WriteFile {
                pid: 0,
                first_block: 4,
                data: b"file contents".to_vec(),
                epoch: 1,
            },
            JournalRecord::Update {
                pid: 0,
                block: 4,
                content: vec![0x7F; 256],
                epoch: 2,
            },
            JournalRecord::Compact { pid: 0, epoch: 3 },
            JournalRecord::CompactLog { epoch: 9 },
        ]
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dna-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn record_roundtrip() {
        for record in sample_records() {
            let decoded = JournalRecord::decode(&record.encode()).unwrap();
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let path = tmp_path("roundtrip.journal");
        let mut journal = Journal::create(&path, 42).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        let scan = scan_journal(&path, 42).unwrap();
        assert_eq!(scan.records, sample_records());
        assert_eq!(scan.valid_len, scan.file_len, "no torn tail");
        assert_eq!(scan.valid_len, journal.bytes_written());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_cut_at_every_offset() {
        let path = tmp_path("torn.journal");
        let mut journal = Journal::create(&path, 7).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        let full_scan = scan_journal(&path, 7).unwrap();
        // Truncating anywhere must yield a prefix of the records, never
        // garbage or an error (the header stays intact here).
        for cut in (JOURNAL_HEADER_LEN as usize..full.len()).step_by(5) {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_journal(&path, 7).unwrap();
            assert!(scan.records.len() <= full_scan.records.len());
            assert_eq!(
                scan.records,
                full_scan.records[..scan.records.len()],
                "cut at {cut}: scan must return a committed prefix"
            );
            assert!(scan.valid_len <= cut as u64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_frame_stops_the_scan() {
        let path = tmp_path("corrupt.journal");
        let mut journal = Journal::create(&path, 7).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the third frame's payload.
        let mut pos = JOURNAL_HEADER_LEN as usize;
        for _ in 0..2 {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 12 + len;
        }
        bytes[pos + 13] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_journal(&path, 7).unwrap();
        assert_eq!(scan.records, sample_records()[..2]);
        assert!(scan.valid_len < scan.file_len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_seed_or_version_is_an_error() {
        let path = tmp_path("header.journal");
        Journal::create(&path, 1).unwrap();
        assert!(scan_journal(&path, 2).is_err(), "seed mismatch");
        assert!(Journal::open_append(&path, 2).is_err());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = scan_journal(&path, 1).unwrap_err();
        assert!(err.to_string().contains("migration required"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_to_header_then_reopen() {
        let path = tmp_path("truncate.journal");
        let mut journal = Journal::create(&path, 3).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        journal.truncate_to_header().unwrap();
        assert_eq!(journal.bytes_written(), JOURNAL_HEADER_LEN);
        // New appends after the truncation land cleanly.
        journal
            .append(&JournalRecord::CompactLog { epoch: 1 })
            .unwrap();
        drop(journal);
        let scan = scan_journal(&path, 3).unwrap();
        assert_eq!(scan.records, vec![JournalRecord::CompactLog { epoch: 1 }]);
        let reopened = Journal::open_append(&path, 3).unwrap();
        assert_eq!(reopened.bytes_written(), scan.file_len);
        std::fs::remove_file(&path).ok();
    }
}
