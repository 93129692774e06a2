//! Recovery: opening a durable store from whatever a crash left on disk.
//!
//! The protocol, in order:
//!
//! 1. Load the image if one exists (its checksum, format version and seed
//!    are all verified) and rebuild the store from it; otherwise start from
//!    an empty store with the requested seed.
//! 2. Scan the journal. A torn or corrupt tail frame — the signature of a
//!    crash mid-append — marks the end of the committed prefix; the file is
//!    truncated back to it. Header damage is a hard error: that is not a
//!    torn tail but the wrong file.
//! 3. Replay every scanned record. Records already covered by the image
//!    (epoch at or below the restored shard's) are skipped; every other
//!    record runs its kind's live commit path, which must derive exactly
//!    the journaled record or recovery fails detectably — it never serves
//!    a state it cannot prove.
//! 4. Attach the journal and checkpoint: the replayed history is folded
//!    into a fresh image and the journal resets to its header. A crash
//!    *during* this checkpoint is also safe — the image write is atomic
//!    (tmp + rename), and the journal is only truncated after the rename.
//!
//! The same call also performs first-time initialization: with no files on
//! disk it produces an empty store, a header-only journal, and an initial
//! image.

use super::image::StoreImage;
use super::journal::{scan_journal, Journal};
use crate::store::BlockStore;
use crate::StoreError;
use std::path::{Path, PathBuf};

fn io(what: &str, e: std::io::Error) -> StoreError {
    StoreError::Persist(format!("{what}: {e}"))
}

/// File layout of a durable store directory: one image, one journal.
#[derive(Debug, Clone)]
pub struct PersistPaths {
    root: PathBuf,
}

impl PersistPaths {
    /// The layout rooted at `root`.
    pub fn new(root: &Path) -> PersistPaths {
        PersistPaths {
            root: root.to_path_buf(),
        }
    }

    /// The store image (snapshot) file.
    pub fn image(&self) -> PathBuf {
        self.root.join("store.image")
    }

    /// The write-ahead journal file.
    pub fn journal(&self) -> PathBuf {
        self.root.join("store.journal")
    }
}

/// Opens the durable store rooted at `dir`, recovering from any crash:
/// latest valid image + committed journal suffix, torn tail truncated.
/// Creates the directory, an empty store, and fresh persistence files when
/// nothing exists yet. On return the store serves exactly the pre-crash
/// committed prefix and journals every new commit.
///
/// # Errors
///
/// [`StoreError::Persist`] when the on-disk state is unusable: corrupt or
/// version-mismatched image, journal from a different archive (seed
/// mismatch), a replay that diverges from its journal records, or I/O
/// failure. Damage recovery *can* prove harmless — a torn journal tail, a
/// leftover temporary image — is repaired silently instead.
pub fn open_or_recover_store(dir: &Path, seed: u64) -> Result<BlockStore, StoreError> {
    std::fs::create_dir_all(dir).map_err(|e| io("create store directory", e))?;
    let paths = PersistPaths::new(dir);
    // A crash mid-snapshot can leave a temporary image behind; the real
    // image is only ever replaced by the atomic rename, so the leftover is
    // garbage by construction.
    let image_file = paths.image();
    let mut tmp_name = image_file.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = image_file.with_file_name(tmp_name);
    if tmp.exists() {
        std::fs::remove_file(&tmp).map_err(|e| io("remove stale image temp file", e))?;
    }
    let store = if image_file.exists() {
        let bytes = std::fs::read(&image_file).map_err(|e| io("read store image", e))?;
        let image = StoreImage::decode(&bytes)?;
        if image.seed != seed {
            return Err(StoreError::Persist(format!(
                "image belongs to archive seed {:#x}, expected {seed:#x}",
                image.seed
            )));
        }
        BlockStore::from_image(&image)?
    } else {
        BlockStore::new(seed)
    };
    let journal_path = paths.journal();
    let journal = if journal_path.exists() {
        let scan = scan_journal(&journal_path, seed)?;
        if scan.valid_len < scan.file_len {
            // Torn tail from a crash mid-append: cut it, keep the prefix.
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&journal_path)
                .map_err(|e| io("open journal for truncation", e))?;
            file.set_len(scan.valid_len)
                .and_then(|()| file.sync_all())
                .map_err(|e| io("truncate torn journal tail", e))?;
        }
        // Replay with no journal attached yet, so replayed commits do not
        // re-journal themselves.
        for record in &scan.records {
            store.replay_record(record)?;
        }
        Journal::open_append(&journal_path, seed)?
    } else {
        Journal::create(&journal_path, seed)?
    };
    store.attach_durability(journal, paths);
    // Fold the replayed history into a fresh image and reset the journal
    // (this also writes the initial image on first open).
    store.checkpoint()?;
    Ok(store)
}
