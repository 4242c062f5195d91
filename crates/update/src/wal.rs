//! The write-ahead edge log.
//!
//! ## File format
//!
//! ```text
//! magic    "MISWAL01"                              8 bytes
//! record*  each:
//!     tag      u8        0x01 insert | 0x02 delete | 0x03 epoch marker
//!     payload  insert/delete: varint u, varint v   (LEB128, see
//!              `mis_extmem::varint`)
//!              epoch marker:  varint epoch_id, varint op_count
//!     crc      u32 LE    FNV-1a over tag + payload bytes
//! ```
//!
//! An **epoch marker** is the commit point: the `op_count` edge records
//! since the previous marker become durable as epoch `epoch_id` the
//! moment the marker itself is fully on disk. Epoch ids are strictly
//! increasing but need not be dense — log compaction reseals an empty log
//! with a marker carrying the pre-compaction epoch so numbering
//! continues.
//!
//! ## Torn-tail recovery
//!
//! [`Wal::open`] replays the file front to back, validating every
//! record's checksum and every marker's `epoch_id`/`op_count`. The first
//! torn (truncated mid-record), corrupt (checksum mismatch) or
//! inconsistent record ends the replay: everything after the last
//! complete epoch marker — including intact-but-uncommitted trailing edge
//! records — is physically truncated away, so the log always reopens to
//! exactly its last committed epoch.

use std::fs::{File, OpenOptions};
use std::io::{self, Cursor, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mis_extmem::varint::{read_varint, write_varint};
use mis_extmem::IoStats;
use mis_graph::VertexId;

use crate::atomic::atomic_replace;

/// Magic bytes identifying a write-ahead edge log.
pub const WAL_MAGIC: &[u8; 8] = b"MISWAL01";

pub(crate) const TAG_INSERT: u8 = 0x01;
pub(crate) const TAG_DELETE: u8 = 0x02;
pub(crate) const TAG_EPOCH: u8 = 0x03;

/// One logged edge operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert the undirected edge `(u, v)`.
    Insert(VertexId, VertexId),
    /// Delete the undirected edge `(u, v)`.
    Delete(VertexId, VertexId),
}

impl EdgeOp {
    /// The edge's endpoints.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            EdgeOp::Insert(u, v) | EdgeOp::Delete(u, v) => (u, v),
        }
    }

    /// Whether this is an insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeOp::Insert(..))
    }

    fn tag(&self) -> u8 {
        match self {
            EdgeOp::Insert(..) => TAG_INSERT,
            EdgeOp::Delete(..) => TAG_DELETE,
        }
    }
}

/// 32-bit FNV-1a, the per-record checksum (shared with the segment
/// files, which reuse the WAL's record framing).
pub(crate) fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Serialises one record (tag + payload + checksum) into a fresh buffer.
pub(crate) fn encode_record(tag: u8, fields: &[u64]) -> Vec<u8> {
    let mut rec = vec![tag];
    for &f in fields {
        write_varint(&mut rec, f).expect("vec write cannot fail");
    }
    let crc = fnv1a32(&rec);
    rec.extend_from_slice(&crc.to_le_bytes());
    rec
}

/// What [`Wal::open`] found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecovery {
    /// Last committed epoch id (0 when the log is empty).
    pub last_epoch: u64,
    /// Committed operations replayed.
    pub committed_ops: usize,
    /// Torn or uncommitted tail bytes truncated away.
    pub dropped_bytes: u64,
}

/// An open write-ahead edge log.
///
/// Appends buffer into the current (uncommitted) epoch;
/// [`Wal::commit_epoch`] seals them with an epoch marker and an
/// `fsync`-backed flush. All byte traffic is accounted in the shared
/// [`IoStats`] (`wal_bytes_written` / `wal_bytes_read`).
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    stats: Arc<IoStats>,
    /// Committed operations, stamped with their epoch.
    committed: Vec<(u64, EdgeOp)>,
    /// Operations appended since the last epoch marker.
    batch: Vec<EdgeOp>,
    last_epoch: u64,
    /// Current file length in bytes (= end of last complete record).
    len: u64,
    /// Set when a failed write could not be rolled back: the on-disk
    /// tail may hold garbage, so further writes are refused (reopening
    /// the log recovers it).
    poisoned: bool,
}

impl Wal {
    /// Opens (or creates) the log at `path`, replaying and recovering it.
    pub fn open(path: &Path, stats: Arc<IoStats>) -> io::Result<(Self, WalRecovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let disk_len = file.metadata()?.len();
        if disk_len == 0 {
            file.write_all(WAL_MAGIC)?;
            stats.record_wal_write(WAL_MAGIC.len() as u64);
            let wal = Self {
                file,
                path: path.to_path_buf(),
                stats,
                committed: Vec::new(),
                batch: Vec::new(),
                last_epoch: 0,
                len: WAL_MAGIC.len() as u64,
                poisoned: false,
            };
            let report = WalRecovery {
                last_epoch: 0,
                committed_ops: 0,
                dropped_bytes: 0,
            };
            return Ok((wal, report));
        }

        let mut buf = Vec::with_capacity(disk_len as usize);
        file.seek(SeekFrom::Start(0))?;
        io::Read::read_to_end(&mut file, &mut buf)?;
        stats.record_wal_read(buf.len() as u64);
        if buf.len() < WAL_MAGIC.len() || &buf[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(corrupt("not a write-ahead edge log"));
        }

        let (committed, last_epoch, committed_len) = replay(&buf);
        let dropped = disk_len - committed_len;
        if dropped > 0 {
            file.set_len(committed_len)?;
        }
        file.seek(SeekFrom::Start(committed_len))?;
        let report = WalRecovery {
            last_epoch,
            committed_ops: committed.len(),
            dropped_bytes: dropped,
        };
        let wal = Self {
            file,
            path: path.to_path_buf(),
            stats,
            committed,
            batch: Vec::new(),
            last_epoch,
            len: committed_len,
            poisoned: false,
        };
        Ok((wal, report))
    }

    /// Refuses writes after an unrecovered failed write.
    fn check_poisoned(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "wal poisoned by an earlier failed write; reopen the log to recover",
            ));
        }
        Ok(())
    }

    /// Writes one whole record at the current tail. On failure the tail
    /// is rolled back to the last complete record so a later commit
    /// cannot seal partially-written garbage; if even the rollback fails
    /// the log is poisoned until reopened.
    fn write_record(&mut self, rec: &[u8]) -> io::Result<()> {
        match self.file.write_all(rec) {
            Ok(()) => {
                self.stats.record_wal_write(rec.len() as u64);
                self.len += rec.len() as u64;
                Ok(())
            }
            Err(e) => {
                let rolled_back = self
                    .file
                    .set_len(self.len)
                    .and_then(|()| self.file.seek(SeekFrom::Start(self.len)))
                    .is_ok();
                if !rolled_back {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Appends one operation to the current (uncommitted) epoch.
    pub fn append(&mut self, op: EdgeOp) -> io::Result<()> {
        self.check_poisoned()?;
        // Clock reads only while tracing: appends are the WAL hot path.
        let start = mis_obs::enabled().then(std::time::Instant::now);
        let (u, v) = op.endpoints();
        let rec = encode_record(op.tag(), &[u64::from(u), u64::from(v)]);
        self.write_record(&rec)?;
        self.batch.push(op);
        if let Some(start) = start {
            mis_obs::observe_ns("wal", "wal.append", start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Seals the appended operations as a new epoch: writes the epoch
    /// marker, syncs the file, and returns the epoch id. Committing an
    /// empty batch is allowed (a pure marker).
    pub fn commit_epoch(&mut self) -> io::Result<u64> {
        let _span = mis_obs::span("wal", "wal.commit");
        self.check_poisoned()?;
        let epoch = self.last_epoch + 1;
        let rec = encode_record(TAG_EPOCH, &[epoch, self.batch.len() as u64]);
        self.write_record(&rec)?;
        if let Err(e) = self.file.sync_data() {
            // Durability of the marker is unknown; roll the tail back so
            // the in-memory state never claims more than the disk holds.
            let marker_start = self.len - rec.len() as u64;
            if self
                .file
                .set_len(marker_start)
                .and_then(|()| self.file.seek(SeekFrom::Start(marker_start)))
                .is_ok()
            {
                self.len = marker_start;
            } else {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.last_epoch = epoch;
        self.committed
            .extend(self.batch.drain(..).map(|op| (epoch, op)));
        Ok(epoch)
    }

    /// All committed operations, stamped with their epoch, oldest first.
    pub fn committed(&self) -> &[(u64, EdgeOp)] {
        &self.committed
    }

    /// Committed operations with epoch strictly greater than `epoch`.
    pub fn committed_after(&self, epoch: u64) -> impl Iterator<Item = &(u64, EdgeOp)> {
        self.committed.iter().filter(move |(e, _)| *e > epoch)
    }

    /// Last committed epoch id (0 when none).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Operations appended but not yet sealed by an epoch marker.
    pub fn uncommitted_ops(&self) -> usize {
        self.batch.len()
    }

    /// Log size in bytes (committed records only; uncommitted appends are
    /// included until the next recovery drops them).
    pub fn disk_bytes(&self) -> u64 {
        self.len
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Truncates the log after compaction: every committed record is
    /// merged into the new base file, so the log restarts empty — resealed
    /// with a zero-op marker carrying the current epoch, which keeps epoch
    /// numbering monotone across the compaction.
    ///
    /// The fresh log is written beside the old one and renamed over it,
    /// so a crash at any point leaves either the full pre-compaction log
    /// or the sealed empty one — never a torn in-between.
    pub fn reset_after_compaction(&mut self) -> io::Result<()> {
        let mut fresh: Vec<u8> = WAL_MAGIC.to_vec();
        if self.last_epoch > 0 {
            fresh.extend_from_slice(&encode_record(TAG_EPOCH, &[self.last_epoch, 0]));
        }
        atomic_replace(&self.path.with_extension("wal.tmp"), &self.path, |tmp| {
            std::fs::write(tmp, &fresh)
        })?;
        // Swap the open handle to the renamed file.
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.stats.record_wal_write(fresh.len() as u64);
        self.len = fresh.len() as u64;
        self.committed.clear();
        self.batch.clear();
        self.poisoned = false;
        Ok(())
    }
}

/// Replays `buf` (which starts with a valid magic), returning the
/// committed ops, the last epoch id, and the byte length of the longest
/// valid committed prefix.
fn replay(buf: &[u8]) -> (Vec<(u64, EdgeOp)>, u64, u64) {
    let mut committed: Vec<(u64, EdgeOp)> = Vec::new();
    let mut batch: Vec<EdgeOp> = Vec::new();
    let mut last_epoch = 0u64;
    let mut committed_len = WAL_MAGIC.len() as u64;
    let mut pos = WAL_MAGIC.len();

    while pos < buf.len() {
        let start = pos;
        let tag = buf[pos];
        pos += 1;
        let mut cur = Cursor::new(&buf[pos..]);
        let fields = (|| -> io::Result<(u64, u64)> {
            let a = read_varint(&mut cur)?;
            let b = read_varint(&mut cur)?;
            Ok((a, b))
        })();
        let Ok((a, b)) = fields else {
            break; // torn mid-payload
        };
        pos += cur.position() as usize;
        let Some(crc_bytes) = buf.get(pos..pos + 4) else {
            break; // torn mid-checksum
        };
        let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte slice"));
        if crc != fnv1a32(&buf[start..pos]) {
            break; // corrupt record
        }
        pos += 4;

        match tag {
            TAG_INSERT | TAG_DELETE => {
                let (Ok(u), Ok(v)) = (VertexId::try_from(a), VertexId::try_from(b)) else {
                    break; // ids overflow u32: treat as corruption
                };
                batch.push(if tag == TAG_INSERT {
                    EdgeOp::Insert(u, v)
                } else {
                    EdgeOp::Delete(u, v)
                });
            }
            TAG_EPOCH => {
                // Epoch ids are strictly increasing (not necessarily
                // dense: compaction reseals with the old epoch), and the
                // marker's op count must match what we replayed.
                if a <= last_epoch || b != batch.len() as u64 {
                    break;
                }
                last_epoch = a;
                committed.extend(batch.drain(..).map(|op| (a, op)));
                committed_len = pos as u64;
            }
            _ => break, // unknown tag
        }
    }
    (committed, last_epoch, committed_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_extmem::ScratchDir;

    fn open(dir: &ScratchDir, name: &str) -> (Wal, WalRecovery, Arc<IoStats>) {
        let stats = IoStats::shared();
        let (wal, rec) = Wal::open(&dir.file(name), Arc::clone(&stats)).unwrap();
        (wal, rec, stats)
    }

    #[test]
    fn round_trip_two_epochs() {
        let dir = ScratchDir::new("wal-rt").unwrap();
        let path = dir.file("log.wal");
        {
            let (mut wal, rec, stats) = open(&dir, "log.wal");
            assert_eq!(
                rec,
                WalRecovery {
                    last_epoch: 0,
                    committed_ops: 0,
                    dropped_bytes: 0
                }
            );
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.append(EdgeOp::Delete(3, 4)).unwrap();
            assert_eq!(wal.uncommitted_ops(), 2);
            assert_eq!(wal.commit_epoch().unwrap(), 1);
            assert_eq!(wal.uncommitted_ops(), 0);
            wal.append(EdgeOp::Insert(5, 6)).unwrap();
            assert_eq!(wal.commit_epoch().unwrap(), 2);
            assert!(stats.snapshot().wal_bytes_written > 8);
        }
        let (wal, rec, stats) = {
            let stats = IoStats::shared();
            let (wal, rec) = Wal::open(&path, Arc::clone(&stats)).unwrap();
            (wal, rec, stats)
        };
        assert_eq!(rec.last_epoch, 2);
        assert_eq!(rec.committed_ops, 3);
        assert_eq!(rec.dropped_bytes, 0);
        assert_eq!(
            wal.committed(),
            &[
                (1, EdgeOp::Insert(1, 2)),
                (1, EdgeOp::Delete(3, 4)),
                (2, EdgeOp::Insert(5, 6)),
            ]
        );
        assert_eq!(wal.committed_after(1).count(), 1);
        assert_eq!(stats.snapshot().wal_bytes_read, wal.disk_bytes());
    }

    #[test]
    fn torn_tail_record_recovers_to_last_epoch() {
        let dir = ScratchDir::new("wal-torn").unwrap();
        let path = dir.file("log.wal");
        let full_len;
        {
            let (mut wal, _, _) = open(&dir, "log.wal");
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.commit_epoch().unwrap();
            wal.append(EdgeOp::Insert(7, 8)).unwrap();
            wal.commit_epoch().unwrap();
            full_len = wal.disk_bytes();
        }
        // Simulate a torn write: chop 1..14 bytes off the tail, which
        // always lands inside epoch 2's records (7 bytes of edge record
        // plus a 7-byte marker).
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, full_len);
        for cut in 1..14 {
            std::fs::write(&path, &bytes[..bytes.len() - cut]).unwrap();
            let (wal, rec) = Wal::open(&path, IoStats::shared()).unwrap();
            assert_eq!(rec.last_epoch, 1, "cut {cut}");
            assert_eq!(wal.committed(), &[(1, EdgeOp::Insert(1, 2))]);
            assert!(rec.dropped_bytes > 0);
            // Recovery physically truncated the torn tail.
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                wal.disk_bytes(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn corrupt_checksum_drops_the_epoch() {
        let dir = ScratchDir::new("wal-crc").unwrap();
        let path = dir.file("log.wal");
        let epoch1_len;
        {
            let (mut wal, _, _) = open(&dir, "log.wal");
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.commit_epoch().unwrap();
            epoch1_len = wal.disk_bytes();
            wal.append(EdgeOp::Insert(3, 4)).unwrap();
            wal.commit_epoch().unwrap();
        }
        // Flip one byte inside epoch 2's first record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[epoch1_len as usize + 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (wal, rec) = Wal::open(&path, IoStats::shared()).unwrap();
        assert_eq!(rec.last_epoch, 1);
        assert_eq!(wal.committed().len(), 1);
    }

    #[test]
    fn uncommitted_appends_are_dropped_on_reopen() {
        let dir = ScratchDir::new("wal-uncommitted").unwrap();
        let path = dir.file("log.wal");
        {
            let (mut wal, _, _) = open(&dir, "log.wal");
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.commit_epoch().unwrap();
            // Appended, never sealed: not durable.
            wal.append(EdgeOp::Insert(9, 9)).unwrap();
        }
        let (wal, rec) = Wal::open(&path, IoStats::shared()).unwrap();
        assert_eq!(rec.last_epoch, 1);
        assert_eq!(wal.committed().len(), 1);
        assert!(rec.dropped_bytes > 0);
    }

    #[test]
    fn reset_after_compaction_preserves_epoch_numbering() {
        let dir = ScratchDir::new("wal-reset").unwrap();
        let path = dir.file("log.wal");
        {
            let (mut wal, _, _) = open(&dir, "log.wal");
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.commit_epoch().unwrap();
            wal.append(EdgeOp::Delete(1, 2)).unwrap();
            wal.commit_epoch().unwrap();
            wal.reset_after_compaction().unwrap();
            assert_eq!(wal.committed().len(), 0);
            assert_eq!(wal.last_epoch(), 2);
        }
        let (mut wal, rec) = Wal::open(&path, IoStats::shared()).unwrap();
        assert_eq!(rec.last_epoch, 2);
        assert_eq!(rec.committed_ops, 0);
        // Numbering continues after the seal.
        wal.append(EdgeOp::Insert(5, 6)).unwrap();
        assert_eq!(wal.commit_epoch().unwrap(), 3);
    }

    #[test]
    fn garbage_file_is_rejected() {
        let dir = ScratchDir::new("wal-bad").unwrap();
        let path = dir.file("bad.wal");
        std::fs::write(&path, b"NOTAWALFILE").unwrap();
        let err = Wal::open(&path, IoStats::shared()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_tag_ends_replay() {
        let dir = ScratchDir::new("wal-tag").unwrap();
        let path = dir.file("log.wal");
        {
            let (mut wal, _, _) = open(&dir, "log.wal");
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.commit_epoch().unwrap();
        }
        // Append a record with a bogus tag but a valid checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_record(0x7F, &[1, 1]));
        std::fs::write(&path, &bytes).unwrap();
        let (wal, rec) = Wal::open(&path, IoStats::shared()).unwrap();
        assert_eq!(rec.last_epoch, 1);
        assert_eq!(wal.committed().len(), 1);
        assert!(rec.dropped_bytes > 0);
    }
}
