//! The serving front end: a long-running update + query engine.
//!
//! [`ServeEngine`] is what the `mis serve` process wraps around an
//! [`UpdateStore`]: edge updates are **batched** into WAL epochs, the
//! maintained independent set is repaired **incrementally** per epoch,
//! and queries are answered from an epoch-pinned [`ServeView`] that
//! ingest never blocks.
//!
//! ## Batch-proportional flushes
//!
//! Each flush runs [`mis_core::repair_batch`] on the epoch's pinned
//! graph. It reads only the records the batch touches — the batch's
//! endpoints, the members that leave with their neighbours, the
//! vertices that join — in one storage-ordered [`SparseReader`] pass per
//! dependency step. The reader shares the record index of the query
//! path but not its pager: its block reads are ordinary accounted reads,
//! and the pager's frames stay with the readers. The engine keeps the
//! per-vertex IS-neighbour counts across epochs (4 bytes per vertex;
//! they come out of the bootstrap's proof scan), so candidates need no
//! scan, and a flush after a proved epoch proves its own result locally
//! from the records it read. So such a flush starts no full scan,
//! whatever `|V|`. An unproved previous epoch costs one proof scan; a
//! flush after a failed one also recounts with one scan and treats the
//! last published view as unproved, since the failed epoch's operations
//! are durable but were never repaired. The [`FlushReport`] and `STATS` report
//! the records, sparse passes and full scans each flush spent, and the
//! trace splits `serve.repair` into `repair.evict`, `repair.onek` and
//! `repair.proof`.
//!
//! ## Concurrency protocol
//!
//! The engine separates three concerns behind three locks:
//!
//! * `pending` — the submit queue. [`ServeEngine::submit`] validates and
//!   enqueues; nothing else happens on the submit path.
//! * `store` — the durable tier. [`ServeEngine::flush`] holds it only to
//!   append + roll + snapshot (cheap, bounded work) and again, briefly,
//!   to write the checkpoint. The **repair runs on the snapshot with no
//!   store lock held** — this is the no-stop-the-world property the
//!   `repro serve` experiment measures: readers keep answering and
//!   submitters keep queueing while the set is repaired.
//! * `view` — an `RwLock<Arc<ServeView>>`. Readers clone the `Arc` (two
//!   pointer bumps) and then work lock-free on an immutable view; a
//!   flush swaps in the next view when its epoch is durable. A caller
//!   holding an old `Arc<ServeView>` keeps a consistent picture of its
//!   epoch for as long as it likes — the snapshot machinery pins the
//!   segment files underneath ([`crate::snapshot::Snapshot`]).
//!
//! Flushes themselves are serialized by the mutex that holds the
//! IS-neighbour counts, so epochs commit and publish in order.
//!
//! Neighborhood queries go through one shared [`NeighborAccess`] point
//! path (plain, compressed or sharded — whatever backs the store), so
//! every reader draws from the same bounded pager budget, then merge the
//! pinned overlay via [`PinnedDelta::merge_neighbors`].

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use mis_core::{is_neighbour_counts, repair_batch, RepairConfig};
use mis_extmem::PagerConfig;
use mis_graph::{
    AnyAdjFile, GraphScan, NeighborAccess, OverlaidRecords, PinnedDelta, RandomAccessGraph,
    SparseReader, VertexId,
};
use mis_obs::{RequestStats, RequestSummary};

use crate::store::{RollPolicy, StoreStatus, UpdateStore};
use crate::wal::EdgeOp;

/// Tuning for a [`ServeEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Auto-flush once this many operations are pending.
    pub batch_ops: usize,
    /// Roll the WAL into a sealed segment every this many epochs.
    pub roll_epochs: u64,
    /// ... or once the active WAL reaches this many bytes.
    pub roll_bytes: u64,
    /// Merge sealed segments once this many are live.
    pub compact_threshold: usize,
    /// Per-epoch repair tuning (recover rounds, proof).
    pub repair: RepairConfig,
    /// The shared pager budget of the neighborhood-query path.
    pub pager: PagerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            batch_ops: 1024,
            roll_epochs: 8,
            roll_bytes: 4 << 20,
            compact_threshold: 6,
            repair: RepairConfig::default(),
            pager: PagerConfig::default(),
        }
    }
}

/// An immutable, epoch-pinned picture of the served state.
#[derive(Debug)]
pub struct ServeView {
    epoch: u64,
    set: Vec<VertexId>,
    member: Vec<bool>,
    graph: PinnedDelta<AnyAdjFile>,
    maximality_proved: bool,
}

impl ServeView {
    /// The epoch this view is pinned at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The maintained independent set, ascending.
    pub fn set(&self) -> &[VertexId] {
        &self.set
    }

    /// Membership of `v` in the maintained set at this epoch.
    pub fn is_member(&self, v: VertexId) -> bool {
        self.member.get(v as usize).copied().unwrap_or(false)
    }

    /// The epoch-pinned graph view (base + overlay) behind the set.
    pub fn graph(&self) -> &PinnedDelta<AnyAdjFile> {
        &self.graph
    }

    /// Whether this epoch's proof certified maximality.
    pub fn maximality_proved(&self) -> bool {
        self.maximality_proved
    }
}

/// What one [`ServeEngine::flush`] did.
#[derive(Debug, Clone, Copy)]
pub struct FlushReport {
    /// The epoch the batch committed as.
    pub epoch: u64,
    /// Operations in the batch.
    pub ops: usize,
    /// Members evicted by the batch's inserted edges.
    pub evicted: u64,
    /// Maintained set size after repair.
    pub set_size: usize,
    /// Whether the repair's proof certified maximality.
    pub maximality_proved: bool,
    /// Whether the WAL rolled into a sealed segment.
    pub rolled: bool,
    /// Segments merged by a partial compaction, if one ran.
    pub compacted: usize,
    /// Records the repair read.
    pub records_read: u64,
    /// Record passes served by the sparse reader.
    pub sparse_passes: u64,
    /// Full scans the flush started (a recount and a proof scan after a
    /// failed flush, a proof scan after an unproved epoch).
    pub full_scans: u64,
}

/// A point-in-time summary for the `STATS` verb.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// The published view's epoch.
    pub epoch: u64,
    /// Maintained set size at that epoch.
    pub set_size: usize,
    /// Operations queued for the next flush.
    pub pending_ops: usize,
    /// Epochs committed by this engine instance.
    pub flushes: u64,
    /// WAL → segment rolls performed.
    pub rolls: u64,
    /// Partial (segment) compactions performed.
    pub compactions: u64,
    /// Records the flushes' repairs read.
    pub records_read: u64,
    /// Record passes served by the sparse reader.
    pub sparse_passes: u64,
    /// Full scans the flushes started.
    pub full_scans: u64,
    /// Requests answered, by kind, with latency quantiles.
    pub requests: Vec<(&'static str, RequestSummary)>,
}

/// The long-running update + query engine behind `mis serve`.
pub struct ServeEngine {
    store: Mutex<UpdateStore>,
    view: RwLock<Arc<ServeView>>,
    pending: Mutex<Vec<EdgeOp>>,
    /// Held for a whole flush: serializes flushes and guards each
    /// vertex's count of neighbours in the published set, which the
    /// repair keeps across epochs (`None` after a failed repair or
    /// checkpoint, until a scan recounts them).
    counts: Mutex<Option<Vec<u32>>>,
    access: Mutex<Box<dyn NeighborAccess + Send>>,
    /// The repair's record reads: same file and index as `access`, no
    /// pager.
    records: SparseReader,
    requests: RequestStats,
    config: ServeConfig,
    num_vertices: usize,
    flushes: AtomicU64,
    rolls: AtomicU64,
    compactions: AtomicU64,
    records_read: AtomicU64,
    sparse_passes: AtomicU64,
    full_scans: AtomicU64,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("num_vertices", &self.num_vertices)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Wraps `store` for serving: brings the checkpoint up to the last
    /// committed epoch (bootstrapping the set if none exists) and keeps
    /// the IS-neighbour counts that leaves behind, publishes the initial
    /// view, and opens the shared point-access path and the repair's
    /// sparse reader on the base file.
    ///
    /// The store's roll policy is disabled — the engine drives rolls and
    /// segment compactions itself from the [`ServeConfig`] thresholds so
    /// they happen at flush boundaries, where the report can account
    /// them.
    pub fn new(mut store: UpdateStore, config: ServeConfig) -> io::Result<Self> {
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: u64::MAX,
            compact_threshold: usize::MAX,
        });
        let (report, counts) = store.apply_counted(config.repair)?;
        let ckpt =
            crate::checkpoint::Checkpoint::load(&store_checkpoint_path(&store), store.stats())?;
        let snap = store.snapshot();
        let view = build_view(snap.pinned(), ckpt.set, report.maximality_proved);
        let (access, records) = open_access(store.base(), config.pager)?;
        let num_vertices = store.base().num_vertices();
        Ok(Self {
            store: Mutex::new(store),
            view: RwLock::new(Arc::new(view)),
            pending: Mutex::new(Vec::new()),
            counts: Mutex::new(Some(counts)),
            access: Mutex::new(access),
            records,
            requests: RequestStats::new(),
            config,
            num_vertices,
            flushes: AtomicU64::new(0),
            rolls: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            records_read: AtomicU64::new(0),
            sparse_passes: AtomicU64::new(0),
            full_scans: AtomicU64::new(0),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Vertices in the served graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The current published view. The returned `Arc` stays consistent
    /// at its epoch no matter how many epochs commit afterwards.
    pub fn view(&self) -> Arc<ServeView> {
        Arc::clone(&self.view.read().expect("view lock poisoned"))
    }

    /// Validates and enqueues a batch of operations for the next flush,
    /// flushing immediately when the queue reaches
    /// [`ServeConfig::batch_ops`]. Returns the number of operations now
    /// pending (0 if the batch triggered a flush).
    pub fn submit(&self, ops: &[EdgeOp]) -> io::Result<usize> {
        let n = self.num_vertices as u64;
        for op in ops {
            let (u, v) = op.endpoints();
            if u64::from(u) >= n || u64::from(v) >= n || u == v {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("edge ({u}, {v}) invalid for {n} vertices"),
                ));
            }
        }
        let depth = {
            let mut pending = self.pending.lock().expect("pending lock poisoned");
            pending.extend_from_slice(ops);
            pending.len()
        };
        mis_obs::counter("serve", "serve.pending", depth as f64);
        if depth >= self.config.batch_ops {
            self.flush()?;
            return Ok(0);
        }
        Ok(depth)
    }

    /// Commits everything pending as one epoch: append to the WAL, roll
    /// and compact segments per policy, repair the maintained set on the
    /// epoch's pinned snapshot (store unlocked) from the records the
    /// batch touches, checkpoint, and publish the new view. Returns
    /// `None` when nothing was pending.
    pub fn flush(&self) -> io::Result<Option<FlushReport>> {
        let mut counts_slot = self.counts.lock().expect("flush lock poisoned");
        let batch: Vec<EdgeOp> = {
            let mut pending = self.pending.lock().expect("pending lock poisoned");
            std::mem::take(&mut *pending)
        };
        if batch.is_empty() {
            return Ok(None);
        }
        let started = Instant::now();
        let _span = mis_obs::span("serve", "serve.flush");
        mis_obs::counter("serve", "serve.pending", 0.0);

        // Durable part: append + roll + snapshot, store locked.
        let (snap, rolled, compacted) = {
            let mut store = self.store.lock().expect("store lock poisoned");
            store.append_ops(&batch)?;
            let mut rolled = false;
            if wal_epochs(&store) >= self.config.roll_epochs
                || store.wal().disk_bytes() >= self.config.roll_bytes
            {
                rolled = store.roll_segment()?.is_some();
            }
            let mut compacted = 0;
            if store.segments().len() >= self.config.compact_threshold {
                if let Some(c) = store.compact_segments()? {
                    compacted = c.merged;
                }
            }
            (store.snapshot(), rolled, compacted)
        };
        if rolled {
            self.rolls.fetch_add(1, Ordering::Relaxed);
        }
        if compacted > 0 {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }

        // Repair part: store unlocked — readers and submitters proceed.
        let prev = self.view();
        let touched: Vec<VertexId> = batch
            .iter()
            .flat_map(|op| {
                let (u, v) = op.endpoints();
                [u, v]
            })
            .collect();
        let pinned = snap.pinned();
        // The counts go back into the slot only once the view they
        // describe is published. A flush that failed after its append
        // left a durable epoch no view covers, whose operations are not
        // in `touched`: recount on this epoch's graph and let the repair
        // treat the previous set as unproved, so the recounted counts
        // lead it to that epoch's damage and a full proof checks the
        // result.
        let counts = counts_slot.take();
        let resync = counts.is_none() || prev.epoch() + 1 != snap.epoch();
        let (mut counts, recount_scans) = match counts {
            Some(counts) if !resync => (counts, 0),
            _ => (is_neighbour_counts(&pinned, prev.set())?, 1),
        };
        let out = {
            let _span = mis_obs::span("serve", "serve.repair");
            let records = OverlaidRecords::new(&self.records, pinned.overlay());
            repair_batch(
                &pinned,
                Some(&records),
                prev.set(),
                &mut counts,
                &touched,
                prev.maximality_proved() && !resync,
                self.config.repair,
            )?
        };
        let report = FlushReport {
            epoch: snap.epoch(),
            ops: batch.len(),
            evicted: out.evicted,
            set_size: out.set.len(),
            maximality_proved: out.maximality_proved,
            rolled,
            compacted,
            records_read: out.records_read,
            sparse_passes: out.sparse_passes,
            full_scans: out.full_scans + recount_scans,
        };

        // Commit part: checkpoint the repaired set, reclaim unpinned
        // segment files, publish the view.
        {
            let mut store = self.store.lock().expect("store lock poisoned");
            store.write_checkpoint(report.epoch, &out.set)?;
            store.gc();
        }
        let view = build_view(pinned, out.set, out.maximality_proved);
        *self.view.write().expect("view lock poisoned") = Arc::new(view);
        *counts_slot = Some(counts);
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.records_read
            .fetch_add(report.records_read, Ordering::Relaxed);
        self.sparse_passes
            .fetch_add(report.sparse_passes, Ordering::Relaxed);
        self.full_scans
            .fetch_add(report.full_scans, Ordering::Relaxed);
        self.requests
            .record("flush", started.elapsed().as_nanos() as u64);
        Ok(Some(report))
    }

    /// Whether `v` is in the maintained set at the published epoch.
    pub fn member(&self, v: VertexId) -> io::Result<bool> {
        let started = Instant::now();
        self.check_vertex(v)?;
        let answer = self.view().is_member(v);
        self.requests
            .record("member", started.elapsed().as_nanos() as u64);
        Ok(answer)
    }

    /// `v`'s neighbour list at the published epoch: the base record via
    /// the shared point-access path, merged with the pinned overlay.
    pub fn neighbors(&self, v: VertexId) -> io::Result<Vec<VertexId>> {
        let started = Instant::now();
        self.check_vertex(v)?;
        let view = self.view();
        let mut base = Vec::new();
        {
            let access = self.access.lock().expect("access lock poisoned");
            access.with_neighbors(v, &mut |ns| base.extend_from_slice(ns))?;
        }
        let merged = view.graph().merge_neighbors(v, &base);
        self.requests
            .record("neighbors", started.elapsed().as_nanos() as u64);
        Ok(merged)
    }

    /// Engine counters + per-kind request latency summaries.
    pub fn stats(&self) -> ServeStats {
        let started = Instant::now();
        let view = self.view();
        let pending_ops = self.pending.lock().expect("pending lock poisoned").len();
        let stats = ServeStats {
            epoch: view.epoch(),
            set_size: view.set().len(),
            pending_ops,
            flushes: self.flushes.load(Ordering::Relaxed),
            rolls: self.rolls.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            records_read: self.records_read.load(Ordering::Relaxed),
            sparse_passes: self.sparse_passes.load(Ordering::Relaxed),
            full_scans: self.full_scans.load(Ordering::Relaxed),
            requests: self.requests.summaries(),
        };
        self.requests
            .record("stats", started.elapsed().as_nanos() as u64);
        stats
    }

    /// The underlying store's durable status (segments, WAL, checkpoint).
    /// Takes the store lock briefly.
    pub fn store_status(&self) -> io::Result<StoreStatus> {
        self.store.lock().expect("store lock poisoned").status()
    }

    fn check_vertex(&self, v: VertexId) -> io::Result<()> {
        if (v as usize) < self.num_vertices {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("vertex {v} out of range ({} vertices)", self.num_vertices),
            ))
        }
    }
}

fn build_view(
    pinned: PinnedDelta<AnyAdjFile>,
    set: Vec<VertexId>,
    maximality_proved: bool,
) -> ServeView {
    let mut member = vec![false; pinned.num_vertices()];
    for &v in &set {
        member[v as usize] = true;
    }
    ServeView {
        epoch: pinned.epoch(),
        set,
        member,
        graph: pinned,
        maximality_proved,
    }
}

/// Opens the point-access path matching the base file's format, and the
/// sparse reader sharing its record index.
fn open_access(
    base: &AnyAdjFile,
    pager: PagerConfig,
) -> io::Result<(Box<dyn NeighborAccess + Send>, SparseReader)> {
    Ok(match base {
        AnyAdjFile::Plain(f) => {
            let ra = RandomAccessGraph::open(f, pager)?;
            let records = ra.sparse_reader();
            (Box::new(ra), records)
        }
        AnyAdjFile::Compressed(f) => {
            let ra = RandomAccessGraph::open_compressed(f, pager)?;
            let records = ra.sparse_reader();
            (Box::new(ra), records)
        }
        AnyAdjFile::Sharded(g) => {
            let ra = g.open_random_access(pager)?;
            let records = ra.sparse_reader();
            (Box::new(ra), records)
        }
    })
}

/// Distinct committed epochs in the store's active WAL.
fn wal_epochs(store: &UpdateStore) -> u64 {
    let mut count = 0u64;
    let mut last = None;
    for &(e, _) in store.wal().committed() {
        if last != Some(e) {
            count += 1;
            last = Some(e);
        }
    }
    count
}

fn store_checkpoint_path(store: &UpdateStore) -> std::path::PathBuf {
    store.checkpoint_path().to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_extmem::{IoStats, ScratchDir};
    use mis_graph::build_adj_file;

    fn engine(dir: &ScratchDir, config: ServeConfig) -> ServeEngine {
        let graph = mis_gen::plrg::Plrg::with_vertices(1_500, 2.0)
            .seed(77)
            .generate();
        let stats = IoStats::shared();
        build_adj_file(&graph, &dir.file("base.adj"), Arc::clone(&stats), 4096).unwrap();
        let (store, _) = UpdateStore::open(
            &dir.file("base.adj"),
            &dir.file("edits.wal"),
            &dir.file("is.ckpt"),
            stats,
            4096,
        )
        .unwrap();
        ServeEngine::new(store, config).unwrap()
    }

    #[test]
    fn bootstraps_flushes_and_serves_consistent_views() {
        let dir = ScratchDir::new("serve-e2e").unwrap();
        let eng = engine(
            &dir,
            ServeConfig {
                batch_ops: usize::MAX, // manual flushes only
                roll_epochs: 1,        // roll every epoch
                compact_threshold: 3,
                ..ServeConfig::default()
            },
        );
        let v0 = eng.view();
        assert_eq!(v0.epoch(), 0);
        assert!(v0.maximality_proved());
        assert!(!v0.set().is_empty());
        let (a, b) = (v0.set()[0], v0.set()[1]);

        // Connect two members: the flush must evict one and stay maximal.
        eng.submit(&[EdgeOp::Insert(a.min(b), a.max(b))]).unwrap();
        let r1 = eng.flush().unwrap().unwrap();
        assert_eq!(r1.epoch, 1);
        assert_eq!(r1.evicted, 1);
        assert!(r1.maximality_proved);
        assert!(r1.rolled);

        // Membership reflects the published epoch: the connected pair
        // can no longer both be members (the recover pass may even have
        // swapped the survivor for better neighbours). The merged
        // neighbor list contains the inserted edge.
        assert!(!(eng.member(a).unwrap() && eng.member(b).unwrap()));
        assert!(eng.neighbors(a).unwrap().contains(&b));

        // The old view is pinned: two more epochs commit underneath, and
        // v0 still answers from epoch 0.
        let pinned = eng.view();
        eng.submit(&[EdgeOp::Delete(a.min(b), a.max(b))]).unwrap();
        eng.flush().unwrap().unwrap();
        eng.submit(&[EdgeOp::Insert(0, 1)]).unwrap();
        let r3 = eng.flush().unwrap().unwrap();
        assert_eq!(r3.epoch, 3);
        assert!(r3.compacted >= 2, "third roll must trigger a merge");
        assert_eq!(pinned.epoch(), 1);
        assert!(!(pinned.is_member(a) && pinned.is_member(b)));
        assert_eq!(eng.view().epoch(), 3);

        let stats = eng.stats();
        assert_eq!(stats.epoch, 3);
        assert_eq!(stats.flushes, 3);
        assert_eq!(stats.rolls, 3);
        assert_eq!(stats.compactions, 1);
        assert!(stats.requests.iter().any(|(k, _)| *k == "member"));
        let status = eng.store_status().unwrap();
        assert_eq!(status.last_epoch, 3);
    }

    #[test]
    fn auto_flush_fires_at_the_batch_threshold() {
        let dir = ScratchDir::new("serve-batch").unwrap();
        let eng = engine(
            &dir,
            ServeConfig {
                batch_ops: 4,
                ..ServeConfig::default()
            },
        );
        assert_eq!(eng.submit(&[EdgeOp::Insert(0, 1)]).unwrap(), 1);
        assert_eq!(eng.submit(&[EdgeOp::Insert(0, 2)]).unwrap(), 2);
        assert_eq!(
            eng.submit(&[EdgeOp::Insert(0, 3), EdgeOp::Insert(0, 4)])
                .unwrap(),
            0,
            "hitting the threshold flushes"
        );
        assert_eq!(eng.view().epoch(), 1);
        assert!(eng.flush().unwrap().is_none(), "queue is empty again");
    }

    #[test]
    fn submit_validates_endpoints() {
        let dir = ScratchDir::new("serve-valid").unwrap();
        let eng = engine(&dir, ServeConfig::default());
        let n = eng.num_vertices() as u32;
        assert!(eng.submit(&[EdgeOp::Insert(0, n)]).is_err());
        assert!(eng.submit(&[EdgeOp::Delete(2, 2)]).is_err());
        assert!(eng.member(n).is_err());
        assert!(eng.neighbors(n).is_err());
    }

    #[test]
    fn readers_run_concurrently_with_flushes() {
        let dir = ScratchDir::new("serve-conc").unwrap();
        let eng = Arc::new(engine(
            &dir,
            ServeConfig {
                batch_ops: usize::MAX,
                roll_epochs: 2,
                compact_threshold: 2,
                ..ServeConfig::default()
            },
        ));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for t in 0..2u32 {
            let eng = Arc::clone(&eng);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut answered = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = (answered as u32 * 37 + t) % eng.num_vertices() as u32;
                    // A view must always be internally consistent:
                    // membership bitmap and set agree.
                    let view = eng.view();
                    assert_eq!(view.is_member(v), view.set().binary_search(&v).is_ok());
                    eng.neighbors(v).unwrap();
                    answered += 1;
                }
                answered
            }));
        }
        for i in 0..6u32 {
            eng.submit(&[EdgeOp::Insert(i, i + 500), EdgeOp::Insert(i, i + 600)])
                .unwrap();
            eng.flush().unwrap().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "readers made progress");
        }
        let view = eng.view();
        assert_eq!(view.epoch(), 6);
        assert!(view.maximality_proved());
    }

    #[test]
    fn a_failed_flush_leaves_no_unrepaired_epoch_behind() {
        // A flush that fails after its append leaves a durable epoch
        // that no published view covers. Here that epoch connects two
        // members the next batch does not touch; the next flush must
        // still repair it (or at least not claim a proof).
        for fail_at in ["roll", "checkpoint"] {
            let dir = ScratchDir::new("serve-failed-flush").unwrap();
            let eng = engine(
                &dir,
                ServeConfig {
                    batch_ops: usize::MAX,
                    roll_epochs: 1,
                    ..ServeConfig::default()
                },
            );
            let v0 = eng.view();
            let (a, b) = (v0.set()[0], v0.set()[1]);
            let others: Vec<VertexId> = (0..eng.num_vertices() as VertexId)
                .filter(|&v| v != a && v != b)
                .take(2)
                .collect();
            let (x, y) = (others[0], others[1]);
            // Block the roll's segment directory or the checkpoint's
            // rename with a file or a non-empty directory in the way.
            let blocker = match fail_at {
                "roll" => dir.file("edits.segs"),
                _ => dir.file("is.ckpt"),
            };
            if fail_at == "roll" {
                std::fs::write(&blocker, b"in the way").unwrap();
            } else {
                std::fs::remove_file(&blocker).unwrap();
                std::fs::create_dir(&blocker).unwrap();
                std::fs::write(blocker.join("x"), b"in the way").unwrap();
            }
            eng.submit(&[EdgeOp::Insert(a.min(b), a.max(b))]).unwrap();
            assert!(eng.flush().is_err(), "{fail_at} must fail");
            assert_eq!(eng.view().epoch(), 0, "{fail_at}: nothing published");
            if fail_at == "roll" {
                std::fs::remove_file(&blocker).unwrap();
            } else {
                std::fs::remove_dir_all(&blocker).unwrap();
            }

            eng.submit(&[EdgeOp::Insert(x, y)]).unwrap();
            let report = eng.flush().unwrap().unwrap();
            assert_eq!(report.epoch, 2, "{fail_at}");
            let view = eng.view();
            assert!(
                mis_core::is_maximal_independent_set(view.graph(), view.set()),
                "{fail_at}: the failed epoch is repaired"
            );
            assert!(report.maximality_proved, "{fail_at}");
            assert!(!(view.is_member(a) && view.is_member(b)), "{fail_at}");
            assert!(report.full_scans >= 1, "{fail_at}: recount");
            let kept = eng.counts.lock().unwrap().clone().unwrap();
            assert_eq!(
                kept,
                is_neighbour_counts(view.graph(), view.set()).unwrap(),
                "{fail_at}"
            );

            // Back in step: the next flush is local again.
            eng.submit(&[EdgeOp::Delete(x, y)]).unwrap();
            let report = eng.flush().unwrap().unwrap();
            assert!(report.maximality_proved, "{fail_at}");
            assert_eq!(report.full_scans, 0, "{fail_at}");
        }
    }

    #[test]
    fn maintained_counts_equal_a_fresh_count_scan_after_every_flush() {
        let dir = ScratchDir::new("serve-counts").unwrap();
        let eng = engine(
            &dir,
            ServeConfig {
                batch_ops: usize::MAX,
                roll_epochs: 2,
                compact_threshold: 2,
                ..ServeConfig::default()
            },
        );
        let n = eng.num_vertices() as u32;
        let mut s = 99u64;
        for epoch in 1..=6u64 {
            let set = eng.view().set().to_vec();
            let mut batch = Vec::new();
            for i in 0..40u32 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let (u, v) = ((s >> 33) as u32 % n, (s >> 13) as u32 % n);
                if i % 3 == 0 {
                    // Connect two members: forces evictions.
                    let (a, b) = (set[u as usize % set.len()], set[v as usize % set.len()]);
                    if a != b {
                        batch.push(EdgeOp::Insert(a, b));
                    }
                } else if u != v {
                    batch.push(if i % 3 == 1 {
                        EdgeOp::Insert(u, v)
                    } else {
                        EdgeOp::Delete(u, v)
                    });
                }
            }
            eng.submit(&batch).unwrap();
            let report = eng.flush().unwrap().unwrap();
            assert_eq!(report.epoch, epoch);
            assert!(report.maximality_proved);
            assert_eq!(report.full_scans, 0, "epoch {epoch}");
            assert!(report.sparse_passes > 0 && report.records_read > 0);
            let view = eng.view();
            assert!(mis_core::is_maximal_independent_set(
                view.graph(),
                view.set()
            ));
            let kept = eng.counts.lock().unwrap().clone().unwrap();
            assert_eq!(
                kept,
                is_neighbour_counts(view.graph(), view.set()).unwrap(),
                "epoch {epoch}"
            );
        }
        let stats = eng.stats();
        assert_eq!(stats.full_scans, 0);
        assert!(stats.sparse_passes >= 6 && stats.records_read > 0);
    }
}
