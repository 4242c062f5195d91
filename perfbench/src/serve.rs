//! The serving session: a `ServeEngine` over a workload's file takes a
//! seeded churn stream batch by batch — each batch submitted, then
//! flushed — while one closed-loop reader thread sends `member` and
//! `neighbors` calls for the whole ingest. Every published epoch is
//! checked on its own pinned graph, and an offline `UpdateStore::apply`
//! replay of the same stream is compared epoch by epoch.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mis_core::is_maximal_independent_set;
use mis_extmem::{IoSnapshot, IoStats, PagerConfig, ScratchDir};
use mis_gen::churn::{churn_stream, ChurnKind};
use mis_graph::{CsrGraph, VertexId};
use mis_update::{Checkpoint, EdgeOp, ServeConfig, ServeEngine, UpdateStore};

use crate::record::{flush_breakdown, FlushParts, Recorder};
use crate::setup::{hash_list, Prepared, BLOCK, WORK_DIR};
use crate::stats::{Latencies, Rng};

/// Operations per epoch.
pub const BATCH_OPS: usize = 1024;

/// `submit` calls each batch is split into.
const SUBMITS_PER_BATCH: usize = 16;

/// Share of deletes in the churn stream.
pub const DELETE_FRACTION: f64 = 0.3;

/// Partially compact once this many sealed segments are live.
pub const COMPACT_THRESHOLD: usize = 3;

/// Ingest length and roll policy of one session.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Epochs (one flush each).
    pub epochs: usize,
    /// Roll the WAL into a sealed segment every this many epochs.
    pub roll_epochs: u64,
    /// In a traced run, trace every second flush only, so the untraced
    /// ones give the tracing overhead; otherwise trace every flush.
    pub alternate_trace: bool,
}

impl Plan {
    /// The engine configuration of this plan: `mis serve` defaults apart
    /// from the roll/compaction policy and explicit flushes.
    pub fn config(&self) -> ServeConfig {
        ServeConfig {
            batch_ops: usize::MAX,
            roll_epochs: self.roll_epochs,
            compact_threshold: COMPACT_THRESHOLD,
            pager: serve_pager(),
            ..ServeConfig::default()
        }
    }
}

/// The serving pager budget: the `mis serve` default of 4 MiB.
pub fn serve_pager() -> PagerConfig {
    ServeConfig::default().pager
}

/// An engine opened over a workload's file.
pub struct Opened {
    /// The engine; declared first so it is dropped before `dir`.
    engine: ServeEngine,
    /// Store files, removed on drop.
    dir: ScratchDir,
    /// I/O counters of the engine's store.
    stats: Arc<IoStats>,
    /// `UpdateStore::open` + `ServeEngine::new` wall time, seconds.
    pub open_s: f64,
}

impl Opened {
    /// Opens a store over `p`'s file and bootstraps an engine on it.
    pub fn open(p: &Prepared, plan: &Plan, rec: &Recorder) -> io::Result<Self> {
        let dir = ScratchDir::new_in(WORK_DIR, "serve")?;
        let stats = IoStats::shared();
        let (engine, open_s) = rec.time("update.open", || -> io::Result<ServeEngine> {
            let (store, _) = UpdateStore::open(
                &p.path(),
                &dir.file("serve.wal"),
                &dir.file("serve.ckpt"),
                Arc::clone(&stats),
                BLOCK,
            )?;
            ServeEngine::new(store, plan.config())
        });
        Ok(Self {
            engine: engine?,
            dir,
            stats,
            open_s,
        })
    }

    fn ckpt_path(&self) -> PathBuf {
        self.dir.file("serve.ckpt")
    }
}

/// What the closed-loop reader measured.
#[derive(Debug, Default)]
pub struct ReaderOut {
    /// `member` latencies over the whole ingest.
    pub member: Latencies,
    /// `neighbors` latencies over the whole ingest.
    pub neighbors: Latencies,
    /// `member` latencies of calls started while a flush ran.
    pub member_in_flush: Latencies,
    /// `neighbors` latencies of calls started while a flush ran.
    pub neighbors_in_flush: Latencies,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or answered inconsistently.
    pub wrong: u64,
    /// Reader wall time, seconds, summed over sessions.
    pub elapsed: f64,
}

/// Everything the serving sessions of a run measured, accumulated
/// over sessions.
#[derive(Debug, Default)]
pub struct Session {
    /// Flush wall time per epoch, seconds.
    pub flush_s: Vec<f64>,
    /// Whether the program's tracing was on during each flush.
    pub flush_traced: Vec<bool>,
    /// Per-flush I/O of the store, reader pager traffic excluded.
    pub flush_io: Vec<IoSnapshot>,
    /// `submit` latencies.
    pub submit: Latencies,
    /// The reader's measurements.
    pub reads: ReaderOut,
    /// Pager hits, misses and evictions of the serving path.
    pub pager: (u64, u64, u64),
    /// Bytes the store wrote: WAL, segments, compactions, checkpoints.
    pub bytes_written: u64,
    /// Operations committed.
    pub ops: usize,
    /// Sessions run.
    pub sessions: usize,
    /// WAL → segment rolls.
    pub rolls: u64,
    /// Partial segment compactions.
    pub compactions: u64,
    /// |IS| after the final epoch.
    pub final_is: usize,
    /// Requests, flushes and checks attempted (reader excluded).
    pub attempted: u64,
    /// Of those, the ones that failed or were wrong.
    pub wrong: u64,
    /// Per session, the epochs whose served set differs from the
    /// offline replay.
    pub diverged_epochs: Vec<u64>,
    /// First such epoch.
    pub first_diverged: Option<usize>,
    /// At the final epoch: members only the served set has, and members
    /// only the replay has.
    pub final_only: (usize, usize),
    /// Per-flush stage self times of the traced flushes.
    pub parts: Vec<FlushParts>,
    /// Program spans drained at the end of each session.
    pub program: mis_obs::Trace,
}

/// A seeded churn stream over a workload's graph, in the file's vertex
/// numbering, plus the graph in memory to check answers against.
#[derive(Debug)]
pub struct Stream {
    csr: CsrGraph,
    ops: Vec<EdgeOp>,
}

impl Stream {
    /// `plan.epochs` batches of churn over `p`'s graph.
    pub fn new(p: &Prepared, plan: &Plan, seed: u64) -> io::Result<Self> {
        let csr = p.load_csr()?;
        let want = plan.epochs * BATCH_OPS;
        let stream = churn_stream(&csr, want, DELETE_FRACTION, seed ^ 0x5EED_C4A2);
        if stream.len() != want {
            return Err(io::Error::other("churn stream fell short"));
        }
        let ops = stream
            .iter()
            .map(|op| match op.kind {
                ChurnKind::Insert => EdgeOp::Insert(op.u, op.v),
                ChurnKind::Delete => EdgeOp::Delete(op.u, op.v),
            })
            .collect();
        Ok(Self { csr, ops })
    }

    fn batches(&self) -> std::slice::Chunks<'_, EdgeOp> {
        self.ops.chunks(BATCH_OPS)
    }
}

/// The offline `UpdateStore::apply` replay of a stream: one set hash per
/// epoch (epoch 0 is the bootstrap) and the final set.
#[derive(Debug)]
pub struct Replay {
    hashes: Vec<u64>,
    final_set: Vec<VertexId>,
    /// Applies run (bootstrap included).
    pub applies: u64,
    /// Applies whose proof did not certify maximality.
    pub unproved: u64,
}

/// Replays `stream` through an offline store over `p`'s file, applying
/// after every batch.
pub fn replay(p: &Prepared, stream: &Stream, rec: &Recorder) -> io::Result<Replay> {
    let dir = ScratchDir::new_in(WORK_DIR, "replay")?;
    let (mut store, _) = UpdateStore::open(
        &p.path(),
        &dir.file("replay.wal"),
        &dir.file("replay.ckpt"),
        IoStats::shared(),
        BLOCK,
    )?;
    let repair = ServeConfig::default().repair;
    let mut r = Replay {
        hashes: Vec::new(),
        final_set: Vec::new(),
        applies: 0,
        unproved: 0,
    };
    let apply = |store: &UpdateStore, r: &mut Replay| -> io::Result<()> {
        let report = rec.time("replay.apply", || store.apply(repair)).0?;
        r.applies += 1;
        r.unproved += u64::from(!report.maximality_proved);
        r.final_set = Checkpoint::load(store.checkpoint_path(), store.stats())?.set;
        r.hashes.push(hash_list(&r.final_set));
        Ok(())
    };
    apply(&store, &mut r)?;
    for batch in stream.batches() {
        store.append_ops(batch)?;
        apply(&store, &mut r)?;
    }
    Ok(r)
}

/// Runs one session of `plan` against `opened`, whose engine serves
/// `p`'s file, and adds what it measured to `s`. Each session feeds the
/// same stream to a fresh engine.
#[allow(clippy::too_many_arguments)]
pub fn ingest(
    p: &Prepared,
    opened: &Opened,
    plan: &Plan,
    stream: &Stream,
    replay: &Replay,
    seed: u64,
    rec: &Recorder,
    s: &mut Session,
) -> io::Result<()> {
    let engine = &opened.engine;
    let batches: Vec<&[EdgeOp]> = stream.batches().collect();
    // Each published epoch's set, kept as a hash; the final one in full.
    let mut served = vec![hash_list(engine.view().set())];
    let mut final_set = Vec::new();
    let flushing = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let ingest_before = opened.stats.snapshot();
    let mut ckpt_bytes = 0u64;
    let reads = std::mem::take(&mut s.reads);
    let reader_rng = Rng::new(seed, 16 + s.sessions as u64);

    let ingest = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(engine, &flushing, &stop, reader_rng, reads));
        let result = (|| -> io::Result<()> {
            for (i, batch) in batches.iter().enumerate() {
                let traced = rec.on() && (!plan.alternate_trace || i % 2 == 1);
                mis_obs::set_enabled(traced);
                let before = opened.stats.snapshot();
                let chunk = batch.len().div_ceil(SUBMITS_PER_BATCH);
                for part in batch.chunks(chunk) {
                    let t = Instant::now();
                    rec.time("update.submit", || engine.submit(part)).0?;
                    s.submit.push_elapsed(t.elapsed());
                    s.attempted += 1;
                }
                flushing.store(true, Ordering::SeqCst);
                let (report, secs) = rec.time("update.flush", || engine.flush());
                flushing.store(false, Ordering::SeqCst);
                mis_obs::set_enabled(false);
                let report =
                    report?.ok_or_else(|| io::Error::other("flush found nothing pending"))?;
                let io = opened.stats.snapshot().since(&before);
                s.flush_s.push(secs);
                s.flush_traced.push(traced);
                // The reader's pager misses land in the same counters: one
                // block (at most one page of bytes) each.
                s.flush_io.push(IoSnapshot {
                    blocks_read: io.blocks_read.saturating_sub(io.cache_misses),
                    bytes_read: io.bytes_read.saturating_sub(io.cache_misses * BLOCK as u64),
                    ..io
                });
                s.rolls += u64::from(report.rolled);
                s.compactions += u64::from(report.compacted > 0);
                s.attempted += 1;
                s.wrong += u64::from(!report.maximality_proved || report.epoch != i as u64 + 1);

                // The published epoch's set, checked on that epoch's own
                // pinned graph by a scan of the benchmark's.
                let view = engine.view();
                let ok = rec
                    .time("check.epoch", || {
                        is_maximal_independent_set(view.graph(), view.set())
                    })
                    .0;
                s.attempted += 1;
                s.wrong += u64::from(!ok || view.epoch() != i as u64 + 1);
                served.push(hash_list(view.set()));
                if i + 1 == batches.len() {
                    final_set = view.set().to_vec();
                }
                ckpt_bytes += std::fs::metadata(opened.ckpt_path())?.len();
            }
            Ok(())
        })();
        mis_obs::set_enabled(false);
        stop.store(true, Ordering::SeqCst);
        let out = reader.join().expect("reader thread panicked");
        result.map(|()| out)
    });
    s.reads = ingest?;
    let io = opened.stats.snapshot().since(&ingest_before);
    s.pager.0 += io.cache_hits;
    s.pager.1 += io.cache_misses;
    s.pager.2 += io.cache_evictions;
    s.bytes_written += io.bytes_written + io.wal_bytes_written + ckpt_bytes;
    s.ops += stream.ops.len();
    s.sessions += 1;
    s.final_is = final_set.len();
    let program = mis_obs::drain();
    s.parts.extend(flush_breakdown(&program));
    s.program.extend(program);

    // Neighbour lists after the final epoch against the graph rebuilt in
    // memory from the base and the stream.
    let mut rng = Rng::new(seed, 3);
    let mut reference: BTreeMap<VertexId, BTreeSet<VertexId>> = BTreeMap::new();
    for _ in 0..1_000 {
        let v = rng.below(p.vertices as u64) as VertexId;
        reference.insert(v, stream.csr.neighbors(v).iter().copied().collect());
    }
    for op in &stream.ops {
        let (u, v) = op.endpoints();
        for (a, b) in [(u, v), (v, u)] {
            if let Some(set) = reference.get_mut(&a) {
                if op.is_insert() {
                    set.insert(b);
                } else {
                    set.remove(&b);
                }
            }
        }
    }
    for (v, want) in &reference {
        let mut got = engine.neighbors(*v)?;
        got.sort_unstable();
        s.attempted += 1;
        s.wrong += u64::from(!got.iter().copied().eq(want.iter().copied()));
    }

    // Served against replayed, epoch by epoch.
    s.attempted += replay.applies;
    s.wrong += replay.unproved;
    let mut diverged = 0;
    for (epoch, (mine, theirs)) in served.iter().zip(&replay.hashes).enumerate() {
        if mine != theirs {
            diverged += 1;
            s.first_diverged.get_or_insert(epoch);
        }
    }
    s.diverged_epochs.push(diverged);
    let only =
        |a: &[VertexId], b: &[VertexId]| a.iter().filter(|v| b.binary_search(v).is_err()).count();
    s.final_only = (
        only(&final_set, &replay.final_set),
        only(&replay.final_set, &final_set),
    );
    Ok(())
}

/// The closed-loop reader: uniformly drawn vertices, a 50/50 mix of
/// `member` and `neighbors`, each call timed on its own. Answers are
/// checked against the views published around the call: a membership
/// answer must match the view before or after it, and a neighbour list
/// must be duplicate-free, in range, free of `v`, and — when `v` is a
/// member of a view that stayed published throughout — free of members.
fn reader(
    engine: &ServeEngine,
    flushing: &AtomicBool,
    stop: &AtomicBool,
    mut rng: Rng,
    mut out: ReaderOut,
) -> ReaderOut {
    let n = engine.num_vertices() as u64;
    let start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let v = rng.below(n) as VertexId;
        let in_flush = flushing.load(Ordering::Relaxed);
        let before = engine.view();
        out.attempted += 1;
        if rng.next_u64() & 1 == 0 {
            let t = Instant::now();
            let r = engine.member(v);
            let d = t.elapsed();
            let after = engine.view();
            out.member.push_elapsed(d);
            if in_flush {
                out.member_in_flush.push_elapsed(d);
            }
            let ok = matches!(r, Ok(m) if m == before.is_member(v) || m == after.is_member(v));
            out.wrong += u64::from(!ok);
        } else {
            let t = Instant::now();
            let r = engine.neighbors(v);
            let d = t.elapsed();
            let after = engine.view();
            out.neighbors.push_elapsed(d);
            if in_flush {
                out.neighbors_in_flush.push_elapsed(d);
            }
            let ok = match r {
                Ok(mut ns) => {
                    let stable = before.epoch() == after.epoch();
                    let clash =
                        stable && before.is_member(v) && ns.iter().any(|&u| before.is_member(u));
                    ns.sort_unstable();
                    let len = ns.len();
                    ns.dedup();
                    !clash
                        && ns.len() == len
                        && ns.binary_search(&v).is_err()
                        && ns.last().is_none_or(|&u| u64::from(u) < n)
                }
                Err(_) => false,
            };
            out.wrong += u64::from(!ok);
        }
    }
    out.elapsed += start.elapsed().as_secs_f64();
    mis_obs::flush_local();
    out
}
