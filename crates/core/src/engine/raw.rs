//! The raw hand-out backend: the engine's one parallel backend.
//!
//! Decoding every record on one reader thread would serialise a
//! compressed file's whole varint decode behind one core no matter how
//! many workers fold. Instead the reader only *frames* raw byte ranges
//! ([`mis_graph::RawScan::scan_raw`] — header inspection and
//! word-at-a-time terminator counting, no value decoding) and ships them
//! over a bounded queue; each worker calls
//! [`mis_graph::RawScan::decode_unit`] on its own units. Oversized
//! power-law records arrive pre-split into pieces and are reassembled
//! deterministically in `seq` order, so one hub vertex does not
//! serialise the pipeline. A sharded store frames its shards one after
//! another behind the same interface, so it needs no backend of its own.
//!
//! Two consumers:
//!
//! * [`run_pass_raw`] — mergeable passes. Workers fold whole-record
//!   units straight into private shards; decoded pieces are sent through
//!   unfolded and stitched by a [`PieceAssembler`] during the in-order
//!   merge on the calling thread.
//! * [`fold_ordered_raw`] — order-dependent folds. Workers decode in
//!   parallel and publish into an [`OrderedSink`] (a bounded reorder
//!   window keyed by unit `seq`); the calling thread consumes strictly
//!   in `seq` order, so the fold sees exactly the sequential record
//!   order while decode runs many-way. The window admits any unit with
//!   `seq < next + window`, so the worker holding the next-needed unit
//!   can always publish — the pipeline cannot deadlock.

use std::collections::BTreeMap;
use std::io;
use std::sync::{Condvar, Mutex};

use mis_graph::{DecodedUnit, PieceAssembler, RawScan, RawScanLimits, RawUnit, VertexId};
use mis_obs as obs;

use super::queue::{BoundedQueue, CloseOnDrop};
use super::{ParallelConfig, ScanPass};

/// Soft cap on whole records per hand-out unit. Large enough that queue
/// and merge bookkeeping is noise, small enough that a 100k-vertex graph
/// still splits into dozens of units for load balancing.
const UNIT_RECORDS: usize = 4096;

/// Hand-out queue depth in units: how far the reader may run ahead of
/// the slowest worker.
const QUEUE_UNITS: usize = 8;

fn limits_of(cfg: &ParallelConfig) -> RawScanLimits {
    RawScanLimits {
        target_records: UNIT_RECORDS,
        unit_bytes: cfg.unit_bytes.max(1),
    }
}

/// Hands one unit to the queue, tracing the queue depth and the time the
/// reader spends blocked on a full queue (back-pressure). Returns what
/// [`BoundedQueue::push`] returns.
fn handout(queue: &BoundedQueue<RawUnit>, unit: RawUnit) -> bool {
    if obs::enabled() {
        obs::counter("engine", "queue.depth", queue.len() as f64);
        let _h = obs::span("engine", "reader.handout");
        queue.push(unit)
    } else {
        queue.push(unit)
    }
}

fn broken(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("raw pipeline: {msg}"))
}

/// What a decode worker hands back for one unit in [`run_pass_raw`].
enum WorkerItem<S> {
    /// A whole-record unit, already folded into a shard.
    Shard(S),
    /// One decoded piece of a split record; reassembled at merge time.
    Piece(mis_graph::DecodedPiece),
}

/// The raw-hand-out backend of [`super::Executor::run_pass`].
pub(super) fn run_pass_raw<P: ScanPass>(
    raw: &dyn RawScan,
    pass: &P,
    cfg: &ParallelConfig,
) -> io::Result<P::Output> {
    let _pass_span = obs::span("engine", "pass.parallel");
    let queue: BoundedQueue<RawUnit> = BoundedQueue::new(QUEUE_UNITS);
    let results: Mutex<Vec<(u64, WorkerItem<P::Shard>)>> = Mutex::new(Vec::new());
    let worker_error: Mutex<Option<io::Error>> = Mutex::new(None);
    let io = std::thread::scope(|s| {
        for _ in 0..cfg.threads.max(1) {
            s.spawn(|| {
                obs::name_thread("worker");
                let _guard = CloseOnDrop(&queue);
                loop {
                    let unit = {
                        let _wait = obs::span("engine", "worker.wait");
                        queue.pop()
                    };
                    let Some(unit) = unit else { break };
                    let seq = unit.seq();
                    let decoded = {
                        let _decode = obs::span("engine", "worker.decode");
                        raw.decode_unit(unit)
                    };
                    match decoded {
                        Ok(DecodedUnit::Block(block)) => {
                            let mut shard = pass.new_shard();
                            {
                                let _fold = obs::span("engine", "worker.fold");
                                for (v, ns) in block.iter() {
                                    pass.visit(&mut shard, v, ns);
                                }
                            }
                            results
                                .lock()
                                .expect("result list poisoned")
                                .push((seq, WorkerItem::Shard(shard)));
                        }
                        Ok(DecodedUnit::Piece(piece)) => {
                            results
                                .lock()
                                .expect("result list poisoned")
                                .push((seq, WorkerItem::Piece(piece)));
                        }
                        Err(e) => {
                            worker_error
                                .lock()
                                .expect("error slot poisoned")
                                .get_or_insert(e);
                            break; // the guard closes the queue
                        }
                    }
                }
                obs::flush_local();
            });
        }
        // The calling thread is the framing reader.
        let _guard = CloseOnDrop(&queue);
        raw.scan_raw(limits_of(cfg), &mut |unit| handout(&queue, unit))
    });
    io?;
    if let Some(e) = worker_error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }
    let _merge_span = obs::span("engine", "pass.merge");
    let mut results = results.into_inner().expect("result list poisoned");
    results.sort_unstable_by_key(|&(seq, _)| seq);
    let mut acc = pass.new_shard();
    let mut assembler = PieceAssembler::new();
    for (_, item) in results {
        match item {
            WorkerItem::Shard(shard) => {
                if assembler.in_progress() {
                    return Err(broken("whole-record unit inside a split record"));
                }
                pass.merge(&mut acc, shard);
            }
            WorkerItem::Piece(piece) => {
                // Visiting the reassembled record straight into the
                // accumulator extends its chunk in storage order, which
                // the ScanPass contract makes equivalent to merging a
                // one-record shard here.
                if let Some((v, ns)) = assembler.push(piece)? {
                    pass.visit(&mut acc, v, &ns);
                }
            }
        }
    }
    if assembler.in_progress() {
        return Err(broken("record still split at end of stream"));
    }
    Ok(pass.finish(acc))
}

/// A bounded reorder window: decode workers publish `(seq, unit)` in
/// whatever order they finish; one consumer removes strictly ascending
/// `seq`. A worker may publish any `seq < next + window`, so the worker
/// holding the next-needed unit never blocks.
struct OrderedSink<T> {
    state: Mutex<SinkState<T>>,
    /// Consumer waits here for `next` to arrive (or for termination).
    ready: Condvar,
    /// Workers wait here for window room.
    space: Condvar,
    window: u64,
}

struct SinkState<T> {
    buf: BTreeMap<u64, T>,
    next: u64,
    /// Total units the reader produced; `Some` once the reader finished
    /// cleanly (set **before** the hand-out queue closes, so workers
    /// cannot all exit with `total` still unknown unless something died).
    total: Option<u64>,
    error: Option<io::Error>,
    active_workers: usize,
    /// Consumer gave up (error path): publishing stops immediately.
    aborted: bool,
}

impl<T> OrderedSink<T> {
    fn new(window: u64, workers: usize) -> Self {
        Self {
            state: Mutex::new(SinkState {
                buf: BTreeMap::new(),
                next: 0,
                total: None,
                error: None,
                active_workers: workers,
                aborted: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            window: window.max(1),
        }
    }

    /// Publishes one decoded unit; `false` tells the worker to wind down.
    fn publish(&self, seq: u64, item: T) -> bool {
        let mut st = self.state.lock().expect("sink poisoned");
        loop {
            if st.aborted {
                return false;
            }
            if seq < st.next + self.window {
                break;
            }
            st = self.space.wait(st).expect("sink poisoned");
        }
        st.buf.insert(seq, item);
        if seq == st.next {
            drop(st);
            self.ready.notify_all();
        }
        true
    }

    /// Records a decode failure; the first error wins.
    fn fail(&self, e: io::Error) {
        let mut st = self.state.lock().expect("sink poisoned");
        st.error.get_or_insert(e);
        st.aborted = true;
        drop(st);
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// The reader finished cleanly after producing `total` units.
    fn reader_done(&self, total: u64) {
        let mut st = self.state.lock().expect("sink poisoned");
        st.total = Some(total);
        drop(st);
        self.ready.notify_all();
    }

    /// One worker exited (normally or by unwind).
    fn worker_exit(&self) {
        let mut st = self.state.lock().expect("sink poisoned");
        st.active_workers -= 1;
        let none_left = st.active_workers == 0;
        drop(st);
        if none_left {
            self.ready.notify_all();
        }
    }

    /// Removes the next unit in `seq` order. `Ok(None)` means the stream
    /// ended — either all units were consumed, or every worker exited
    /// (a panic case the caller's thread-scope join surfaces).
    fn pop_next(&self) -> io::Result<Option<T>> {
        let mut st = self.state.lock().expect("sink poisoned");
        loop {
            if let Some(e) = st.error.take() {
                st.aborted = true;
                drop(st);
                self.space.notify_all();
                return Err(e);
            }
            let next = st.next;
            if let Some(item) = st.buf.remove(&next) {
                st.next += 1;
                drop(st);
                self.space.notify_all();
                return Ok(Some(item));
            }
            if st.total == Some(next) || st.active_workers == 0 {
                return Ok(None);
            }
            st = self.ready.wait(st).expect("sink poisoned");
        }
    }
}

/// Decrements the sink's worker count on drop — including during a panic
/// unwind, so the consumer never waits on a dead worker.
struct WorkerExit<'a, T>(&'a OrderedSink<T>);

impl<T> Drop for WorkerExit<'_, T> {
    fn drop(&mut self) {
        self.0.worker_exit();
    }
}

/// The raw-hand-out backend of [`super::Executor::fold_ordered`]: decode
/// on `cfg.threads` workers, fold on the calling thread in exact storage
/// order.
pub(super) fn fold_ordered_raw(
    raw: &dyn RawScan,
    cfg: &ParallelConfig,
    f: &mut dyn FnMut(VertexId, &[VertexId]),
) -> io::Result<()> {
    let _pass_span = obs::span("engine", "pass.fold_ordered");
    let threads = cfg.threads.max(1);
    let queue: BoundedQueue<RawUnit> = BoundedQueue::new(QUEUE_UNITS);
    // Room for everything in flight: queued units, one per worker in
    // decode, plus slack so publishes rarely contend.
    let window = (QUEUE_UNITS + threads + 2) as u64;
    let sink: OrderedSink<DecodedUnit> = OrderedSink::new(window, threads);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            obs::name_thread("reader");
            let _guard = CloseOnDrop(&queue);
            let mut produced = 0u64;
            let io = raw.scan_raw(limits_of(cfg), &mut |unit| {
                if handout(&queue, unit) {
                    produced += 1;
                    true
                } else {
                    false
                }
            });
            if io.is_ok() {
                // Before the queue closes (guard drop), so workers can
                // only observe "queue drained" with `total` already set.
                sink.reader_done(produced);
            }
            obs::flush_local();
            io
        });
        for _ in 0..threads {
            s.spawn(|| {
                obs::name_thread("worker");
                let _exit = WorkerExit(&sink);
                let _guard = CloseOnDrop(&queue);
                loop {
                    let unit = {
                        let _wait = obs::span("engine", "worker.wait");
                        queue.pop()
                    };
                    let Some(unit) = unit else { break };
                    let seq = unit.seq();
                    let decoded = {
                        let _decode = obs::span("engine", "worker.decode");
                        raw.decode_unit(unit)
                    };
                    match decoded {
                        Ok(decoded) => {
                            let _publish = obs::span("engine", "worker.publish_wait");
                            if !sink.publish(seq, decoded) {
                                break;
                            }
                        }
                        Err(e) => {
                            sink.fail(e);
                            break;
                        }
                    }
                }
                obs::flush_local();
            });
        }
        let fold = (|| -> io::Result<()> {
            let mut assembler = PieceAssembler::new();
            loop {
                let next = {
                    let _stall = obs::span("engine", "reorder.stall");
                    sink.pop_next()?
                };
                let Some(decoded) = next else { break };
                match decoded {
                    DecodedUnit::Block(block) => {
                        if assembler.in_progress() {
                            return Err(broken("whole-record unit inside a split record"));
                        }
                        for (v, ns) in block.iter() {
                            f(v, ns);
                        }
                    }
                    DecodedUnit::Piece(piece) => {
                        if let Some((v, ns)) = assembler.push(piece)? {
                            f(v, &ns);
                        }
                    }
                }
            }
            if assembler.in_progress() {
                return Err(broken("record still split at end of stream"));
            }
            Ok(())
        })();
        // A fold error must stop the producers before we join them.
        if fold.is_err() {
            queue.close();
            sink.fail(broken("fold aborted"));
        }
        let read = match reader.join() {
            Ok(io) => io,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        // Reader errors explain worker/fold fallout; report them first.
        read?;
        fold
    })
}
