//! The unified scan-pass execution engine.
//!
//! Every algorithm in this crate is a composition of **sequential
//! passes** over the adjacency records (see [`mis_graph::GraphScan`]).
//! Before this module each algorithm hand-rolled its own scan loop; now
//! a pass is a value implementing [`ScanPass`] and an [`Executor`]
//! decides *how* the records flow through it:
//!
//! * [`Executor::Sequential`] — one thread folds the records in storage
//!   order, exactly the paper's access model and byte-for-byte the
//!   pre-engine behaviour;
//! * [`Executor::Parallel`] — the raw hand-out backend (the `raw`
//!   submodule): a reader thread *frames* undecoded byte ranges
//!   ([`mis_graph::RawScan`]) and streams them over a bounded queue to
//!   `N` `std::thread` workers, each of which decodes its own units, so
//!   compressed-file decompression scales with the worker count. Results
//!   are merged **in unit order**, so the output is identical at every
//!   thread count. Every on-disk store — plain, compressed and sharded —
//!   has a raw view; a graph without one (in-memory CSR, delta overlays)
//!   and any executor with one thread run the sequential path instead,
//!   so `par(1)` never costs more than `seq`.
//!
//! Two execution shapes cover all of the paper's passes:
//!
//! 1. [`Executor::run_pass`] — for passes whose per-record work depends
//!    only on state that is frozen for the duration of the pass (the
//!    initial `A`-state derivation, maximality/independence proofs,
//!    degree statistics). These parallelise fully: the [`ScanPass`]
//!    contract requires that folding any consecutive split of the record
//!    sequence into fresh shards and merging the shards in storage order
//!    equals one sequential fold.
//! 2. [`Executor::fold_ordered`] — for order-dependent passes (Greedy's
//!    lazy exclusion, the swap algorithms' earlier-record-wins conflict
//!    resolution, Algorithm 5's star partition). The fold itself must
//!    stay sequential, so the parallel backend pipelines instead: the
//!    workers decode ahead while the calling thread folds their units in
//!    exact storage order — I/O and decode overlap the fold without
//!    changing a single transition.
//!
//! The queue is bounded, so a slow fold back-pressures the reader
//! instead of buffering the whole graph; a panicking worker closes the
//! queue on unwind, so no thread is ever left blocked. All I/O
//! accounting flows into the same shared [`mis_extmem::IoStats`] the
//! sequential path uses — its counters are atomic, so per-thread tallies
//! need no extra plumbing.

use std::io;
use std::num::NonZeroUsize;

use mis_graph::{GraphScan, RawScan, VertexId};

pub mod passes;
mod queue;
mod raw;

use raw::{fold_ordered_raw, run_pass_raw};

/// Default byte budget per raw hand-out unit (see
/// [`ParallelConfig::unit_bytes`]).
///
/// A quarter-megabyte unit amortises queue traffic while keeping dozens
/// of units in flight even for modest graphs, and forces power-law hub
/// records larger than this to split across workers.
pub const DEFAULT_UNIT_BYTES: usize = 256 * 1024;

/// One fold over the adjacency records, split into mergeable shards.
///
/// # Contract
///
/// For **any** split of the storage-order record sequence into
/// consecutive chunks `c₀, c₁, …, cₖ`, folding each chunk into a fresh
/// shard (via [`ScanPass::visit`]) and combining the shards **in chunk
/// order** (via [`ScanPass::merge`], starting from a fresh accumulator)
/// must produce the same result as folding the whole sequence into one
/// shard. Passes whose per-record transition reads state written earlier
/// in the *same* pass cannot satisfy this — run those through
/// [`Executor::fold_ordered`] instead.
///
/// The executor may call `visit` concurrently on different shards from
/// different threads, hence `Sync`; any shared inputs (state arrays,
/// membership bitmaps) are borrowed immutably for the pass lifetime.
pub trait ScanPass: Sync {
    /// Per-chunk fold state.
    type Shard: Send;
    /// Final result produced from the fully merged shard.
    type Output;

    /// Creates an empty shard.
    fn new_shard(&self) -> Self::Shard;

    /// Folds one record into `shard`.
    fn visit(&self, shard: &mut Self::Shard, v: VertexId, neighbors: &[VertexId]);

    /// Combines `later` into `into`; `later` covers records that appear
    /// **after** `into`'s records in storage order.
    fn merge(&self, into: &mut Self::Shard, later: Self::Shard);

    /// Finishes the fully merged shard into the pass output.
    fn finish(&self, shard: Self::Shard) -> Self::Output;
}

/// Tuning knobs of the parallel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of decode/fold worker threads (minimum 1; the framing
    /// reader runs on its own thread in addition).
    pub threads: usize,
    /// Byte budget per raw hand-out unit ([`mis_graph::RawScanLimits`]):
    /// records larger than this are split across units so one power-law
    /// hub cannot serialise the decode (minimum 1; see
    /// [`DEFAULT_UNIT_BYTES`]).
    pub unit_bytes: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            threads: available_threads(),
            unit_bytes: DEFAULT_UNIT_BYTES,
        }
    }
}

/// The hardware parallelism of this machine (1 when unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// How an algorithm's scan passes are executed.
///
/// `Sequential` is the paper's verbatim single-threaded access model and
/// the default everywhere. `Parallel` keeps outputs bit-identical (see
/// [`ScanPass`]'s contract and the engine-equivalence proptests) while
/// using multiple cores for the decode and fold of each pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// Fold every record on the calling thread, in storage order.
    #[default]
    Sequential,
    /// Raw hand-out backend: framing reader thread + `N` decode workers.
    Parallel(ParallelConfig),
}

impl Executor {
    /// A parallel executor with `threads` workers and the default unit
    /// size. `threads <= 1` runs the sequential path directly — one
    /// worker behind a reader thread and a queue is strictly slower than
    /// one thread doing both, so `par(1)` never pays the machinery it
    /// cannot benefit from.
    pub fn parallel(threads: usize) -> Self {
        Executor::Parallel(ParallelConfig {
            threads: threads.max(1),
            ..ParallelConfig::default()
        })
    }

    /// A parallel executor sized to the machine
    /// ([`available_threads`]).
    pub fn auto() -> Self {
        Executor::parallel(available_threads())
    }

    /// Number of fold threads this executor uses.
    pub fn threads(&self) -> usize {
        match self {
            Executor::Sequential => 1,
            Executor::Parallel(cfg) => cfg.threads.max(1),
        }
    }

    /// Short human-readable description (`seq` / `par(N)`).
    pub fn describe(&self) -> String {
        match self {
            Executor::Sequential => "seq".to_string(),
            Executor::Parallel(cfg) => format!("par({})", cfg.threads.max(1)),
        }
    }

    /// The raw backend this executor runs `graph` on, or `None` for the
    /// sequential path: a sequential or one-thread executor, or a graph
    /// without a raw view.
    fn raw_backend<'a, G: GraphScan + ?Sized>(
        &'a self,
        graph: &'a G,
    ) -> Option<(&'a dyn RawScan, &'a ParallelConfig)> {
        match self {
            Executor::Parallel(cfg) if cfg.threads > 1 => graph.raw_scan().map(|raw| (raw, cfg)),
            _ => None,
        }
    }

    /// Runs a mergeable [`ScanPass`] over `graph` and returns its output.
    pub fn run_pass<G, P>(&self, graph: &G, pass: &P) -> io::Result<P::Output>
    where
        G: GraphScan + ?Sized,
        P: ScanPass,
    {
        if let Some((raw, cfg)) = self.raw_backend(graph) {
            return run_pass_raw(raw, pass, cfg);
        }
        let mut shard = pass.new_shard();
        graph.scan(&mut |v, ns| pass.visit(&mut shard, v, ns))?;
        Ok(pass.finish(shard))
    }

    /// Runs an **order-dependent** fold over `graph`: `f` sees every
    /// record in exact storage order, regardless of backend. The parallel
    /// backend decodes on the workers while the calling thread folds,
    /// which overlaps I/O and decode with the fold without touching its
    /// semantics.
    pub fn fold_ordered<G>(
        &self,
        graph: &G,
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) -> io::Result<()>
    where
        G: GraphScan + ?Sized,
    {
        match self.raw_backend(graph) {
            Some((raw, cfg)) => fold_ordered_raw(raw, cfg, f),
            None => graph.scan(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use mis_extmem::{IoStats, ScratchDir};
    use mis_graph::{
        build_adj_file, compress_adj, split_adj_file, AnyAdjFile, CsrGraph, OrderedCsr,
        SplitOptions,
    };

    /// Counts records and sums `v * (1 + deg)` — order-insensitive, so it
    /// is a valid mergeable pass.
    struct CountPass;
    impl ScanPass for CountPass {
        type Shard = (u64, u64);
        type Output = (u64, u64);
        fn new_shard(&self) -> Self::Shard {
            (0, 0)
        }
        fn visit(&self, shard: &mut Self::Shard, v: VertexId, ns: &[VertexId]) {
            shard.0 += 1;
            shard.1 += u64::from(v) * (1 + ns.len() as u64);
        }
        fn merge(&self, into: &mut Self::Shard, later: Self::Shard) {
            into.0 += later.0;
            into.1 += later.1;
        }
        fn finish(&self, shard: Self::Shard) -> Self::Output {
            shard
        }
    }

    /// Collects the record sequence — merge-in-order must reproduce the
    /// sequential visiting order exactly.
    struct SequencePass;
    impl ScanPass for SequencePass {
        type Shard = Vec<VertexId>;
        type Output = Vec<VertexId>;
        fn new_shard(&self) -> Self::Shard {
            Vec::new()
        }
        fn visit(&self, shard: &mut Self::Shard, v: VertexId, _ns: &[VertexId]) {
            shard.push(v);
        }
        fn merge(&self, into: &mut Self::Shard, later: Self::Shard) {
            into.extend(later);
        }
        fn finish(&self, shard: Self::Shard) -> Self::Output {
            shard
        }
    }

    /// A power-law graph stored plain, gap-compressed and split into three
    /// shards: every kind of store the raw backend runs on.
    fn stores(dir: &ScratchDir, g: &CsrGraph) -> Vec<AnyAdjFile> {
        let stats = IoStats::shared();
        let plain = build_adj_file(g, &dir.file("g.adj"), Arc::clone(&stats), 512).unwrap();
        let comp = compress_adj(g, &dir.file("g.cadj"), Arc::clone(&stats), 512).unwrap();
        let plain = AnyAdjFile::Plain(plain);
        let split = SplitOptions {
            shards: 3,
            block_size: 512,
        };
        split_adj_file(&plain, &dir.file("g.shrd"), &split).unwrap();
        let sharded = AnyAdjFile::open_with_block_size(&dir.file("g.shrd"), stats, 512).unwrap();
        vec![plain, AnyAdjFile::Compressed(comp), sharded]
    }

    fn graph() -> CsrGraph {
        mis_gen::plrg::Plrg::with_vertices(500, 2.0)
            .seed(3)
            .generate()
    }

    fn par(threads: usize, unit_bytes: usize) -> Executor {
        Executor::Parallel(ParallelConfig {
            threads,
            unit_bytes,
        })
    }

    fn scan_order(g: &dyn GraphScan) -> Vec<VertexId> {
        let mut order = Vec::new();
        g.scan(&mut |v, _| order.push(v)).unwrap();
        order
    }

    #[test]
    fn parallel_run_pass_matches_sequential() {
        let dir = ScratchDir::new("engine-run-pass").unwrap();
        for file in stores(&dir, &graph()) {
            let seq = Executor::Sequential.run_pass(&file, &CountPass).unwrap();
            for threads in 1..=4 {
                // One-byte units split every record into pieces.
                for unit_bytes in [1, 7, 64, DEFAULT_UNIT_BYTES] {
                    let got = par(threads, unit_bytes).run_pass(&file, &CountPass);
                    let what = format!("{} threads {threads}, unit {unit_bytes}", file.storage());
                    assert_eq!(got.unwrap(), seq, "{what}");
                }
            }
        }
    }

    #[test]
    fn shard_merge_preserves_storage_order() {
        let dir = ScratchDir::new("engine-merge-order").unwrap();
        for file in stores(&dir, &graph()) {
            let order = scan_order(&file);
            let seq = Executor::Sequential.run_pass(&file, &SequencePass);
            assert_eq!(seq.unwrap(), order);
            for threads in [2, 3] {
                let got = par(threads, 13).run_pass(&file, &SequencePass).unwrap();
                assert_eq!(got, order, "{} threads {threads}", file.storage());
            }
        }
    }

    #[test]
    fn fold_ordered_sees_storage_order_on_both_backends() {
        let dir = ScratchDir::new("engine-fold-order").unwrap();
        for file in stores(&dir, &graph()) {
            let mut seq = Vec::new();
            Executor::Sequential
                .fold_ordered(&file, &mut |v, ns| seq.push((v, ns.to_vec())))
                .unwrap();
            for exec in [Executor::parallel(4), par(3, 16)] {
                let mut got = Vec::new();
                exec.fold_ordered(&file, &mut |v, ns| got.push((v, ns.to_vec())))
                    .unwrap();
                assert_eq!(got, seq, "{} {exec:?}", file.storage());
            }
        }
    }

    #[test]
    fn parallel_pass_charges_one_scan_and_the_sequential_blocks() {
        let dir = ScratchDir::new("engine-io").unwrap();
        for file in stores(&dir, &graph()) {
            let stats = Arc::clone(file.stats());
            let before = stats.snapshot();
            Executor::Sequential.run_pass(&file, &CountPass).unwrap();
            let seq = stats.snapshot().since(&before);
            for threads in [2, 3, 8] {
                let before = stats.snapshot();
                Executor::parallel(threads)
                    .run_pass(&file, &CountPass)
                    .unwrap();
                let got = stats.snapshot().since(&before);
                let what = format!("{} threads {threads}", file.storage());
                assert_eq!(got.scans_started, 1, "{what}: one logical scan");
                assert_eq!(got.blocks_read, seq.blocks_read, "{what}: blocks");
            }
        }
    }

    #[test]
    fn graphs_without_a_raw_view_run_sequentially() {
        let g = graph();
        let ordered = OrderedCsr::degree_sorted(&g);
        assert!(ordered.raw_scan().is_none());
        let seq = Executor::Sequential.run_pass(&ordered, &SequencePass);
        assert_eq!(seq.unwrap(), ordered.order());
        let got = Executor::parallel(4).run_pass(&ordered, &SequencePass);
        assert_eq!(got.unwrap(), ordered.order());
        let mut folded = Vec::new();
        Executor::parallel(4)
            .fold_ordered(&ordered, &mut |v, _| folded.push(v))
            .unwrap();
        assert_eq!(folded, ordered.order());
    }

    #[test]
    fn executor_accessors() {
        assert_eq!(Executor::Sequential.threads(), 1);
        assert_eq!(Executor::Sequential.describe(), "seq");
        assert_eq!(Executor::parallel(0).threads(), 1);
        assert_eq!(Executor::parallel(4).threads(), 4);
        assert_eq!(Executor::parallel(4).describe(), "par(4)");
        assert_eq!(Executor::default(), Executor::Sequential);
        assert!(Executor::auto().threads() >= 1);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn empty_graph_passes() {
        let g = CsrGraph::empty(0);
        let dir = ScratchDir::new("engine-empty").unwrap();
        let stats = IoStats::shared();
        let plain = build_adj_file(&g, &dir.file("e.adj"), Arc::clone(&stats), 512).unwrap();
        let comp = compress_adj(&g, &dir.file("e.cadj"), stats, 512).unwrap();
        let graphs: [&dyn GraphScan; 3] = [&g, &plain, &comp];
        for graph in graphs {
            let (records, sum) = Executor::parallel(2).run_pass(graph, &CountPass).unwrap();
            assert_eq!((records, sum), (0, 0));
            let mut visited = 0u32;
            Executor::parallel(2)
                .fold_ordered(graph, &mut |_, _| visited += 1)
                .unwrap();
            assert_eq!(visited, 0);
        }
    }
}
