//! The streaming interface of the semi-external model.
//!
//! Every algorithm in `mis-core` touches the edge set exclusively through
//! [`GraphScan::scan`]: a full sequential pass over all adjacency records
//! in the representation's storage order. This is precisely the access
//! pattern the paper's algorithms are allowed — no random access to edges.
//!
//! Implementations:
//! * [`crate::CsrGraph`] — in-memory, storage order = vertex id order;
//! * [`OrderedCsr`] — in-memory with an explicit record order (used to
//!   emulate a degree-sorted file without disk I/O);
//! * [`crate::AdjFile`] — on disk, storage order = the order records were
//!   written (vertex-id order from the builder, degree order after the
//!   Algorithm 1 preprocessing step);
//! * [`crate::CompressedAdjFile`] and [`crate::ShardedGraph`] — the
//!   gap-compressed and the vertex-range sharded on-disk stores.
//!
//! The on-disk formats also implement [`RawScan`], the one interface the
//! parallel execution engine runs on: a sequential pass that *frames*
//! undecoded [`RawUnit`]s, and a `decode_unit` any worker thread can call
//! on them. In-memory graphs have no raw view and are always scanned
//! sequentially.

use std::io;

use crate::csr::CsrGraph;
use crate::raccess::NeighborAccess;
use crate::VertexId;

/// A graph that can be scanned sequentially, record by record.
///
/// One *record* is a vertex together with its full neighbour list. A scan
/// visits every vertex exactly once; the visiting order is a property of
/// the implementation and is significant (the paper's Greedy requires
/// ascending-degree order, and the swap algorithms' conflict resolution
/// gives earlier records preemption rights).
///
/// Scanning is a shared read (`&self`), so the trait requires [`Sync`]:
/// the execution engine (`mis_core::engine`) hands the same graph to a
/// framing reader thread and unit-decoding workers.
pub trait GraphScan: Sync {
    /// Number of vertices (`|V|`; always fits in memory in this model).
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges (`|E|`).
    fn num_edges(&self) -> u64;

    /// Performs one full sequential scan, invoking `f(v, neighbours)` for
    /// every vertex in storage order.
    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()>;

    /// A short human-readable description of the backing storage.
    fn storage(&self) -> &'static str {
        "unknown"
    }

    /// The raw (undecoded) hand-out interface of this storage, if it has
    /// one. On-disk formats (plain, compressed and sharded) return
    /// `Some`, and the execution engine's parallel backend runs on it:
    /// one reader thread only *frames* byte ranges and each worker
    /// decodes its own units. Pure in-memory representations return
    /// `None` (there is nothing to read or decode), and the engine runs
    /// their passes sequentially.
    fn raw_scan(&self) -> Option<&dyn RawScan> {
        None
    }
}

/// Framing limits for [`RawScan::scan_raw`].
#[derive(Debug, Clone, Copy)]
pub struct RawScanLimits {
    /// Soft cap on whole records per [`RawUnitKind::Records`] unit.
    pub target_records: usize,
    /// Byte budget per hand-out unit. A single record larger than this is
    /// split into [`RawUnitKind::Piece`] units so one power-law hub
    /// cannot serialise the worker pipeline.
    pub unit_bytes: usize,
}

/// What a [`RawUnit`]'s bytes contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawUnitKind {
    /// `records` whole adjacency records, back to back in storage order.
    Records {
        /// Number of complete records in the unit.
        records: usize,
    },
    /// Part of one oversized record, split for degree-balanced hand-out.
    /// The first piece starts with the record header; later pieces are
    /// raw neighbour payload continuing where the previous piece ended.
    Piece {
        /// The record's vertex.
        vertex: VertexId,
        /// Number of neighbour values encoded in this piece.
        count: usize,
        /// Whether this piece starts the record (and carries its header).
        first: bool,
        /// Whether this piece ends the record.
        last: bool,
    },
}

/// An undecoded byte range handed from the reader thread to a decoding
/// worker. `seq` numbers units `0, 1, 2, …` in storage order, so results
/// merge deterministically no matter which worker decoded which unit.
#[derive(Debug, Clone)]
pub struct RawUnit {
    seq: u64,
    /// Index of the shard file that framed the unit (0 outside sharded
    /// stores), so a sharded store can hand it back to that file.
    shard: usize,
    kind: RawUnitKind,
    bytes: Vec<u8>,
}

impl RawUnit {
    pub(crate) fn new(seq: u64, kind: RawUnitKind, bytes: Vec<u8>) -> Self {
        Self {
            seq,
            shard: 0,
            kind,
            bytes,
        }
    }

    /// Re-tags a unit framed by shard `shard` with its store-wide `seq`.
    pub(crate) fn in_shard(self, seq: u64, shard: usize) -> Self {
        Self { seq, shard, ..self }
    }

    /// The shard tag set by [`RawUnit::in_shard`].
    pub(crate) fn shard(&self) -> usize {
        self.shard
    }

    /// Position of this unit in storage order.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// What the bytes contain.
    pub fn kind(&self) -> RawUnitKind {
        self.kind
    }

    /// The raw encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// The result of decoding one [`RawUnit`].
#[derive(Debug, Clone)]
pub enum DecodedUnit {
    /// A [`RawUnitKind::Records`] unit: a block of whole records.
    Block(RecordBlock),
    /// A [`RawUnitKind::Piece`] unit: part of one split record, to be
    /// reassembled in `seq` order by a [`PieceAssembler`].
    Piece(DecodedPiece),
}

/// A decoded fragment of one oversized record.
#[derive(Debug, Clone)]
pub struct DecodedPiece {
    /// The record's vertex.
    pub vertex: VertexId,
    /// Total neighbour count of the full record (from the record header;
    /// only meaningful when `first` is set).
    pub degree: usize,
    /// Decoded neighbour values. Absolute ids when `relative` is false;
    /// otherwise the gap-coded continuation decoded against base 0 —
    /// [`PieceAssembler::push`] makes each value absolute by adding the
    /// predecessor's last absolute value.
    pub values: Vec<VertexId>,
    /// Whether `values` are relative to the previous piece's last value.
    pub relative: bool,
    /// Whether this piece starts the record.
    pub first: bool,
    /// Whether this piece ends the record.
    pub last: bool,
}

/// Deterministic reassembly of split-record pieces.
///
/// Feed [`DecodedPiece`]s **in `seq` order**; when the final piece of a
/// record arrives, [`PieceAssembler::push`] yields the complete
/// `(vertex, neighbours)` record, bit-identical to what a sequential
/// scan would have produced.
#[derive(Debug, Default)]
pub struct PieceAssembler {
    vertex: VertexId,
    degree: usize,
    values: Vec<VertexId>,
    started: bool,
}

impl PieceAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a record is partially assembled (pieces still expected).
    pub fn in_progress(&self) -> bool {
        self.started
    }

    /// Adds the next piece in `seq` order. Returns the finished record
    /// when `piece.last` completes it.
    pub fn push(&mut self, piece: DecodedPiece) -> io::Result<Option<(VertexId, Vec<VertexId>)>> {
        let bad = |msg: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("piece reassembly: {msg}"),
            )
        };
        if piece.first {
            if self.started {
                return Err(bad("new record started before the previous one finished"));
            }
            if piece.relative {
                return Err(bad("first piece cannot be relative"));
            }
            self.vertex = piece.vertex;
            self.degree = piece.degree;
            self.values = piece.values;
            self.started = true;
        } else {
            if !self.started {
                return Err(bad("continuation piece without a first piece"));
            }
            if piece.vertex != self.vertex {
                return Err(bad("continuation piece for a different vertex"));
            }
            if piece.relative {
                // Relative values are prefix sums of (gap + 1) starting
                // from 0; the true base is the last absolute value so far.
                let base = u64::from(
                    *self
                        .values
                        .last()
                        .ok_or_else(|| bad("relative continuation of an empty prefix"))?,
                );
                self.values.reserve(piece.values.len());
                for &r in &piece.values {
                    let v = base + u64::from(r);
                    if v > u64::from(u32::MAX) {
                        return Err(bad("reassembled id overflows u32"));
                    }
                    self.values.push(v as u32);
                }
            } else {
                self.values.extend_from_slice(&piece.values);
            }
        }
        if piece.last {
            if self.values.len() != self.degree {
                return Err(bad("reassembled record has the wrong degree"));
            }
            self.started = false;
            return Ok(Some((self.vertex, std::mem::take(&mut self.values))));
        }
        Ok(None)
    }
}

/// Raw byte-range hand-out for worker-side decoding.
///
/// `scan_raw` performs one sequential pass, framing the storage into
/// [`RawUnit`]s without decoding records; `decode_unit` turns one unit
/// into decoded records and is safe to call concurrently from many
/// worker threads (`&self`, [`Sync`]). Concatenating the decoded units
/// in `seq` order — reassembling pieces with a [`PieceAssembler`] —
/// replays exactly the record sequence of [`GraphScan::scan`].
pub trait RawScan: Sync {
    /// One sequential framing pass. `f` returns `false` to stop early
    /// (e.g. the consuming queue closed); stopping early is not an error.
    fn scan_raw(&self, limits: RawScanLimits, f: &mut dyn FnMut(RawUnit) -> bool)
        -> io::Result<()>;

    /// Decodes one unit produced by [`RawScan::scan_raw`].
    fn decode_unit(&self, unit: RawUnit) -> io::Result<DecodedUnit>;
}

/// A batch of decoded adjacency records, contiguous in storage order.
///
/// Produced by [`RawScan::decode_unit`]; its position in storage order
/// is the decoded unit's [`RawUnit::seq`].
#[derive(Debug, Clone)]
pub struct RecordBlock {
    verts: Vec<VertexId>,
    /// `bounds[i]..bounds[i + 1]` is the neighbour range of `verts[i]`.
    bounds: Vec<usize>,
    nbrs: Vec<VertexId>,
}

impl Default for RecordBlock {
    /// An empty block.
    fn default() -> Self {
        Self {
            verts: Vec::new(),
            bounds: vec![0],
            nbrs: Vec::new(),
        }
    }
}

impl RecordBlock {
    /// Appends one record whose neighbour list is produced by `fill`
    /// writing **appended** entries straight into the block's shared
    /// neighbour buffer — no intermediate per-record vector. On error the
    /// partial record is rolled back and the block stays valid.
    pub(crate) fn push_with(
        &mut self,
        v: VertexId,
        fill: impl FnOnce(&mut Vec<VertexId>) -> io::Result<()>,
    ) -> io::Result<()> {
        let start = *self.bounds.last().expect("bounds never empty");
        match fill(&mut self.nbrs) {
            Ok(()) => {
                self.verts.push(v);
                self.bounds.push(self.nbrs.len());
                Ok(())
            }
            Err(e) => {
                self.nbrs.truncate(start);
                Err(e)
            }
        }
    }

    /// Number of records in the block.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// The `i`-th record: `(vertex, neighbours)`.
    pub fn record(&self, i: usize) -> (VertexId, &[VertexId]) {
        (
            self.verts[i],
            &self.nbrs[self.bounds[i]..self.bounds[i + 1]],
        )
    }

    /// Iterates the records in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        (0..self.len()).map(|i| self.record(i))
    }
}

impl GraphScan for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    fn num_edges(&self) -> u64 {
        CsrGraph::num_edges(self)
    }

    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        for v in self.vertices() {
            f(v, self.neighbors(v));
        }
        Ok(())
    }

    fn storage(&self) -> &'static str {
        "csr"
    }
}

/// An in-memory CSR graph scanned in an explicit record order.
///
/// This emulates the degree-sorted adjacency file of Algorithm 1 without
/// any disk I/O; experiments that want real block transfers use
/// [`crate::AdjFile`] instead.
#[derive(Debug, Clone)]
pub struct OrderedCsr<'a> {
    graph: &'a CsrGraph,
    order: Vec<VertexId>,
    /// Inverse permutation: `rank[v]` = position of `v` in `order`.
    rank: Vec<u32>,
}

impl<'a> OrderedCsr<'a> {
    /// Wraps `graph` with an explicit scan order.
    ///
    /// `order` must be a permutation of `0..|V|`; checked in debug builds.
    pub fn new(graph: &'a CsrGraph, order: Vec<VertexId>) -> Self {
        debug_assert_eq!(order.len(), graph.num_vertices());
        #[cfg(debug_assertions)]
        {
            let mut seen = vec![false; graph.num_vertices()];
            for &v in &order {
                assert!(!seen[v as usize], "order is not a permutation");
                seen[v as usize] = true;
            }
        }
        let mut rank = vec![0u32; order.len()];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        Self { graph, order, rank }
    }

    /// Wraps `graph` in ascending-degree order (ties broken by id), the
    /// order produced by Algorithm 1's preprocessing sort.
    pub fn degree_sorted(graph: &'a CsrGraph) -> Self {
        let mut order: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
        order.sort_by_key(|&v| (graph.degree(v), v));
        Self::new(graph, order)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        self.graph
    }

    /// The scan order.
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }
}

impl NeighborAccess for CsrGraph {
    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> io::Result<()> {
        f(self.neighbors(v));
        Ok(())
    }

    fn record_rank(&self, v: VertexId) -> u64 {
        // CSR storage order is vertex-id order.
        u64::from(v)
    }

    fn access_storage(&self) -> &'static str {
        "csr"
    }
}

impl NeighborAccess for OrderedCsr<'_> {
    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> io::Result<()> {
        f(self.graph.neighbors(v));
        Ok(())
    }

    fn record_rank(&self, v: VertexId) -> u64 {
        u64::from(self.rank[v as usize])
    }

    fn access_storage(&self) -> &'static str {
        "csr-ordered"
    }
}

impl GraphScan for OrderedCsr<'_> {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn num_edges(&self) -> u64 {
        self.graph.num_edges()
    }

    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        for &v in &self.order {
            f(v, self.graph.neighbors(v));
        }
        Ok(())
    }

    fn storage(&self) -> &'static str {
        "csr-ordered"
    }
}

/// Test utility: replays a raw scan through decode + piece reassembly
/// and checks it reproduces `scan` exactly — across unit budgets small
/// enough to split most records into pieces. Shared by the plain and
/// compressed adjacency-file test suites.
#[cfg(test)]
pub(crate) fn assert_raw_replays_scan(file: &dyn GraphScan) {
    let mut direct = Vec::new();
    file.scan(&mut |v, ns| direct.push((v, ns.to_vec())))
        .unwrap();
    let raw = file.raw_scan().expect("on-disk formats expose raw scans");
    for (target, unit_bytes) in [(4, 1 << 20), (1, 1 << 20), (4, 64), (4, 1), (100, 7)] {
        let limits = RawScanLimits {
            target_records: target,
            unit_bytes,
        };
        let mut units = Vec::new();
        raw.scan_raw(limits, &mut |u| {
            units.push(u);
            true
        })
        .unwrap();
        let expect_seqs: Vec<u64> = (0..units.len() as u64).collect();
        let seqs: Vec<u64> = units.iter().map(|u| u.seq()).collect();
        assert_eq!(seqs, expect_seqs, "unit seq numbers in order");
        let mut replayed = Vec::new();
        let mut assembler = PieceAssembler::new();
        for unit in units {
            match raw.decode_unit(unit).unwrap() {
                DecodedUnit::Block(block) => {
                    assert!(!assembler.in_progress(), "block inside a split record");
                    for (v, ns) in block.iter() {
                        replayed.push((v, ns.to_vec()));
                    }
                }
                DecodedUnit::Piece(piece) => {
                    if let Some((v, ns)) = assembler.push(piece).unwrap() {
                        replayed.push((v, ns));
                    }
                }
            }
        }
        assert!(!assembler.in_progress(), "last record left unfinished");
        assert_eq!(replayed, direct, "target {target}, unit_bytes {unit_bytes}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> CsrGraph {
        // Vertex 0 is the hub of a 4-star.
        CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)])
    }

    #[test]
    fn csr_scan_visits_in_id_order() {
        let g = star();
        let mut seen = Vec::new();
        g.scan(&mut |v, ns| seen.push((v, ns.len()))).unwrap();
        assert_eq!(seen, vec![(0, 4), (1, 1), (2, 1), (3, 1), (4, 1)]);
    }

    #[test]
    fn degree_sorted_order_puts_leaves_first() {
        let g = star();
        let ordered = OrderedCsr::degree_sorted(&g);
        assert_eq!(ordered.order(), &[1, 2, 3, 4, 0]);
        let mut seen = Vec::new();
        ordered.scan(&mut |v, _| seen.push(v)).unwrap();
        assert_eq!(seen, vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn explicit_order_is_respected() {
        let g = star();
        let ordered = OrderedCsr::new(&g, vec![4, 3, 2, 1, 0]);
        let mut seen = Vec::new();
        ordered.scan(&mut |v, _| seen.push(v)).unwrap();
        assert_eq!(seen, vec![4, 3, 2, 1, 0]);
        assert_eq!(ordered.num_vertices(), 5);
        assert_eq!(ordered.num_edges(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a permutation")]
    fn bad_order_panics_in_debug() {
        let g = star();
        let _ = OrderedCsr::new(&g, vec![0, 0, 1, 2, 3]);
    }

    #[test]
    fn record_block_accessors() {
        let g = star();
        let mut block = RecordBlock::default();
        g.scan(&mut |v, ns| {
            block
                .push_with(v, |dst| {
                    dst.extend_from_slice(ns);
                    Ok(())
                })
                .unwrap()
        })
        .unwrap();
        assert_eq!(block.len(), 5);
        assert_eq!(block.record(0), (0, &[1, 2, 3, 4][..]));
        assert_eq!(block.record(1).1, &[0][..]);
    }
}
