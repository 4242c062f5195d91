//! Random-access adjacency reads through the buffer pool.
//!
//! The semi-external algorithms are written against [`GraphScan`] — full
//! sequential passes. Late swap rounds, however, only need to verify a
//! handful of candidates, and a full `scan(|V|+|E|)` pass for a few
//! records is exactly the waste a database buffer pool exists to remove.
//! This module adds the random-access side:
//!
//! * [`RecordIndex`] — one `u64` file offset per vertex, built while
//!   writing the file ([`crate::adjfile::AdjFileWriter::finish_indexed`])
//!   or by one accounted scan ([`RecordIndex::build`]). `8|V|` bytes,
//!   within the semi-external `O(|V|)` memory budget. Gap-compressed
//!   files use [`crate::CompressedRecordIndex`] instead (offset *and*
//!   byte length per vertex, `12|V|` bytes — variable-width records have
//!   no computable length).
//! * [`RandomAccessGraph`] — an adjacency file (plain `MISADJ01` or
//!   gap-compressed `MISADJC1`) behind a [`BufferPool`]:
//!   [`RandomAccessGraph::neighbors`] resolves a vertex through the
//!   index and reads its record via pinned pages, so repeated reads of a
//!   small working set cost cache hits instead of scans.
//! * [`NeighborAccess`] — the trait the swap algorithms use for their
//!   paged candidate-verification path, also implemented by the in-memory
//!   representations so the paged code path can be tested without disk.
//!
//! [`GraphScan`]: crate::GraphScan

use std::cell::RefCell;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use mis_extmem::pager::{open_file_source, BufferPool, FilePageSource, PagerConfig};
use mis_extmem::varint::{decode_ascending_gaps_slice, decode_varint_slice};
use mis_extmem::IoStats;

use crate::adjfile::{AdjFile, HEADER_BYTES};
use crate::compressed::{CompressedAdjFile, CompressedRecordIndex};
use crate::scan::GraphScan;
use crate::sparse::{SparsePart, SparseReader};
use crate::VertexId;

/// Per-vertex byte offsets of adjacency records within an [`AdjFile`].
/// An index built by scanning a file under 4 GiB keeps 4-byte offsets,
/// so it costs `4|V|` bytes instead of `8|V|`. Cloning shares the
/// offsets (the random-access path and its [`SparseReader`] hold one
/// copy between them).
#[derive(Debug, Clone)]
pub struct RecordIndex {
    offsets: Offsets,
}

#[derive(Debug, Clone)]
enum Offsets {
    Narrow(Arc<Vec<u32>>),
    Wide(Arc<Vec<u64>>),
}

impl Default for RecordIndex {
    fn default() -> Self {
        Self::from_offsets(Vec::new())
    }
}

impl RecordIndex {
    /// Wraps raw offsets (indexed by vertex id).
    pub fn from_offsets(offsets: Vec<u64>) -> Self {
        Self {
            offsets: Offsets::Wide(Arc::new(offsets)),
        }
    }

    /// Builds the index with one accounted sequential scan of `file`.
    pub fn build(file: &AdjFile) -> io::Result<Self> {
        let _span = mis_obs::span("graph", "index.build");
        let n = file.num_vertices();
        // Record layout: vertex u32, degree u32, then the list.
        let record_bytes = |ns: &[VertexId]| 8 + 4 * ns.len() as u64;
        let mut pos = HEADER_BYTES as u64;
        let offsets = if file.disk_bytes()? <= u64::from(u32::MAX) {
            let mut offsets = vec![0u32; n];
            file.scan(&mut |v, ns| {
                offsets[v as usize] = pos as u32;
                pos += record_bytes(ns);
            })?;
            Offsets::Narrow(Arc::new(offsets))
        } else {
            let mut offsets = vec![0u64; n];
            file.scan(&mut |v, ns| {
                offsets[v as usize] = pos;
                pos += record_bytes(ns);
            })?;
            Offsets::Wide(Arc::new(offsets))
        };
        Ok(Self { offsets })
    }

    /// Byte offset of `v`'s record from the start of the file.
    pub fn offset(&self, v: VertexId) -> u64 {
        match &self.offsets {
            Offsets::Narrow(o) => u64::from(o[v as usize]),
            Offsets::Wide(o) => o[v as usize],
        }
    }

    /// Number of indexed vertices.
    pub fn len(&self) -> usize {
        match &self.offsets {
            Offsets::Narrow(o) => o.len(),
            Offsets::Wide(o) => o.len(),
        }
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the index holds per vertex (4 or 8).
    pub fn bytes_per_vertex(&self) -> u64 {
        match &self.offsets {
            Offsets::Narrow(_) => 4,
            Offsets::Wide(_) => 8,
        }
    }
}

/// Random-access neighbour reads, ordered consistently with some scan.
///
/// Implementations promise that [`NeighborAccess::record_rank`] is
/// strictly monotone in the storage order of the matching [`GraphScan`]
/// representation: sorting vertices by rank and visiting them reproduces
/// the relative order a full scan would visit them in. The swap
/// algorithms rely on this to keep their earlier-record-wins conflict
/// resolution identical on the paged path.
pub trait NeighborAccess {
    /// Fetches `v`'s neighbour list and hands it to `f`.
    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> io::Result<()>;

    /// A key strictly monotone in `v`'s position in storage order.
    fn record_rank(&self, v: VertexId) -> u64;

    /// Resident memory the access path itself holds (pool frames plus
    /// index), for the algorithms' memory model. Zero for in-memory
    /// representations, whose bytes are the graph, not the access path.
    fn resident_bytes(&self) -> u64 {
        0
    }

    /// Short human-readable description of the backing storage.
    fn access_storage(&self) -> &'static str {
        "unknown"
    }
}

/// Mutable internals of [`RandomAccessGraph`] behind one `RefCell`.
struct PoolState {
    pool: BufferPool<FilePageSource>,
    /// Reusable record byte buffer.
    raw: Vec<u8>,
    /// Reusable decoded neighbour list.
    nbrs: Vec<VertexId>,
}

/// How the records behind the pool are encoded.
enum Codec {
    /// Fixed-width `MISADJ01` records: `u32` vertex, `u32` degree,
    /// `u32` neighbours.
    Plain,
    /// Varint/gap-coded `MISADJC1` records; variable width, so the
    /// per-vertex byte length rides along from the
    /// [`CompressedRecordIndex`].
    Compressed { lens: Arc<Vec<u32>> },
}

/// An adjacency file — plain or gap-compressed — served through a
/// buffer-pool page cache.
///
/// Create with [`RandomAccessGraph::open`] /
/// [`RandomAccessGraph::open_compressed`] (index built by one scan) or
/// [`RandomAccessGraph::with_index`] /
/// [`RandomAccessGraph::with_compressed_index`] (index carried over from
/// the writer). All reads go through the pool, so hits, misses,
/// evictions and the block transfers of misses land in the same
/// [`mis_extmem::IoStats`] as the scan machinery's counters.
pub struct RandomAccessGraph {
    state: RefCell<PoolState>,
    index: RecordIndex,
    codec: Codec,
    /// The file behind the pool, its I/O counters and scan block size,
    /// for [`RandomAccessGraph::sparse_reader`].
    path: PathBuf,
    stats: Arc<IoStats>,
    block_size: usize,
    num_vertices: usize,
    num_edges: u64,
    config: PagerConfig,
    /// First global vertex id served by this graph. Non-zero only for
    /// shard members of a [`crate::sharded::ShardedGraph`], whose records
    /// carry global ids while the index spans only the shard's own
    /// records (`global id - vertex_base` = local index).
    vertex_base: VertexId,
    /// Added to every byte offset by [`NeighborAccess::record_rank`] so
    /// ranks stay strictly monotone across a whole sharded store (the
    /// caller passes the sum of the preceding shards' file sizes).
    rank_base: u64,
}

impl std::fmt::Debug for RandomAccessGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomAccessGraph")
            .field("num_vertices", &self.num_vertices)
            .field("num_edges", &self.num_edges)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl RandomAccessGraph {
    /// Opens `file` for random access, building the record index with one
    /// accounted scan.
    pub fn open(file: &AdjFile, config: PagerConfig) -> io::Result<Self> {
        let index = RecordIndex::build(file)?;
        Self::with_index(file, index, config)
    }

    /// Opens `file` for random access with a pre-built index (for
    /// instance from [`crate::adjfile::AdjFileWriter::finish_indexed`]).
    pub fn with_index(file: &AdjFile, index: RecordIndex, config: PagerConfig) -> io::Result<Self> {
        if index.len() != file.num_vertices() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record index covers {} vertices, file has {}",
                    index.len(),
                    file.num_vertices()
                ),
            ));
        }
        Self::build(
            file.path(),
            Arc::clone(file.stats()),
            file.block_size(),
            index,
            Codec::Plain,
            file.num_vertices(),
            file.num_edges(),
            config,
        )
    }

    /// Opens a gap-compressed file for random access, building the
    /// record index with one accounted scan.
    pub fn open_compressed(file: &CompressedAdjFile, config: PagerConfig) -> io::Result<Self> {
        let index = CompressedRecordIndex::build(file)?;
        Self::with_compressed_index(file, index, config)
    }

    /// Opens a gap-compressed file for random access with a pre-built
    /// index (for instance from
    /// [`crate::compressed::CompressedAdjWriter::finish_indexed`]).
    pub fn with_compressed_index(
        file: &CompressedAdjFile,
        index: CompressedRecordIndex,
        config: PagerConfig,
    ) -> io::Result<Self> {
        if index.len() != file.num_vertices() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record index covers {} vertices, file has {}",
                    index.len(),
                    file.num_vertices()
                ),
            ));
        }
        let (offsets, lens) = index.into_parts();
        Self::build(
            file.path(),
            Arc::clone(file.stats()),
            file.block_size(),
            RecordIndex::from_offsets(offsets),
            Codec::Compressed {
                lens: Arc::new(lens),
            },
            file.num_vertices(),
            file.num_edges(),
            config,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        path: &std::path::Path,
        stats: Arc<IoStats>,
        block_size: usize,
        index: RecordIndex,
        codec: Codec,
        num_vertices: usize,
        num_edges: u64,
        config: PagerConfig,
    ) -> io::Result<Self> {
        let source = open_file_source(path)?;
        let pool = BufferPool::new(source, config, Arc::clone(&stats));
        Ok(Self {
            state: RefCell::new(PoolState {
                pool,
                raw: Vec::new(),
                nbrs: Vec::new(),
            }),
            index,
            codec,
            path: path.to_path_buf(),
            stats,
            block_size,
            num_vertices,
            num_edges,
            config,
            vertex_base: 0,
            rank_base: 0,
        })
    }

    /// Re-bases this graph as one shard of a larger store: it serves the
    /// `num_vertices()` consecutive global ids starting at `vertex_base`
    /// (the shard's records must be id-ordered, so local index =
    /// `global id - vertex_base`), and its [`NeighborAccess::record_rank`]
    /// values are offset by `rank_base` to stay strictly monotone across
    /// the shards in manifest order.
    pub fn with_shard_base(mut self, vertex_base: VertexId, rank_base: u64) -> Self {
        self.vertex_base = vertex_base;
        self.rank_base = rank_base;
        self
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// The pool configuration this graph was opened with.
    pub fn pager_config(&self) -> &PagerConfig {
        &self.config
    }

    /// Pages currently resident in the pool.
    pub fn resident_pages(&self) -> usize {
        self.state.borrow().pool.resident_pages()
    }

    /// A [`SparseReader`] over the same file and record index: reads
    /// chosen records in one storage-ordered pass, outside the pool.
    /// The index is shared, not copied.
    pub fn sparse_reader(&self) -> SparseReader {
        SparseReader::new(
            vec![self.sparse_part()],
            Arc::clone(&self.stats),
            self.block_size,
        )
    }

    /// This file as one part of a [`SparseReader`].
    pub(crate) fn sparse_part(&self) -> SparsePart {
        SparsePart {
            path: self.path.clone(),
            first: self.vertex_base,
            index: self.index.clone(),
            lens: match &self.codec {
                Codec::Plain => None,
                Codec::Compressed { lens } => Some(Arc::clone(lens)),
            },
        }
    }

    /// Fetches `v`'s neighbour list into a fresh vector.
    pub fn neighbors(&self, v: VertexId) -> io::Result<Vec<VertexId>> {
        let mut out = Vec::new();
        self.with_neighbors_impl(v, &mut |ns| out.extend_from_slice(ns))?;
        Ok(out)
    }

    fn with_neighbors_impl(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> io::Result<()> {
        let local = match v.checked_sub(self.vertex_base) {
            Some(l) if (l as usize) < self.num_vertices => l,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "vertex {v} out of range ({} vertices from {})",
                        self.num_vertices, self.vertex_base
                    ),
                ));
            }
        };
        let offset = self.index.offset(local);
        // Fill the reusable neighbour buffer, then release the borrow so
        // the callback may recursively read through this graph. Records
        // carry global ids, so fetch validation compares against `v`.
        let nbrs = {
            let state = &mut *self.state.borrow_mut();
            match &self.codec {
                Codec::Plain => fetch_plain(state, offset, v)?,
                Codec::Compressed { lens } => {
                    fetch_compressed(state, offset, lens[local as usize] as usize, v)?
                }
            }
        };
        f(&nbrs);
        self.state.borrow_mut().nbrs = nbrs;
        Ok(())
    }
}

/// Decodes `v`'s fixed-width `MISADJ01` record through the pool.
fn fetch_plain(state: &mut PoolState, offset: u64, v: VertexId) -> io::Result<Vec<VertexId>> {
    let PoolState { pool, raw, nbrs } = state;
    // Walk the pages covering the record, pinning each exactly
    // once: header and body share the first page's request, so
    // the hit/miss counters measure real page locality rather
    // than the two-reads-per-record access pattern.
    raw.clear();
    let page_size = pool.config().page_size as u64;
    let mut page_no = offset / page_size;
    let mut in_page = (offset % page_size) as usize;
    let mut header = [0u8; 8];
    let mut header_got = 0usize;
    let mut body_len = 0usize;
    loop {
        if page_no >= pool.num_pages() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated adjacency record",
            ));
        }
        let header_was_done = header_got == 8;
        pool.with_page(page_no, |page| {
            let mut avail: &[u8] = page.get(in_page..).unwrap_or(&[]);
            if header_got < 8 {
                let take = (8 - header_got).min(avail.len());
                header[header_got..header_got + take].copy_from_slice(&avail[..take]);
                header_got += take;
                avail = &avail[take..];
            }
            if header_got == 8 {
                let degree = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
                let take = (4 * degree - raw.len()).min(avail.len());
                raw.extend_from_slice(&avail[..take]);
            }
        })?;
        if header_got == 8 && !header_was_done {
            // Validate the header the moment it completes.
            let vertex = u32::from_le_bytes(header[0..4].try_into().unwrap());
            if vertex != v {
                return Err(out_of_sync(u64::from(vertex), v));
            }
            body_len = 4 * u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        }
        if header_got == 8 && raw.len() == body_len {
            break;
        }
        page_no += 1;
        in_page = 0;
    }
    let mut nbrs = std::mem::take(nbrs);
    nbrs.clear();
    nbrs.extend(
        raw.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
    );
    Ok(nbrs)
}

/// Decodes `v`'s varint/gap-coded `MISADJC1` record through the pool.
/// The index supplies the record's byte length, so the record bytes are
/// gathered with one pin per covered page and decoded in memory.
fn fetch_compressed(
    state: &mut PoolState,
    offset: u64,
    len: usize,
    v: VertexId,
) -> io::Result<Vec<VertexId>> {
    let PoolState { pool, raw, nbrs } = state;
    raw.resize(len, 0);
    let got = pool.read_at(offset, raw)?;
    if got < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated compressed adjacency record",
        ));
    }
    let mut nbrs = std::mem::take(nbrs);
    decode_compressed_record(raw, v, &mut nbrs)?;
    Ok(nbrs)
}

/// Decodes one whole varint/gap-coded `MISADJC1` record held in `raw`
/// into `nbrs`, checking that it belongs to `v`. Running off the end of
/// `raw` means the index length disagreed with the record — a
/// truncation, not a refill condition.
pub(crate) fn decode_compressed_record(
    raw: &[u8],
    v: VertexId,
    nbrs: &mut Vec<VertexId>,
) -> io::Result<()> {
    let to_io = |e: mis_extmem::varint::SliceError| e.into_io_error("compressed adjacency record");
    let (vertex, a) = decode_varint_slice(raw).map_err(to_io)?;
    if vertex != u64::from(v) {
        return Err(out_of_sync(vertex, v));
    }
    let (degree, b) = decode_varint_slice(&raw[a..]).map_err(to_io)?;
    nbrs.clear();
    decode_ascending_gaps_slice(&raw[a + b..], nbrs, degree as usize).map_err(to_io)?;
    Ok(())
}

/// The error of a record index pointing at another vertex's record.
pub(crate) fn out_of_sync(found: u64, v: VertexId) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("record index out of sync: found vertex {found} at {v}'s offset"),
    )
}

impl NeighborAccess for RandomAccessGraph {
    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> io::Result<()> {
        self.with_neighbors_impl(v, f)
    }

    fn record_rank(&self, v: VertexId) -> u64 {
        // Records are contiguous, so the byte offset is itself strictly
        // monotone in storage order; `rank_base` extends that across the
        // shards of a partitioned store.
        self.rank_base + self.index.offset(v - self.vertex_base)
    }

    fn resident_bytes(&self) -> u64 {
        // The offsets (4 or 8 bytes per vertex), plus the explicit 4-byte
        // record length the variable-width compressed records need.
        let per_vertex = match &self.codec {
            Codec::Plain => self.index.bytes_per_vertex(),
            Codec::Compressed { .. } => self.index.bytes_per_vertex() + 4,
        };
        self.config.capacity_bytes() + per_vertex * self.index.len() as u64
    }

    fn access_storage(&self) -> &'static str {
        match &self.codec {
            Codec::Plain => "adj-file+pager",
            Codec::Compressed { .. } => "cadj-file+pager",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjfile::AdjFileWriter;
    use crate::builder::build_adj_file;
    use crate::csr::CsrGraph;
    use mis_extmem::pager::PolicyKind;
    use mis_extmem::{IoStats, ScratchDir};
    use std::sync::Arc;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (1, 3), (2, 4), (4, 5), (0, 5)])
    }

    fn tiny_config(frames: usize) -> PagerConfig {
        PagerConfig {
            page_size: 16, // force records across page boundaries
            frames,
            policy: PolicyKind::Clock,
        }
    }

    #[test]
    fn neighbors_match_scan_for_every_vertex() {
        let g = sample();
        let dir = ScratchDir::new("raccess").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 64).unwrap();
        let mut expected = vec![Vec::new(); g.num_vertices()];
        file.scan(&mut |v, ns| expected[v as usize] = ns.to_vec())
            .unwrap();

        for frames in [1, 2, 64] {
            let ra = RandomAccessGraph::open(&file, tiny_config(frames)).unwrap();
            for v in 0..g.num_vertices() as VertexId {
                assert_eq!(ra.neighbors(v).unwrap(), expected[v as usize], "v={v}");
            }
        }
    }

    #[test]
    fn repeated_reads_hit_the_cache() {
        let g = sample();
        let dir = ScratchDir::new("raccess-hits").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 64).unwrap();
        let ra = RandomAccessGraph::open(
            &file,
            PagerConfig {
                page_size: 4096,
                frames: 4,
                policy: PolicyKind::Lru,
            },
        )
        .unwrap();
        let before = stats.snapshot();
        ra.neighbors(1).unwrap();
        // The whole file fits one page, and header and body share one
        // page request: the first read is a pure miss, so the hit rate
        // measures locality, not the two-reads-per-record pattern.
        let after_first = stats.snapshot().since(&before);
        assert_eq!(after_first.cache_misses, 1);
        assert_eq!(after_first.cache_hits, 0);
        ra.neighbors(1).unwrap();
        ra.neighbors(4).unwrap();
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.cache_misses, 1);
        assert_eq!(delta.cache_hits, 2); // exactly one request per read
        assert_eq!(ra.resident_pages(), 1);
    }

    #[test]
    fn duplicate_record_leaves_a_hole_finish_indexed_rejects() {
        let dir = ScratchDir::new("raccess-dup").unwrap();
        let path = dir.file("g.adj");
        let mut w = AdjFileWriter::create_indexed(&path, 2, 1, IoStats::shared(), 64).unwrap();
        w.write_record(0, &[1]).unwrap();
        w.write_record(0, &[1]).unwrap(); // count right, vertex 1 missing
        let err = w.finish_indexed().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("vertex 1"));
    }

    #[test]
    fn unindexed_writer_cannot_finish_indexed() {
        let dir = ScratchDir::new("raccess-unidx").unwrap();
        let mut w = AdjFileWriter::create(&dir.file("g.adj"), 1, 0, IoStats::shared(), 64).unwrap();
        w.write_record(0, &[]).unwrap();
        assert_eq!(
            w.finish_indexed().unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn writer_index_agrees_with_scan_built_index() {
        let dir = ScratchDir::new("raccess-idx").unwrap();
        let stats = IoStats::shared();
        let path = dir.file("g.adj");
        let mut w = AdjFileWriter::create_indexed(&path, 3, 2, Arc::clone(&stats), 64).unwrap();
        w.write_record(2, &[0]).unwrap(); // out-of-id-order on purpose
        w.write_record(0, &[2, 1]).unwrap();
        w.write_record(1, &[0]).unwrap();
        let from_writer = w.finish_indexed().unwrap();
        let file = AdjFile::open(&path, stats).unwrap();
        let from_scan = RecordIndex::build(&file).unwrap();
        for v in 0..3 {
            assert_eq!(from_writer.offset(v), from_scan.offset(v), "v={v}");
        }
        // Storage order 2, 0, 1 must be reflected by rank order.
        let ra = RandomAccessGraph::with_index(&file, from_writer, tiny_config(4)).unwrap();
        assert!(ra.record_rank(2) < ra.record_rank(0));
        assert!(ra.record_rank(0) < ra.record_rank(1));
        assert_eq!(ra.neighbors(0).unwrap(), vec![2, 1]);
    }

    #[test]
    fn mismatched_index_is_rejected() {
        let g = sample();
        let dir = ScratchDir::new("raccess-bad").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), stats, 64).unwrap();
        let err = RandomAccessGraph::with_index(
            &file,
            RecordIndex::from_offsets(vec![0; 2]),
            tiny_config(2),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let ra = RandomAccessGraph::open(&file, tiny_config(2)).unwrap();
        assert!(ra.neighbors(99).is_err());
    }

    #[test]
    fn compressed_neighbors_match_scan_for_every_vertex() {
        use crate::compressed::{compress_adj_indexed, CompressedRecordIndex};
        let g = sample();
        let dir = ScratchDir::new("raccess-comp").unwrap();
        let stats = IoStats::shared();
        let (file, widx) =
            compress_adj_indexed(&g, &dir.file("g.cadj"), Arc::clone(&stats), 64).unwrap();
        let mut expected = vec![Vec::new(); g.num_vertices()];
        file.scan(&mut |v, ns| expected[v as usize] = ns.to_vec())
            .unwrap();
        // Writer-built and scan-built indexes agree.
        let sidx = CompressedRecordIndex::build(&file).unwrap();
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(widx.offset(v), sidx.offset(v), "v={v}");
            assert_eq!(widx.record_len(v), sidx.record_len(v), "v={v}");
        }
        for frames in [1, 2, 64] {
            let ra =
                RandomAccessGraph::with_compressed_index(&file, widx.clone(), tiny_config(frames))
                    .unwrap();
            for v in 0..g.num_vertices() as VertexId {
                assert_eq!(ra.neighbors(v).unwrap(), expected[v as usize], "v={v}");
            }
            assert_eq!(ra.access_storage(), "cadj-file+pager");
        }
        // Ranks reflect storage order (id order here).
        let ra = RandomAccessGraph::open_compressed(&file, tiny_config(4)).unwrap();
        assert!(ra.record_rank(0) < ra.record_rank(1));
        assert_eq!(
            ra.resident_bytes(),
            4 * 16 + 12 * g.num_vertices() as u64,
            "pool frames + 12 bytes of index per vertex"
        );
        assert!(ra.neighbors(99).is_err());
    }

    #[test]
    fn compressed_mismatched_index_is_rejected() {
        use crate::compressed::{compress_adj, CompressedRecordIndex};
        let g = sample();
        let dir = ScratchDir::new("raccess-comp-bad").unwrap();
        let stats = IoStats::shared();
        let file = compress_adj(&g, &dir.file("g.cadj"), stats, 64).unwrap();
        let err = RandomAccessGraph::with_compressed_index(
            &file,
            CompressedRecordIndex::from_parts(vec![0; 2], vec![0; 2]),
            tiny_config(2),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn resident_bytes_cover_pool_and_index() {
        let g = sample();
        let dir = ScratchDir::new("raccess-mem").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), stats, 64).unwrap();
        // A scan-built index of a small file keeps 4-byte offsets.
        let ra = RandomAccessGraph::open(&file, tiny_config(2)).unwrap();
        assert_eq!(ra.resident_bytes(), 2 * 16 + 4 * 6);
        assert_eq!(ra.access_storage(), "adj-file+pager");
        assert_eq!(ra.num_vertices(), 6);
        assert_eq!(ra.num_edges(), 6);
        // Caller-supplied offsets stay 8 bytes wide.
        let narrow = RecordIndex::build(&file).unwrap();
        assert_eq!(narrow.bytes_per_vertex(), 4);
        let wide = RecordIndex::from_offsets((0..6).map(|v| narrow.offset(v)).collect());
        assert_eq!(wide.bytes_per_vertex(), 8);
        let ra = RandomAccessGraph::with_index(&file, wide, tiny_config(2)).unwrap();
        assert_eq!(ra.resident_bytes(), 2 * 16 + 8 * 6);
        assert_eq!(ra.neighbors(1).unwrap().len(), 3);
    }
}
