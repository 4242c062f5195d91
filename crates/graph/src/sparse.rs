//! Sparse record reads: the adjacency records of a chosen vertex set,
//! fetched in one storage-ordered pass over the record index.
//!
//! A full [`GraphScan::scan`] moves every block of the file to visit
//! every record. A batch repair (`mis_core::incremental`) needs only the
//! records a batch touches — a few thousand out of millions. A
//! [`SparseReader`] resolves each requested vertex through the record
//! index the serving path's [`crate::RandomAccessGraph`] already holds
//! (shared, not copied), sorts the requests by file offset and walks the
//! file once, front to back, reading each block that holds a requested
//! record exactly once. Those reads bypass the buffer pool, so the
//! pool's frames stay with the point readers, and are counted as
//! ordinary block reads in the file's [`IoStats`]: a sparse pass and a
//! full scan are charged in the same currency. A sparse pass is not a
//! scan and does not bump the scan counter.
//!
//! [`SparseRecords`] is the interface a repair reads through;
//! [`OverlaidRecords`] lays a [`DeltaOverlay`] over a sparse reader the
//! way [`crate::PinnedDelta`] lays it over a scan.
//!
//! [`GraphScan::scan`]: crate::GraphScan::scan

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::Arc;

use mis_extmem::IoStats;

use crate::delta::DeltaOverlay;
use crate::raccess::{decode_compressed_record, out_of_sync, RecordIndex};
use crate::VertexId;

/// Reads the records of chosen vertices without a full scan.
pub trait SparseRecords: Sync {
    /// Visits the record of every vertex in `vertices` — ascending,
    /// duplicate-free ids — exactly once, in storage order.
    fn read_records(
        &self,
        vertices: &[VertexId],
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) -> io::Result<()>;
}

/// One file of a [`SparseReader`]: the consecutive vertex ids from
/// `first` whose records it holds, indexed by `id - first`.
#[derive(Debug, Clone)]
pub(crate) struct SparsePart {
    pub(crate) path: PathBuf,
    pub(crate) first: VertexId,
    pub(crate) index: RecordIndex,
    /// Record byte lengths of a compressed file; `None` for plain
    /// fixed-width records, whose header gives the length.
    pub(crate) lens: Option<Arc<Vec<u32>>>,
}

/// Storage-ordered sparse record reads over a plain, compressed or
/// sharded adjacency store. Build one with
/// [`crate::RandomAccessGraph::sparse_reader`] or
/// [`crate::ShardedRandomAccess::sparse_reader`].
#[derive(Debug, Clone)]
pub struct SparseReader {
    /// Files in storage order (one, or one per shard).
    parts: Vec<SparsePart>,
    stats: Arc<IoStats>,
    block_size: usize,
}

impl SparseReader {
    pub(crate) fn new(parts: Vec<SparsePart>, stats: Arc<IoStats>, block_size: usize) -> Self {
        Self {
            parts,
            stats,
            block_size: block_size.max(1),
        }
    }

    /// Vertices the reader can serve.
    pub fn num_vertices(&self) -> usize {
        self.parts.iter().map(|p| p.index.len()).sum()
    }
}

impl SparseRecords for SparseReader {
    fn read_records(
        &self,
        vertices: &[VertexId],
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) -> io::Result<()> {
        if let Some(&v) = vertices.last() {
            if v as usize >= self.num_vertices() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("vertex {v} out of range ({} vertices)", self.num_vertices()),
                ));
            }
        }
        let mut wanted: Vec<(u64, VertexId)> = Vec::new();
        let mut nbrs: Vec<VertexId> = Vec::new();
        for part in &self.parts {
            let end = u64::from(part.first) + part.index.len() as u64;
            let lo = vertices.partition_point(|&v| v < part.first);
            let hi = vertices.partition_point(|&v| u64::from(v) < end);
            wanted.clear();
            wanted.extend(
                vertices[lo..hi]
                    .iter()
                    .map(|&v| (part.index.offset(v - part.first), v)),
            );
            if wanted.is_empty() {
                continue;
            }
            wanted.sort_unstable();
            let mut blocks = BlockCursor::open(part, self.block_size, &self.stats)?;
            for &(offset, v) in &wanted {
                match &part.lens {
                    Some(lens) => {
                        let len = lens[(v - part.first) as usize] as usize;
                        decode_compressed_record(blocks.bytes(offset, len)?, v, &mut nbrs)?;
                    }
                    None => {
                        let header = blocks.bytes(offset, 8)?;
                        let vertex = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
                        if vertex != v {
                            return Err(out_of_sync(u64::from(vertex), v));
                        }
                        let degree =
                            u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as u64;
                        let record = blocks.bytes(offset, (8 + 4 * degree) as usize)?;
                        nbrs.clear();
                        nbrs.extend(
                            record[8..]
                                .chunks_exact(4)
                                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))),
                        );
                    }
                }
                f(v, &nbrs);
            }
        }
        Ok(())
    }
}

/// A forward-only window over one file, filled block by block: each
/// block is read (and counted) at most once per pass, because requests
/// arrive in ascending offset order.
struct BlockCursor<'a> {
    file: File,
    len: u64,
    block: u64,
    stats: &'a IoStats,
    /// Bytes of the blocks from `start` on that are still needed.
    buf: Vec<u8>,
    /// File offset of `buf[0]`; block-aligned.
    start: u64,
}

impl<'a> BlockCursor<'a> {
    fn open(part: &SparsePart, block_size: usize, stats: &'a IoStats) -> io::Result<Self> {
        let file = File::open(&part.path)?;
        let len = file.metadata()?.len();
        Ok(Self {
            file,
            len,
            block: block_size as u64,
            stats,
            buf: Vec::new(),
            start: 0,
        })
    }

    /// The `n` bytes at `offset`, reading the blocks that hold them.
    /// `offset` must not precede the offset of the previous request.
    fn bytes(&mut self, offset: u64, n: usize) -> io::Result<&[u8]> {
        let end = offset + n as u64;
        if end > self.len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated adjacency record",
            ));
        }
        let first = offset / self.block * self.block;
        debug_assert!(first >= self.start, "requests must ascend");
        let held = self.start + self.buf.len() as u64;
        if first >= held {
            self.buf.clear();
            self.start = first;
        } else if first > self.start {
            self.buf.drain(..(first - self.start) as usize);
            self.start = first;
        }
        while self.start + (self.buf.len() as u64) < end {
            let at = self.start + self.buf.len() as u64;
            let take = self.block.min(self.len - at) as usize;
            let filled = self.buf.len();
            self.buf.resize(filled + take, 0);
            self.file.seek(SeekFrom::Start(at))?;
            self.file.read_exact(&mut self.buf[filled..])?;
            self.stats.record_block_read(take as u64);
        }
        let from = (offset - self.start) as usize;
        Ok(&self.buf[from..from + n])
    }
}

/// A sparse reader of a base store with a [`DeltaOverlay`] merged into
/// every record: the records of the edited graph.
pub struct OverlaidRecords<'a> {
    base: &'a dyn SparseRecords,
    overlay: &'a DeltaOverlay,
}

impl<'a> OverlaidRecords<'a> {
    /// Lays `overlay` over `base`.
    pub fn new(base: &'a dyn SparseRecords, overlay: &'a DeltaOverlay) -> Self {
        Self { base, overlay }
    }
}

impl SparseRecords for OverlaidRecords<'_> {
    fn read_records(
        &self,
        vertices: &[VertexId],
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) -> io::Result<()> {
        let mut merged = Vec::new();
        self.base.read_records(vertices, &mut |v, ns| {
            if self.overlay.merge_record(v, ns, &mut merged) {
                f(v, &merged);
            } else {
                f(v, ns);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anyfile::AnyAdjFile;
    use crate::builder::{build_adj_file, degree_sort_adj_file};
    use crate::compressed::compress_adj;
    use crate::csr::CsrGraph;
    use crate::delta::DeltaGraph;
    use crate::raccess::RandomAccessGraph;
    use crate::scan::GraphScan;
    use crate::sharded::{split_adj_file, ShardedGraph, SplitOptions};
    use crate::AdjFile;
    use mis_extmem::{PagerConfig, ScratchDir, SortConfig};

    const BLOCK: usize = 128;

    /// A 300-vertex graph with skewed degrees: a few hubs, many leaves.
    fn sample() -> CsrGraph {
        let mut edges = Vec::new();
        let mut s = 7u64;
        for v in 1..300u32 {
            for _ in 0..1 + v % 3 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let hub = (s >> 33) as u32 % 12;
                let any = (s >> 45) as u32 % v;
                edges.push((v, if v % 2 == 0 { hub } else { any }));
            }
        }
        CsrGraph::from_edges(300, &edges)
    }

    fn pager() -> PagerConfig {
        PagerConfig {
            page_size: 64,
            frames: 4,
            ..PagerConfig::default()
        }
    }

    /// Every record of `graph`, neighbours sorted, in storage order.
    fn scan_records(graph: &dyn GraphScan) -> Vec<(VertexId, Vec<VertexId>)> {
        let mut out = Vec::new();
        graph
            .scan(&mut |v, ns| {
                let mut ns = ns.to_vec();
                ns.sort_unstable();
                out.push((v, ns));
            })
            .unwrap();
        out
    }

    fn sparse_records(
        reader: &dyn SparseRecords,
        vertices: &[VertexId],
    ) -> Vec<(VertexId, Vec<VertexId>)> {
        let mut out = Vec::new();
        reader
            .read_records(vertices, &mut |v, ns| {
                let mut ns = ns.to_vec();
                ns.sort_unstable();
                out.push((v, ns));
            })
            .unwrap();
        out
    }

    /// A degree-sorted plain file (storage order ≠ id order), its
    /// compressed copy, and a 3-shard split of the plain id-ordered file.
    fn backends(dir: &ScratchDir) -> Vec<(AnyAdjFile, SparseReader)> {
        let stats = IoStats::shared();
        let g = sample();
        let unsorted = build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), BLOCK).unwrap();
        let sort = SortConfig {
            block_size: BLOCK,
            ..SortConfig::default()
        };
        let sorted = degree_sort_adj_file(&unsorted, &dir.file("s.adj"), &sort, dir).unwrap();
        let comp = compress_adj(&sorted, &dir.file("s.cadj"), Arc::clone(&stats), BLOCK).unwrap();
        let options = SplitOptions {
            shards: 3,
            block_size: BLOCK,
        };
        split_adj_file(&AnyAdjFile::Plain(unsorted), &dir.file("g.shrd"), &options).unwrap();
        let sharded = Arc::new(
            ShardedGraph::open_with_block_size(&dir.file("g.shrd"), Arc::clone(&stats), BLOCK)
                .unwrap(),
        );
        vec![
            (
                AnyAdjFile::Plain(sorted.clone()),
                RandomAccessGraph::open(&sorted, pager())
                    .unwrap()
                    .sparse_reader(),
            ),
            (
                AnyAdjFile::Compressed(comp.clone()),
                RandomAccessGraph::open_compressed(&comp, pager())
                    .unwrap()
                    .sparse_reader(),
            ),
            (
                AnyAdjFile::Sharded(Arc::clone(&sharded)),
                sharded.open_random_access(pager()).unwrap().sparse_reader(),
            ),
        ]
    }

    #[test]
    fn sparse_reads_match_the_scan_in_storage_order_on_every_backend() {
        let dir = ScratchDir::new("sparse-backends").unwrap();
        for (file, reader) in backends(&dir) {
            let wanted: Vec<VertexId> = (0..300).filter(|v| v % 3 != 1).collect();
            let expect: Vec<_> = scan_records(&file)
                .into_iter()
                .filter(|(v, _)| v % 3 != 1)
                .collect();
            assert_eq!(
                sparse_records(&reader, &wanted),
                expect,
                "{}",
                file.storage()
            );
            assert_eq!(reader.num_vertices(), 300);
            assert!(sparse_records(&reader, &[]).is_empty());
            assert!(reader.read_records(&[300], &mut |_, _| {}).is_err());
        }
    }

    #[test]
    fn a_sparse_pass_reads_exactly_the_blocks_holding_the_records() {
        let dir = ScratchDir::new("sparse-blocks").unwrap();
        let stats = IoStats::shared();
        let g = sample();
        let file = build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), BLOCK).unwrap();
        let file = AdjFile::open_with_block_size(file.path(), Arc::clone(&stats), BLOCK).unwrap();
        let ra = RandomAccessGraph::open(&file, pager()).unwrap();
        let index = crate::RecordIndex::build(&file).unwrap();
        let reader = ra.sparse_reader();
        let len = file.disk_bytes().unwrap();
        for wanted in [
            vec![0u32],
            vec![1, 2, 3],
            (0..300).step_by(7).collect::<Vec<_>>(),
            vec![0, 299],
            (0..300).collect(),
        ] {
            let mut blocks = std::collections::BTreeSet::new();
            for &v in &wanted {
                let start = index.offset(v);
                let end = start + 8 + 4 * g.neighbors(v).len() as u64;
                blocks.extend(start / BLOCK as u64..=(end - 1) / BLOCK as u64);
            }
            let bytes: u64 = blocks
                .iter()
                .map(|&b| (len - b * BLOCK as u64).min(BLOCK as u64))
                .sum();
            let before = stats.snapshot();
            reader.read_records(&wanted, &mut |_, _| {}).unwrap();
            let io = stats.snapshot().since(&before);
            assert_eq!(io.blocks_read, blocks.len() as u64, "{wanted:?}");
            assert_eq!(io.bytes_read, bytes, "{wanted:?}");
            assert_eq!(io.scans_started, 0, "a sparse pass is not a scan");
            assert_eq!(io.cache_misses + io.cache_hits, 0, "the pager is not used");
        }
    }

    #[test]
    fn overlaid_records_are_the_records_of_the_edited_graph() {
        let dir = ScratchDir::new("sparse-overlay").unwrap();
        for (file, reader) in backends(&dir) {
            let mut delta = DeltaGraph::new(&file);
            delta.insert_edge(5, 250);
            delta.insert_edge(0, 1);
            let (v, u) = scan_records(&file)
                .into_iter()
                .find_map(|(v, ns)| ns.first().map(|&u| (v, u)))
                .unwrap();
            delta.delete_edge(v, u);
            let overlaid = OverlaidRecords::new(&reader, delta.overlay());
            let all: Vec<VertexId> = (0..300).collect();
            let mut expect = scan_records(&delta);
            let mut got = sparse_records(&overlaid, &all);
            expect.sort();
            got.sort();
            assert_eq!(got, expect, "{}", file.storage());
        }
    }
}
