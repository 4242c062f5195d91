//! Workload inputs: a seeded PLRG graph written, degree-sorted,
//! optionally gap-compressed, then opened and indexed.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mis_extmem::{IoStats, PagerConfig, ScratchDir, SortConfig};
use mis_graph::{
    build_adj_file, compress_adj, degree_sort_adj_file, AdjFile, CompressedAdjFile,
    CompressedRecordIndex, CsrGraph, GraphScan, NeighborAccess, RandomAccessGraph, RecordIndex,
    VertexId,
};

use crate::record::Recorder;

/// Block size of every file and of the pager: 64 KiB.
pub const BLOCK: usize = 64 * 1024;

/// Where the benchmark keeps its files: inside the working directory.
pub const WORK_DIR: &str = ".bench_work";

/// Degree exponent of every workload's PLRG graph.
const BETA: f64 = 2.0;

/// Shape of a workload's graph.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    /// Target vertex count of the PLRG model.
    pub vertices: u64,
    /// Generator seed.
    pub seed: u64,
    /// Store the degree-sorted graph gap-compressed (`MISADJC1`)
    /// instead of plain (`MISADJ01`).
    pub compressed: bool,
}

/// The opened, indexed adjacency file a workload runs on.
#[derive(Debug)]
pub enum Storage {
    /// Plain fixed-width records.
    Plain(AdjFile, RecordIndex),
    /// Gap-compressed records.
    Compressed(CompressedAdjFile, CompressedRecordIndex),
}

/// Wall times of the set-up steps, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// PLRG generation plus writing the unsorted file.
    pub generate: f64,
    /// Degree sort into the plain file.
    pub sort: f64,
    /// Gap compression of the sorted file (0 for plain workloads).
    pub compress: f64,
    /// Re-open of the workload's file plus its record-index build.
    pub open: f64,
}

impl SetupTimes {
    /// Sum of all steps.
    pub fn total(&self) -> f64 {
        self.generate + self.sort + self.compress + self.open
    }
}

/// A prepared workload input. Its files live in a scratch directory
/// that is removed when the value is dropped.
#[derive(Debug)]
pub struct Prepared {
    /// Files of this input (removed on drop).
    pub scratch: ScratchDir,
    /// I/O counters of every file read or written here.
    pub stats: Arc<IoStats>,
    /// The degree-sorted plain file (always written).
    pub sorted: AdjFile,
    /// The file the workload runs on, opened and indexed.
    pub storage: Storage,
    /// Vertices and edges of the graph.
    pub vertices: usize,
    /// Undirected edges of the graph.
    pub edges: u64,
    /// Set-up step times.
    pub times: SetupTimes,
}

impl Prepared {
    /// Generates, sorts, (compresses,) opens and indexes `spec`'s graph.
    pub fn build(spec: &GraphSpec, rec: &Recorder) -> io::Result<Self> {
        std::fs::create_dir_all(WORK_DIR)?;
        let scratch = ScratchDir::new_in(WORK_DIR, "input")?;
        let stats = IoStats::shared();
        let mut times = SetupTimes::default();

        let (unsorted, t) = rec.time("gen.generate", || -> io::Result<AdjFile> {
            let graph = mis_gen::Plrg::with_vertices(spec.vertices, BETA)
                .seed(spec.seed)
                .generate();
            build_adj_file(&graph, &scratch.file("g.adj"), Arc::clone(&stats), BLOCK)
        });
        let unsorted = unsorted?;
        times.generate = t;

        let (sorted, t) = rec.time("gen.sort", || {
            degree_sort_adj_file(
                &unsorted,
                &scratch.file("g.sorted.adj"),
                &SortConfig {
                    block_size: BLOCK,
                    ..SortConfig::default()
                },
                &scratch,
            )
        });
        let sorted = sorted?;
        times.sort = t;
        drop(unsorted);
        std::fs::remove_file(scratch.file("g.adj"))?;

        let storage = if spec.compressed {
            let (c, t) = rec.time("gen.compress", || {
                compress(&sorted, &scratch.file("g.sorted.cadj"), &stats)
            });
            c?;
            times.compress = t;
            let (opened, t) = rec.time("graph.open", || {
                open_compressed(&scratch.file("g.sorted.cadj"), &stats)
            });
            times.open = t;
            opened?
        } else {
            let (opened, t) = rec.time("graph.open", || {
                open_plain(&scratch.file("g.sorted.adj"), &stats)
            });
            times.open = t;
            opened?
        };
        Ok(Self {
            vertices: sorted.num_vertices(),
            edges: sorted.num_edges(),
            scratch,
            stats,
            sorted,
            storage,
            times,
        })
    }

    /// The workload's file as a scan source.
    pub fn scan(&self) -> &dyn GraphScan {
        match &self.storage {
            Storage::Plain(f, _) => f,
            Storage::Compressed(f, _) => f,
        }
    }

    /// Path of the workload's file.
    pub fn path(&self) -> PathBuf {
        match &self.storage {
            Storage::Plain(f, _) => f.path().to_path_buf(),
            Storage::Compressed(f, _) => f.path().to_path_buf(),
        }
    }

    /// Bytes of the workload's file on disk.
    pub fn file_bytes(&self) -> io::Result<u64> {
        match &self.storage {
            Storage::Plain(f, _) => f.disk_bytes(),
            Storage::Compressed(f, _) => f.disk_bytes(),
        }
    }

    /// Storage codec name (`MISADJ01` or `MISADJC1`).
    pub fn codec(&self) -> &'static str {
        match &self.storage {
            Storage::Plain(..) => "MISADJ01",
            Storage::Compressed(..) => "MISADJC1",
        }
    }

    /// A fresh paged point-access path over the workload's file, reusing
    /// the index built at set-up.
    pub fn random_access(&self, pager: PagerConfig) -> io::Result<RandomAccessGraph> {
        match &self.storage {
            Storage::Plain(f, idx) => RandomAccessGraph::with_index(f, idx.clone(), pager),
            Storage::Compressed(f, idx) => {
                RandomAccessGraph::with_compressed_index(f, idx.clone(), pager)
            }
        }
    }

    /// Gap-compresses the sorted plain file into the scratch directory
    /// and returns the time it took; used to time the codec on
    /// workloads whose set-up does not compress.
    pub fn time_compress(&self, rec: &Recorder) -> io::Result<f64> {
        let path = self.scratch.file("probe.cadj");
        let (c, t) = rec.time("gen.compress", || {
            compress(&self.sorted, &path, &self.stats)
        });
        c?;
        std::fs::remove_file(&path)?;
        Ok(t)
    }

    /// The graph in memory, in the file's vertex numbering.
    pub fn load_csr(&self) -> io::Result<CsrGraph> {
        let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.edges as usize);
        self.scan().scan(&mut |v, ns| {
            edges.extend(ns.iter().filter(|&&u| u > v).map(|&u| (v, u)));
        })?;
        Ok(CsrGraph::from_edges(self.vertices, &edges))
    }

    /// One hash per record over the neighbour list in storage order: the
    /// reference point reads are checked against.
    pub fn record_hashes(&self) -> io::Result<Vec<u64>> {
        let mut hashes = vec![0u64; self.vertices];
        self.scan()
            .scan(&mut |v, ns| hashes[v as usize] = hash_list(ns))?;
        Ok(hashes)
    }
}

/// FNV-1a over a neighbour list.
pub fn hash_list(ns: &[VertexId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ ns.len() as u64;
    for &u in ns {
        h = (h ^ u64::from(u)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Reads one record through `access` into `buf`.
pub fn read_record(
    access: &dyn NeighborAccess,
    v: VertexId,
    buf: &mut Vec<VertexId>,
) -> io::Result<()> {
    buf.clear();
    access.with_neighbors(v, &mut |ns| buf.extend_from_slice(ns))
}

fn compress(sorted: &AdjFile, out: &Path, stats: &Arc<IoStats>) -> io::Result<()> {
    compress_adj(sorted, out, Arc::clone(stats), BLOCK).map(drop)
}

fn open_plain(path: &Path, stats: &Arc<IoStats>) -> io::Result<Storage> {
    let f = AdjFile::open_with_block_size(path, Arc::clone(stats), BLOCK)?;
    let idx = RecordIndex::build(&f)?;
    Ok(Storage::Plain(f, idx))
}

fn open_compressed(path: &Path, stats: &Arc<IoStats>) -> io::Result<Storage> {
    let f = CompressedAdjFile::open_with_block_size(path, Arc::clone(stats), BLOCK)?;
    let idx = CompressedRecordIndex::build(&f)?;
    Ok(Storage::Compressed(f, idx))
}
