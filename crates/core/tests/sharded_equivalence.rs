//! Sharded-store equivalence properties: a `MISSHRD1` store must be
//! **byte-identical** to its unpartitioned source for every algorithm,
//! across shard counts, executors and both storage codecs.
//!
//! The sharded-layout invariant is that concatenating the shard scans in
//! manifest order replays the unpartitioned record sequence, so every
//! pass — ordered folds and mergeable passes through the raw hand-out
//! backend (the store chains its shards' framers), and paged candidate
//! verification through the per-shard pagers — must produce the exact
//! result the single-file store produces, including the full `MisResult`
//! and `SwapOutcome` round trajectories. Degenerate layouts
//! (single-vertex shards, trailing empty shards) are part of the
//! contract.

#![recursion_limit = "256"]

use std::sync::Arc;

use proptest::prelude::*;

use mis_core::{Executor, Greedy, ParallelConfig, SwapConfig, TwoKSwap};
use mis_extmem::{IoStats, PagerConfig, PolicyKind, ScratchDir};
use mis_graph::{
    build_adj_file, compress_adj, split_adj_file, AnyAdjFile, CsrGraph, GraphScan, NeighborAccess,
    RandomAccessGraph, SplitOptions,
};

/// Arbitrary small graph: vertex count and an edge list over it.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// The executors each sharded store is checked under: sequential, and
/// parallel with adversarial tiny hand-out units (a few records each,
/// larger records split into pieces).
fn executors() -> Vec<Executor> {
    let mut list = vec![Executor::Sequential];
    for threads in [1usize, 2, 4] {
        list.push(Executor::Parallel(ParallelConfig {
            threads,
            unit_bytes: 24,
        }));
    }
    list
}

/// Both on-disk codecs of `g`, plus every sharded split of each in
/// `shard_counts`, as openable paths.
fn stores(
    g: &CsrGraph,
    scratch: &ScratchDir,
    shard_counts: &[usize],
) -> Vec<(String, std::path::PathBuf)> {
    let stats = IoStats::shared();
    let block_size = 256;
    let plain = build_adj_file(g, &scratch.file("g.adj"), Arc::clone(&stats), block_size).unwrap();
    let comp = compress_adj(g, &scratch.file("g.cadj"), Arc::clone(&stats), block_size).unwrap();
    let mut out = Vec::new();
    for (fmt, source) in [
        ("plain", AnyAdjFile::Plain(plain)),
        ("comp", AnyAdjFile::Compressed(comp)),
    ] {
        out.push((fmt.to_string(), source.path().to_path_buf()));
        for &shards in shard_counts {
            let path = scratch.file(&format!("{fmt}.{shards}.shrd"));
            split_adj_file(&source, &path, &SplitOptions { shards, block_size }).unwrap();
            out.push((format!("{fmt} x{shards}"), path));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The whole pipeline — the Greedy `MisResult`, then the two-k
    // `SwapOutcome` — is identical on every (codec, shard count,
    // executor) combination.
    #[test]
    fn pipeline_identical_across_shards_codecs_and_executors(g in arb_graph(32, 120)) {
        let scratch = ScratchDir::new("sharded-equiv").unwrap();
        let seq_greedy = Greedy::new().run(&g);
        let seq_swap = TwoKSwap::new().run(&g, &seq_greedy.set);
        for (label, path) in stores(&g, &scratch, &[1, 2, 3, 4]) {
            let file = AnyAdjFile::open_with_block_size(&path, IoStats::shared(), 256).unwrap();
            for exec in executors() {
                let greedy = Greedy::with_executor(exec).run(&file);
                prop_assert_eq!(&greedy, &seq_greedy, "{} greedy {:?}", label, exec);
                let config = SwapConfig::default().with_executor(exec);
                let swap = TwoKSwap::with_config(config).run(&file, &greedy.set);
                prop_assert_eq!(&swap, &seq_swap, "{} two-k {:?}", label, exec);
            }
        }
    }
}

/// Degenerate layouts: shard count equal to the record count gives
/// single-vertex shards; a higher count leaves trailing empty shards.
/// Both must replay the unpartitioned store exactly.
#[test]
fn single_vertex_and_empty_shards_are_exact() {
    let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)]);
    let scratch = ScratchDir::new("sharded-degenerate").unwrap();
    let seq_greedy = Greedy::new().run(&g);
    let seq_swap = TwoKSwap::new().run(&g, &seq_greedy.set);
    // 6 records: x6 = one vertex per shard, x9 = three empty shards.
    for (label, path) in stores(&g, &scratch, &[6, 9]) {
        let file = AnyAdjFile::open_with_block_size(&path, IoStats::shared(), 256).unwrap();
        if let AnyAdjFile::Sharded(sh) = &file {
            if label.ends_with("x9") {
                assert!(
                    sh.manifest().shards.iter().any(|s| s.records == 0),
                    "{label}: expected at least one empty shard"
                );
            }
        }
        for exec in executors() {
            let greedy = Greedy::with_executor(exec).run(&file);
            assert_eq!(greedy, seq_greedy, "{label} greedy {exec:?}");
            let config = SwapConfig::default().with_executor(exec);
            let swap = TwoKSwap::with_config(config).run(&file, &greedy.set);
            assert_eq!(swap, seq_swap, "{label} two-k {exec:?}");
        }
    }
}

/// Paged candidate verification through the per-shard pagers must make
/// the same decisions as the unpartitioned pager and as the pure-scan
/// path: identical `SwapOutcome`, with paged rounds actually taken.
#[test]
fn paged_verification_identical_through_per_shard_pagers() {
    let g = mis_gen::Plrg::with_vertices(2_000, 2.0).seed(11).generate();
    let scratch = ScratchDir::new("sharded-paged").unwrap();
    let stats = IoStats::shared();
    let block_size = 512;
    let plain = build_adj_file(&g, &scratch.file("g.adj"), Arc::clone(&stats), block_size).unwrap();
    let comp = compress_adj(&g, &scratch.file("g.cadj"), stats, block_size).unwrap();
    let seed = Greedy::new().run(&g).set;
    // Force every round through the paged path.
    let config = || SwapConfig {
        paged_threshold: 1.0,
        ..Default::default()
    };
    let scan_reference = TwoKSwap::with_config(config()).run(&g, &seed);
    let pc = || PagerConfig::with_capacity_bytes(1 << 20, block_size, PolicyKind::Clock);
    for (fmt, source) in [
        ("plain", AnyAdjFile::Plain(plain)),
        ("comp", AnyAdjFile::Compressed(comp)),
    ] {
        // Paged reference: the unpartitioned store with its own pager.
        let paged_reference = {
            let ra: Box<dyn NeighborAccess> = match &source {
                AnyAdjFile::Plain(f) => Box::new(RandomAccessGraph::open(f, pc()).unwrap()),
                AnyAdjFile::Compressed(f) => {
                    Box::new(RandomAccessGraph::open_compressed(f, pc()).unwrap())
                }
                AnyAdjFile::Sharded(_) => unreachable!(),
            };
            TwoKSwap::with_config(config()).run_paged(&source, Some(&*ra), &seed)
        };
        assert_eq!(
            paged_reference.result.set, scan_reference.result.set,
            "{fmt}: paged and pure-scan paths must pick the same set"
        );
        assert!(
            paged_reference.stats.paged_rounds > 0,
            "{fmt}: paged rounds must actually be taken"
        );
        for shards in [2usize, 4] {
            let path = scratch.file(&format!("{fmt}.{shards}.shrd"));
            split_adj_file(&source, &path, &SplitOptions { shards, block_size }).unwrap();
            let file =
                AnyAdjFile::open_with_block_size(&path, IoStats::shared(), block_size).unwrap();
            let AnyAdjFile::Sharded(sh) = &file else {
                panic!("{fmt} x{shards}: expected a sharded store");
            };
            let ra = sh.open_random_access(pc()).unwrap();
            for exec in [Executor::Sequential, Executor::parallel(3)] {
                let outcome = TwoKSwap::with_config(config().with_executor(exec)).run_paged(
                    &file,
                    Some(&ra as &dyn NeighborAccess),
                    &seed,
                );
                // Identical decisions: set, scan count and the full
                // round trajectory. (`memory.pager_bytes` is excluded:
                // it honestly reports the per-shard pool capacities,
                // which round differently from one big pool.)
                assert_eq!(
                    outcome.result.set, paged_reference.result.set,
                    "{fmt} x{shards} {exec:?}: paged set"
                );
                assert_eq!(
                    outcome.result.file_scans, paged_reference.result.file_scans,
                    "{fmt} x{shards} {exec:?}: paged scan count"
                );
                assert_eq!(
                    outcome.stats, paged_reference.stats,
                    "{fmt} x{shards} {exec:?}: per-shard pagers must replay the \
                     unpartitioned paged round trajectory"
                );
            }
        }
    }
}

/// Sharded scans replay the source record order exactly, shard count and
/// codec notwithstanding — the invariant every equivalence above rests
/// on. Checked directly so a violation fails here with the record list,
/// not as an opaque result mismatch.
#[test]
fn sharded_scan_order_matches_source() {
    let g = mis_gen::Plrg::with_vertices(500, 2.0).seed(3).generate();
    let scratch = ScratchDir::new("sharded-order").unwrap();
    let mut reference = Vec::new();
    g.scan(&mut |v, ns| reference.push((v, ns.to_vec())))
        .unwrap();
    for (label, path) in stores(&g, &scratch, &[1, 2, 3, 4]) {
        let file = AnyAdjFile::open_with_block_size(&path, IoStats::shared(), 256).unwrap();
        let mut got = Vec::new();
        file.scan(&mut |v, ns| got.push((v, ns.to_vec()))).unwrap();
        assert_eq!(got.len(), reference.len(), "{label}: record count");
        for (g_rec, r_rec) in got.iter().zip(&reference) {
            assert_eq!(g_rec.0, r_rec.0, "{label}: record order");
            let mut gn = g_rec.1.clone();
            let mut rn = r_rec.1.clone();
            gn.sort_unstable();
            rn.sort_unstable();
            assert_eq!(gn, rn, "{label}: neighbours of {}", g_rec.0);
        }
    }
}
