//! Engine-equivalence properties: the `Parallel` executor must be
//! **byte-identical** to `Sequential` for every ported pass, across
//! thread counts and adversarial hand-out unit sizes.
//!
//! This is the correctness contract of the execution engine
//! (`mis_core::engine`): the backend changes how fast a pass runs, never
//! what it computes. Order-dependent passes (Greedy, the swap rounds,
//! Algorithm 5) go through the ordered fold behind the decode workers;
//! mergeable passes (init candidates, verification, degree stats) go
//! through the shard-merge path — both must reproduce the sequential
//! transition sequence exactly, including earlier-record-wins conflict
//! resolution. The parallel backend runs on the raw view of on-disk
//! stores (in-memory graphs always run sequentially), so every case is
//! checked on a plain and a gap-compressed file.

use std::sync::Arc;

use proptest::prelude::*;

use mis_core::engine::passes::degree_stats;
use mis_core::engine::DEFAULT_UNIT_BYTES;
use mis_core::{
    best_upper_bound, best_upper_bound_with, prove_maximal, prove_maximal_with, Executor, Greedy,
    OneKSwap, ParallelConfig, SwapConfig, TwoKSwap,
};
use mis_extmem::{IoStats, ScratchDir};
use mis_graph::adjfile::AdjFileWriter;
use mis_graph::{compress_adj, AdjFile, AnyAdjFile, CsrGraph, GraphScan, OrderedCsr};

/// Arbitrary small graph: vertex count and an edge list over it.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// `g` written to disk in its own scan order, plain and gap-compressed.
fn disk_stores(g: &dyn GraphScan, dir: &ScratchDir) -> [AnyAdjFile; 2] {
    let stats = IoStats::shared();
    let path = dir.file("g.adj");
    let (n, m) = (g.num_vertices() as u64, g.num_edges());
    let mut writer = AdjFileWriter::create(&path, n, m, Arc::clone(&stats), 256).unwrap();
    g.scan(&mut |v, ns| writer.write_record(v, ns).unwrap())
        .unwrap();
    writer.finish().unwrap();
    let plain = AdjFile::open_with_block_size(&path, Arc::clone(&stats), 256).unwrap();
    let comp = compress_adj(g, &dir.file("g.cadj"), stats, 256).unwrap();
    [AnyAdjFile::Plain(plain), AnyAdjFile::Compressed(comp)]
}

/// The executors under test: 1–4 threads, including adversarial tiny
/// hand-out units (one-byte units split every record into one-value
/// pieces).
fn executors() -> Vec<Executor> {
    let mut list = Vec::new();
    for threads in 1..=4 {
        for unit_bytes in [1, 16, DEFAULT_UNIT_BYTES] {
            list.push(Executor::Parallel(ParallelConfig {
                threads,
                unit_bytes,
            }));
        }
    }
    list
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn greedy_identical_on_every_backend(g in arb_graph(40, 160)) {
        let dir = ScratchDir::new("engine-eq-greedy").unwrap();
        for file in disk_stores(&OrderedCsr::degree_sorted(&g), &dir) {
            let seq = Greedy::new().run(&file);
            for exec in executors() {
                let par = Greedy::with_executor(exec).run(&file);
                prop_assert_eq!(&par, &seq, "{} {:?}", file.storage(), exec);
            }
        }
    }

    #[test]
    fn one_k_outcome_identical_on_every_backend(g in arb_graph(36, 140)) {
        let dir = ScratchDir::new("engine-eq-onek").unwrap();
        for file in disk_stores(&OrderedCsr::degree_sorted(&g), &dir) {
            let greedy = Greedy::new().run(&file);
            let seq = OneKSwap::new().run(&file, &greedy.set);
            for exec in executors() {
                let config = SwapConfig::default().with_executor(exec);
                let par = OneKSwap::with_config(config).run(&file, &greedy.set);
                prop_assert_eq!(&par, &seq, "{} {:?}", file.storage(), exec);
            }
        }
    }

    #[test]
    fn two_k_outcome_identical_on_every_backend(g in arb_graph(36, 140)) {
        let dir = ScratchDir::new("engine-eq-twok").unwrap();
        for file in disk_stores(&OrderedCsr::degree_sorted(&g), &dir) {
            let greedy = Greedy::new().run(&file);
            let seq = TwoKSwap::new().run(&file, &greedy.set);
            for exec in executors() {
                let config = SwapConfig::default().with_executor(exec);
                let par = TwoKSwap::with_config(config).run(&file, &greedy.set);
                prop_assert_eq!(&par, &seq, "{} {:?}", file.storage(), exec);
            }
        }
    }

    #[test]
    fn two_k_from_baseline_identical(g in arb_graph(30, 110)) {
        // The unsorted, conflict-heavy start exercises the
        // earlier-record-wins resolution harder than a greedy seed.
        let dir = ScratchDir::new("engine-eq-baseline").unwrap();
        for file in disk_stores(&g, &dir) {
            let seq = TwoKSwap::new().run(&file, &[]);
            for exec in executors() {
                let config = SwapConfig::default().with_executor(exec);
                let par = TwoKSwap::with_config(config).run(&file, &[]);
                prop_assert_eq!(&par, &seq, "{} {:?}", file.storage(), exec);
            }
        }
    }

    #[test]
    fn bounds_proofs_and_stats_identical(g in arb_graph(40, 160)) {
        let dir = ScratchDir::new("engine-eq-bounds").unwrap();
        for file in disk_stores(&OrderedCsr::degree_sorted(&g), &dir) {
            let greedy = Greedy::new().run(&file);
            let seq_bound = best_upper_bound(&file);
            let seq_proof = prove_maximal(&file, &greedy.set);
            let seq_stats = degree_stats(&file, &Executor::Sequential);
            for exec in executors() {
                let what = format!("{} {exec:?}", file.storage());
                prop_assert_eq!(best_upper_bound_with(&file, &exec), seq_bound, "{}", &what);
                prop_assert_eq!(prove_maximal_with(&file, &greedy.set, &exec), seq_proof, "{}", &what);
                prop_assert_eq!(degree_stats(&file, &exec), seq_stats, "{}", &what);
            }
        }
    }
}

/// Seeded determinism: the same seed and graph must yield the identical
/// independent set at any thread count — the whole pipeline, not just a
/// single pass.
#[test]
fn seeded_pipeline_is_deterministic_across_thread_counts() {
    for seed in [7u64, 42] {
        let g = mis_gen::Plrg::with_vertices(5_000, 2.0)
            .seed(seed)
            .generate();
        let dir = ScratchDir::new("engine-eq-seeded").unwrap();
        for file in disk_stores(&OrderedCsr::degree_sorted(&g), &dir) {
            let reference = {
                let greedy = Greedy::new().run(&file);
                TwoKSwap::new().run(&file, &greedy.set)
            };
            for threads in 1..=4 {
                let exec = Executor::parallel(threads);
                let greedy = Greedy::with_executor(exec).run(&file);
                let config = SwapConfig::default().with_executor(exec);
                let out = TwoKSwap::with_config(config).run(&file, &greedy.set);
                assert_eq!(
                    out,
                    reference,
                    "seed {seed}, {}, {threads} threads: pipeline must be deterministic",
                    file.storage()
                );
                assert!(mis_core::prove_maximal(&g, &out.result.set).is_maximal_independent());
            }
        }
    }
}
