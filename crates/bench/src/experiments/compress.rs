//! Compressed-backend experiment: plain vs gap-compressed adjacency
//! files across the whole algorithm × executor matrix.
//!
//! The compressed `MISADJC1` format is a first-class storage backend:
//! sequential scans, the paged (`--cache-mb`) candidate-verification
//! path and the parallel engine all run on it. This experiment
//! proves the contract on one generated power-law graph — for greedy,
//! one-k and two-k at scan-only, paged and 4-thread configurations, the
//! independent set and its maximality proof are identical on both
//! backends while the compressed side moves 2–3× fewer blocks. The
//! numbers land in `BENCH_compress.json` (override the path with
//! `BENCH_COMPRESS_OUT`).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mis_core::{prove_maximal_with, Executor, Greedy, OneKSwap, SwapConfig, TwoKSwap};
use mis_extmem::pager::PolicyKind;
use mis_extmem::{IoSnapshot, IoStats, PagerConfig, ScratchDir, SortConfig};
use mis_graph::{
    build_adj_file, compress_adj, degree_sort_adj_file, AnyAdjFile, GraphScan, NeighborAccess,
    RandomAccessGraph,
};
use mis_obs::{CostModel, LedgerEntry, ModelVerdict, Workload};

use super::parallel::MODEL_TOLERANCE;
use crate::harness;

/// Default output path of the machine-readable results.
pub const DEFAULT_JSON_PATH: &str = "BENCH_compress.json";

const ALGOS: [&str; 3] = ["greedy", "onek", "twok"];
const MODES: [&str; 3] = ["scan", "paged", "par4"];

/// One measured (backend, algorithm, mode) cell.
struct Side {
    is_size: u64,
    scans: u64,
    rounds: u64,
    io: IoSnapshot,
    wall_ms: f64,
    paged_rounds: u64,
    maximal: bool,
    /// Cost-model conformance verdict (filled in by [`check_side`]).
    model: Option<ModelVerdict>,
}

fn measure(path: &Path, block_size: usize, algo: &str, mode: &str) -> Side {
    // Fresh counters per cell, so configurations cannot bleed into each
    // other.
    let stats = IoStats::shared();
    let file =
        AnyAdjFile::open_with_block_size(path, Arc::clone(&stats), block_size).expect("open");
    let executor = match mode {
        "par4" => Executor::parallel(4),
        _ => Executor::Sequential,
    };
    // The paged mode gives the swap rounds a 4 MiB buffer pool with the
    // index flavour matching the record codec; greedy has no paged path
    // and simply ignores the provider.
    let raccess: Option<Box<dyn NeighborAccess>> = if mode == "paged" {
        let pc = PagerConfig::with_capacity_bytes(4 << 20, block_size, PolicyKind::Clock);
        let ra: Box<dyn NeighborAccess> = match &file {
            AnyAdjFile::Plain(f) => Box::new(RandomAccessGraph::open(f, pc).expect("ra open")),
            AnyAdjFile::Compressed(f) => {
                Box::new(RandomAccessGraph::open_compressed(f, pc).expect("ra open"))
            }
            AnyAdjFile::Sharded(g) => Box::new(g.open_random_access(pc).expect("ra open")),
        };
        Some(ra)
    } else {
        None
    };
    let access = raccess.as_deref();
    let scan = file.as_scan();

    let start = Instant::now();
    let greedy = Greedy::with_executor(executor).run(scan);
    let mut config = SwapConfig::default().with_executor(executor);
    if access.is_some() {
        config = config.with_paged_threshold(1.0);
    }
    let (set, scans, rounds, paged_rounds) = match algo {
        "greedy" => (greedy.set, greedy.file_scans, 0, 0),
        "onek" => {
            let o = OneKSwap::with_config(config).run_paged(scan, access, &greedy.set);
            (
                o.result.set,
                greedy.file_scans + o.result.file_scans,
                o.stats.num_rounds() as u64,
                o.stats.paged_rounds,
            )
        }
        "twok" => {
            let o = TwoKSwap::with_config(config).run_paged(scan, access, &greedy.set);
            (
                o.result.set,
                greedy.file_scans + o.result.file_scans,
                o.stats.num_rounds() as u64,
                o.stats.paged_rounds,
            )
        }
        other => unreachable!("unknown algo {other}"),
    };
    let proof = prove_maximal_with(scan, &set, &executor);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Side {
        is_size: set.len() as u64,
        scans: scans + 1, // + proof scan
        rounds,
        io: stats.snapshot(),
        wall_ms,
        paged_rounds,
        maximal: proof.is_maximal_independent(),
        model: None,
    }
}

/// Checks one cell against the cost model. Swap cells state their full
/// workload (greedy seed → swap → proof, plus the index-build scan in
/// paged mode), so the scan count is predicted exactly; greedy-only
/// cells have no swap pass structure to predict, so their scan count is
/// asserted directly and the verdict checks the blocks-per-scan
/// relation alone.
fn check_side(side: &mut Side, model: &CostModel, algo: &str, mode: &str) {
    let storage = &model.storage;
    let index_scans = u64::from(mode == "paged"); // RecordIndex::build
    let workload = match algo {
        "greedy" => {
            let expected = side.scans + index_scans; // greedy + proof (+ index)
            assert_eq!(
                side.io.scans_started, expected,
                "{storage}/{algo}/{mode}: accounted scans"
            );
            None
        }
        _ => Some(Workload::GreedyThenSwap {
            rounds: side.rounds,
            paged_rounds: side.paged_rounds,
            finalize: true,
            extra_scans: 1 + index_scans, // maximality proof (+ index build)
        }),
    };
    let verdict = model.check(
        workload,
        side.io.scans_started,
        side.io.blocks_read,
        MODEL_TOLERANCE,
    );
    assert!(verdict.pass, "{storage}/{algo}/{mode}: {verdict}");
    side.model = Some(verdict);
}

fn side_json(side: &Side) -> String {
    let mut json = format!(
        concat!(
            "{{\"is_size\": {}, \"file_scans\": {}, \"rounds\": {}, \"paged_rounds\": {}, ",
            "\"blocks_read\": {}, \"bytes_read\": {}, \"maximal\": {}, ",
            "\"wall_ms\": {:.2}"
        ),
        side.is_size,
        side.scans,
        side.rounds,
        side.paged_rounds,
        side.io.blocks_read,
        side.io.bytes_read,
        side.maximal,
        side.wall_ms,
    );
    if let Some(verdict) = &side.model {
        json.push_str(&format!(", \"model\": {}", verdict.to_json()));
    }
    json.push('}');
    json
}

/// Runs the experiment, prints the comparison and writes the JSON file.
pub fn run() {
    let n = harness::sweep_vertices().min(100_000);
    let block_size = 64 * 1024usize;
    println!(
        "== Compressed storage backend: plain vs gap-compressed across \
         greedy/one-k/two-k × scan/paged/par4 (P(α,β), β = 2.0, |V| ≈ {n}) =="
    );

    let graph = mis_gen::Plrg::with_vertices(n, 2.0).seed(42).generate();
    let scratch = ScratchDir::new("repro-compress").expect("scratch dir");
    let build_stats = IoStats::shared();
    let unsorted = build_adj_file(
        &graph,
        &scratch.file("graph.adj"),
        Arc::clone(&build_stats),
        block_size,
    )
    .expect("build adj file");
    let sorted = degree_sort_adj_file(
        &unsorted,
        &scratch.file("graph.sorted.adj"),
        &SortConfig {
            block_size,
            ..SortConfig::default()
        },
        &scratch,
    )
    .expect("degree sort");
    let compressed = compress_adj(
        &sorted,
        &scratch.file("graph.sorted.cadj"),
        Arc::clone(&build_stats),
        block_size,
    )
    .expect("compress");
    let plain_bytes = sorted.disk_bytes().expect("metadata");
    let comp_bytes = compressed.disk_bytes().expect("metadata");
    let plain_path = sorted.path().to_path_buf();
    let comp_path = compressed.path().to_path_buf();

    let header = [
        "algo",
        "mode",
        "|IS|",
        "plain blk",
        "comp blk",
        "saved",
        "plain ms",
        "comp ms",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect::<Vec<_>>();
    let plain_model = CostModel {
        vertices: graph.num_vertices() as u64,
        edges: graph.num_edges(),
        file_bytes: plain_bytes,
        block_size: block_size as u64,
        storage: sorted.storage().to_string(),
        shard_bytes: Vec::new(),
    };
    let comp_model = CostModel {
        file_bytes: comp_bytes,
        storage: compressed.storage().to_string(),
        ..plain_model.clone()
    };
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut total_saved = 0u64;
    let mut ledger = LedgerEntry::new(
        "repro compress",
        &format!("plrg beta=2.0 n={}", graph.num_vertices()),
        harness::env_fingerprint(block_size, "adj-file+adj-file-compressed"),
    );
    for algo in ALGOS {
        for mode in MODES {
            let mut plain = measure(&plain_path, block_size, algo, mode);
            let mut comp = measure(&comp_path, block_size, algo, mode);
            check_side(&mut plain, &plain_model, algo, mode);
            check_side(&mut comp, &comp_model, algo, mode);
            for (side, model) in [(&plain, &plain_model), (&comp, &comp_model)] {
                ledger.verdict(
                    &format!("model {}/{algo}/{mode}", model.storage),
                    side.model.as_ref().is_some_and(|v| v.pass),
                );
            }
            assert_eq!(
                plain.is_size, comp.is_size,
                "{algo}/{mode}: the storage backend must not change |IS|"
            );
            assert!(plain.maximal && comp.maximal, "{algo}/{mode}: maximality");
            assert_eq!(
                plain.scans, comp.scans,
                "{algo}/{mode}: identical logical scan counts"
            );
            assert!(
                comp.io.blocks_read < plain.io.blocks_read,
                "{algo}/{mode}: compressed must move fewer blocks ({} vs {})",
                comp.io.blocks_read,
                plain.io.blocks_read
            );
            let saved = plain.io.blocks_read - comp.io.blocks_read;
            total_saved += saved;
            rows.push(vec![
                algo.to_string(),
                mode.to_string(),
                plain.is_size.to_string(),
                plain.io.blocks_read.to_string(),
                comp.io.blocks_read.to_string(),
                saved.to_string(),
                format!("{:.1}", plain.wall_ms),
                format!("{:.1}", comp.wall_ms),
            ]);
            cells.push(format!(
                "{{\"algo\": \"{algo}\", \"mode\": \"{mode}\", \"plain\": {}, \"compressed\": {}}}",
                side_json(&plain),
                side_json(&comp)
            ));
        }
    }
    harness::print_table(&header, &rows);
    println!(
        "  identical |IS| and maximality proof in all {} cells; compressed file {} -> {} bytes \
         ({:.2}x), {total_saved} block transfers saved in total",
        rows.len(),
        plain_bytes,
        comp_bytes,
        plain_bytes as f64 / comp_bytes as f64,
    );
    println!(
        "  cost model: all {} sides conform (blocks within ±{:.0}% of scans × ⌈bytes/B⌉)",
        2 * rows.len(),
        MODEL_TOLERANCE * 100.0
    );

    let cell_list = cells.join(",\n    ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"compress\",\n",
            "  \"graph\": {{\"model\": \"plrg\", \"beta\": 2.0, \"seed\": 42, ",
            "\"vertices\": {}, \"edges\": {}}},\n",
            "  \"block_size\": {},\n",
            "  \"hardware_threads\": {},\n",
            "  \"available_threads\": {},\n",
            "  \"plain_bytes\": {},\n",
            "  \"compressed_bytes\": {},\n",
            "  \"compression_ratio\": {:.4},\n",
            "  \"cells\": [\n    {}\n  ],\n",
            "  \"blocks_saved_total\": {}\n",
            "}}\n"
        ),
        graph.num_vertices(),
        graph.num_edges(),
        block_size,
        mis_obs::hardware_threads(),
        mis_core::engine::available_threads(),
        plain_bytes,
        comp_bytes,
        plain_bytes as f64 / comp_bytes as f64,
        cell_list,
        total_saved,
    );
    let out_path =
        std::env::var("BENCH_COMPRESS_OUT").unwrap_or_else(|_| DEFAULT_JSON_PATH.to_string());
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("  could not write {out_path}: {e}"),
    }

    ledger.metric("vertices", graph.num_vertices() as f64);
    ledger.metric("edges", graph.num_edges() as f64);
    ledger.metric("plain_bytes", plain_bytes as f64);
    ledger.metric("compressed_bytes", comp_bytes as f64);
    ledger.metric("compression_ratio", plain_bytes as f64 / comp_bytes as f64);
    ledger.metric("blocks_saved_total", total_saved as f64);
    harness::ledger_append(&ledger);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end regression for the acceptance criterion: on a real
    /// on-disk graph the compressed backend returns the same set with
    /// fewer block transfers for every algorithm and executor mode.
    #[test]
    fn compressed_cells_match_plain_with_fewer_blocks() {
        let graph = mis_gen::Plrg::with_vertices(8_000, 2.0).seed(7).generate();
        let scratch = ScratchDir::new("compress-exp-test").unwrap();
        let stats = IoStats::shared();
        let block_size = 4096;
        let plain = build_adj_file(
            &graph,
            &scratch.file("g.adj"),
            Arc::clone(&stats),
            block_size,
        )
        .unwrap();
        let comp = compress_adj(&plain, &scratch.file("g.cadj"), stats, block_size).unwrap();
        let plain_model = CostModel {
            vertices: graph.num_vertices() as u64,
            edges: graph.num_edges(),
            file_bytes: plain.disk_bytes().unwrap(),
            block_size: block_size as u64,
            storage: plain.storage().to_string(),
            shard_bytes: Vec::new(),
        };
        let comp_model = CostModel {
            file_bytes: comp.disk_bytes().unwrap(),
            storage: comp.storage().to_string(),
            ..plain_model.clone()
        };
        for algo in ALGOS {
            for mode in MODES {
                let mut p = measure(plain.path(), block_size, algo, mode);
                let mut c = measure(comp.path(), block_size, algo, mode);
                check_side(&mut p, &plain_model, algo, mode);
                check_side(&mut c, &comp_model, algo, mode);
                assert_eq!(p.is_size, c.is_size, "{algo}/{mode}");
                assert!(p.maximal && c.maximal, "{algo}/{mode}");
                assert!(
                    c.io.blocks_read < p.io.blocks_read,
                    "{algo}/{mode}: {} vs {}",
                    c.io.blocks_read,
                    p.io.blocks_read
                );
                if mode == "paged" && algo != "greedy" {
                    assert!(c.paged_rounds > 0, "{algo}/{mode}: rounds went paged");
                }
            }
        }
        let fragment = side_json(&measure(plain.path(), block_size, "twok", "scan"));
        for key in ["is_size", "blocks_read", "maximal", "wall_ms"] {
            assert!(fragment.contains(key), "missing {key} in {fragment}");
        }
    }
}
