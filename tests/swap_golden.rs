//! Golden oracle for the swap algorithms: the complete `SwapOutcome` of
//! `OneKSwap` and `TwoKSwap` — set, scan count, memory model, per-round
//! stats, paged rounds and SC peak — over a fixed grid of configurations
//! and graphs, hashed and compared against recorded constants.
//!
//! The other swap tests compare execution paths against each other
//! (paged vs scan, parallel vs sequential), so a change that shifts every
//! path the same way slips past them. This test does not: any change to
//! a swap transition, a round's bookkeeping or the pass accounting moves
//! a hash. The constants may only change together with a deliberate,
//! documented change of the algorithms' behaviour.

use semi_mis::graph::CsrGraph;
use semi_mis::prelude::*;

/// FNV-1a over the outcome's `Debug` rendering: stable, dependency-free,
/// and it covers every field of every nested struct.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The graphs of the grid, each with the initial set the swaps start from.
fn graphs() -> Vec<(CsrGraph, Option<Vec<VertexId>>)> {
    let mut out = Vec::new();
    for beta in [2.0, 2.1] {
        for seed in 0..3 {
            let g = semi_mis::gen::Plrg::with_vertices(2_000, beta)
                .seed(seed)
                .generate();
            out.push((g, None));
        }
    }
    // K_{2,5} from the small side: a 2↔5 swap one-k cannot make.
    let k25 = semi_mis::gen::special::complete_bipartite(2, 5);
    out.push((k25, Some(vec![0, 1])));
    // The paper's Figure 5 cascade (needs `N` re-promotion) and Figure 7
    // 2↔4 swap, from the paper's initial sets.
    for ex in [
        semi_mis::gen::figures::figure5(),
        semi_mis::gen::figures::figure7(),
    ] {
        out.push((ex.graph, Some(ex.initial_is)));
    }
    // The fuzz-found nominee-staleness graph (ER n=10, m=20, seed 246).
    let edges = [
        (0, 1),
        (0, 4),
        (0, 8),
        (1, 2),
        (1, 4),
        (2, 3),
        (2, 5),
        (2, 7),
        (3, 4),
        (3, 8),
        (3, 9),
        (4, 5),
        (4, 6),
        (4, 7),
        (5, 8),
        (5, 9),
        (6, 7),
        (6, 8),
        (6, 9),
        (7, 8),
    ];
    out.push((CsrGraph::from_edges(10, &edges), None));
    out
}

/// The configurations of the grid; `true` runs through `run_paged` with
/// the degree-sorted order as its access provider.
fn configs() -> Vec<(&'static str, SwapConfig, bool)> {
    vec![
        ("default", SwapConfig::default(), false),
        ("verbatim", SwapConfig::verbatim(), false),
        (
            "repromote_n=false",
            SwapConfig {
                repromote_n: false,
                ..SwapConfig::default()
            },
            false,
        ),
        ("early_stop(1)", SwapConfig::early_stop(1), false),
        (
            "finalize_maximal=false",
            SwapConfig {
                finalize_maximal: false,
                ..SwapConfig::default()
            },
            false,
        ),
        (
            "paged 1.0",
            SwapConfig::default().with_paged_threshold(1.0),
            true,
        ),
        (
            "paged 0.3",
            SwapConfig::default().with_paged_threshold(0.3),
            true,
        ),
    ]
}

/// One hash per (algorithm, configuration), folded over every graph.
fn golden_hashes(graphs: &[(CsrGraph, Option<Vec<VertexId>>)]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for algo in ["onek", "twok"] {
        for (name, config, paged) in configs() {
            let mut hash = FNV_OFFSET;
            for (g, initial) in graphs {
                let scan = OrderedCsr::degree_sorted(g);
                let initial = initial
                    .clone()
                    .unwrap_or_else(|| Greedy::new().run(&scan).set);
                let access: Option<&dyn NeighborAccess> = if paged { Some(&scan) } else { None };
                let outcome = match algo {
                    "onek" => OneKSwap::with_config(config).run_paged(&scan, access, &initial),
                    _ => TwoKSwap::with_config(config).run_paged(&scan, access, &initial),
                };
                hash = fnv1a(format!("{outcome:?}").as_bytes(), hash);
            }
            out.push((format!("{algo} {name}"), hash));
        }
    }
    out
}

/// Recorded from the algorithms as they stood before the swap round
/// driver was shared between one-k and two-k.
const EXPECTED: [(&str, u64); 14] = [
    ("onek default", 0xb198121c7275da07),
    ("onek verbatim", 0x29f8ee56ab8352f7),
    ("onek repromote_n=false", 0x22fae66794dfdf59),
    ("onek early_stop(1)", 0x7caef0f5741cd357),
    ("onek finalize_maximal=false", 0x9994cf69b3e8a5e4),
    ("onek paged 1.0", 0xec36ec2c3d027d40),
    ("onek paged 0.3", 0xd89e48d8db041d40),
    ("twok default", 0x3c278bd91dc1a3ba),
    ("twok verbatim", 0x4974c715c73da353),
    ("twok repromote_n=false", 0x3c278bd91dc1a3ba),
    ("twok early_stop(1)", 0xc07edc12c2406688),
    ("twok finalize_maximal=false", 0x4974c715c73da353),
    ("twok paged 1.0", 0x45683fd42a3eaa89),
    ("twok paged 0.3", 0x2f5d58c5b29aa83d),
];

/// Recorded from the algorithms as they stood before two-k's candidate
/// pass skipped the SC registrations no later vertex can read.
const EXPECTED_AT_SCALE: [(&str, u64); 14] = [
    ("onek default", 0x3add1dbd5266f489),
    ("onek verbatim", 0x4e44d46e5b5387be),
    ("onek repromote_n=false", 0x3add1dbd5266f489),
    ("onek early_stop(1)", 0x635bbd7c9d54c7c7),
    ("onek finalize_maximal=false", 0x4e44d46e5b5387be),
    ("onek paged 1.0", 0xfedaf658963e95c5),
    ("onek paged 0.3", 0xfedaf658963e95c5),
    ("twok default", 0xae2ff82e48b04a0c),
    ("twok verbatim", 0x05c455181873081f),
    ("twok repromote_n=false", 0xae2ff82e48b04a0c),
    ("twok early_stop(1)", 0x7b5186a69a0e0edf),
    ("twok finalize_maximal=false", 0x05c455181873081f),
    ("twok paged 1.0", 0x66006913dec3599c),
    ("twok paged 0.3", 0x66006913dec3599c),
];

fn assert_matches(got: &[(String, u64)], expected: &[(&str, u64)]) {
    let mismatches: Vec<String> = got
        .iter()
        .zip(expected.iter().copied())
        .filter(|((name, hash), (want_name, want))| name != want_name || hash != want)
        .map(|((name, hash), (_, want))| format!("{name}: got {hash:#018x}, want {want:#018x}"))
        .collect();
    assert_eq!(got.len(), expected.len());
    assert!(
        mismatches.is_empty(),
        "swap outcomes drifted:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn swap_outcomes_match_the_recorded_oracle() {
    assert_matches(&golden_hashes(&graphs()), &EXPECTED);
}

/// One PLRG graph at 20k vertices: most of two-k's SC registrations sit
/// on keys no later vertex touches, and some 2-3 skeletons still fire
/// (three under the default configuration).
#[test]
fn swap_outcomes_at_scale_match_the_recorded_oracle() {
    let g = semi_mis::gen::Plrg::with_vertices(20_000, 2.0)
        .seed(1)
        .generate();
    let got = golden_hashes(&[(g, None)]);
    assert_matches(&got, &EXPECTED_AT_SCALE);
}
