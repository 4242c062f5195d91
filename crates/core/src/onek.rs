//! Algorithm 2: the one-k-swap algorithm.
//!
//! Starting from a maximal independent set, repeatedly exchange one IS
//! vertex `w` for `k ≥ 2` non-IS vertices whose only IS neighbour is `w`.
//! The rounds — a candidate scan that detects 1-2 swap skeletons and
//! conflicts, an in-memory swap, and a post-swap scan that makes 0↔1
//! swaps and re-derives the candidates — are the shared swap-round
//! driver's (`crates/core/src/swap.rs`, whose module docs list the state
//! machine and the deviations from the pseudo-code). One-k keeps one IS
//! neighbour per candidate, 5 bytes per vertex in all, and adds only
//! Algorithm 2's verbatim post-swap rule for plain `N` vertices when
//! [`SwapConfig::repromote_n`] is off.

use mis_graph::{GraphScan, NeighborAccess, VertexId};

use crate::result::{RoundStats, SwapConfig, SwapOutcome};
use crate::swap::{self, Move, Vertices, NONE, S};

/// The one-k-swap algorithm (Algorithm 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct OneKSwap {
    config: SwapConfig,
}

impl OneKSwap {
    /// With default configuration (run to fixpoint, `N` re-promotion on,
    /// maximality finalisation on).
    pub fn new() -> Self {
        Self {
            config: SwapConfig::default(),
        }
    }

    /// With an explicit configuration.
    pub fn with_config(config: SwapConfig) -> Self {
        Self { config }
    }

    /// Enlarges `initial` (which must be an independent set of `graph`)
    /// by one-k swaps.
    pub fn run<G: GraphScan + ?Sized>(&self, graph: &G, initial: &[VertexId]) -> SwapOutcome {
        self.run_paged(graph, None, initial)
    }

    /// Like [`OneKSwap::run`], with a random-access provider for the
    /// paged candidate-verification path.
    ///
    /// `access` must resolve the same graph in the same storage order as
    /// `graph` (e.g. a [`mis_graph::RandomAccessGraph`] over the very
    /// file being scanned). Rounds whose live candidate count is at most
    /// [`SwapConfig::paged_threshold`]` · |V|` then verify candidates
    /// through the buffer pool instead of re-scanning the whole file; the
    /// result is identical either way.
    pub fn run_paged<G: GraphScan + ?Sized>(
        &self,
        graph: &G,
        access: Option<&dyn NeighborAccess>,
        initial: &[VertexId],
    ) -> SwapOutcome {
        swap::run(graph, access, initial, &self.config, *self)
    }
}

impl Move for OneKSwap {
    const SLOTS: u32 = 1;

    fn post_swap(
        &mut self,
        vx: &mut Vertices,
        u: VertexId,
        ns: &[VertexId],
        round: &mut RoundStats,
    ) -> bool {
        if self.config.repromote_n || vx.state[u as usize] != S::N {
            return false;
        }
        // Verbatim Algorithm 2: plain N vertices only get the 0↔1 check.
        if ns
            .iter()
            .all(|&nb| matches!(vx.state[nb as usize], S::C | S::N))
        {
            vx.set(u, S::I, 0, NONE);
            round.swapped_in += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Executor;
    use crate::greedy::Greedy;
    use crate::verify::{is_independent_set, is_maximal_independent_set};
    use mis_gen::figures;
    use mis_graph::{CsrGraph, OrderedCsr};

    fn run_figure(ex: &figures::FigureExample, config: SwapConfig) -> SwapOutcome {
        let scan = match &ex.scan_order {
            Some(order) => OrderedCsr::new(&ex.graph, order.clone()),
            None => OrderedCsr::degree_sorted(&ex.graph),
        };
        OneKSwap::with_config(config).run(&scan, &ex.initial_is)
    }

    #[test]
    fn figure1_swaps_hub_for_leaves() {
        let ex = figures::figure1();
        let out = run_figure(&ex, SwapConfig::default());
        assert_eq!(out.result.set, ex.expected_is);
    }

    #[test]
    fn figure2_conflict_lets_only_one_swap_fire() {
        // Example 1: v1 ↔ {v2,v3} wins, v4's swap is conflicted away.
        let ex = figures::figure2();
        let out = run_figure(&ex, SwapConfig::default());
        assert_eq!(
            out.result.set, ex.expected_is,
            "paper: final IS = {{v2,v3,v4}}"
        );
    }

    #[test]
    fn figure4_full_trace() {
        // Example 2: two skeletons fire in round one; v5, v6, v10 are
        // conflicted; final set is the paper's Figure 4(b).
        let ex = figures::figure4();
        let out = run_figure(&ex, SwapConfig::default());
        assert_eq!(out.result.set, ex.expected_is);
        // Both swaps were 1↔2: 4 in, 2 out in round 1.
        assert_eq!(out.stats.rounds[0].swapped_in, 4);
        assert_eq!(out.stats.rounds[0].swapped_out, 2);
    }

    #[test]
    fn figure5_cascade_needs_three_rounds() {
        let ex = figures::figure5();
        let out = run_figure(&ex, SwapConfig::default());
        assert_eq!(out.result.set, ex.expected_is);
        // Rounds with actual swaps: 3 (plus one fixpoint-detection round).
        let swap_rounds = out
            .stats
            .rounds
            .iter()
            .filter(|r| r.swapped_out > 0)
            .count();
        assert_eq!(swap_rounds, 3, "cascade fires one block per round");
    }

    #[test]
    fn figure5_verbatim_config_stalls() {
        // Without N re-promotion the cascade cannot proceed past round 1 —
        // this is why `repromote_n` defaults to true (see the
        // deviations in the swap driver's module docs).
        let ex = figures::figure5();
        let out = run_figure(&ex, SwapConfig::verbatim());
        let swap_rounds = out
            .stats
            .rounds
            .iter()
            .filter(|r| r.swapped_out > 0)
            .count();
        assert_eq!(swap_rounds, 1);
        assert_eq!(out.result.set.len(), 4); // 3 heads -> {tails of last block} + 2 heads
    }

    #[test]
    fn swaps_never_shrink_the_set() {
        let g = mis_gen::plrg::Plrg::with_vertices(2_000, 2.0)
            .seed(5)
            .generate();
        let scan = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&scan);
        let out = OneKSwap::new().run(&scan, &greedy.set);
        assert!(out.result.set.len() >= greedy.set.len());
        assert!(is_independent_set(&g, &out.result.set));
        assert!(is_maximal_independent_set(&g, &out.result.set));
        assert_eq!(out.stats.initial_size, greedy.set.len() as u64);
        assert_eq!(out.stats.final_size, out.result.set.len() as u64);
    }

    #[test]
    fn early_stop_limits_rounds() {
        let ex = figures::figure5();
        let scan = OrderedCsr::degree_sorted(&ex.graph);
        let out = OneKSwap::with_config(SwapConfig::early_stop(1)).run(&scan, &ex.initial_is);
        assert_eq!(out.stats.num_rounds(), 1);
        assert!(is_independent_set(&ex.graph, &out.result.set));
    }

    #[test]
    fn empty_initial_set_grows_to_maximal() {
        // With finalize_maximal the result is maximal even from nothing.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let scan = OrderedCsr::degree_sorted(&g);
        let out = OneKSwap::new().run(&scan, &[]);
        assert!(is_maximal_independent_set(&g, &out.result.set));
    }

    #[test]
    fn memory_model_is_five_bytes_per_vertex() {
        let g = CsrGraph::empty(100);
        let out = OneKSwap::new().run(&g, &[]);
        assert_eq!(out.result.memory.state_bytes, 100);
        assert_eq!(out.result.memory.isn_bytes, 400);
    }

    #[test]
    fn scan_counts_are_reported() {
        let ex = figures::figure2();
        let out = run_figure(&ex, SwapConfig::default());
        // init + 2 per round + finalize.
        let expected = 1 + 2 * out.stats.num_rounds() as u64 + 1;
        assert_eq!(out.result.file_scans, expected);
    }

    #[test]
    fn paged_path_matches_scan_path_exactly() {
        for seed in 0..3 {
            let g = mis_gen::plrg::Plrg::with_vertices(2_000, 2.0)
                .seed(seed)
                .generate();
            let scan = OrderedCsr::degree_sorted(&g);
            let greedy = Greedy::new().run(&scan);
            let plain = OneKSwap::new().run(&scan, &greedy.set);
            // Threshold 1.0: every round's pre-swap pass goes paged.
            let paged = OneKSwap::with_config(SwapConfig::default().with_paged_threshold(1.0))
                .run_paged(&scan, Some(&scan), &greedy.set);
            assert_eq!(paged.result.set, plain.result.set, "seed {seed}");
            assert_eq!(paged.stats.num_rounds(), plain.stats.num_rounds());
            assert_eq!(paged.stats.paged_rounds, plain.stats.num_rounds() as u64);
            assert_eq!(plain.stats.paged_rounds, 0);
            // Each paged round saves exactly its pre-swap scan.
            assert_eq!(
                plain.result.file_scans - paged.result.file_scans,
                paged.stats.paged_rounds
            );
        }
    }

    #[test]
    fn parallel_executor_is_byte_identical() {
        for seed in 0..2 {
            let g = mis_gen::plrg::Plrg::with_vertices(1_500, 2.0)
                .seed(seed)
                .generate();
            let scan = OrderedCsr::degree_sorted(&g);
            let greedy = Greedy::new().run(&scan);
            let seq = OneKSwap::new().run(&scan, &greedy.set);
            for threads in 1..=4 {
                let config = SwapConfig::default().with_executor(Executor::parallel(threads));
                let par = OneKSwap::with_config(config).run(&scan, &greedy.set);
                assert_eq!(par, seq, "seed {seed}, threads {threads}");
            }
        }
    }

    #[test]
    fn paged_threshold_zero_never_pages() {
        let g = mis_gen::plrg::Plrg::with_vertices(500, 2.0)
            .seed(1)
            .generate();
        let scan = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&scan);
        let out = OneKSwap::new().run_paged(&scan, Some(&scan), &greedy.set);
        assert_eq!(out.stats.paged_rounds, 0);
        assert_eq!(out.result.memory.pager_bytes, 0);
    }
}
