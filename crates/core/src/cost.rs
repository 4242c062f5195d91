//! Scan-count constants of the cost model, pinned to the pass
//! structure of this crate's algorithms.
//!
//! `mis_obs::model` predicts I/O from these constants, but `mis_obs`
//! deliberately depends on nothing — so the constants are *defined*
//! there (next to the predictor) and *derived and enforced* here,
//! next to the pass structure they describe:
//!
//! * [`Greedy`](crate::Greedy) visits every record once —
//!   [`GREEDY_SCANS`]` = 1`.
//! * [`OneKSwap`](crate::OneKSwap) and [`TwoKSwap`](crate::TwoKSwap)
//!   run one round loop, the crate-private swap-round driver
//!   (`crates/core/src/swap.rs`, home of the `InitCandidates` pass). It
//!   runs one `InitCandidates` pass before round one
//!   ([`SWAP_INIT_SCANS`]), then per round the pre-swap candidate
//!   pass plus the post-swap ordered re-derivation fold
//!   ([`SWAP_SCANS_PER_ROUND`]` = 2`); a round that verified its
//!   candidates through the buffer pool skips the pre-swap *scan*
//!   (accounted as a paged round instead), and the optional
//!   `finalize_maximal` pass adds [`SWAP_FINALIZE_SCANS`].
//!
//! [`swap_scans`] folds those into the predicted `file_scans` of one
//! swap run. The tests below run the real algorithms and assert their
//! reported `file_scans` equals the prediction — any future change to
//! the pass structure must update the constants (and therefore the
//! CLI's `--check-model` and every `repro` conformance check) in the
//! same commit.

pub use mis_obs::model::{
    swap_scans, CostModel, ModelVerdict, Workload, GREEDY_SCANS, SWAP_FINALIZE_SCANS,
    SWAP_INIT_SCANS, SWAP_SCANS_PER_ROUND,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Greedy, OneKSwap, SwapConfig, TwoKSwap};
    use mis_graph::{CsrGraph, OrderedCsr};

    fn graph() -> CsrGraph {
        mis_gen::Plrg::with_vertices(3_000, 2.1).seed(9).generate()
    }

    #[test]
    fn greedy_is_one_scan() {
        let g = graph();
        let sorted = OrderedCsr::degree_sorted(&g);
        let result = Greedy::new().run(&sorted);
        assert_eq!(result.file_scans, GREEDY_SCANS);
        assert_eq!(Workload::Greedy.predicted_scans(), GREEDY_SCANS);
    }

    #[test]
    fn one_k_scan_count_matches_the_model() {
        let g = graph();
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let out = OneKSwap::new().run(&sorted, &greedy.set);
        let rounds = out.stats.num_rounds() as u64;
        let predicted = swap_scans(rounds, out.stats.paged_rounds, true);
        assert_eq!(
            out.result.file_scans, predicted,
            "one-k: {rounds} rounds, {} paged",
            out.stats.paged_rounds
        );
        let w = Workload::Swap {
            rounds,
            paged_rounds: out.stats.paged_rounds,
            finalize: true,
        };
        assert_eq!(w.predicted_scans(), predicted);
    }

    #[test]
    fn two_k_scan_count_matches_the_model() {
        let g = graph();
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let out = TwoKSwap::new().run(&sorted, &greedy.set);
        let rounds = out.stats.num_rounds() as u64;
        let predicted = swap_scans(rounds, out.stats.paged_rounds, true);
        assert_eq!(out.result.file_scans, predicted);
    }

    #[test]
    fn early_stopped_swap_still_matches() {
        let g = graph();
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let out = OneKSwap::with_config(SwapConfig::early_stop(1)).run(&sorted, &greedy.set);
        let rounds = out.stats.num_rounds() as u64;
        assert!(rounds <= 1);
        // `early_stop` caps rounds but keeps the final maximality pass.
        assert_eq!(
            out.result.file_scans,
            swap_scans(rounds, out.stats.paged_rounds, true)
        );
    }
}
