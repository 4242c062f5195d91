//! Independence and maximality checks.
//!
//! Both checks are themselves semi-external: one bit per vertex in memory,
//! one sequential scan of the graph. The scan is a mergeable
//! [`ScanPass`] — every record is judged against the fixed membership
//! bitmap, and the two verdict booleans combine by logical AND — so the
//! proof runs on any [`Executor`] backend with an identical result.

use mis_graph::{GraphScan, VertexId};

use crate::engine::{Executor, ScanPass};

/// Builds a membership bitmap from a vertex list.
pub(crate) fn membership(n: usize, set: &[VertexId]) -> Vec<bool> {
    let mut member = vec![false; n];
    for &v in set {
        member[v as usize] = true;
    }
    member
}

/// The verdict of one verification scan (see [`prove_maximal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetProof {
    /// No two members of the set are adjacent.
    pub independent: bool,
    /// Every non-member has at least one member neighbour.
    pub maximal: bool,
}

impl SetProof {
    /// Whether the set is a maximal independent set.
    pub fn is_maximal_independent(&self) -> bool {
        self.independent && self.maximal
    }
}

/// The verification pass: independence and domination in one scan.
struct ProofPass<'a> {
    member: &'a [bool],
}

impl ScanPass for ProofPass<'_> {
    type Shard = SetProof;
    type Output = SetProof;

    fn new_shard(&self) -> Self::Shard {
        SetProof {
            independent: true,
            maximal: true,
        }
    }

    fn visit(&self, shard: &mut Self::Shard, v: VertexId, neighbors: &[VertexId]) {
        let v_in = self.member[v as usize];
        let touches = neighbors.iter().any(|&u| self.member[u as usize]);
        if v_in && touches {
            shard.independent = false;
        }
        if !v_in && !touches {
            shard.maximal = false;
        }
    }

    fn merge(&self, into: &mut Self::Shard, later: Self::Shard) {
        into.independent &= later.independent;
        into.maximal &= later.maximal;
    }

    fn finish(&self, shard: Self::Shard) -> Self::Output {
        shard
    }
}

/// Proves (or refutes) in one scan that `set` is a maximal independent
/// set of `graph`, on the given executor backend. Duplicates in `set`
/// are tolerated.
pub fn prove_maximal_with<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
    executor: &Executor,
) -> SetProof {
    let _span = mis_obs::span("pass", "proof");
    let member = membership(graph.num_vertices(), set);
    executor
        .run_pass(graph, &ProofPass { member: &member })
        .expect("scan failed")
}

/// [`prove_maximal_with`] on the sequential backend.
pub fn prove_maximal<G: GraphScan + ?Sized>(graph: &G, set: &[VertexId]) -> SetProof {
    prove_maximal_with(graph, set, &Executor::Sequential)
}

/// Whether `set` is an independent set of `graph` (no two members
/// adjacent). Duplicates in `set` are tolerated.
pub fn is_independent_set<G: GraphScan + ?Sized>(graph: &G, set: &[VertexId]) -> bool {
    prove_maximal(graph, set).independent
}

/// Whether `set` is a *maximal* independent set: independent, and every
/// non-member has at least one member neighbour.
pub fn is_maximal_independent_set<G: GraphScan + ?Sized>(graph: &G, set: &[VertexId]) -> bool {
    prove_maximal(graph, set).is_maximal_independent()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::CsrGraph;

    fn path4() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn independence_detects_edges() {
        let g = path4();
        assert!(is_independent_set(&g, &[0, 2]));
        assert!(is_independent_set(&g, &[0, 3]));
        assert!(!is_independent_set(&g, &[0, 1]));
        assert!(is_independent_set(&g, &[]));
    }

    #[test]
    fn maximality_requires_domination() {
        let g = path4();
        assert!(is_maximal_independent_set(&g, &[0, 2]));
        assert!(is_maximal_independent_set(&g, &[1, 3]));
        // {0, 3} is independent but vertex 1..2 — wait, 1 touches 0, 2
        // touches 3: it IS maximal.
        assert!(is_maximal_independent_set(&g, &[0, 3]));
        // {1} leaves vertex 3 untouched.
        assert!(!is_maximal_independent_set(&g, &[1]));
        // Non-independent sets are never maximal independent sets.
        assert!(!is_maximal_independent_set(&g, &[0, 1, 3]));
    }

    #[test]
    fn isolated_vertices_must_be_included() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        assert!(!is_maximal_independent_set(&g, &[0]));
        assert!(is_maximal_independent_set(&g, &[0, 2]));
    }

    #[test]
    fn empty_graph_empty_set_is_maximal() {
        let g = CsrGraph::empty(0);
        assert!(is_maximal_independent_set(&g, &[]));
    }

    #[test]
    fn proof_reports_both_verdicts() {
        let g = path4();
        let proof = prove_maximal(&g, &[0, 2]);
        assert!(proof.independent && proof.maximal);
        assert!(proof.is_maximal_independent());
        let proof = prove_maximal(&g, &[0, 1]);
        assert!(!proof.independent);
        let proof = prove_maximal(&g, &[1]);
        assert!(proof.independent && !proof.maximal);
        assert!(!proof.is_maximal_independent());
    }

    #[test]
    fn parallel_proof_matches_sequential() {
        let g = mis_gen::plrg::Plrg::with_vertices(1_000, 2.0)
            .seed(9)
            .generate();
        let greedy = crate::greedy::Greedy::new().run(&g);
        let seq = prove_maximal(&g, &greedy.set);
        for threads in 1..=4 {
            let par = prove_maximal_with(&g, &greedy.set, &Executor::parallel(threads));
            assert_eq!(par, seq, "threads {threads}");
        }
        assert!(seq.is_maximal_independent());
    }
}
