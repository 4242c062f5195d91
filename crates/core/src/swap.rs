//! The swap-round driver shared by Algorithms 2–4.
//!
//! One-k-swap ([`crate::OneKSwap`]) and two-k-swap ([`crate::TwoKSwap`])
//! run the same rounds over the same six per-vertex states (Table 3 of
//! the paper):
//!
//! | state | meaning |
//! |---|---|
//! | `I` | in the independent set |
//! | `N` | not in the set |
//! | `A` | non-IS, adjacent to one (two-k: one or two) IS vertices — a swap candidate |
//! | `P` | protected — will enter the set this round |
//! | `C` | conflicted — lost this round's race to an adjacent `P` |
//! | `R` | retrograde — IS vertex leaving the set this round |
//!
//! [`run`] derives the initial `A` states in one mergeable pass, then
//! repeats rounds until no swap fires: a **candidate** pass in storage
//! order (earlier records preempt later ones, which resolves swap
//! conflicts deterministically), the in-memory **swap** (`P→I`, `R→N`)
//! and a **post-swap** pass that re-derives `A`/`N` and makes 0↔1 swaps.
//! What differs between the algorithms sits behind [`Move`]: how many
//! IS neighbours an `A` vertex remembers, two-k's 2-3 skeletons and
//! nominees, one-k's verbatim `N` handling and each move's memory.
//!
//! A 1-2 skeleton `(u, ·, w)` is detected with the paper's `ISN`-reuse
//! trick: an IS vertex's first slot holds `y`, the number of singleton
//! `A` vertices pointing at it, and `u` hosts a skeleton iff
//! `y − 1 − x ≥ 1`, where `x` counts `u`'s own such neighbours — an
//! `O(deg u)` check with no extra memory.
//!
//! ## Deviations from the paper's pseudo-code
//!
//! * **In-memory swap phase.** The paper phrases `P→I`, `R→N` as a third
//!   scan; it touches no adjacency data, so it runs in memory and a round
//!   costs two scans, not three ([`crate::cost`] pins this).
//! * **`N` re-promotion.** Algorithm 2 re-evaluates only `C`/`A` vertices
//!   after a swap, but the paper's own Figure 5 cascade needs plain `N`
//!   vertices to become candidates again, and Algorithm 3 re-derives `N`
//!   too. One-k therefore re-promotes `N` unless
//!   [`SwapConfig::repromote_n`] is off; two-k always does.
//! * **Nomination and the shrink guard.** A fired 2-3 skeleton involves
//!   two vertices whose records were scanned earlier, so their current
//!   neighbourhoods are no longer in memory; marking them `P` could put
//!   two adjacent vertices into the set. Two-k instead *nominates* them
//!   (`C` plus a flag): they join during the post-swap pass, with their
//!   neighbour list back in memory, iff they still have no IS neighbour,
//!   and repair the `A` state of neighbours the pass already re-derived.
//!   Normally this completes the paper's 2↔k swap exactly (the Figure 7
//!   trace test); when a nominee got blocked the round may lose vertices,
//!   and a round-start snapshot rolls it back and stops the run.
//! * **SC sets hold only keys that can fire.** Two-k does not store a
//!   half or full that no later vertex of the round can read (see
//!   `crates/core/src/twok.rs`). [`crate::MemoryModel::sc_peak_bytes`] and
//!   [`SwapStats::sc_peak_vertices`] still report the paper's SC model —
//!   every registration Algorithm 4 makes — not the smaller set stored.
//! * **Finalisation.** With [`SwapConfig::finalize_maximal`] one relaxed
//!   0↔1 pass at the end makes the result maximal even after an early
//!   stop or a rollback; it never removes a vertex.

use mis_graph::{GraphScan, NeighborAccess, VertexId};

use crate::engine::{Executor, ScanPass};
use crate::result::{MemoryModel, MisResult, RoundStats, SwapConfig, SwapOutcome, SwapStats};

pub(crate) const NONE: u32 = u32::MAX;

/// Vertex states; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum S {
    /// In the independent set.
    I,
    /// Not in the set.
    N,
    /// Adjacent swap candidate.
    A,
    /// Protected (entering this round).
    P,
    /// Conflicted this round.
    C,
    /// Retrograde (leaving this round).
    R,
}

/// The per-vertex state of one swap run.
#[derive(Debug, Clone, Default)]
pub(crate) struct Vertices {
    pub(crate) state: Vec<S>,
    /// First IS neighbour of an `A` vertex, dependant count of an `I`
    /// vertex (singleton `A` vertices pointing at it), else `NONE`.
    pub(crate) isn1: Vec<u32>,
    /// Second IS neighbour of an `A` vertex that has two, else `NONE`;
    /// empty when the move keeps one slot.
    pub(crate) isn2: Vec<u32>,
}

impl Vertices {
    fn isn2(&self, v: u32) -> u32 {
        self.isn2.get(v as usize).copied().unwrap_or(NONE)
    }

    /// Sets `v`'s state and ISN slots (`w2` is dropped with one slot).
    pub(crate) fn set(&mut self, v: u32, s: S, w1: u32, w2: u32) {
        self.state[v as usize] = s;
        self.isn1[v as usize] = w1;
        if let Some(slot) = self.isn2.get_mut(v as usize) {
            *slot = w2;
        }
    }

    pub(crate) fn is_singleton_a(&self, v: u32) -> bool {
        self.state[v as usize] == S::A && self.isn2(v) == NONE
    }

    /// Drops singleton `A` vertex `u` from its IS neighbour's dependant
    /// count.
    pub(crate) fn release(&mut self, u: u32) {
        let w = self.isn1[u as usize];
        if self.isn2(u) == NONE && w != NONE && self.state[w as usize] == S::I {
            self.isn1[w as usize] = self.isn1[w as usize].saturating_sub(1);
        }
    }

    /// Marks `u` conflicted.
    pub(crate) fn conflict(&mut self, u: u32) {
        self.release(u);
        self.state[u as usize] = S::C;
    }

    /// Whether a singleton with IS neighbour `w` and neighbours `ns` hosts
    /// a 1-2 skeleton: another singleton points at `w` and is neither it
    /// nor adjacent to it.
    fn hosts_one_two(&self, w: u32, ns: &[VertexId]) -> bool {
        let x = ns
            .iter()
            .filter(|&&nb| self.is_singleton_a(nb) && self.isn1[nb as usize] == w)
            .count() as u32;
        self.isn1[w as usize] >= x + 2
    }

    /// Re-derives non-IS `u` from its current IS neighbours: `A` with one
    /// (or, with two slots, two) of them, `I` by a 0↔1 swap when every
    /// neighbour is `C` or `N`, else `N`.
    fn rederive(&mut self, u: u32, ns: &[VertexId], slots: u32, round: &mut RoundStats) {
        let mut count = 0u32;
        let (mut w1, mut w2) = (NONE, NONE);
        let mut all_cn = true;
        for &nb in ns {
            match self.state[nb as usize] {
                S::I => {
                    count += 1;
                    if w1 == NONE {
                        w1 = nb;
                    } else if w2 == NONE {
                        w2 = nb;
                    }
                    all_cn = false;
                }
                S::C | S::N => {}
                _ => all_cn = false,
            }
        }
        if count == 1 {
            self.set(u, S::A, w1, NONE);
            self.isn1[w1 as usize] += 1;
        } else if count == 2 && slots == 2 {
            self.set(u, S::A, w1, w2);
        } else if count == 0 && all_cn {
            self.set(u, S::I, 0, NONE);
            round.swapped_in += 1;
        } else {
            self.set(u, S::N, NONE, NONE);
        }
    }
}

/// What one swap algorithm adds to the shared round loop.
pub(crate) trait Move {
    /// IS neighbours an `A` vertex remembers: 1 or 2.
    const SLOTS: u32;

    /// Called at the start of every round.
    fn begin_round(&mut self, _vx: &Vertices) {}

    /// Candidate pass, for an `A` vertex whose IS neighbours all stay and
    /// that hosts no 1-2 skeleton: look for a larger swap.
    fn extend(&mut self, _vx: &mut Vertices, _u: VertexId, _ns: &[VertexId]) {}

    /// Called after the candidate pass; returns the distinct vertices
    /// held in SC sets this round.
    fn end_candidates(&mut self, _vx: &Vertices) -> u64 {
        0
    }

    /// Post-swap pass, for a non-IS vertex before its re-derivation;
    /// `true` when the move settled `u` itself.
    fn post_swap(
        &mut self,
        vx: &mut Vertices,
        u: VertexId,
        ns: &[VertexId],
        round: &mut RoundStats,
    ) -> bool;

    /// Called at the end of every round; `shrank` when the round lost
    /// vertices. `true` stops the run with the round undone (the shrink
    /// guard).
    fn end_round(&mut self, _vx: &mut Vertices, _shrank: bool) -> bool {
        false
    }

    /// The move's own memory beyond the state array and ISN slots.
    fn memory(&self, _n: u64) -> MemoryModel {
        MemoryModel::default()
    }
}

/// The initial `A`-state derivation (lines 1–3 of Algorithms 2 and 3):
/// for every vertex still `N`, find its IS neighbours. Each record's
/// verdict reads only the frozen `I` membership, so the pass is
/// mergeable and parallelises; the caller applies the collected
/// `(v, w1, w2)` assignments after the scan (`w2 == NONE` for
/// singletons).
struct InitCandidates<'a> {
    state: &'a [S],
    /// IS-neighbour slots tracked before breaking.
    slots: u32,
}

impl ScanPass for InitCandidates<'_> {
    type Shard = Vec<(u32, u32, u32)>;
    type Output = Vec<(u32, u32, u32)>;

    fn new_shard(&self) -> Self::Shard {
        Vec::new()
    }

    fn visit(&self, shard: &mut Self::Shard, v: VertexId, ns: &[VertexId]) {
        if self.state[v as usize] != S::N {
            return;
        }
        let mut count = 0u32;
        let (mut w1, mut w2) = (NONE, NONE);
        for &u in ns {
            if self.state[u as usize] == S::I {
                count += 1;
                if w1 == NONE {
                    w1 = u;
                } else if w2 == NONE {
                    w2 = u;
                }
                if count > self.slots {
                    break;
                }
            }
        }
        if count >= 1 && count <= self.slots {
            shard.push((v, w1, if count == 2 { w2 } else { NONE }));
        }
    }

    fn merge(&self, into: &mut Self::Shard, later: Self::Shard) {
        into.extend(later);
    }

    fn finish(&self, shard: Self::Shard) -> Self::Output {
        shard
    }
}

/// Collects one round's paged-path candidates: `Some(list)` sorted into
/// storage order when an access provider exists and at most
/// `threshold · |V|` vertices are in state `A`, else `None` (fall back to
/// a full scan).
///
/// The candidate pass only ever *acts* on vertices that are `A` when
/// their record arrives, and no vertex enters `A` during the pass — so
/// visiting exactly the round's initial `A` set, in storage order,
/// reproduces the full scan's behaviour (including its earlier-record-wins
/// conflict resolution) while reading only the candidates' records.
fn select_paged_candidates(
    access: Option<&dyn NeighborAccess>,
    threshold: f64,
    state: &[S],
) -> Option<Vec<u32>> {
    let access = access?;
    if threshold <= 0.0 {
        return None;
    }
    let limit = (threshold * state.len() as f64) as usize;
    let mut cands: Vec<u32> = Vec::new();
    for (v, &s) in state.iter().enumerate() {
        if s == S::A {
            if cands.len() >= limit {
                return None;
            }
            cands.push(v as u32);
        }
    }
    let mut keyed: Vec<(u64, u32)> = cands
        .into_iter()
        .map(|v| (access.record_rank(v), v))
        .collect();
    keyed.sort_unstable();
    Some(keyed.into_iter().map(|(_, v)| v).collect())
}

/// Enlarges `initial` (an independent set of `graph`) by rounds of `mv`
/// swaps; see the module docs.
pub(crate) fn run<G: GraphScan + ?Sized, M: Move>(
    graph: &G,
    access: Option<&dyn NeighborAccess>,
    initial: &[VertexId],
    config: &SwapConfig,
    mut mv: M,
) -> SwapOutcome {
    let n = graph.num_vertices();
    let mut vx = Vertices {
        state: vec![S::N; n],
        isn1: vec![NONE; n],
        isn2: vec![NONE; if M::SLOTS == 2 { n } else { 0 }],
    };
    for &v in initial {
        vx.set(v, S::I, 0, NONE);
    }
    let executor = config.executor;

    let mut file_scans: u64 = 1;
    {
        let _span = mis_obs::span("pass", "swap.init_candidates");
        let init = InitCandidates {
            state: &vx.state,
            slots: M::SLOTS,
        };
        let assignments = executor.run_pass(graph, &init).expect("scan failed");
        for (v, w1, w2) in assignments {
            vx.set(v, S::A, w1, w2);
            if w2 == NONE {
                vx.isn1[w1 as usize] += 1;
            }
        }
    }

    let mut stats = SwapStats {
        initial_size: initial.len() as u64,
        ..SwapStats::default()
    };
    let round_cap = config
        .max_rounds
        .map(|r| r as usize)
        .unwrap_or_else(|| n.max(16)); // worst case is n/3 rounds (Fig. 5)
    let mut stagnant_rounds = 0u32;

    let mut can_swap = true;
    while can_swap && stats.rounds.len() < round_cap {
        can_swap = false;
        let mut round = RoundStats::default();

        // ---- Candidate pass: one ordered scan, or paged verification of
        // the live candidates when few are left. ----
        {
            let _span = mis_obs::span("pass", "swap.candidate");
            mv.begin_round(&vx);
            let cands = select_paged_candidates(access, config.paged_threshold, &vx.state);
            let mut visit = |u: VertexId, ns: &[VertexId]| {
                if vx.state[u as usize] != S::A {
                    return;
                }
                // Case (i): a neighbour already protected this round.
                if ns.iter().any(|&nb| vx.state[nb as usize] == S::P) {
                    vx.conflict(u);
                    return;
                }
                let (w1, w2) = (vx.isn1[u as usize], vx.isn2(u));
                let is = |w: u32, s: S| w == NONE || vx.state[w as usize] == s;
                if is(w1, S::R) && is(w2, S::R) {
                    // Every IS neighbour is leaving: join the swap.
                    vx.state[u as usize] = S::P;
                } else if !is(w1, S::I) || !is(w2, S::I) {
                    // One IS neighbour stays while another leaves.
                } else if w2 == NONE && vx.hosts_one_two(w1, ns) {
                    vx.state[u as usize] = S::P;
                    vx.state[w1 as usize] = S::R;
                } else {
                    mv.extend(&mut vx, u, ns);
                }
            };
            match (access, cands) {
                (Some(access), Some(cands)) => {
                    for &u in &cands {
                        access
                            .with_neighbors(u, &mut |ns| visit(u, ns))
                            .expect("paged read failed");
                    }
                    stats.paged_rounds += 1;
                }
                _ => {
                    executor
                        .fold_ordered(graph, &mut visit)
                        .expect("scan failed");
                    file_scans += 1;
                }
            }
            round.sc_peak_vertices = mv.end_candidates(&vx);
        }
        stats.sc_peak_vertices = stats.sc_peak_vertices.max(round.sc_peak_vertices);

        // ---- Swap phase, in memory; dependant counts restart at zero
        // before the re-derivation. ----
        for v in 0..n as u32 {
            match vx.state[v as usize] {
                S::P => {
                    vx.set(v, S::I, 0, NONE);
                    round.swapped_in += 1;
                }
                S::I => vx.isn1[v as usize] = 0,
                S::R => {
                    vx.set(v, S::N, NONE, NONE);
                    round.swapped_out += 1;
                    can_swap = true;
                }
                _ => {}
            }
        }

        // ---- Post-swap pass: order-dependent (joins are visible to later
        // records), so it runs through the engine's ordered fold. ----
        {
            let _span = mis_obs::span("pass", "swap.post_swap");
            file_scans += 1;
            executor
                .fold_ordered(graph, &mut |u, ns| {
                    if vx.state[u as usize] != S::I && !mv.post_swap(&mut vx, u, ns, &mut round) {
                        vx.rederive(u, ns, M::SLOTS, &mut round);
                    }
                })
                .expect("scan failed");
        }

        if mv.end_round(&mut vx, round.net_gain() < 0) {
            break;
        }
        if round.net_gain() <= 0 {
            stagnant_rounds += 1;
        } else {
            stagnant_rounds = 0;
        }
        stats.rounds.push(round);
        if stagnant_rounds >= 3 {
            break; // degenerate size-neutral swaps; no progress possible
        }
    }

    if config.finalize_maximal {
        let _span = mis_obs::span("pass", "swap.finalize");
        file_scans += 1;
        finalize_maximal(graph, &mut vx.state, &executor);
    }

    let set: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| vx.state[v as usize] == S::I)
        .collect();
    stats.final_size = set.len() as u64;
    let n = n as u64;
    let memory = MemoryModel {
        state_bytes: n,
        isn_bytes: 4 * u64::from(M::SLOTS) * n,
        pager_bytes: match access {
            Some(access) if stats.paged_rounds > 0 => access.resident_bytes(),
            _ => 0,
        },
        ..mv.memory(n)
    };
    SwapOutcome {
        result: MisResult {
            set,
            file_scans,
            memory,
        },
        stats,
    }
}

/// One relaxed 0↔1 pass: any vertex with no IS neighbour joins. Never
/// removes vertices, guarantees maximality. Order-dependent — a join is
/// visible to later records — so it runs through the engine's ordered
/// fold.
fn finalize_maximal<G: GraphScan + ?Sized>(graph: &G, state: &mut [S], executor: &Executor) {
    executor
        .fold_ordered(graph, &mut |u, ns| {
            if state[u as usize] != S::I && ns.iter().all(|&nb| state[nb as usize] != S::I) {
                state[u as usize] = S::I;
            }
        })
        .expect("scan failed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::{CsrGraph, OrderedCsr};

    #[test]
    fn select_paged_candidates_respects_threshold_and_order() {
        let state = vec![S::A, S::N, S::A, S::I, S::A];
        let g = CsrGraph::empty(5);
        // Reverse storage order via OrderedCsr: ranks are 4,3,2,1,0.
        let ordered = OrderedCsr::new(&g, vec![4, 3, 2, 1, 0]);
        let access: &dyn mis_graph::NeighborAccess = &ordered;
        // No provider or zero threshold: scan fallback.
        assert!(select_paged_candidates(None, 1.0, &state).is_none());
        assert!(select_paged_candidates(Some(access), 0.0, &state).is_none());
        // Three A vertices over a 2-candidate budget (0.5 * 5): fallback.
        assert!(select_paged_candidates(Some(access), 0.5, &state).is_none());
        // Budget fits: candidates come back in storage (reverse-id) order.
        assert_eq!(
            select_paged_candidates(Some(access), 1.0, &state),
            Some(vec![4, 2, 0])
        );
    }
}
