//! Algorithms 3–4: the two-k-swap algorithm.
//!
//! Extends one-k-swap with 2↔k exchanges: two IS vertices `w1, w2` leave
//! together when three (or more) mutually non-adjacent vertices whose IS
//! neighbourhoods are contained in `{w1, w2}` can replace them. State `A`
//! now covers non-IS vertices with one **or two** IS neighbours; the
//! per-pair *swap candidate* sets `SC(w1, w2)` of Definition 2 collect
//! verified non-adjacent candidate pairs, and a *2-3 swap skeleton*
//! (Definition 3) fires when a third compatible vertex arrives.
//!
//! The rounds are the shared swap-round driver's
//! (`crates/core/src/swap.rs`); this module adds the second ISN slot, the
//! SC sets, and the nomination of a fired skeleton's earlier-scanned pair
//! with its snapshot/rollback shrink guard. The driver's module docs
//! explain why a fired pair is nominated rather than protected.
//!
//! ## SC holds only keys that can fire
//!
//! Most SC registrations are never read: a half is read only by a full
//! whose key contains its IS neighbour, and a full only by a half of one
//! of its key's vertices or by another full with the same key. The
//! candidate pass puts no vertex into `A` and changes no `A` vertex's ISN
//! slots, so every half and full a round can register is an `A` vertex
//! at round start. One in-memory sweep then flags, per IS vertex, whether
//! a singleton points at it (`HAS_SINGLE`), whether it is in some full's
//! key (`IN_KEY`) and whether it is in two or more (`MANY_FULLS`).
//! A half whose IS neighbour is in no key, and a full whose key has no
//! half and cannot have a second full, only count towards the Lemma 6
//! metrics and are not stored. The filter is exact: a skipped entry is
//! never looked up, so every outcome is the one the full SC sets give.

use mis_graph::hash::{FxHashMap, FxHashSet};
use mis_graph::{GraphScan, NeighborAccess, VertexId};

use crate::result::{MemoryModel, RoundStats, SwapConfig, SwapOutcome};
use crate::swap::{self, Move, Vertices, NONE, S};

/// Cap on stored candidate pairs per `(w1, w2)` entry. One valid pair is
/// enough to fire a skeleton; keeping a few tolerates pairs whose members
/// are adjacent to (or conflicted away from) a later third vertex, while
/// bounding SC memory. Figure 10's `|SC|` counts the distinct vertices
/// held in SC entries — registered fulls plus pair members — per round
/// (the paper's Lemma 6 metric), tracked via [`ScMarks::mark`].
const PAIR_CAP: usize = 16;

/// Per-IS-pair swap-candidate entry.
#[derive(Debug, Default)]
struct ScEntry {
    /// Verified-non-adjacent candidate pairs `(full, other)`.
    pairs: Vec<(u32, u32)>,
    /// Scanned `A` vertices with `ISN = {w1, w2}` (pair-element "fulls").
    fulls: Vec<u32>,
}

/// Per-vertex bit flags of `TwoK::flags`: nominated to join at
/// post-swap.
const NOMINATED: u8 = 1;
/// Record already passed by the post-swap scan.
const SEEN: u8 = 1 << 1;
/// IS vertex with a singleton `A` vertex pointing at it at round start.
const HAS_SINGLE: u8 = 1 << 2;
/// IS vertex in the key of a full `A` vertex at round start.
const IN_KEY: u8 = 1 << 3;
/// IS vertex in the keys of two or more full `A` vertices at round start.
const MANY_FULLS: u8 = 1 << 4;

/// One round's SC sets, dropped after the candidate pass.
#[derive(Default)]
struct Sc {
    entries: FxHashMap<(u32, u32), ScEntry>,
    /// Scanned singleton `A` vertices ("halves") by IS neighbour.
    halves: FxHashMap<u32, Vec<u32>>,
    /// The keys containing each IS vertex.
    keys_by_w: FxHashMap<u32, Vec<(u32, u32)>>,
    /// Registered halves and fulls, for the memory model.
    vertices: u64,
    /// Stored pairs, for the memory model.
    pairs: u64,
    /// The current record's neighbours.
    nbr_set: FxHashSet<u32>,
}

/// Distinct vertices held in SC pairs per round (Figure 10 counts
/// *distinct vertices held in SC sets*, the paper's Lemma 6 metric).
struct ScMarks {
    /// Round epoch in which each vertex last entered a stored SC pair.
    epoch_of: Vec<u32>,
    /// Current round epoch.
    epoch: u32,
    /// Distinct vertices in SC pairs this round.
    distinct: u64,
}

impl ScMarks {
    /// Records `v` as a member of a stored SC pair this round.
    fn mark(&mut self, v: u32) {
        if self.epoch_of[v as usize] != self.epoch {
            self.epoch_of[v as usize] = self.epoch;
            self.distinct += 1;
        }
    }
}

/// The two-k-swap algorithm (Algorithms 3 and 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoKSwap {
    config: SwapConfig,
}

/// Two-k's state beyond the driver's, for one run.
struct TwoK {
    /// Per-vertex bit flags: `NOMINATED`, `SEEN` (needed so a nominee
    /// joining mid-scan can repair the ISN state of *earlier* neighbours;
    /// later records re-derive their state anyway) and the round-start key
    /// filter `HAS_SINGLE`, `IN_KEY`, `MANY_FULLS`.
    flags: Vec<u8>,
    marks: ScMarks,
    sc: Sc,
    /// Peak bytes held in SC sets.
    sc_peak_bytes: u64,
    /// Halves and fulls stored in SC sets, over the run.
    sc_registered: u64,
    /// Halves and fulls the key filter did not store, over the run.
    sc_skipped: u64,
    /// Round-start state for the shrink guard.
    snapshot: Vertices,
}

impl TwoKSwap {
    /// With default configuration.
    pub fn new() -> Self {
        Self {
            config: SwapConfig::default(),
        }
    }

    /// With an explicit configuration.
    pub fn with_config(config: SwapConfig) -> Self {
        Self { config }
    }

    /// Enlarges `initial` (an independent set of `graph`) by two-k and
    /// one-k swaps.
    pub fn run<G: GraphScan + ?Sized>(&self, graph: &G, initial: &[VertexId]) -> SwapOutcome {
        self.run_paged(graph, None, initial)
    }

    /// Like [`TwoKSwap::run`], with a random-access provider for the
    /// paged candidate-verification path.
    ///
    /// `access` must resolve the same graph in the same storage order as
    /// `graph`. Rounds with at most
    /// [`crate::SwapConfig::paged_threshold`]` · |V|` live candidates
    /// verify them through the buffer pool instead of re-scanning the
    /// whole file; the result is identical either way.
    pub fn run_paged<G: GraphScan + ?Sized>(
        &self,
        graph: &G,
        access: Option<&dyn NeighborAccess>,
        initial: &[VertexId],
    ) -> SwapOutcome {
        let n = graph.num_vertices();
        let two = TwoK {
            flags: vec![0; n],
            marks: ScMarks {
                epoch_of: vec![0; n],
                epoch: 0,
                distinct: 0,
            },
            sc: Sc::default(),
            sc_peak_bytes: 0,
            sc_registered: 0,
            sc_skipped: 0,
            snapshot: Vertices::default(),
        };
        swap::run(graph, access, initial, &self.config, two)
    }
}

impl Move for TwoK {
    const SLOTS: u32 = 2;

    /// Snapshots the round start and sweeps the key filter's flags.
    fn begin_round(&mut self, vx: &Vertices) {
        self.marks.epoch = self.marks.epoch.wrapping_add(1);
        self.marks.distinct = 0;
        self.snapshot = vx.clone();
        let flags = &mut self.flags;
        for f in flags.iter_mut() {
            *f &= NOMINATED;
        }
        for v in 0..vx.state.len() {
            if vx.state[v] != S::A {
                continue;
            }
            let (w1, w2) = (vx.isn1[v], vx.isn2[v]);
            if w2 == NONE {
                flags[w1 as usize] |= HAS_SINGLE;
                continue;
            }
            for w in [w1, w2] {
                let f = &mut flags[w as usize];
                *f |= if *f & IN_KEY != 0 { MANY_FULLS } else { IN_KEY };
            }
        }
    }

    /// Algorithm 4's 2-3 skeleton detection.
    fn extend(&mut self, vx: &mut Vertices, u: VertexId, ns: &[VertexId]) {
        let Self {
            flags,
            marks,
            sc,
            sc_registered,
            sc_skipped,
            ..
        } = self;
        let (w1, w2) = (vx.isn1[u as usize], vx.isn2[u as usize]);
        let flag = |w: u32, bit: u8| flags[w as usize] & bit != 0;
        // The key filter: a half whose IS neighbour is in no full's key,
        // or a full whose key has no half and at most one full, is never
        // read. It still counts towards the SC metrics.
        let read = if w2 == NONE {
            flag(w1, IN_KEY)
        } else {
            flag(w1, HAS_SINGLE)
                || flag(w2, HAS_SINGLE)
                || (flag(w1, MANY_FULLS) && flag(w2, MANY_FULLS))
        };
        if !read {
            if w2 != NONE {
                marks.mark(u);
            }
            sc.vertices += 1;
            *sc_skipped += 1;
            return;
        }
        *sc_registered += 1;
        let Sc {
            entries,
            halves,
            keys_by_w,
            vertices,
            pairs,
            nbr_set,
            ..
        } = sc;
        nbr_set.clear();
        nbr_set.extend(ns.iter().copied());
        let both_stay = |vx: &Vertices, key: (u32, u32)| {
            vx.state[key.0 as usize] == S::I && vx.state[key.1 as usize] == S::I
        };
        if w2 == NONE {
            // Singleton: the third vertex of any key containing w1 …
            let keys = keys_by_w.get(&w1).map_or(&[][..], Vec::as_slice);
            for &key in keys {
                if both_stay(vx, key) {
                    if let Some(entry) = entries.get(&key) {
                        if fire_if_pair_found(vx, flags, entry, u, nbr_set, key) {
                            return;
                        }
                    }
                }
            }
            // … else pair up with those keys' scanned fulls and register
            // as a half.
            for &key in keys {
                if both_stay(vx, key) {
                    if let Some(entry) = entries.get_mut(&key) {
                        add_pairs_with_fulls(vx, marks, entry, u, nbr_set, pairs);
                    }
                }
            }
            halves.entry(w1).or_default().push(u);
            *vertices += 1;
            return;
        }
        // Full A vertex: ISN = {w1, w2}.
        let key = (w1.min(w2), w1.max(w2));
        if let Some(entry) = entries.get(&key) {
            if fire_if_pair_found(vx, flags, entry, u, nbr_set, key) {
                return;
            }
        }
        // Register u as a full and pair it with previously scanned
        // compatible candidates: halves of w1 and w2, then the key's other
        // fulls.
        let entry = entries.entry(key).or_insert_with(|| {
            keys_by_w.entry(key.0).or_default().push(key);
            keys_by_w.entry(key.1).or_default().push(key);
            ScEntry::default()
        });
        for w in [key.0, key.1] {
            for &h in halves.get(&w).map_or(&[][..], Vec::as_slice) {
                if entry.pairs.len() >= PAIR_CAP {
                    break;
                }
                if vx.is_singleton_a(h) && !nbr_set.contains(&h) {
                    entry.pairs.push((u, h));
                    *pairs += 1;
                    marks.mark(u);
                    marks.mark(h);
                }
            }
        }
        add_pairs_with_fulls(vx, marks, entry, u, nbr_set, pairs);
        entry.fulls.push(u);
        marks.mark(u);
        *vertices += 1;
    }

    fn end_candidates(&mut self, vx: &Vertices) -> u64 {
        // The key filter's premise: the pass added no `A` vertex and moved
        // no `A` vertex's ISN slots.
        debug_assert!(
            (0..vx.state.len()).all(|v| vx.state[v] != S::A
                || (self.snapshot.state[v] == S::A
                    && self.snapshot.isn1[v] == vx.isn1[v]
                    && self.snapshot.isn2[v] == vx.isn2[v])),
            "the candidate pass changed an A vertex's keys"
        );
        // Running totals, one sample per candidate pass.
        mis_obs::counter("pass", "twok.sc_registered", self.sc_registered as f64);
        mis_obs::counter("pass", "twok.sc_skipped", self.sc_skipped as f64);
        let sc = std::mem::take(&mut self.sc);
        self.sc_peak_bytes = self.sc_peak_bytes.max(4 * sc.vertices + 8 * sc.pairs);
        self.marks.distinct
    }

    /// Nominated vertices complete their 2↔k swap here, with the full
    /// neighbour list in memory.
    fn post_swap(
        &mut self,
        vx: &mut Vertices,
        u: VertexId,
        ns: &[VertexId],
        round: &mut RoundStats,
    ) -> bool {
        let flags = &mut self.flags;
        let nominated = flags[u as usize] & NOMINATED != 0;
        flags[u as usize] = (flags[u as usize] & !NOMINATED) | SEEN;
        if !nominated || ns.iter().any(|&nb| vx.state[nb as usize] == S::I) {
            return false;
        }
        vx.set(u, S::I, 0, NONE);
        round.swapped_in += 1;
        // Repair neighbours whose A state was derived before this join: u
        // is now one of their IS neighbours. Without this, an
        // earlier-scanned vertex could fire a 1-2 swap next round while
        // secretly adjacent to u — breaking independence.
        for &nb in ns {
            if flags[nb as usize] & SEEN == 0 || vx.state[nb as usize] != S::A {
                continue;
            }
            if vx.isn2[nb as usize] == NONE {
                // Singleton gains a second IS neighbour.
                vx.release(nb);
                vx.isn2[nb as usize] = u;
            } else {
                // Already two IS neighbours: now three.
                vx.set(nb, S::N, NONE, NONE);
            }
        }
        true
    }

    /// Shrink guard: a blocked nominee can make a round lose vertices;
    /// roll back and stop rather than return a smaller set.
    fn end_round(&mut self, vx: &mut Vertices, shrank: bool) -> bool {
        let snapshot = std::mem::take(&mut self.snapshot);
        if shrank {
            *vx = snapshot;
        }
        shrank
    }

    fn memory(&self, n: u64) -> MemoryModel {
        MemoryModel {
            sc_peak_bytes: self.sc_peak_bytes,
            aux_bytes: n, // per-vertex flags
            ..MemoryModel::default()
        }
    }
}

/// Tries to complete a 2-3 swap skeleton with `u` as the third vertex.
/// On success: `u → P`, the pair is nominated, `w1, w2 → R`.
fn fire_if_pair_found(
    vx: &mut Vertices,
    flags: &mut [u8],
    entry: &ScEntry,
    u: u32,
    nbr_set: &FxHashSet<u32>,
    key: (u32, u32),
) -> bool {
    for &(a, b) in &entry.pairs {
        if a == u || b == u {
            continue;
        }
        if vx.state[a as usize] == S::A
            && vx.state[b as usize] == S::A
            && !nbr_set.contains(&a)
            && !nbr_set.contains(&b)
        {
            vx.state[u as usize] = S::P;
            // Nominate the earlier-scanned pair: conflicted out of this
            // round's candidacy, joining at post-swap if still safe.
            for m in [a, b] {
                vx.conflict(m);
                flags[m as usize] |= NOMINATED;
            }
            vx.state[key.0 as usize] = S::R;
            vx.state[key.1 as usize] = S::R;
            return true;
        }
    }
    false
}

/// Pairs `u` with previously scanned fulls of `entry` (mutual
/// non-adjacency verified against `u`'s in-memory neighbour set).
fn add_pairs_with_fulls(
    vx: &Vertices,
    marks: &mut ScMarks,
    entry: &mut ScEntry,
    u: u32,
    nbr_set: &FxHashSet<u32>,
    pairs: &mut u64,
) {
    for i in 0..entry.fulls.len() {
        if entry.pairs.len() >= PAIR_CAP {
            break;
        }
        let a = entry.fulls[i];
        if a != u && vx.state[a as usize] == S::A && !nbr_set.contains(&a) {
            entry.pairs.push((a, u));
            *pairs += 1;
            marks.mark(a);
            marks.mark(u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Greedy;
    use crate::onek::OneKSwap;
    use crate::verify::{is_independent_set, is_maximal_independent_set};
    use mis_gen::figures;
    use mis_graph::{CsrGraph, OrderedCsr};

    fn run_figure(ex: &figures::FigureExample) -> SwapOutcome {
        let scan = match &ex.scan_order {
            Some(order) => OrderedCsr::new(&ex.graph, order.clone()),
            None => OrderedCsr::degree_sorted(&ex.graph),
        };
        TwoKSwap::new().run(&scan, &ex.initial_is)
    }

    #[test]
    fn figure7_full_trace() {
        // Example 3: the 2↔4 swap {v2,v3} → {v4,v5,v6,v8}, with v7
        // conflicted by v5 and v6.
        let ex = figures::figure7();
        let out = run_figure(&ex);
        assert_eq!(out.result.set, ex.expected_is);
        // Round 1: v6 and v8 enter at swap, v4 and v5 at post-swap: 4 in,
        // 2 out.
        assert_eq!(out.stats.rounds[0].swapped_in, 4);
        assert_eq!(out.stats.rounds[0].swapped_out, 2);
        // SC held candidates during the round.
        assert!(out.stats.sc_peak_vertices > 0);
    }

    #[test]
    fn handles_one_k_cases_too() {
        // Two-k subsumes one-k: Figures 1, 2, 4, 5 must come out at least
        // as well as one-k-swap's result.
        for ex in [
            figures::figure1(),
            figures::figure2(),
            figures::figure4(),
            figures::figure5(),
        ] {
            let out = run_figure(&ex);
            assert!(is_independent_set(&ex.graph, &out.result.set));
            assert!(
                out.result.set.len() >= ex.expected_is.len(),
                "two-k must match one-k's gains: got {:?}, one-k got {:?}",
                out.result.set,
                ex.expected_is
            );
        }
    }

    #[test]
    fn never_smaller_than_one_k_on_random_graphs() {
        for seed in 0..3 {
            let g = mis_gen::plrg::Plrg::with_vertices(1_500, 2.1)
                .seed(seed)
                .generate();
            let scan = OrderedCsr::degree_sorted(&g);
            let greedy = Greedy::new().run(&scan);
            let one = OneKSwap::new().run(&scan, &greedy.set);
            let two = TwoKSwap::new().run(&scan, &greedy.set);
            assert!(is_independent_set(&g, &two.result.set), "seed {seed}");
            assert!(
                is_maximal_independent_set(&g, &two.result.set),
                "seed {seed}"
            );
            assert!(
                two.result.set.len() + 1 >= one.result.set.len(),
                "seed {seed}: two-k {} vs one-k {}",
                two.result.set.len(),
                one.result.set.len()
            );
            assert!(two.result.set.len() >= greedy.set.len(), "seed {seed}");
        }
    }

    #[test]
    fn complete_bipartite_two_for_many() {
        // K_{2,5}: starting from the small side {0,1}, two-k-swap must
        // trade both for the five-vertex side in one round.
        let g = mis_gen::special::complete_bipartite(2, 5);
        let scan = OrderedCsr::degree_sorted(&g);
        let out = TwoKSwap::new().run(&scan, &[0, 1]);
        assert_eq!(out.result.set, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn one_k_cannot_crack_complete_bipartite() {
        // The same K_{2,5} is out of reach for 1↔k swaps: every candidate
        // has two IS neighbours. This is the separation the paper's
        // Section 6 motivates.
        let g = mis_gen::special::complete_bipartite(2, 5);
        let scan = OrderedCsr::degree_sorted(&g);
        let out = OneKSwap::with_config(SwapConfig {
            finalize_maximal: false,
            ..SwapConfig::default()
        })
        .run(&scan, &[0, 1]);
        assert_eq!(out.result.set, vec![0, 1]);
    }

    #[test]
    fn memory_model_reports_sc_peak() {
        let ex = figures::figure7();
        let out = run_figure(&ex);
        assert!(out.result.memory.sc_peak_bytes > 0);
        assert_eq!(out.result.memory.state_bytes, 8);
        assert_eq!(out.result.memory.isn_bytes, 64);
    }

    #[test]
    fn empty_graph_and_empty_set() {
        let g = CsrGraph::empty(3);
        let out = TwoKSwap::new().run(&g, &[]);
        // finalize_maximal promotes all isolated vertices.
        assert_eq!(out.result.set, vec![0, 1, 2]);
    }

    #[test]
    fn nomination_staleness_regression() {
        // Found by fuzzing (ER n=10, m=20, seed 246): vertex 9 is
        // re-evaluated in the post-swap scan *before* the nominated pair
        // {3, 5} joins, derived a stale singleton ISN {6}, and in round 2
        // fired a 1-2 swap that put it into the set next to 3 and 5. The
        // nominee join must repair already-scanned neighbours' ISN state.
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
        let g = CsrGraph::from_edges(10, &edges);
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        assert_eq!(greedy.set, vec![0, 2, 9]);
        let out = TwoKSwap::new().run(&sorted, &greedy.set);
        assert!(
            is_independent_set(&g, &out.result.set),
            "regression: {:?} must be independent",
            out.result.set
        );
        assert!(is_maximal_independent_set(&g, &out.result.set));
        assert!(out.result.set.len() >= greedy.set.len());
    }

    #[test]
    fn shrink_guard_rolls_back_a_losing_round() {
        // Found by search over G(n, m) graphs: round one's nominees get
        // blocked, so the round would lose a vertex. The guard restores
        // the round-start state and stops; the undone round's two scans
        // and SC peak still count, its swap counts do not.
        let g = mis_gen::er::gnm(16, 48, 727);
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        assert_eq!(greedy.set, vec![1, 2, 10, 11]);
        let out = TwoKSwap::new().run(&sorted, &greedy.set);
        assert_eq!(out.result.set, greedy.set);
        assert_eq!(out.stats.num_rounds(), 0);
        assert_eq!(out.stats.sc_peak_vertices, 3);
        // init + candidate + post-swap + finalize.
        assert_eq!(out.result.file_scans, 4);
    }

    #[test]
    fn parallel_executor_is_byte_identical() {
        use crate::engine::Executor;
        for seed in 0..2 {
            let g = mis_gen::plrg::Plrg::with_vertices(1_500, 2.1)
                .seed(seed)
                .generate();
            let scan = OrderedCsr::degree_sorted(&g);
            let greedy = Greedy::new().run(&scan);
            let seq = TwoKSwap::new().run(&scan, &greedy.set);
            for threads in 1..=4 {
                let config = SwapConfig::default().with_executor(Executor::parallel(threads));
                let par = TwoKSwap::with_config(config).run(&scan, &greedy.set);
                assert_eq!(par, seq, "seed {seed}, threads {threads}");
            }
        }
    }

    #[test]
    fn paged_path_matches_scan_path_exactly() {
        for seed in 0..3 {
            let g = mis_gen::plrg::Plrg::with_vertices(2_000, 2.1)
                .seed(seed)
                .generate();
            let scan = OrderedCsr::degree_sorted(&g);
            let greedy = Greedy::new().run(&scan);
            let plain = TwoKSwap::new().run(&scan, &greedy.set);
            let paged = TwoKSwap::with_config(SwapConfig::default().with_paged_threshold(1.0))
                .run_paged(&scan, Some(&scan), &greedy.set);
            assert_eq!(paged.result.set, plain.result.set, "seed {seed}");
            assert_eq!(paged.stats.num_rounds(), plain.stats.num_rounds());
            assert!(paged.stats.paged_rounds >= plain.stats.num_rounds() as u64);
            assert_eq!(
                plain.result.file_scans - paged.result.file_scans,
                paged.stats.paged_rounds
            );
            assert!(paged.result.memory.pager_bytes == 0); // in-memory access path
        }
    }

    #[test]
    fn sc_peak_metric_counts_distinct_vertices() {
        // On Figure 7's graph exactly the key (v2, v3) forms with fulls
        // v4 (and the pair (v4, v5)) before firing: the SC metric must see
        // at least those two distinct vertices and at most all A vertices.
        let ex = figures::figure7();
        let out = run_figure(&ex);
        assert!(out.stats.sc_peak_vertices >= 2);
        assert!(out.stats.sc_peak_vertices <= 5);
    }
}
