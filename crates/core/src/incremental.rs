//! Incremental maintenance under edge insertions *and deletions* — the
//! paper's stated future-work direction ("how our solutions can be
//! extended to the incremental massive graphs with frequent updates").
//!
//! Strategy: keep the current independent set; after a batch of edge
//! updates (overlaid via [`mis_graph::delta::DeltaGraph`], so the base
//! file is untouched),
//!
//! 1. **evict** — find edges with both endpoints in the set (only
//!    inserted edges can create these) and drop the higher-id endpoint,
//!    resolving chains of conflicts in ascending `(hi, lo)` order;
//! 2. **re-maximalise and recover** — a *deleted* edge or an eviction can
//!    free a previously excluded vertex (its last independent-set
//!    neighbour is gone); those vertices are swept into the set, and a
//!    bounded number of one-k-swap rounds wins back evicted mass (Table
//!    8's early-stop profile is exactly why a small round budget
//!    suffices);
//! 3. **prove** — certify that the repaired set is a maximal independent
//!    set of the edited graph, so callers (e.g. the `mis_update`
//!    maintenance engine) can checkpoint it without trusting the repair
//!    logic.
//!
//! Two shapes implement it:
//!
//! * [`repair_batch`] — the **batch-proportional** repair behind `mis
//!   serve` flushes and `UpdateStore::apply`. It reads only the records
//!   a batch touches: the batch's endpoints `C`, the members that leave
//!   together with their neighbours, and the vertices that join. Its
//!   candidates come from a per-vertex IS-neighbour count (the paper's
//!   4-byte ISN slot, so the model stays at 5 bytes per vertex with the
//!   state byte) that the caller keeps across batches, and its proof is
//!   local: given a proved previous set, checking the touched records
//!   against the final membership certifies the whole graph. Records
//!   come from one [`SparseRecords`] pass per dependency step, or, when
//!   the caller has no sparse reader, from one full scan per step; the
//!   source changes the I/O but never the set. Cost with a sparse
//!   reader: `O(touched records)` time and reads per batch, plus
//!   `O(|V|)` in-memory work for the membership bitmap; memory holds the
//!   touched records.
//! * [`repair_updated_set`] — the whole-graph repair: eviction by scan,
//!   then a full-graph [`OneKSwap`] run and a proof scan. Cost:
//!   `O(scan(|V|+|E|))` per batch instead of a from-scratch rebuild.

use std::io;

use mis_graph::hash::FxHashMap;
use mis_graph::{GraphScan, SparseRecords, VertexId};

use crate::onek::OneKSwap;
use crate::result::{SwapConfig, SwapOutcome};
use crate::verify::{is_maximal_independent_set, membership};

/// Outcome of an incremental repair.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired run (set, scans, per-round stats).
    pub swap: SwapOutcome,
    /// Members evicted because an inserted edge connected them.
    pub evicted: u64,
}

/// Tuning for [`repair_updated_set`] and [`repair_batch`].
#[derive(Debug, Clone, Copy)]
pub struct RepairConfig {
    /// One-k-swap round budget for the recover pass.
    pub recover_rounds: u32,
    /// Prove maximality on the edited graph (one extra scan for the
    /// whole-graph repair; a local proof or one scan for
    /// [`repair_batch`]).
    pub verify: bool,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            recover_rounds: 2,
            verify: true,
        }
    }
}

/// Outcome of a deletion-aware incremental repair.
#[derive(Debug, Clone)]
pub struct UpdateRepairOutcome {
    /// The repaired run (set, scans, per-round stats).
    pub swap: SwapOutcome,
    /// Members evicted because an inserted edge connected them.
    pub evicted: u64,
    /// Whether the verification scan proved the repaired set maximal on
    /// the edited graph (`false` when [`RepairConfig::verify`] is off).
    pub maximality_proved: bool,
    /// Scans spent on the proof (0 or 1), *not* included in
    /// `swap.result.file_scans`.
    pub verify_scans: u64,
}

/// Evicts the higher endpoint of every conflicting `(lo, hi)` pair,
/// resolving the pairs in ascending `(hi, lo)` order: a member is
/// evicted only if its lower partner *still* holds the set, so chains of
/// conflicts resolve low-to-high whatever order they were found in.
/// Returns the evicted vertices.
fn evict_conflicts(member: &mut [bool], mut conflicts: Vec<(VertexId, VertexId)>) -> Vec<VertexId> {
    conflicts.sort_unstable_by_key(|&(lo, hi)| (hi, lo));
    conflicts.dedup();
    let mut evicted = Vec::new();
    for (lo, hi) in conflicts {
        if member[lo as usize] && member[hi as usize] {
            member[hi as usize] = false;
            evicted.push(hi);
        }
    }
    evicted
}

/// Recovers and proves a whole-graph repair after eviction.
fn recover_whole_graph<G: GraphScan + ?Sized>(
    graph: &G,
    member: &[bool],
    evicted: u64,
    config: RepairConfig,
) -> UpdateRepairOutcome {
    let repaired: Vec<VertexId> = (0..member.len() as VertexId)
        .filter(|&v| member[v as usize])
        .collect();
    let swap_config = SwapConfig {
        max_rounds: Some(config.recover_rounds),
        ..SwapConfig::default()
    };
    // The swap's initial scan promotes vertices freed by deletions into
    // `A` states, and its finalisation pass guarantees maximality.
    let swap = OneKSwap::with_config(swap_config).run(graph, &repaired);
    let (maximality_proved, verify_scans) = if config.verify {
        (is_maximal_independent_set(graph, &swap.result.set), 1)
    } else {
        (false, 0)
    };
    UpdateRepairOutcome {
        swap,
        evicted,
        maximality_proved,
        verify_scans,
    }
}

/// Repairs `set` after a batch of edge insertions **and deletions**:
/// evict, bounded recover, re-maximalise, and optionally prove the result
/// maximal on `graph` (which must already reflect every update, e.g. a
/// [`mis_graph::delta::DeltaGraph`] with both overlays populated).
///
/// One scan collects the conflicting pairs; they are then resolved in
/// ascending `(hi, lo)` id order, as [`repair_batch`] does. Storage order is not id order on
/// degree-sorted files (records keep their ids), so resolving conflicts
/// as the scan meets them would evict different members of a chain.
pub fn repair_updated_set<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
    config: RepairConfig,
) -> UpdateRepairOutcome {
    let mut member = membership(graph.num_vertices(), set);
    let mut conflicts = Vec::new();
    graph
        .scan(&mut |v, ns| {
            if member[v as usize] {
                for &u in ns {
                    if u < v && member[u as usize] {
                        conflicts.push((u, v));
                    }
                }
            }
        })
        .expect("scan failed");
    let evicted = evict_conflicts(&mut member, conflicts).len() as u64;
    recover_whole_graph(graph, &member, evicted, config)
}

/// Repairs `set` so it is again a maximal independent set of `graph`
/// (which must already include the inserted edges), then runs up to
/// `recover_rounds` one-k-swap rounds to regain size.
///
/// Insert-only convenience wrapper around [`repair_updated_set`] (no
/// proof scan).
pub fn repair_independent_set<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
    recover_rounds: u32,
) -> RepairOutcome {
    let out = repair_updated_set(
        graph,
        set,
        RepairConfig {
            recover_rounds,
            verify: false,
        },
    );
    RepairOutcome {
        swap: out.swap,
        evicted: out.evicted,
    }
}

/// Counts, with one scan, each vertex's neighbours in `set`: the
/// per-vertex IS-neighbour count (ISN) [`repair_batch`] keeps across
/// batches.
pub fn is_neighbour_counts<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
) -> io::Result<Vec<u32>> {
    let member = membership(graph.num_vertices(), set);
    let mut counts = vec![0u32; member.len()];
    graph.scan(&mut |v, ns| {
        counts[v as usize] = ns.iter().filter(|&&u| member[u as usize]).count() as u32;
    })?;
    Ok(counts)
}

/// Counts each vertex's neighbours in `set` with one scan (see
/// [`is_neighbour_counts`]) and judges the set from those counts: no
/// member may have a member neighbour, and every other vertex needs one.
/// Returns the verdict with the counts, so a proof scan leaves behind
/// the state [`repair_batch`] keeps.
pub fn prove_counting<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
) -> io::Result<(bool, Vec<u32>)> {
    let counts = is_neighbour_counts(graph, set)?;
    let member = membership(counts.len(), set);
    let proved = member
        .iter()
        .zip(&counts)
        .all(|(&m, &c)| if m { c == 0 } else { c > 0 });
    Ok((proved, counts))
}

/// Outcome of [`repair_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRepairOutcome {
    /// The repaired set, ascending.
    pub set: Vec<VertexId>,
    /// Members evicted because an edge connected them.
    pub evicted: u64,
    /// Whether the proof certified the set maximal on the edited graph
    /// (`false` when [`RepairConfig::verify`] is off).
    pub maximality_proved: bool,
    /// Records the repair's passes delivered.
    pub records_read: u64,
    /// Passes served by the sparse reader.
    pub sparse_passes: u64,
    /// Full scans started: record passes without a sparse reader, plus
    /// a full proof scan.
    pub full_scans: u64,
}

/// Repairs `set` after a batch of edge updates, reading only the records
/// the batch touches.
///
/// * `graph` must reflect every update of the batch (e.g. an
///   epoch-pinned [`mis_graph::PinnedDelta`]); without a `sparse`
///   reader every record pass scans it.
/// * `sparse` reads records of the same edited graph without a scan
///   (e.g. [`mis_graph::OverlaidRecords`] over a
///   [`mis_graph::SparseReader`]).
/// * `counts[v]` must hold `v`'s neighbours in `set` for every `v`
///   outside `touched` (endpoints of the batch's ops, in any order);
///   counts of touched vertices are recomputed. On success `counts`
///   holds the exact counts of the repaired set on `graph`; after an
///   error they are unspecified.
/// * `prev_proved` says `set` was proved a maximal independent set of
///   the graph before the batch. Then the proof is local: every member
///   that joined or is touched must have no member neighbour, and every
///   non-member among the touched vertices, the members that left and
///   their neighbours must have one, all recomputed from records read in
///   this repair. Otherwise members whose counts show a conflict and
///   non-members whose counts show no member neighbour are repaired
///   too, and the proof is a full scan that also recounts.
///
/// Conflicts are the member–member edges in the touched records,
/// resolved in ascending `(hi, lo)` order as in [`repair_updated_set`];
/// the result does not depend on whether records came from the sparse
/// reader or from scans.
pub fn repair_batch<G: GraphScan + ?Sized>(
    graph: &G,
    sparse: Option<&dyn SparseRecords>,
    set: &[VertexId],
    counts: &mut [u32],
    touched: &[VertexId],
    prev_proved: bool,
    config: RepairConfig,
) -> io::Result<BatchRepairOutcome> {
    BatchRepair::new(graph, sparse, set, counts).run(touched, prev_proved, config)
}

/// The records one [`repair_batch`] has read, by vertex.
struct Records<'a, G: ?Sized> {
    graph: &'a G,
    /// The sparse reader, if any; without one every pass scans.
    sparse: Option<&'a dyn SparseRecords>,
    /// `(start, len)` of each read record in `arena`.
    at: FxHashMap<VertexId, (usize, usize)>,
    arena: Vec<VertexId>,
    records_read: u64,
    sparse_passes: u64,
    full_scans: u64,
}

impl<'a, G: GraphScan + ?Sized> Records<'a, G> {
    fn get(&self, v: VertexId) -> &[VertexId] {
        let (start, len) = self.at[&v];
        &self.arena[start..start + len]
    }

    /// Reads, in one pass, the records of `want` not read yet.
    fn fetch(&mut self, want: impl IntoIterator<Item = VertexId>) -> io::Result<()> {
        let mut missing: Vec<VertexId> = want
            .into_iter()
            .filter(|v| !self.at.contains_key(v))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        missing.sort_unstable();
        missing.dedup();
        self.records_read += missing.len() as u64;
        let Self {
            graph,
            sparse,
            at,
            arena,
            ..
        } = self;
        let mut keep = |v: VertexId, ns: &[VertexId]| {
            at.insert(v, (arena.len(), ns.len()));
            arena.extend_from_slice(ns);
        };
        match *sparse {
            Some(reader) => {
                let _span = mis_obs::span("core", "repair.sparse_pass");
                self.sparse_passes += 1;
                reader.read_records(&missing, &mut keep)
            }
            None => {
                let _span = mis_obs::span("core", "repair.full_scan");
                self.full_scans += 1;
                let wanted = membership(graph.num_vertices(), &missing);
                graph.scan(&mut |v, ns| {
                    if wanted[v as usize] {
                        keep(v, ns);
                    }
                })
            }
        }
    }

    /// Every vertex whose record has been read, ascending.
    fn read_vertices(&self) -> Vec<VertexId> {
        let mut vs: Vec<VertexId> = self.at.keys().copied().collect();
        vs.sort_unstable();
        vs
    }
}

/// The state of one [`repair_batch`].
struct BatchRepair<'a, 'c, G: ?Sized> {
    reads: Records<'a, G>,
    member: Vec<bool>,
    counts: &'c mut [u32],
    /// Members that left (evicted or swapped out), in order.
    left: Vec<VertexId>,
    /// Vertices that joined, in order.
    joined: Vec<VertexId>,
}

impl<'a, 'c, G: GraphScan + ?Sized> BatchRepair<'a, 'c, G> {
    fn new(
        graph: &'a G,
        sparse: Option<&'a dyn SparseRecords>,
        set: &[VertexId],
        counts: &'c mut [u32],
    ) -> Self {
        let n = graph.num_vertices();
        assert_eq!(counts.len(), n, "one IS-neighbour count per vertex");
        Self {
            reads: Records {
                graph,
                sparse,
                at: FxHashMap::default(),
                arena: Vec::new(),
                records_read: 0,
                sparse_passes: 0,
                full_scans: 0,
            },
            member: membership(n, set),
            counts,
            left: Vec::new(),
            joined: Vec::new(),
        }
    }

    fn run(
        mut self,
        touched: &[VertexId],
        prev_proved: bool,
        config: RepairConfig,
    ) -> io::Result<BatchRepairOutcome> {
        let mut touched = touched.to_vec();
        if !prev_proved {
            // Without a proved starting point the counts are the only
            // witness of damage outside the batch.
            touched.extend((0..self.member.len() as VertexId).filter(|&v| {
                let (m, c) = (self.member[v as usize], self.counts[v as usize]);
                (m && c > 0) || (!m && c == 0)
            }));
        }
        touched.sort_unstable();
        touched.dedup();

        let evicted = {
            let _span = mis_obs::span("core", "repair.evict");
            let evicted = self.evict(&touched)?;
            self.remaximalise()?;
            evicted
        };
        {
            let _span = mis_obs::span("core", "repair.onek");
            for _ in 0..config.recover_rounds {
                if self.onek_round()? == 0 {
                    break;
                }
            }
        }
        let maximality_proved = {
            let _span = mis_obs::span("core", "repair.proof");
            match (config.verify, prev_proved) {
                (false, _) => false,
                (true, true) => self.local_proof(&touched)?,
                (true, false) => self.full_proof()?,
            }
        };
        let set = (0..self.member.len() as VertexId)
            .filter(|&v| self.member[v as usize])
            .collect();
        Ok(BatchRepairOutcome {
            set,
            evicted,
            maximality_proved,
            records_read: self.reads.records_read,
            sparse_passes: self.reads.sparse_passes,
            full_scans: self.reads.full_scans,
        })
    }

    /// Recounts the touched vertices, then evicts the higher endpoint of
    /// every member–member edge their records show.
    fn evict(&mut self, touched: &[VertexId]) -> io::Result<u64> {
        self.reads.fetch(touched.iter().copied())?;
        let mut conflicts = Vec::new();
        for &v in touched {
            let ns = self.reads.get(v);
            self.counts[v as usize] =
                ns.iter().filter(|&&u| self.member[u as usize]).count() as u32;
            if self.member[v as usize] {
                conflicts.extend(
                    ns.iter()
                        .filter(|&&u| u != v && self.member[u as usize])
                        .map(|&u| (u.min(v), u.max(v))),
                );
            }
        }
        let evicted = evict_conflicts(&mut self.member, conflicts);
        for &x in &evicted {
            self.uncount(x);
        }
        Ok(evicted.len() as u64)
    }

    /// Sweeps in every read non-member left without a member neighbour,
    /// after reading the neighbours of the members that left.
    fn remaximalise(&mut self) -> io::Result<()> {
        let neighbours: Vec<VertexId> = self
            .left
            .iter()
            .flat_map(|&x| self.reads.get(x).iter().copied())
            .collect();
        self.reads.fetch(neighbours)?;
        let mut free: Vec<VertexId> = self
            .reads
            .read_vertices()
            .into_iter()
            .filter(|&v| self.is_free(v))
            .collect();
        free.sort_by_key(|&v| (self.reads.get(v).len(), v));
        for v in free {
            if self.is_free(v) {
                self.join(v);
            }
        }
        Ok(())
    }

    /// One local one-k-swap round: every member that a read 1-tight
    /// non-member hangs on, and that has at least two 1-tight
    /// neighbours, is swapped for a greedy independent subset of them
    /// when that subset has two or more vertices. Returns the swaps made.
    fn onek_round(&mut self) -> io::Result<usize> {
        let mut owners: Vec<VertexId> = self
            .reads
            .read_vertices()
            .into_iter()
            .filter(|&w| self.is_one_tight(w))
            .filter_map(|w| {
                self.reads
                    .get(w)
                    .iter()
                    .copied()
                    .find(|&u| self.member[u as usize])
            })
            .collect();
        owners.sort_unstable();
        owners.dedup();
        self.reads.fetch(owners.iter().copied())?;
        owners.retain(|&x| {
            let ns = self.reads.get(x);
            ns.iter()
                .filter(|&&w| self.is_one_tight(w))
                .nth(1)
                .is_some()
        });
        let neighbours: Vec<VertexId> = owners
            .iter()
            .flat_map(|&x| self.reads.get(x).iter().copied())
            .collect();
        self.reads.fetch(neighbours)?;

        let mut swaps = 0;
        for x in owners {
            let mut picked: Vec<VertexId> = Vec::new();
            for w in self.tight_neighbours(x) {
                let ns = self.reads.get(w);
                if !picked.iter().any(|p| ns.contains(p)) {
                    picked.push(w);
                }
            }
            if picked.len() >= 2 {
                self.leave(x);
                for w in picked {
                    self.join(w);
                }
                swaps += 1;
            }
        }
        Ok(swaps)
    }

    /// The local proof: given a proved previous set, the touched
    /// vertices, the members that left with their neighbours and the
    /// vertices that joined are the only places the set can have gone
    /// wrong. Each is judged from its record against the final
    /// membership; the counts are not consulted.
    fn local_proof(&mut self, touched: &[VertexId]) -> io::Result<bool> {
        let mut check: Vec<VertexId> = touched.to_vec();
        check.extend(&self.joined);
        for &x in &self.left {
            check.push(x);
            check.extend(self.reads.get(x));
        }
        self.reads.fetch(check.clone())?;
        Ok(check.iter().all(|&v| {
            let dominated = self.reads.get(v).iter().any(|&u| self.member[u as usize]);
            self.member[v as usize] != dominated
        }))
    }

    /// The full proof: one scan recounts every vertex and judges the set
    /// from the fresh counts, which replace the maintained ones.
    fn full_proof(&mut self) -> io::Result<bool> {
        let set: Vec<VertexId> = (0..self.member.len() as VertexId)
            .filter(|&v| self.member[v as usize])
            .collect();
        self.reads.full_scans += 1;
        let (proved, fresh) = prove_counting(self.reads.graph, &set)?;
        self.counts.copy_from_slice(&fresh);
        Ok(proved)
    }

    /// The 1-tight non-members hanging on member `x`, by ascending
    /// `(degree, id)`.
    fn tight_neighbours(&self, x: VertexId) -> Vec<VertexId> {
        let mut tight: Vec<VertexId> = self
            .reads
            .get(x)
            .iter()
            .copied()
            .filter(|&w| self.is_one_tight(w))
            .collect();
        tight.sort_unstable();
        tight.dedup();
        tight.sort_by_key(|&w| (self.reads.get(w).len(), w));
        tight
    }

    fn is_free(&self, v: VertexId) -> bool {
        !self.member[v as usize] && self.counts[v as usize] == 0
    }

    fn is_one_tight(&self, v: VertexId) -> bool {
        !self.member[v as usize] && self.counts[v as usize] == 1
    }

    fn join(&mut self, v: VertexId) {
        self.member[v as usize] = true;
        for &u in self.reads.get(v) {
            self.counts[u as usize] += 1;
        }
        self.joined.push(v);
    }

    fn leave(&mut self, v: VertexId) {
        self.member[v as usize] = false;
        self.uncount(v);
    }

    /// Settles the counts after `v` left the set.
    fn uncount(&mut self, v: VertexId) {
        for &u in self.reads.get(v) {
            self.counts[u as usize] -= 1;
        }
        self.left.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Greedy;
    use crate::verify::{is_independent_set, is_maximal_independent_set};
    use mis_graph::delta::DeltaGraph;
    use mis_graph::{OrderedCsr, OverlaidRecords};

    /// An in-memory graph read through the sparse interface (storage
    /// order is id order).
    struct InMemory<'a>(&'a mis_graph::CsrGraph);

    impl SparseRecords for InMemory<'_> {
        fn read_records(
            &self,
            vertices: &[VertexId],
            f: &mut dyn FnMut(VertexId, &[VertexId]),
        ) -> io::Result<()> {
            for &v in vertices {
                f(v, self.0.neighbors(v));
            }
            Ok(())
        }
    }

    #[test]
    fn repairs_a_conflicting_pair() {
        // Path 0-1-2-3 with IS {0, 2}; inserting (0, 2) must evict 2 and
        // recover with 3.
        let g = mis_gen::special::path(4);
        let mut delta = DeltaGraph::new(&g);
        delta.insert_edge(0, 2);
        let out = repair_independent_set(&delta, &[0, 2], 2);
        assert_eq!(out.evicted, 1);
        assert!(is_maximal_independent_set(&delta, &out.swap.result.set));
        assert!(out.swap.result.set.contains(&0));
        assert!(out.swap.result.set.contains(&3));
    }

    #[test]
    fn deletion_frees_an_excluded_vertex() {
        // Triangle 0-1-2 with IS {0}: deleting (0, 2) leaves vertex 2
        // with no IS neighbour, so the repair must sweep it in.
        let g = mis_gen::special::cycle(3);
        let mut delta = DeltaGraph::new(&g);
        delta.delete_edge(0, 2);
        let out = repair_updated_set(&delta, &[0], RepairConfig::default());
        assert_eq!(out.evicted, 0);
        assert!(out.maximality_proved);
        assert_eq!(out.verify_scans, 1);
        assert_eq!(out.swap.result.set, vec![0, 2]);
    }

    #[test]
    fn mixed_inserts_and_deletes_repair_to_a_proven_maximal_set() {
        let g = mis_gen::plrg::Plrg::with_vertices(3_000, 2.1)
            .seed(11)
            .generate();
        let sorted = OrderedCsr::degree_sorted(&g);
        let initial = Greedy::new().run(&sorted).set;

        // Edit: connect some IS members (forcing evictions) and delete a
        // slice of real edges (freeing excluded vertices).
        let mut delta = DeltaGraph::new(&g);
        for pair in initial.chunks_exact(2).take(50) {
            delta.insert_edge(pair[0], pair[1]);
        }
        let mut deleted = 0;
        g.scan(&mut |v, ns| {
            if deleted < 100 {
                if let Some(&u) = ns.iter().find(|&&u| u > v) {
                    delta.delete_edge(v, u);
                    deleted += 1;
                }
            }
        })
        .unwrap();
        assert!(delta.deleted_edges() > 0);

        let out = repair_updated_set(&delta, &initial, RepairConfig::default());
        assert!(out.evicted > 0, "conflicting insertions must evict");
        assert!(out.maximality_proved, "proof scan must pass");
        assert!(is_independent_set(&delta, &out.swap.result.set));
    }

    #[test]
    fn no_op_when_no_conflicts() {
        let g = mis_gen::special::path(6);
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let out = repair_independent_set(&g, &greedy.set, 1);
        assert_eq!(out.evicted, 0);
        assert!(out.swap.result.set.len() >= greedy.set.len());
    }

    #[test]
    fn verify_flag_controls_proof_scan() {
        let g = mis_gen::special::path(6);
        let out = repair_updated_set(
            &g,
            &[0],
            RepairConfig {
                recover_rounds: 1,
                verify: false,
            },
        );
        assert!(!out.maximality_proved);
        assert_eq!(out.verify_scans, 0);
    }

    #[test]
    fn batch_insertions_on_power_law_graph() {
        let g = mis_gen::plrg::Plrg::with_vertices(5_000, 2.1)
            .seed(4)
            .generate();
        let sorted = OrderedCsr::degree_sorted(&g);
        let initial = Greedy::new().run(&sorted).set;
        assert!(is_maximal_independent_set(&g, &initial));

        // Insert 200 random edges between current IS members (worst case:
        // every insertion conflicts).
        let mut delta = DeltaGraph::new(&g);
        let mut inserted = 0;
        let mut s = 12345u64;
        while inserted < 200 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = initial[(s >> 16) as usize % initial.len()];
            let b = initial[(s >> 40) as usize % initial.len()];
            if a != b {
                delta.insert_edge(a, b);
                inserted += 1;
            }
        }

        let out = repair_independent_set(&delta, &initial, 3);
        assert!(out.evicted > 0, "conflicting insertions must evict");
        let repaired = &out.swap.result.set;
        assert!(is_independent_set(&delta, repaired));
        assert!(is_maximal_independent_set(&delta, repaired));

        // The repair must recover most of the loss relative to a full
        // recompute on the updated graph (materialised for the oracle).
        let mut b = mis_graph::GraphBuilder::new(delta.num_vertices());
        delta
            .scan(&mut |v, ns| {
                for &u in ns {
                    b.add_edge(v, u);
                }
            })
            .unwrap();
        let updated = b.build();
        let fresh = Greedy::new().run(&OrderedCsr::degree_sorted(&updated));
        assert!(
            repaired.len() as f64 >= 0.98 * fresh.set.len() as f64,
            "repair {} vs fresh {}",
            repaired.len(),
            fresh.set.len()
        );
    }

    #[test]
    fn chained_conflicts_evict_identically_in_any_batch_order() {
        // Members 0 < 2 < 4 on a path, with inserted edges (0,2) and
        // (2,4) sharing member 2. Resolved low-to-high only 2 leaves: by
        // the time (2,4) is resolved, 4's lower member neighbour is
        // already out. A naive batch-order replay of [(2,4), (0,2)]
        // would evict both 2 and 4.
        let g = mis_gen::special::path(6);
        let initial = vec![0, 2, 4];
        let mut delta = DeltaGraph::new(&g);
        delta.insert_edge(0, 2);
        delta.insert_edge(2, 4);
        let mem = InMemory(&g);
        let records = OverlaidRecords::new(&mem, delta.overlay());

        let scanned = repair_updated_set(&delta, &initial, RepairConfig::default());
        assert_eq!(scanned.evicted, 1);

        let mut sets = Vec::new();
        for touched in [vec![0, 2, 2, 4], vec![2, 4, 0, 2], vec![4, 2, 2, 0]] {
            let mut counts = is_neighbour_counts(&g, &initial).unwrap();
            let out = repair_batch(
                &delta,
                Some(&records),
                &initial,
                &mut counts,
                &touched,
                true,
                RepairConfig::default(),
            )
            .unwrap();
            assert_eq!(out.evicted, 1, "touched {touched:?}");
            assert!(out.maximality_proved);
            sets.push(out.set);
        }
        assert!(sets.windows(2).all(|w| w[0] == w[1]), "{sets:?}");
    }

    #[test]
    fn repair_is_idempotent() {
        let g = mis_gen::er::gnm(500, 1500, 7);
        let initial = Greedy::new().run(&g).set;
        let once = repair_independent_set(&g, &initial, 2);
        let twice = repair_independent_set(&g, &once.swap.result.set, 2);
        assert_eq!(twice.evicted, 0);
        assert!(twice.swap.result.set.len() >= once.swap.result.set.len());
    }

    #[test]
    fn scan_driven_eviction_resolves_in_id_order_on_a_degree_sorted_file() {
        use mis_extmem::{IoStats, ScratchDir, SortConfig};
        use std::sync::Arc;
        // Members 0, 2, 4 with degrees 3, 2, 1: the degree-sorted file
        // stores 4 before 2 before 0, against their ids. Inserting (0, 2)
        // and (2, 4) makes the chain 0–2–4; resolved in id order only 2
        // leaves, while resolving in storage order would evict 4 (for
        // 2) and then 2 (for 0).
        let g =
            mis_graph::CsrGraph::from_edges(6, &[(0, 1), (0, 3), (0, 5), (2, 1), (2, 3), (4, 5)]);
        let dir = ScratchDir::new("repair-degree-sorted").unwrap();
        let stats = IoStats::shared();
        let unsorted =
            mis_graph::build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 64).unwrap();
        let sort = SortConfig {
            block_size: 64,
            ..SortConfig::default()
        };
        let sorted =
            mis_graph::degree_sort_adj_file(&unsorted, &dir.file("s.adj"), &sort, &dir).unwrap();
        let mut order = Vec::new();
        sorted.scan(&mut |v, _| order.push(v)).unwrap();
        let pos = |v| order.iter().position(|&u| u == v).unwrap();
        assert!(
            pos(4) < pos(2) && pos(2) < pos(0),
            "storage order {order:?}"
        );

        let initial = vec![0, 2, 4];
        let inserted = [(0, 2), (2, 4)];
        let mut on_file = DeltaGraph::new(&sorted);
        let mut on_csr = DeltaGraph::new(&g);
        for &(u, v) in &inserted {
            on_file.insert_edge(u, v);
            on_csr.insert_edge(u, v);
        }
        let config = RepairConfig::default();
        let scanned = repair_updated_set(&on_file, &initial, config);
        assert_eq!(scanned.evicted, 1);
        let id_ordered = repair_updated_set(&on_csr, &initial, config);
        assert_eq!(scanned.swap.result.set, id_ordered.swap.result.set);
        assert!(scanned.maximality_proved);
        // The batch repair's scanned passes meet the chain in storage
        // order too, and resolve it the same way.
        let mut counts = is_neighbour_counts(&g, &initial).unwrap();
        let batch = repair_batch(
            &on_file,
            None,
            &initial,
            &mut counts,
            &[0, 2, 4],
            true,
            config,
        )
        .unwrap();
        assert_eq!(batch.evicted, 1);
        assert!(batch.maximality_proved);
    }

    /// A seeded batch over `g`: inserts between random pairs and deletes
    /// of live edges, as `(u, v, insert)`.
    fn random_batch(
        g: &mis_graph::CsrGraph,
        ops: usize,
        seed: u64,
    ) -> Vec<(VertexId, VertexId, bool)> {
        let n = g.num_vertices() as u64;
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut batch = Vec::new();
        for _ in 0..ops {
            let u = (next() % n) as VertexId;
            let ns = g.neighbors(u);
            if next() % 10 < 3 && !ns.is_empty() {
                batch.push((u, ns[(next() % ns.len() as u64) as usize], false));
            } else {
                let v = (next() % n) as VertexId;
                if u != v {
                    batch.push((u, v, true));
                }
            }
        }
        batch
    }

    fn apply_batch<'a, G: GraphScan + ?Sized>(
        base: &'a G,
        batch: &[(VertexId, VertexId, bool)],
    ) -> (DeltaGraph<'a, G>, Vec<VertexId>) {
        let mut delta = DeltaGraph::new(base);
        let mut touched = Vec::new();
        for &(u, v, insert) in batch {
            if insert {
                delta.insert_edge(u, v);
            } else {
                delta.delete_edge(u, v);
            }
            touched.extend([u, v]);
        }
        touched.sort_unstable();
        touched.dedup();
        (delta, touched)
    }

    #[test]
    fn batch_repair_reads_only_the_touched_records() {
        let g = mis_gen::plrg::Plrg::with_vertices(20_000, 2.0)
            .seed(5)
            .generate();
        let initial = Greedy::new().run(&OrderedCsr::degree_sorted(&g)).set;
        let batch = random_batch(&g, 64, 9);
        let (delta, touched) = apply_batch(&g, &batch);
        let mem = InMemory(&g);
        let records = OverlaidRecords::new(&mem, delta.overlay());
        let mut counts = is_neighbour_counts(&delta, &initial).unwrap();
        let out = repair_batch(
            &delta,
            Some(&records),
            &initial,
            &mut counts,
            &touched,
            true,
            RepairConfig::default(),
        )
        .unwrap();
        assert!(out.maximality_proved);
        assert!(is_maximal_independent_set(&delta, &out.set));
        assert_eq!(out.full_scans, 0);
        assert!(out.sparse_passes >= 1 && out.sparse_passes <= 6);
        assert!(
            out.records_read < 2_000,
            "read {} records",
            out.records_read
        );
        assert_eq!(counts, is_neighbour_counts(&delta, &out.set).unwrap());
    }

    #[test]
    fn an_unproved_previous_set_is_repaired_and_proved_by_a_scan() {
        // Path 0-1-2-3-4 with members {0, 1} (adjacent) and 3, 4 both
        // out (3 and 4 undominated): the counts show all three defects.
        let g = mis_gen::special::path(5);
        let set = vec![0, 1];
        let config = RepairConfig::default();
        let mem = InMemory(&g);
        let sparse = Some(&mem as &dyn SparseRecords);
        let mut counts = is_neighbour_counts(&g, &set).unwrap();
        let out = BatchRepair::new(&g, sparse, &set, &mut counts)
            .run(&[], false, config)
            .unwrap();
        assert!(out.maximality_proved);
        assert!(is_maximal_independent_set(&g, &out.set));
        assert_eq!(out.evicted, 1);
        assert_eq!(out.full_scans, 1, "the proof is a scan");
        assert_eq!(counts, is_neighbour_counts(&g, &out.set).unwrap());
        // With a proved claim the same defects outside the batch stay
        // unseen: the local proof only vouches for what the batch touched.
        let mut counts = is_neighbour_counts(&g, &set).unwrap();
        let trusted = BatchRepair::new(&g, sparse, &set, &mut counts)
            .run(&[], true, config)
            .unwrap();
        assert_eq!(trusted.set, set);
        assert_eq!(trusted.records_read, 0);
    }

    /// Runs a batch repair up to (not including) its proof.
    fn repaired_before_proof<'a>(
        delta: &'a DeltaGraph<'a, mis_graph::CsrGraph>,
        records: &'a OverlaidRecords<'a>,
        set: &[VertexId],
        counts: &'a mut [u32],
        touched: &[VertexId],
    ) -> BatchRepair<'a, 'a, DeltaGraph<'a, mis_graph::CsrGraph>> {
        let mut repair = BatchRepair::new(delta, Some(records), set, counts);
        repair.evict(touched).unwrap();
        repair.remaximalise().unwrap();
        repair.onek_round().unwrap();
        repair
    }

    fn member_set(member: &[bool]) -> Vec<VertexId> {
        (0..member.len() as VertexId)
            .filter(|&v| member[v as usize])
            .collect()
    }

    #[test]
    fn local_proof_fails_when_the_touched_region_is_corrupted() {
        let g = mis_gen::plrg::Plrg::with_vertices(3_000, 2.0)
            .seed(17)
            .generate();
        let initial = Greedy::new().run(&OrderedCsr::degree_sorted(&g)).set;
        let batch = random_batch(&g, 40, 3);
        let (delta, touched) = apply_batch(&g, &batch);
        let mem = InMemory(&g);
        let records = OverlaidRecords::new(&mem, delta.overlay());
        let fresh = is_neighbour_counts(&delta, &initial).unwrap();

        let mut counts = fresh.clone();
        let mut repair = repaired_before_proof(&delta, &records, &initial, &mut counts, &touched);
        assert!(repair.local_proof(&touched).unwrap());

        // Drop a dominator: a touched non-member whose only member
        // neighbour silently leaves the set.
        let mut counts = fresh.clone();
        let mut repair = repaired_before_proof(&delta, &records, &initial, &mut counts, &touched);
        let (w, x) = touched
            .iter()
            .find_map(|&w| {
                let ns = repair.reads.get(w);
                let members: Vec<VertexId> = ns
                    .iter()
                    .copied()
                    .filter(|&u| repair.member[u as usize])
                    .collect();
                (!repair.member[w as usize] && members.len() == 1).then(|| (w, members[0]))
            })
            .expect("a touched vertex with one member neighbour");
        repair.member[x as usize] = false;
        assert!(!repair.local_proof(&touched).unwrap(), "{w} lost {x}");
        assert!(!is_maximal_independent_set(
            &delta,
            &member_set(&repair.member)
        ));

        // Add an adjacent member: a touched non-member joins silently.
        let mut counts = fresh.clone();
        let mut repair = repaired_before_proof(&delta, &records, &initial, &mut counts, &touched);
        let w = touched
            .iter()
            .copied()
            .find(|&w| !repair.member[w as usize])
            .expect("a touched non-member");
        repair.member[w as usize] = true;
        assert!(!repair.local_proof(&touched).unwrap());
        assert!(!is_independent_set(&delta, &member_set(&repair.member)));
    }

    #[test]
    fn local_proof_checks_the_neighbours_of_members_that_left() {
        // Set {0, 4} on 1-0-2-3-4 with vertex 2 touched. Swapping 0 for
        // 2 keeps 0, 2 and 3 covered but leaves 1, an untouched
        // neighbour of the member that left, without a member neighbour.
        let g = mis_graph::CsrGraph::from_edges(5, &[(0, 1), (0, 2), (2, 3), (3, 4)]);
        let set = vec![0, 4];
        let touched = [2];
        let mut counts = is_neighbour_counts(&g, &set).unwrap();
        let mem = InMemory(&g);
        let mut repair = BatchRepair::new(&g, Some(&mem), &set, &mut counts);
        repair.evict(&touched).unwrap();
        assert!(repair.local_proof(&touched).unwrap());
        repair.reads.fetch([0, 1]).unwrap();
        repair.leave(0);
        repair.join(2);
        assert!(!repair.local_proof(&touched).unwrap());
        assert!(!is_maximal_independent_set(&g, &member_set(&repair.member)));
    }

    #[test]
    fn a_one_k_swap_needs_two_independent_tight_neighbours() {
        let config = RepairConfig {
            recover_rounds: 1,
            verify: true,
        };
        // Member 0 with 1-tight neighbours 1 and 2, which are adjacent:
        // swapping 0 for one of them would not grow the set.
        let g = mis_graph::CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2)]);
        let set = vec![0, 3];
        let mut counts = is_neighbour_counts(&g, &set).unwrap();
        let mem = InMemory(&g);
        let out = BatchRepair::new(&g, Some(&mem), &set, &mut counts)
            .run(&[1], true, config)
            .unwrap();
        assert_eq!(out.set, set);
        // Without the edge (1, 2), 0 gives way to 1 and 2.
        let g = mis_graph::CsrGraph::from_edges(4, &[(0, 1), (0, 2)]);
        let set = vec![0, 3];
        let mut counts = is_neighbour_counts(&g, &set).unwrap();
        let mem = InMemory(&g);
        let out = BatchRepair::new(&g, Some(&mem), &set, &mut counts)
            .run(&[1], true, config)
            .unwrap();
        assert!(out.maximality_proved);
        assert_eq!(out.set, vec![1, 2, 3]);
    }

    fn arb_graph(
        max_n: usize,
        max_m: usize,
    ) -> impl proptest::strategy::Strategy<Value = mis_graph::CsrGraph> {
        use proptest::prelude::*;
        (2..max_n).prop_flat_map(move |n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m)
                .prop_map(move |edges| mis_graph::CsrGraph::from_edges(n, &edges))
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        // On random batches the local proof agrees with a full
        // `is_maximal_independent_set` scan — also after a corruption
        // made through the tracked join/leave steps (mode 1 adds a
        // vertex of the checked region, mode 2 removes a member), which
        // the local proof must catch exactly when the scan does.
        #[test]
        fn local_proof_agrees_with_the_full_proof(
            g in arb_graph(60, 150),
            seed in 0u64..1_000_000,
            ops in 1usize..12,
            mode in 0u8..3,
        ) {
            let initial = Greedy::new().run(&g).set;
            let batch = random_batch(&g, ops, seed);
            let (delta, touched) = apply_batch(&g, &batch);
            let mem = InMemory(&g);
        let records = OverlaidRecords::new(&mem, delta.overlay());
            let mut counts = is_neighbour_counts(&delta, &initial).unwrap();
            let mut repair = repaired_before_proof(&delta, &records, &initial, &mut counts, &touched);
            let region: Vec<VertexId> = repair.reads.read_vertices();
            let pick = region[(seed as usize) % region.len().max(1)..].first().copied();
            match (mode, pick) {
                (1, Some(v)) if !repair.member[v as usize] => repair.join(v),
                (2, Some(v)) if repair.member[v as usize] => {
                    let ns = repair.reads.get(v).to_vec();
                    repair.reads.fetch(ns).unwrap();
                    repair.leave(v);
                }
                _ => {}
            }
            let local = repair.local_proof(&touched).unwrap();
            let full = is_maximal_independent_set(&delta, &member_set(&repair.member));
            proptest::prop_assert_eq!(local, full);
        }
    }

    /// A degree-sorted plain file, its compressed copy and a 3-shard
    /// split of the id-ordered file, each with its sparse reader.
    fn disk_backends(
        g: &mis_graph::CsrGraph,
        dir: &mis_extmem::ScratchDir,
    ) -> Vec<(mis_graph::AnyAdjFile, mis_graph::SparseReader)> {
        use mis_extmem::{IoStats, PagerConfig, SortConfig};
        use mis_graph::{AnyAdjFile, RandomAccessGraph, ShardedGraph, SplitOptions};
        use std::sync::Arc;
        let stats = IoStats::shared();
        let block = 64;
        let pager = PagerConfig {
            page_size: 64,
            frames: 4,
            ..PagerConfig::default()
        };
        let unsorted =
            mis_graph::build_adj_file(g, &dir.file("g.adj"), Arc::clone(&stats), block).unwrap();
        let sort = SortConfig {
            block_size: block,
            ..SortConfig::default()
        };
        let sorted =
            mis_graph::degree_sort_adj_file(&unsorted, &dir.file("s.adj"), &sort, dir).unwrap();
        let comp = mis_graph::compress_adj(&sorted, &dir.file("s.cadj"), Arc::clone(&stats), block)
            .unwrap();
        let options = SplitOptions {
            shards: 3,
            block_size: block,
        };
        mis_graph::split_adj_file(&AnyAdjFile::Plain(unsorted), &dir.file("g.shrd"), &options)
            .unwrap();
        let sharded = Arc::new(
            ShardedGraph::open_with_block_size(&dir.file("g.shrd"), stats, block).unwrap(),
        );
        vec![
            (
                AnyAdjFile::Plain(sorted.clone()),
                RandomAccessGraph::open(&sorted, pager)
                    .unwrap()
                    .sparse_reader(),
            ),
            (
                AnyAdjFile::Compressed(comp.clone()),
                RandomAccessGraph::open_compressed(&comp, pager)
                    .unwrap()
                    .sparse_reader(),
            ),
            (
                AnyAdjFile::Sharded(Arc::clone(&sharded)),
                sharded.open_random_access(pager).unwrap().sparse_reader(),
            ),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        // Sparse reads and full-scan reads give byte-identical sets,
        // evictions, proof verdicts and counts on every backend; the
        // apply path (unproved start, full proof) lands on the same set.
        #[test]
        fn sparse_and_scanned_reads_repair_identically_on_every_backend(
            g in arb_graph(80, 240),
            seed in 0u64..1_000_000,
            ops in 1usize..24,
        ) {
            let dir = mis_extmem::ScratchDir::new("batch-backends").unwrap();
            let initial = Greedy::new().run(&g).set;
            let batch = random_batch(&g, ops, seed);
            let config = RepairConfig::default();
            for (file, reader) in disk_backends(&g, &dir) {
                let (delta, touched) = apply_batch(&file, &batch);
                let records = OverlaidRecords::new(&reader, delta.overlay());
                let fresh = is_neighbour_counts(&delta, &initial).unwrap();
                let (mut a, mut b, mut c) = (fresh.clone(), fresh.clone(), fresh);
                let sparse = BatchRepair::new(&delta, Some(&records), &initial, &mut a)
                    .run(&touched, true, config)
                    .unwrap();
                let scanned = BatchRepair::new(&delta, None, &initial, &mut b)
                    .run(&touched, true, config)
                    .unwrap();
                let applied = BatchRepair::new(&delta, None, &initial, &mut c)
                    .run(&touched, false, config)
                    .unwrap();
                let what = file.storage();
                proptest::prop_assert_eq!(&sparse.set, &scanned.set, "{}", what);
                proptest::prop_assert_eq!(sparse.evicted, scanned.evicted, "{}", what);
                proptest::prop_assert_eq!(sparse.maximality_proved, scanned.maximality_proved);
                proptest::prop_assert_eq!(sparse.records_read, scanned.records_read);
                proptest::prop_assert_eq!(sparse.full_scans, 0);
                proptest::prop_assert_eq!(scanned.sparse_passes, 0);
                proptest::prop_assert!(sparse.maximality_proved, "{}", what);
                proptest::prop_assert!(is_maximal_independent_set(&delta, &sparse.set));
                proptest::prop_assert_eq!(&a, &b);
                proptest::prop_assert_eq!(&a, &is_neighbour_counts(&delta, &sparse.set).unwrap());
                proptest::prop_assert_eq!(&applied.set, &sparse.set, "{}", what);
                proptest::prop_assert_eq!(applied.evicted, sparse.evicted);
                proptest::prop_assert!(applied.maximality_proved);
                proptest::prop_assert_eq!(&c, &a);
            }
        }
    }
}
