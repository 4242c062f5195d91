//! The offline workloads: greedy + two-k + a maximality proof over a
//! semi-external adjacency file, each followed by a closed-loop read
//! slice over the solved set.

use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

use mis_core::{
    is_maximal_independent_set, prove_maximal_with, Executor, Greedy, SwapConfig, TwoKSwap,
};
use mis_extmem::{IoSnapshot, PagerConfig};
use mis_graph::{NeighborAccess, VertexId};

use crate::record::Recorder;
use crate::setup::{hash_list, read_record, Prepared};
use crate::stats::{Latencies, Rng};

/// How a workload solves: the scan executor and the optional pager
/// budget of two-k's paged candidate pass.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Executor of every full-scan pass.
    pub executor: Executor,
    /// Pager budget of the paged rounds; `None` keeps every round a scan.
    pub pager: Option<PagerConfig>,
}

impl Mode {
    fn swap_config(&self) -> SwapConfig {
        let base = if self.pager.is_some() {
            SwapConfig::paged()
        } else {
            SwapConfig::default()
        };
        base.with_executor(self.executor)
    }
}

/// One solve: greedy, two-k, proof.
#[derive(Debug, Clone)]
pub struct Solve {
    /// The returned set.
    pub set: Vec<VertexId>,
    /// Greedy + two-k + proof wall time, seconds.
    pub secs: f64,
    /// `Greedy::run` wall time.
    pub greedy_s: f64,
    /// `TwoKSwap::run_paged` wall time.
    pub twok_s: f64,
    /// `prove_maximal_with` wall time.
    pub proof_s: f64,
    /// Whether the program's own proof certified the set.
    pub proved: bool,
    /// I/O of the whole solve, proof included.
    pub io: IoSnapshot,
    /// Two-k rounds.
    pub rounds: u64,
    /// Two-k rounds served by the paged candidate pass.
    pub paged_rounds: u64,
    /// Greedy's plus two-k's full scans (the proof excluded).
    pub algorithm_scans: u64,
    /// Two-k's full scans alone.
    pub twok_scans: u64,
    /// Modelled bytes of two-k's in-memory state.
    pub memory_bytes: u64,
}

/// Solves `p` once in `mode`.
pub fn solve(p: &Prepared, mode: &Mode, rec: &Recorder) -> io::Result<Solve> {
    let scan = p.scan();
    let before = p.stats.snapshot();
    let (out, secs) = rec.time("solve", || -> io::Result<_> {
        let access = mode.pager.map(|pc| p.random_access(pc)).transpose()?;
        let (greedy, greedy_s) = rec.time("core.greedy", || {
            Greedy::with_executor(mode.executor).run(scan)
        });
        let (swap, twok_s) = rec.time("core.twok", || {
            TwoKSwap::with_config(mode.swap_config()).run_paged(
                scan,
                access.as_ref().map(|a| a as &dyn NeighborAccess),
                &greedy.set,
            )
        });
        let (proof, proof_s) = rec.time("core.proof", || {
            prove_maximal_with(scan, &swap.result.set, &mode.executor)
        });
        Ok((greedy.file_scans, swap, proof, greedy_s, twok_s, proof_s))
    });
    let (greedy_scans, swap, proof, greedy_s, twok_s, proof_s) = out?;
    Ok(Solve {
        io: p.stats.snapshot().since(&before),
        secs,
        greedy_s,
        twok_s,
        proof_s,
        proved: proof.is_maximal_independent(),
        rounds: swap.stats.rounds.len() as u64,
        paged_rounds: swap.stats.paged_rounds,
        algorithm_scans: greedy_scans + swap.result.file_scans,
        twok_scans: swap.result.file_scans,
        memory_bytes: swap.result.memory.total(),
        set: swap.result.set,
    })
}

/// Whether `set` is a maximal independent set of the workload's file,
/// judged by a scan separate from the program's own proof.
pub fn check_set(p: &Prepared, set: &[VertexId], rec: &Recorder) -> bool {
    rec.time("check.set", || is_maximal_independent_set(p.scan(), set))
        .0
}

/// What the closed-loop read slices measured.
#[derive(Debug, Default)]
pub struct Reads {
    /// `member` latencies.
    pub member: Latencies,
    /// `neighbors` latencies.
    pub neighbors: Latencies,
    /// Wall time of the read slices, seconds.
    pub elapsed: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub wrong: u64,
}

/// Requests of each kind a read slice sends at the least.
const MIN_READS: usize = 1_000;

/// One read slice: a closed-loop reader sends a 50/50 mix of membership
/// tests on the solved set and neighbour reads through a fresh pager of
/// `pager`'s budget, on uniformly drawn vertices, for `duration`, adding
/// to `reads`. Slices follow the solves, so the reads are spread over
/// the whole run rather than bunched at its end. Every answer is
/// checked: membership against a bitmap, neighbour lists against a
/// per-record hash taken by a scan.
pub fn read_slice(
    p: &Prepared,
    set: &[VertexId],
    pager: PagerConfig,
    duration: Duration,
    rng: &mut Rng,
    reads: &mut Reads,
) -> io::Result<()> {
    let hashes = p.record_hashes()?;
    let mut bitmap = vec![false; p.vertices];
    for &v in set {
        bitmap[v as usize] = true;
    }
    let access = p.random_access(pager)?;
    let n = p.vertices as u64;
    let mut buf = Vec::new();
    let (mut members, mut lists) = (0, 0);
    let start = Instant::now();
    while start.elapsed() < duration || members < MIN_READS || lists < MIN_READS {
        let v = rng.below(n) as VertexId;
        reads.attempted += 1;
        if rng.next_u64() & 1 == 0 {
            let t = Instant::now();
            let member = black_box(set.binary_search(&black_box(v)).is_ok());
            reads.member.push_elapsed(t.elapsed());
            reads.wrong += u64::from(member != bitmap[v as usize]);
            members += 1;
        } else {
            let t = Instant::now();
            let r = read_record(&access, v, &mut buf);
            reads.neighbors.push_elapsed(t.elapsed());
            reads.wrong += u64::from(r.is_err() || hash_list(&buf) != hashes[v as usize]);
            lists += 1;
        }
    }
    reads.elapsed += start.elapsed().as_secs_f64();
    Ok(())
}
