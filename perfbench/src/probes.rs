//! Per-layer probes, run in the traced run on every workload's own file.

use std::io;
use std::time::Instant;

use mis_core::engine::passes::degree_stats;
use mis_core::{prove_maximal_with, Executor};
use mis_extmem::PagerConfig;
use mis_graph::VertexId;

use crate::record::Recorder;
use crate::setup::{hash_list, read_record, Prepared};
use crate::stats::{median, Latencies, Rng};

/// Repetitions of each timed probe; the median is reported.
const REPS: usize = 3;

/// Point reads per point-read probe.
const POINT_READS: usize = 20_000;

/// Median time of one full `GraphScan::scan` with a no-op fold: read
/// plus decode only.
pub fn scan_s(p: &Prepared, rec: &Recorder) -> io::Result<f64> {
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (r, t) = rec.time("graph.scan", || p.scan().scan(&mut |_, _| {}));
        r?;
        times.push(t);
    }
    Ok(median(&times))
}

/// `NeighborAccess::with_neighbors` latencies on uniformly drawn
/// vertices through a fresh pager of `pager`'s budget, with the number
/// of answers that did not match the file.
pub fn point_reads(
    p: &Prepared,
    pager: PagerConfig,
    rng: &mut Rng,
    rec: &Recorder,
) -> io::Result<(Latencies, u64)> {
    let hashes = p.record_hashes()?;
    let access = p.random_access(pager)?;
    let mut lat = Latencies::default();
    let mut wrong = 0u64;
    let mut buf = Vec::new();
    rec.time("graph.point_reads", || {
        for _ in 0..POINT_READS {
            let v = rng.below(p.vertices as u64) as VertexId;
            let t = Instant::now();
            let r = read_record(&access, v, &mut buf);
            lat.push_elapsed(t.elapsed());
            wrong += u64::from(r.is_err() || hash_list(&buf) != hashes[v as usize]);
        }
    });
    Ok((lat, wrong))
}

/// Sequential vs two-thread timings of the same mergeable passes.
#[derive(Debug, Clone, Copy)]
pub struct EngineTimes {
    /// `degree_stats` on `Executor::Sequential`, seconds.
    pub degree_seq: f64,
    /// `degree_stats` on `Executor::parallel(2)`, seconds.
    pub degree_par2: f64,
    /// `prove_maximal_with` on `Executor::Sequential`, seconds.
    pub proof_seq: f64,
    /// `prove_maximal_with` on `Executor::parallel(2)`, seconds.
    pub proof_par2: f64,
    /// Whether both backends agreed on every pass.
    pub agree: bool,
}

/// Times the degree pass and the proof pass of `set` on both backends,
/// interleaved, and reports medians.
pub fn engine(p: &Prepared, set: &[VertexId], rec: &Recorder) -> EngineTimes {
    let scan = p.scan();
    let (seq, par) = (Executor::Sequential, Executor::parallel(2));
    let mut t = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut agree = true;
    for _ in 0..REPS {
        let (a, ta) = rec.time("engine.degree_seq", || degree_stats(scan, &seq));
        let (b, tb) = rec.time("engine.degree_par2", || degree_stats(scan, &par));
        let (c, tc) = rec.time("engine.proof_seq", || prove_maximal_with(scan, set, &seq));
        let (d, td) = rec.time("engine.proof_par2", || prove_maximal_with(scan, set, &par));
        agree &= a == b && c == d && c.is_maximal_independent();
        for (slot, v) in t.iter_mut().zip([ta, tb, tc, td]) {
            slot.push(v);
        }
    }
    EngineTimes {
        degree_seq: median(&t[0]),
        degree_par2: median(&t[1]),
        proof_seq: median(&t[2]),
        proof_par2: median(&t[3]),
        agree,
    }
}
