//! `perfbench` — the end-to-end benchmark of the semi-external MIS
//! system.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its workload's inputs from `--seed` inside
//! `.bench_work/`, checks every output, prints `detail {...}` lines with
//! the workload's sizes, policy, sample counts and correctness figures,
//! and ends with one JSON line: with `--trace 0` the end-to-end metrics
//! of an untraced run, with `--trace 1` the per-layer metrics of a run
//! whose layer calls are recorded as spans (written to
//! `.bench_work/trace-<workload>-<seed>.jsonl`).
//!
//! Workloads:
//!
//! * `offline-seq-plain` — PLRG β = 2.0, ≈1M vertices, degree-sorted
//!   plain files; greedy + two-k on `Executor::Sequential` without a
//!   pager, then the proof. Runnable, but not listed in
//!   `BENCHMARK.json` (see `perfbench/README.md`).
//! * `offline-par2-paged-compressed` — the same kind of graphs
//!   gap-compressed; greedy + two-k on `Executor::parallel(2)` with a
//!   4 MiB (64-frame) pager for the paged rounds, then the proof.
//! * `serve-churn` — a ≈300k-vertex degree-sorted plain base behind a
//!   `ServeEngine` (4 MiB pager) taking 16 epochs of 1,024 churn
//!   operations (30% deletes), each submitted then flushed, WAL rolled
//!   every 2 epochs, partial compaction at 3 live segments, while one
//!   closed-loop reader sends `member`/`neighbors` calls.

mod offline;
mod probes;
mod record;
mod serve;
mod setup;
mod stats;

use std::io;
use std::time::{Duration, Instant};

use mis_core::Executor;
use mis_extmem::PagerConfig;

use offline::Mode;
use record::Recorder;
use serve::{Opened, Plan, Session};
use setup::{GraphSpec, Prepared, SetupTimes, WORK_DIR};
use stats::{mean, median, Latencies, Rng};

/// The end-to-end metrics every `--trace 0` run reports, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("solve_s", "s"),
    ("io_blocks", "count"),
    ("is_size", "count"),
    ("member_p50_us", "us"),
    ("member_p99_us", "us"),
    ("neighbors_p50_us", "us"),
    ("neighbors_p99_us", "us"),
    ("reads_per_s", "1/s"),
];

/// The per-layer metrics every `--trace 1` run reports, with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("env.hardware_threads", "count"),
    ("env.available_threads", "count"),
    ("gen.generate_s", "s"),
    ("gen.sort_s", "s"),
    ("gen.compress_s", "s"),
    ("graph.open_s", "s"),
    ("graph.scan_s", "s"),
    ("graph.point_read_p50_us", "us"),
    ("graph.point_read_p99_us", "us"),
    ("extmem.blocks_read", "count"),
    ("extmem.bytes_read", "B"),
    ("extmem.scans", "count"),
    ("extmem.pager.hit_rate", "ratio"),
    ("extmem.pager.misses", "count"),
    ("extmem.pager.evictions", "count"),
    ("core.greedy_s", "s"),
    ("core.twok_s", "s"),
    ("core.proof_s", "s"),
    ("core.rounds", "count"),
    ("core.paged_rounds", "count"),
    ("core.algorithm_scans", "count"),
    ("core.fold_share", "ratio"),
    ("core.mem_model_mb", "MB"),
    ("engine.degree_seq_s", "s"),
    ("engine.degree_par2_s", "s"),
    ("engine.proof_seq_s", "s"),
    ("engine.proof_par2_s", "s"),
    ("engine.speedup_degree", "x"),
    ("engine.speedup_proof", "x"),
    ("update.open_s", "s"),
    ("update.submit_p50_us", "us"),
    ("update.ops_per_s", "1/s"),
    ("update.flush.wal_ms", "ms"),
    ("update.flush.roll_ms", "ms"),
    ("update.flush.compact_ms", "ms"),
    ("update.flush.repair_ms", "ms"),
    ("update.flush.checkpoint_ms", "ms"),
    ("update.flush.other_ms", "ms"),
    ("update.scans_per_flush", "count"),
    ("update.blocks_per_flush", "count"),
    ("update.write_amp", "x"),
    ("update.rolls", "count"),
    ("update.compactions", "count"),
    ("update.member_p99_in_flush_us", "us"),
    ("update.neighbors_p99_in_flush_us", "us"),
    ("update.replay_diverged_epochs", "count"),
    ("update.error_rate", "ratio"),
    ("trace.overhead", "x"),
    ("trace.bench_spans", "count"),
    ("trace.program_spans", "count"),
];

/// Inputs of an offline run, each a different graph; `setup_s` is the
/// median of their set-ups. Two-k's round count differs between graphs
/// of one size, so figures averaged over this many graphs keep one
/// graph's extra round from deciding a run.
const OFFLINE_INPUTS: usize = 8;

/// Set-ups of a serving run; `setup_s` is their median.
const SERVE_SETUPS: usize = 5;

/// Share of an offline run's time spent on read slices: each solve is
/// followed by reads for this share of the solve's own time.
const READ_SHARE: f64 = 0.25;

/// The serving ingest of `serve-churn`.
const SERVE_PLAN: Plan = Plan {
    epochs: 16,
    roll_epochs: 2,
    alternate_trace: true,
};

/// The short serving session that measures the update layer on the
/// offline workloads' files in a traced run.
const PROBE_PLAN: Plan = Plan {
    epochs: 4,
    roll_epochs: 1,
    alternate_trace: false,
};

/// Bytes a user operation carries: two 4-byte endpoints and a kind byte.
const OP_BYTES: f64 = 9.0;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a run reports.
#[derive(Debug, Default)]
struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    detail: Vec<(&'static str, String)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn detail(&mut self, key: &'static str, json: impl Into<String>) {
        self.detail.push((key, json.into()));
    }

    /// Reports the `q` quantile of `lat` in microseconds as `name`, with
    /// its sample counts in the detail line.
    fn quantile_us(&mut self, name: &'static str, lat: &Latencies, q: f64) -> io::Result<()> {
        let quantile = lat.quantile(q, 1e3).ok_or_else(|| {
            io::Error::other(format!(
                "{name}: {} samples of {} calls leave fewer than 10 beyond the percentile",
                lat.len(),
                lat.calls()
            ))
        })?;
        self.metric(name, quantile.value);
        self.detail(name, quantile.json());
        Ok(())
    }

    /// Counts `checks` attempted, of which `wrong` failed.
    fn checked(&mut self, attempted: u64, wrong: u64) {
        self.attempted += attempted;
        self.failed += wrong;
    }
}

fn spec(vertices: u64, seed: u64, compressed: bool) -> GraphSpec {
    GraphSpec {
        vertices,
        seed,
        compressed,
    }
}

/// Pager of the paged offline workload: 4 MiB, 64 frames of 64 KiB.
fn offline_pager() -> PagerConfig {
    PagerConfig::with_capacity_bytes(4 << 20, setup::BLOCK, Default::default())
}

fn run(args: &Args) -> io::Result<Outcome> {
    let rec = Recorder::new(args.trace);
    let mut out = Outcome::default();
    out.detail("workload", format!("\"{}\"", args.workload));
    out.detail("seed", args.seed.to_string());
    out.detail("hardware_threads", mis_obs::hardware_threads().to_string());
    out.detail(
        "available_threads",
        mis_core::engine::available_threads().to_string(),
    );
    match args.workload.as_str() {
        "offline-seq-plain" => offline_workload(
            args,
            1_000_000,
            false,
            Mode {
                executor: Executor::Sequential,
                pager: None,
            },
            &rec,
            &mut out,
        )?,
        "offline-par2-paged-compressed" => offline_workload(
            args,
            1_000_000,
            true,
            Mode {
                executor: Executor::parallel(2),
                pager: Some(offline_pager()),
            },
            &rec,
            &mut out,
        )?,
        "serve-churn" => serve_workload(args, &spec(300_000, args.seed, false), &rec, &mut out)?,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload {other}"),
            ))
        }
    }
    let attempted = out.attempted.max(1);
    out.detail(
        "error_rate",
        format!("{}", out.failed as f64 / attempted as f64),
    );
    if args.trace {
        out.metric("env.hardware_threads", mis_obs::hardware_threads() as f64);
        out.metric(
            "env.available_threads",
            mis_core::engine::available_threads() as f64,
        );
        out.metric("trace.bench_spans", rec.len() as f64);
    } else {
        out.metric("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(out)
}

/// The generator seed of an offline run's `r`-th input.
fn graph_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_mul(OFFLINE_INPUTS as u64)
        .wrapping_add(r as u64)
}

fn describe_input(out: &mut Outcome, p: &Prepared, threads: usize, pager: PagerConfig) {
    out.detail("vertices", p.vertices.to_string());
    out.detail("edges", p.edges.to_string());
    out.detail("codec", format!("\"{}\"", p.codec()));
    out.detail(
        "file_bytes",
        p.file_bytes().map_or("null".into(), |b| b.to_string()),
    );
    out.detail("pager_bytes", pager.capacity_bytes().to_string());
    out.detail("threads", threads.to_string());
}

/// An offline run: [`OFFLINE_INPUTS`] inputs, each a different graph
/// drawn from the run's seed, solved in rounds over all inputs for
/// `--seconds`, each solve followed by a read slice on its input;
/// figures are per-input medians averaged over the inputs, so one
/// graph's round count does not decide the run.
fn offline_workload(
    args: &Args,
    vertices: u64,
    compressed: bool,
    mode: Mode,
    rec: &Recorder,
    out: &mut Outcome,
) -> io::Result<()> {
    let inputs = (0..OFFLINE_INPUTS)
        .map(|r| Prepared::build(&spec(vertices, graph_seed(args.seed, r), compressed), rec))
        .collect::<io::Result<Vec<_>>>()?;
    let last = inputs.len() - 1;
    let read_pager = mode.pager.unwrap_or_else(serve::serve_pager);
    describe_input(out, &inputs[last], mode.executor.threads(), read_pager);
    out.detail("inputs", inputs.len().to_string());
    out.detail("loop", "\"closed, 1 reader after each solve\"");

    // Rounds of one solve per input, each solve followed (untraced) by a
    // read slice; a step starts only if one as long as the longest so
    // far still ends within `--seconds`. In a traced run every second
    // round has the program's own tracing on.
    let min_rounds = if args.trace { 2 } else { 1 };
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut rng = Rng::new(args.seed, 1);
    let mut reads = offline::Reads::default();
    let mut solves: Vec<Vec<(bool, offline::Solve)>> = inputs.iter().map(|_| Vec::new()).collect();
    let mut sets: Vec<Vec<mis_graph::VertexId>> = inputs.iter().map(|_| Vec::new()).collect();
    let mut round = 0;
    'solving: loop {
        let traced = args.trace && round % 2 == 1;
        for (g, p) in inputs.iter().enumerate() {
            if round >= min_rounds && start.elapsed() + longest > window {
                break 'solving;
            }
            let step = Instant::now();
            mis_obs::set_enabled(traced);
            let solve = offline::solve(p, &mode, rec);
            mis_obs::set_enabled(false);
            let mut solve = solve?;
            let set = std::mem::take(&mut solve.set);
            // An input's first set is checked by a separate scan; every
            // later solve of the input must return that same set.
            let checked = if sets[g].is_empty() {
                let ok = offline::check_set(p, &set, rec);
                sets[g] = set;
                ok
            } else {
                sets[g] == set
            };
            out.checked(1, u64::from(!(solve.proved && checked)));
            if !args.trace {
                let slice = Duration::from_secs_f64(solve.secs * READ_SHARE / (1.0 - READ_SHARE));
                offline::read_slice(p, &sets[g], read_pager, slice, &mut rng, &mut reads)?;
            }
            solves[g].push((traced, solve));
            longest = longest.max(step.elapsed());
        }
        round += 1;
    }
    // Median over one input's solves of the given tracing state.
    let med = |g: usize, traced: bool, f: fn(&offline::Solve) -> f64| -> f64 {
        let xs: Vec<f64> = solves[g]
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, s)| f(s))
            .collect();
        median(&xs)
    };
    let over_inputs =
        |f: &dyn Fn(usize) -> f64| -> f64 { mean(&(0..inputs.len()).map(f).collect::<Vec<_>>()) };
    let first = |g: usize| -> &offline::Solve { &solves[g][0].1 };
    let per_input: Vec<String> = (0..inputs.len())
        .map(|g| {
            let ms: Vec<String> = solves[g]
                .iter()
                .filter(|(t, _)| !t)
                .map(|(_, s)| format!("{:.1}", s.secs * 1e3))
                .collect();
            format!("[{}]", ms.join(", "))
        })
        .collect();
    out.detail("solve_ms", format!("[{}]", per_input.join(", ")));
    let scans: Vec<String> = (0..inputs.len())
        .map(|g| first(g).algorithm_scans.to_string())
        .collect();
    out.detail("algorithm_scans", format!("[{}]", scans.join(", ")));

    if !args.trace {
        out.metric(
            "setup_s",
            median(&inputs.iter().map(|p| p.times.total()).collect::<Vec<_>>()),
        );
        out.metric("solve_s", over_inputs(&|g| med(g, false, |s| s.secs)));
        out.metric(
            "io_blocks",
            over_inputs(&|g| first(g).io.blocks_read as f64),
        );
        out.metric("is_size", over_inputs(&|g| sets[g].len() as f64));
        reads_metrics(
            out,
            &reads.member,
            &reads.neighbors,
            reads.attempted,
            reads.elapsed,
        )?;
        out.checked(reads.attempted, reads.wrong);
        return Ok(());
    }

    let mut program = mis_obs::drain();
    let setups: Vec<SetupTimes> = inputs.iter().map(|p| p.times).collect();
    let p = &inputs[last];
    gen_layers(out, p, &setups, rec)?;
    let scan_s = probe_layers(out, p, &sets[last], read_pager, args.seed, rec)?;
    let solve = first(last);
    extmem_layers(out, &solve.io, solve.io.blocks_read, solve.io.scans_started);
    core_layers(
        out,
        solve,
        med(last, false, |s| s.greedy_s),
        med(last, false, |s| s.twok_s),
        med(last, false, |s| s.proof_s),
        scan_s,
    );

    let stream = serve::Stream::new(p, &PROBE_PLAN, args.seed)?;
    let replay = serve::replay(p, &stream, rec)?;
    let opened = Opened::open(p, &PROBE_PLAN, rec)?;
    let mut session = Session::default();
    serve::ingest(
        p,
        &opened,
        &PROBE_PLAN,
        &stream,
        &replay,
        args.seed,
        rec,
        &mut session,
    )?;
    session_detail(out, &session);
    update_layers(out, opened.open_s, &session)?;
    program.extend(std::mem::take(&mut session.program));
    out.metric(
        "trace.overhead",
        over_inputs(&|g| med(g, true, |s| s.secs)) / over_inputs(&|g| med(g, false, |s| s.secs)),
    );
    finish_trace(out, args, rec, &program)
}

/// A serving run: the base is set up [`SERVE_SETUPS`] times (store open
/// and bootstrap included) and the last one kept; then fresh engines
/// over it take the same stream, session after session, until the
/// run's time is used.
fn serve_workload(
    args: &Args,
    spec: &GraphSpec,
    rec: &Recorder,
    out: &mut Outcome,
) -> io::Result<()> {
    let (mut kept, mut totals, mut setups, mut opens) = (None, Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SERVE_SETUPS {
        drop(kept.take());
        let p = Prepared::build(spec, rec)?;
        let opened = Opened::open(&p, &SERVE_PLAN, rec)?;
        totals.push(p.times.total() + opened.open_s);
        setups.push(p.times);
        opens.push(opened.open_s);
        // The engine is dropped before the files it serves.
        kept = Some((opened, p));
    }
    let (opened, p) = kept.expect("at least one set-up");
    describe_input(out, &p, 2, serve::serve_pager());
    out.detail("loop", "\"closed, 1 reader during the ingest\"");
    out.detail(
        "policy",
        format!(
            "{{\"epochs\": {}, \"batch_ops\": {}, \"delete_fraction\": {}, \"roll_epochs\": {}, \
             \"compact_threshold\": {}, \"flush\": \"explicit after each batch\"}}",
            SERVE_PLAN.epochs,
            serve::BATCH_OPS,
            serve::DELETE_FRACTION,
            SERVE_PLAN.roll_epochs,
            serve::COMPACT_THRESHOLD
        ),
    );
    let stream = serve::Stream::new(&p, &SERVE_PLAN, args.seed)?;
    let replay = serve::replay(&p, &stream, rec)?;
    let mut session = Session::default();
    // Another session starts only if one more as long as the last still
    // ends within the budget.
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut next = Some(opened);
    loop {
        let session_start = Instant::now();
        let opened = match next.take() {
            Some(o) => o,
            None => Opened::open(&p, &SERVE_PLAN, rec)?,
        };
        serve::ingest(
            &p,
            &opened,
            &SERVE_PLAN,
            &stream,
            &replay,
            args.seed,
            rec,
            &mut session,
        )?;
        if start.elapsed() + session_start.elapsed() > budget {
            break;
        }
    }
    session_detail(out, &session);
    let flushes = |traced: bool| -> Vec<f64> {
        session
            .flush_s
            .iter()
            .zip(&session.flush_traced)
            .filter(|(_, t)| **t == traced)
            .map(|(f, _)| *f)
            .collect()
    };

    if !args.trace {
        out.metric("setup_s", median(&totals));
        out.metric("solve_s", median(&flushes(false)));
        out.metric(
            "io_blocks",
            median(&per_flush(&session, |io| io.blocks_read)),
        );
        out.metric("is_size", session.final_is as f64);
        let r = &session.reads;
        reads_metrics(out, &r.member, &r.neighbors, r.attempted, r.elapsed)?;
        return Ok(());
    }

    gen_layers(out, &p, &setups, rec)?;
    let solve = offline::solve(
        &p,
        &Mode {
            executor: Executor::Sequential,
            pager: None,
        },
        rec,
    )?;
    out.checked(
        1,
        u64::from(!(solve.proved && offline::check_set(&p, &solve.set, rec))),
    );
    let scan_s = probe_layers(out, &p, &solve.set, serve::serve_pager(), args.seed, rec)?;
    let (hits, misses, evictions) = session.pager;
    extmem_layers(
        out,
        &mis_extmem::IoSnapshot {
            bytes_read: median(&per_flush(&session, |io| io.bytes_read)) as u64,
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions: evictions,
            ..Default::default()
        },
        median(&per_flush(&session, |io| io.blocks_read)) as u64,
        median(&per_flush(&session, |io| io.scans_started)) as u64,
    );
    core_layers(
        out,
        &solve,
        solve.greedy_s,
        solve.twok_s,
        solve.proof_s,
        scan_s,
    );
    update_layers(out, median(&opens), &session)?;
    out.metric(
        "trace.overhead",
        median(&flushes(true)) / median(&flushes(false)),
    );
    let mut program = std::mem::take(&mut session.program);
    program.extend(mis_obs::drain());
    finish_trace(out, args, rec, &program)
}

fn per_flush(s: &Session, f: fn(&mis_extmem::IoSnapshot) -> u64) -> Vec<f64> {
    s.flush_io.iter().map(|io| f(io) as f64).collect()
}

fn reads_metrics(
    out: &mut Outcome,
    member: &Latencies,
    neighbors: &Latencies,
    attempted: u64,
    elapsed: f64,
) -> io::Result<()> {
    out.quantile_us("member_p50_us", member, 0.5)?;
    out.quantile_us("member_p99_us", member, 0.99)?;
    out.quantile_us("neighbors_p50_us", neighbors, 0.5)?;
    out.quantile_us("neighbors_p99_us", neighbors, 0.99)?;
    out.metric("reads_per_s", attempted as f64 / elapsed);
    Ok(())
}

fn session_detail(out: &mut Outcome, s: &Session) {
    out.checked(s.attempted, s.wrong);
    out.checked(s.reads.attempted, s.reads.wrong);
    let flushes = Latencies::from_secs(&s.flush_s);
    out.detail(
        "flush_p50_ms",
        flushes
            .quantile(0.5, 1e6)
            .map_or("null".into(), |q| q.json()),
    );
    out.detail(
        "update_ops_per_s",
        (s.ops as f64 / s.flush_s.iter().sum::<f64>()).to_string(),
    );
    out.detail("sessions", s.sessions.to_string());
    out.detail("epochs", s.flush_s.len().to_string());
    let flush_ms: Vec<String> = s
        .flush_s
        .iter()
        .map(|f| format!("{:.1}", f * 1e3))
        .collect();
    out.detail("flush_ms", format!("[{}]", flush_ms.join(", ")));
    out.detail("rolls", s.rolls.to_string());
    out.detail("compactions", s.compactions.to_string());
    out.detail("replay_diverged_epochs", format!("{:?}", s.diverged_epochs));
    out.detail(
        "first_diverged_epoch",
        s.first_diverged.map_or("null".into(), |e| e.to_string()),
    );
    out.detail(
        "final_epoch_only_served_only_replay",
        format!("[{}, {}]", s.final_only.0, s.final_only.1),
    );
}

fn gen_layers(
    out: &mut Outcome,
    p: &Prepared,
    setups: &[SetupTimes],
    rec: &Recorder,
) -> io::Result<()> {
    let pick = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    out.metric("gen.generate_s", pick(|t| t.generate));
    out.metric("gen.sort_s", pick(|t| t.sort));
    let compress = if setups.iter().all(|t| t.compress > 0.0) {
        pick(|t| t.compress)
    } else {
        p.time_compress(rec)?
    };
    out.metric("gen.compress_s", compress);
    out.metric("graph.open_s", pick(|t| t.open));
    Ok(())
}

/// Graph and engine probes on `p`'s file; returns `graph.scan_s`.
fn probe_layers(
    out: &mut Outcome,
    p: &Prepared,
    set: &[mis_graph::VertexId],
    pager: PagerConfig,
    seed: u64,
    rec: &Recorder,
) -> io::Result<f64> {
    let scan_s = probes::scan_s(p, rec)?;
    out.metric("graph.scan_s", scan_s);
    let (lat, wrong) = probes::point_reads(p, pager, &mut Rng::new(seed, 4), rec)?;
    out.checked(lat.len() as u64, wrong);
    out.quantile_us("graph.point_read_p50_us", &lat, 0.5)?;
    out.quantile_us("graph.point_read_p99_us", &lat, 0.99)?;
    let e = probes::engine(p, set, rec);
    out.checked(1, u64::from(!e.agree));
    out.metric("engine.degree_seq_s", e.degree_seq);
    out.metric("engine.degree_par2_s", e.degree_par2);
    out.metric("engine.proof_seq_s", e.proof_seq);
    out.metric("engine.proof_par2_s", e.proof_par2);
    out.metric("engine.speedup_degree", e.degree_seq / e.degree_par2);
    out.metric("engine.speedup_proof", e.proof_seq / e.proof_par2);
    Ok(scan_s)
}

fn extmem_layers(out: &mut Outcome, io: &mis_extmem::IoSnapshot, blocks: u64, scans: u64) {
    out.metric("extmem.blocks_read", blocks as f64);
    out.metric("extmem.bytes_read", io.bytes_read as f64);
    out.metric("extmem.scans", scans as f64);
    let lookups = io.cache_hits + io.cache_misses;
    out.metric(
        "extmem.pager.hit_rate",
        if lookups == 0 {
            0.0
        } else {
            io.cache_hits as f64 / lookups as f64
        },
    );
    out.metric("extmem.pager.misses", io.cache_misses as f64);
    out.metric("extmem.pager.evictions", io.cache_evictions as f64);
}

fn core_layers(
    out: &mut Outcome,
    solve: &offline::Solve,
    greedy_s: f64,
    twok_s: f64,
    proof_s: f64,
    scan_s: f64,
) {
    out.metric("core.greedy_s", greedy_s);
    out.metric("core.twok_s", twok_s);
    out.metric("core.proof_s", proof_s);
    out.metric("core.rounds", solve.rounds as f64);
    out.metric("core.paged_rounds", solve.paged_rounds as f64);
    out.metric("core.algorithm_scans", solve.algorithm_scans as f64);
    out.metric(
        "core.fold_share",
        1.0 - solve.twok_scans as f64 * scan_s / twok_s,
    );
    out.metric(
        "core.mem_model_mb",
        solve.memory_bytes as f64 / f64::from(1 << 20),
    );
}

fn update_layers(out: &mut Outcome, open_s: f64, s: &Session) -> io::Result<()> {
    out.metric("update.open_s", open_s);
    out.quantile_us("update.submit_p50_us", &s.submit, 0.5)?;
    out.metric(
        "update.ops_per_s",
        s.ops as f64 / s.flush_s.iter().sum::<f64>(),
    );
    // Indexed like `FLUSH_STAGES`.
    let names = [
        "update.flush.wal_ms",
        "update.flush.roll_ms",
        "update.flush.compact_ms",
        "update.flush.repair_ms",
        "update.flush.checkpoint_ms",
    ];
    for (k, name) in names.iter().enumerate() {
        let per_flush: Vec<f64> = s.parts.iter().map(|p| p.stages[k] as f64 / 1e6).collect();
        out.metric(name, mean(&per_flush));
    }
    let other: Vec<f64> = s.parts.iter().map(|p| p.other as f64 / 1e6).collect();
    out.metric("update.flush.other_ms", mean(&other));
    out.metric(
        "update.scans_per_flush",
        median(&per_flush(s, |io| io.scans_started)),
    );
    out.metric(
        "update.blocks_per_flush",
        median(&per_flush(s, |io| io.blocks_read)),
    );
    out.metric(
        "update.write_amp",
        s.bytes_written as f64 / (s.ops as f64 * OP_BYTES),
    );
    out.metric("update.rolls", s.rolls as f64);
    out.metric("update.compactions", s.compactions as f64);
    out.quantile_us(
        "update.member_p99_in_flush_us",
        &s.reads.member_in_flush,
        0.99,
    )?;
    out.quantile_us(
        "update.neighbors_p99_in_flush_us",
        &s.reads.neighbors_in_flush,
        0.99,
    )?;
    let diverged: Vec<f64> = s.diverged_epochs.iter().map(|&d| d as f64).collect();
    out.metric("update.replay_diverged_epochs", median(&diverged));
    let attempted = (s.attempted + s.reads.attempted).max(1);
    out.metric(
        "update.error_rate",
        (s.wrong + s.reads.wrong) as f64 / attempted as f64,
    );
    Ok(())
}

fn finish_trace(
    out: &mut Outcome,
    args: &Args,
    rec: &Recorder,
    program: &mis_obs::Trace,
) -> io::Result<()> {
    out.metric("trace.program_spans", program.num_spans() as f64);
    let path =
        std::path::Path::new(WORK_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    rec.write(&path, program)?;
    out.detail("trace_file", format!("\"{}\"", path.display()));
    Ok(())
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("VmHWM not found in /proc/self/status"))
}

/// Renders the final result line, checking the metric set and values.
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let mut hits = out.metrics.iter().filter(|(n, _)| n == name);
        let (Some((_, value)), None) = (hits.next(), hits.next()) else {
            return Err(format!("metric {name} missing or reported twice"));
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some((extra, _)) = out
        .metrics
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let detail: Vec<String> = out
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("detail {{{}}}", detail.join(", "));
    match result_line(&out, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
