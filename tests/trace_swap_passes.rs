//! The swap algorithms name every scan pass in a trace: one
//! `swap.init_candidates`, then one `swap.candidate` and one
//! `swap.post_swap` span per round, and one `swap.finalize`; Greedy emits
//! one `greedy`. Each pass is a file scan or, for a paged candidate
//! pass, a paged round, so the span count equals
//! `file_scans + paged_rounds`. The maximality proof after the solve is
//! one `proof` pass, outside `solve`. Two-k also samples its SC
//! registration counters once per candidate pass.
//!
//! This is deliberately the only test in this binary: the `mis_obs` sink
//! is process-global, so a concurrently running test would bleed spans
//! into the drained trace.

use semi_mis::obs::{self, trace::EventKind, TraceReport};
use semi_mis::prelude::*;

fn pass_events(trace: &obs::trace::Trace, name: &str, span: bool) -> u64 {
    trace
        .events
        .iter()
        .filter(|e| {
            e.cat == "pass" && e.name == name && matches!(e.kind, EventKind::Span { .. }) == span
        })
        .count() as u64
}

fn pass_spans(trace: &obs::trace::Trace, name: &str) -> u64 {
    pass_events(trace, name, true)
}

#[test]
fn traced_swaps_emit_one_span_per_pass() {
    let graph = semi_mis::gen::Plrg::with_vertices(5_000, 2.0)
        .seed(4)
        .generate();
    let scan = OrderedCsr::degree_sorted(&graph);
    let runs: [(&str, SwapConfig, bool); 3] = [
        ("onek", SwapConfig::default(), false),
        ("twok", SwapConfig::default(), false),
        ("twok paged", SwapConfig::paged(), true),
    ];
    for (what, config, paged) in runs {
        obs::set_enabled(true);
        let outcome = {
            let _solve = obs::span("phase", "solve");
            let greedy = Greedy::new().run(&scan);
            let access: Option<&dyn NeighborAccess> = if paged { Some(&scan) } else { None };
            match what {
                "onek" => OneKSwap::with_config(config).run_paged(&scan, access, &greedy.set),
                _ => TwoKSwap::with_config(config).run_paged(&scan, access, &greedy.set),
            }
        };
        let proof = prove_maximal(&scan, &outcome.result.set);
        let trace = obs::drain();
        obs::set_enabled(false);

        // A round undone by two-k's shrink guard ran its passes but is
        // not in `rounds`.
        let rounds = u64::from(outcome.stats.num_rounds());
        let candidate = pass_spans(&trace, "swap.candidate");
        assert!((rounds..=rounds + 1).contains(&candidate), "{what}");
        assert_eq!(pass_spans(&trace, "swap.post_swap"), candidate, "{what}");
        assert_eq!(pass_spans(&trace, "greedy"), 1, "{what}");
        assert_eq!(pass_spans(&trace, "swap.init_candidates"), 1, "{what}");
        assert_eq!(pass_spans(&trace, "swap.finalize"), 1, "{what}");
        assert_eq!(pass_spans(&trace, "proof"), 1, "{what}");
        assert!(proof.is_maximal_independent(), "{what}");
        let sc_samples = if what == "onek" { 0 } else { candidate };
        for counter in ["twok.sc_registered", "twok.sc_skipped"] {
            assert_eq!(pass_events(&trace, counter, false), sc_samples, "{what}");
        }
        assert_eq!(
            2 + 2 * candidate,
            outcome.result.file_scans + outcome.stats.paged_rounds,
            "{what}: every pass is a scan or a paged round"
        );
        if paged {
            assert!(outcome.stats.paged_rounds > 0, "{what}: no round paged");
        }

        let report = TraceReport::from_trace(&trace);
        let names: Vec<&str> = report.passes.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "greedy",
                "swap.init_candidates",
                "swap.candidate",
                "swap.post_swap",
                "swap.finalize",
                "proof"
            ],
            "{what}"
        );
        assert!(report.pass_coverage() > 0.0, "{what}");
        if what != "onek" {
            let last = |name: &str| {
                report
                    .counters
                    .iter()
                    .find(|c| c.name == name)
                    .map(|c| c.last)
            };
            // Most registrations sit on keys no later vertex reads.
            assert!(
                last("twok.sc_skipped") > last("twok.sc_registered"),
                "{what}"
            );
        }
    }
}
