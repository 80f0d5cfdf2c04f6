//! The solver's effort reaches the trace even when queries are short.
//!
//! `sat.snapshot` records are sampled at restart boundaries, but the
//! `sat.conflicts` counter and the `sat.lbd` histogram are flushed at
//! the end of every solve too, so a session of short incremental
//! queries that never restart still accounts for every conflict. This
//! file holds one test: the trace collector is process-global.

use fec_sat::{Lit, SolveResult, Solver, Var};
use fec_trace::{Level, TraceConfig};

/// Pigeonhole `np` into `nh`, every clause guarded by `¬guard`, so the
/// refutation is one of the assumption `guard` and the solver stays
/// usable.
fn guarded_pigeonhole(s: &mut Solver, np: usize, nh: usize) -> Lit {
    let guard = Lit::pos(s.new_var());
    let base = s.num_vars();
    for _ in 0..np * nh {
        s.new_var();
    }
    let v = |p: usize, h: usize| Lit::pos(Var::from_index(base + p * nh + h));
    for p in 0..np {
        let mut c: Vec<Lit> = (0..nh).map(|h| v(p, h)).collect();
        c.push(!guard);
        s.add_clause(&c);
    }
    for h in 0..nh {
        for p1 in 0..np {
            for p2 in (p1 + 1)..np {
                s.add_clause(&[!v(p1, h), !v(p2, h), !guard]);
            }
        }
    }
    guard
}

#[test]
fn short_solves_flush_their_conflicts() {
    fec_trace::install(TraceConfig::new(Level::Debug).jsonl_writer(Box::new(std::io::sink())));
    let mut s = Solver::new();
    // a long refutation: many restarts, each flushing a snapshot
    let php = guarded_pigeonhole(&mut s, 7, 6);
    assert_eq!(s.solve(&[php]), SolveResult::Unsat);
    let before = s.stats();
    assert!(before.restarts > 0, "PHP(7,6) restarts");
    // then short queries on fresh guarded instances: a few conflicts
    // each, never a restart
    for _ in 0..12 {
        let guard = guarded_pigeonhole(&mut s, 3, 2);
        assert_eq!(s.solve(&[guard]), SolveResult::Unsat);
    }
    let after = s.stats();
    assert_eq!(
        after.restarts, before.restarts,
        "the short solves restarted"
    );
    assert!(after.conflicts > before.conflicts);
    let report = fec_trace::shutdown().expect("collector installed");
    assert_eq!(
        report.counters.get("sat.conflicts").copied(),
        Some(after.conflicts as i64),
        "sat.conflicts counter vs SolverStats"
    );
    let lbd = report.hists.get("sat.lbd").expect("sat.lbd histogram");
    assert!(lbd.count() > 0 && lbd.count() <= after.conflicts);
}
