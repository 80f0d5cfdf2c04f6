//! Cancellation-path coverage: a losing worker cut off mid-search must
//! stop promptly, stay usable, and still contribute clean statistics to
//! the portfolio aggregate.

use fec_portfolio::{Pool, PortfolioConfig};
use fec_sat::{Budget, Lit, SolveResult, Solver, Var};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// PHP(n, m): n pigeons into m holes — UNSAT when n > m, and hard
/// enough that workers are genuinely mid-search when cancelled.
fn pigeonhole(pigeons: usize, holes: usize) -> (usize, Vec<Vec<Lit>>) {
    let var = |p: usize, h: usize| Var::from_index(p * holes + h);
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| Lit::pos(var(p, h))).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
            }
        }
    }
    (pigeons * holes, clauses)
}

fn loaded_solver(pigeons: usize, holes: usize) -> Solver {
    let (num_vars, clauses) = pigeonhole(pigeons, holes);
    let mut s = Solver::new();
    for _ in 0..num_vars {
        s.new_var();
    }
    for c in &clauses {
        assert!(s.add_clause(c));
    }
    s
}

#[test]
fn stop_flag_raised_mid_search_is_observed_within_one_conflict() {
    // a losing portfolio worker sees the stop flag flip while it is deep
    // in propagation. Model that deterministically: the export hook
    // (which fires during conflict analysis, i.e. mid-search) raises the
    // solver's own stop flag on the first learned clause.
    let mut s = loaded_solver(8, 7);
    let flag = Arc::new(AtomicBool::new(false));
    let armed = Arc::new(AtomicBool::new(true));
    s.set_stop_flag(Arc::clone(&flag));
    let (hook_flag, hook_armed) = (Arc::clone(&flag), Arc::clone(&armed));
    s.set_export_hook(
        Box::new(move |_lits, _lbd| {
            if hook_armed.load(Ordering::Relaxed) {
                hook_flag.store(true, Ordering::Relaxed);
            }
        }),
        u32::MAX, // every learned clause qualifies: first conflict fires
    );
    assert_eq!(s.solve(&[]), SolveResult::Unknown);
    // the flag went up during conflict #1's analysis; the search loop
    // re-checks it before the next conflict can complete, so exactly one
    // clause was ever exported — the "observed within one propagation
    // loop" contract set_stop_flag documents
    let stats = s.stats();
    assert_eq!(
        stats.exported_clauses, 1,
        "solver ran past the stop flag: {stats:?}"
    );
    assert!(stats.conflicts >= 1);

    // cancellation must not poison the solver: disarm, clear the flag,
    // and the same instance finishes with accumulated stats
    armed.store(false, Ordering::Relaxed);
    flag.store(false, Ordering::Relaxed);
    let conflicts_at_cancel = stats.conflicts;
    assert_eq!(s.solve(&[]), SolveResult::Unsat);
    assert!(s.stats().conflicts > conflicts_at_cancel);
    assert_eq!(s.stats().solve_calls, 2);
}

#[test]
fn budget_exhausted_losers_aggregate_cleanly() {
    // every worker exhausts a tiny conflict budget mid-search: nobody
    // wins, nobody extracts, and the aggregate is still the exact
    // field-wise sum of the per-worker stats (no lost or double-counted
    // updates through the cancellation path)
    let (num_vars, clauses) = pigeonhole(8, 7);
    let mut pool = Pool::new(&PortfolioConfig::with_jobs(4));
    let out = pool.solve(
        num_vars,
        clauses,
        &[],
        Budget {
            max_conflicts: 16,
            timeout: None,
        },
    );
    assert_eq!(out.result, SolveResult::Unknown);
    assert!(out.stats.winner.is_none());
    assert_eq!(pool.value(Var::from_index(0)), None);
    assert!(out.proof_segments.iter().all(Vec::is_empty));
    assert_eq!(out.stats.workers.len(), 4);
    for (field, total, sum) in sum_check(&out.stats) {
        assert_eq!(total, sum, "aggregate {field} is not the worker sum");
    }
    // each worker really did search before its budget ran out
    for (i, w) in out.stats.workers.iter().enumerate() {
        assert!(w.conflicts >= 1, "worker {i} never reached a conflict");
        assert_eq!(w.solve_calls, 1);
    }
}

#[test]
fn cancelled_losers_aggregate_cleanly_after_a_win() {
    // normal racing path on a hard UNSAT instance: one worker wins, the
    // other three are cancelled through the stop flag mid-search; stats
    // from cancelled workers must still fold into a consistent total
    let (num_vars, clauses) = pigeonhole(9, 8);
    let out = Pool::new(&PortfolioConfig::with_jobs(4)).solve(
        num_vars,
        clauses,
        &[],
        Budget::unlimited(),
    );
    assert_eq!(out.result, SolveResult::Unsat);
    let winner = out.stats.winner.expect("someone must win");
    assert!(winner < 4);
    assert_eq!(out.stats.workers.len(), 4);
    for (field, total, sum) in sum_check(&out.stats) {
        assert_eq!(total, sum, "aggregate {field} is not the worker sum");
    }
    assert!(
        out.stats.workers[winner].conflicts > 0,
        "a pigeonhole win cannot be conflict-free"
    );
}

/// (field name, aggregate value, field-wise sum over workers) for every
/// counter in `SolverStats`, so mismatches name the broken field.
fn sum_check(stats: &fec_portfolio::PortfolioStats) -> Vec<(&'static str, u64, u64)> {
    macro_rules! fields {
        ($($name:ident),+ $(,)?) => {
            vec![$(
                (
                    stringify!($name),
                    stats.total.$name,
                    stats.workers.iter().map(|w| w.$name).sum::<u64>(),
                ),
            )+]
        };
    }
    fields!(
        conflicts,
        decisions,
        propagations,
        restarts,
        learnt_clauses,
        deleted_clauses,
        solve_calls,
        exported_clauses,
        imported_clauses,
        rejected_clauses,
    )
}
