//! Differential validation of the portfolio [`Pool`] against the
//! reference DPLL oracle and proof-certification checks — on one-query
//! sessions (a one-shot solve) and on incremental multi-query sessions —
//! plus a replay showing that a one-worker pool is the plain solver.

use fec_portfolio::{Pool, PortfolioConfig};
use fec_sat::{reference, Budget, Lit, SolveResult, Solver, SolverStats, Var};

/// Deterministic xorshift64* for instance generation (no external
/// randomness: the 200 instances are the same on every run).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random CNF over `num_vars` variables: `num_clauses` clauses of
/// width 2–4 with distinct variables per clause and random polarities.
fn random_cnf(rng: &mut Rng, num_vars: usize, num_clauses: usize) -> Vec<Vec<Lit>> {
    (0..num_clauses)
        .map(|_| {
            let width = 2 + rng.below(3) as usize;
            let mut vars = Vec::with_capacity(width);
            while vars.len() < width.min(num_vars) {
                let v = rng.below(num_vars as u64) as usize;
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| Lit::with_sign(Var::from_index(v), rng.below(2) == 0))
                .collect()
        })
        .collect()
}

#[test]
fn portfolio_matches_reference_on_200_random_cnfs() {
    let mut rng = Rng(0x5EED_CAFE);
    let config = PortfolioConfig {
        certify: true,
        ..PortfolioConfig::with_jobs(4)
    };
    let (mut sat_seen, mut unsat_seen) = (0u32, 0u32);
    for instance in 0..200 {
        let num_vars = 6 + rng.below(12) as usize;
        // clause/variable ratio around the 3-SAT phase transition, so
        // both verdicts occur often
        let num_clauses = (num_vars as f64 * 3.8) as usize;
        let clauses = random_cnf(&mut rng, num_vars, num_clauses);
        let expected = reference::solve(num_vars, &clauses);
        let mut pool = Pool::new(&config);
        let out = pool.solve(num_vars, clauses.clone(), &[], Budget::unlimited());
        match (&expected, out.result) {
            (Some(_), SolveResult::Sat) => {
                sat_seen += 1;
                // the portfolio's model must satisfy every clause
                let model: Vec<bool> = (0..num_vars)
                    .map(|v| pool.value(Var::from_index(v)).unwrap_or(false))
                    .collect();
                assert!(
                    reference::check_model(&clauses, &model),
                    "instance {instance}: winning model does not satisfy the formula"
                );
            }
            (None, SolveResult::Unsat) => {
                unsat_seen += 1;
                // in a one-query session the winner's segment is its
                // complete stream and must certify the refutation
                // stand-alone
                let winner = out.stats.winner.expect("an UNSAT verdict has a winner");
                let mut checker = fec_drat::Checker::new();
                checker
                    .process_all(&out.proof_segments[winner])
                    .unwrap_or_else(|e| panic!("instance {instance}: proof rejected: {e}"));
                assert!(
                    checker.is_refuted() || checker.is_rup(&[]),
                    "instance {instance}: proof does not refute the formula"
                );
            }
            (e, r) => panic!("instance {instance}: reference {e:?} but portfolio {r:?}"),
        }
        assert_eq!(out.stats.workers.len(), 4);
        assert!(out.stats.winner.is_some());
    }
    // the generator must exercise both verdicts heavily
    assert!(sat_seen >= 30, "only {sat_seen} SAT instances");
    assert!(unsat_seen >= 30, "only {unsat_seen} UNSAT instances");
}

/// Grows a plain solver's variable space to `num_vars`, as a pool
/// worker does before each clause and query.
fn grow(s: &mut Solver, num_vars: usize) {
    while s.num_vars() < num_vars {
        s.new_var();
    }
}

#[test]
fn one_worker_pool_replays_the_plain_solver() {
    // one session of loads, streamed clauses, clause deltas and
    // assumption queries, replayed on a one-worker pool and on a plain
    // Solver: the pool must answer every query with the same verdict,
    // model, failed assumptions and per-query statistics delta
    let mut rng = Rng(0x0E0E_50E0);
    let mut pool = Pool::new(&PortfolioConfig::with_jobs(1));
    let mut plain = Solver::new();
    let mut reported = SolverStats::default();
    let free = 100;
    let mut base = random_cnf(&mut rng, free, 200);
    // a pigeonhole core behind a guard: queries that assume the guard
    // need real search, and its learned clauses stay for later queries
    let (php_vars, php) = pigeonhole(8, 7);
    let guard = Lit::pos(Var::from_index(free + php_vars));
    let shift = |l: Lit| Lit::with_sign(Var::from_index(l.var().index() + free), l.is_pos());
    base.extend(php.into_iter().map(|c| {
        let mut c: Vec<Lit> = c.into_iter().map(shift).collect();
        c.push(!guard);
        c
    }));
    let mut num_vars = free + php_vars + 1;
    grow(&mut plain, num_vars);
    for c in &base {
        plain.add_clause(c);
    }
    pool.load(num_vars, base);
    let (mut sat, mut unsat, mut conflicts) = (0u32, 0u32, 0u64);
    for query in 0..40 {
        // variables appear between queries too
        num_vars += rng.below(2) as usize;
        let streamed = random_cnf(&mut rng, free, 1);
        let width = rng.below(2) as usize;
        let delta = random_cnf(&mut rng, free, width);
        let mut assumptions: Vec<Lit> = (0..rng.below(6))
            .map(|_| {
                let v = Var::from_index(rng.below(free as u64) as usize);
                Lit::with_sign(v, rng.below(2) == 0)
            })
            .collect();
        if query % 4 == 0 {
            assumptions.push(guard);
        }
        grow(&mut plain, num_vars);
        for c in streamed.iter().chain(&delta) {
            plain.add_clause(c);
        }
        for c in &streamed {
            pool.add_clause(num_vars, c);
        }
        let out = pool.solve(num_vars, delta, &assumptions, Budget::unlimited());
        let expected = plain.solve(&assumptions);
        assert_eq!(out.result, expected, "query {query}: verdict");
        let totals = plain.stats();
        assert_eq!(
            out.stats.total,
            totals.delta_since(&reported),
            "query {query}: statistics"
        );
        reported = totals;
        conflicts += out.stats.total.conflicts;
        for v in (0..num_vars).map(Var::from_index) {
            assert_eq!(pool.value(v), plain.value(v), "query {query}: model");
        }
        match expected {
            SolveResult::Sat => sat += 1,
            SolveResult::Unsat => {
                unsat += 1;
                assert_eq!(
                    out.failed_assumptions,
                    plain.failed_assumptions(),
                    "query {query}: failed assumptions"
                );
                if !plain.is_ok() {
                    break; // refuted outright; later queries are moot
                }
            }
            SolveResult::Unknown => unreachable!("no budget was set"),
        }
    }
    // the session must exercise both verdicts and real search
    assert!(sat >= 10, "only {sat} SAT answers");
    assert!(unsat >= 10, "only {unsat} UNSAT answers");
    assert!(conflicts >= 1000, "only {conflicts} conflicts");
}

#[test]
fn warm_pool_matches_reference_on_incremental_sessions() {
    // 30 sessions × 4 growing queries: at every step the warm pool's
    // verdict must match the reference oracle solving the accumulated
    // formula from scratch, and SAT models must satisfy every clause
    let mut rng = Rng(0xF001_FEC2);
    let config = PortfolioConfig::with_jobs(2);
    for session in 0..30 {
        let num_vars = 6 + rng.below(8) as usize;
        let mut pool = Pool::new(&config);
        let mut accumulated: Vec<Vec<Lit>> = Vec::new();
        for step in 0..4 {
            let width = 4 + rng.below(6) as usize;
            let delta = random_cnf(&mut rng, num_vars, width);
            accumulated.extend(delta.iter().cloned());
            let expected = reference::solve(num_vars, &accumulated).is_some();
            let out = pool.solve(num_vars, delta, &[], Budget::unlimited());
            match out.result {
                SolveResult::Sat => {
                    assert!(expected, "session {session} step {step}: false SAT");
                    let model: Vec<bool> = (0..num_vars)
                        .map(|v| pool.value(Var::from_index(v)).unwrap_or(false))
                        .collect();
                    assert!(
                        reference::check_model(&accumulated, &model),
                        "session {session} step {step}: warm model violates a clause"
                    );
                }
                SolveResult::Unsat => {
                    assert!(!expected, "session {session} step {step}: false UNSAT");
                    break; // monotone: stays UNSAT forever
                }
                SolveResult::Unknown => panic!("session {session} step {step}: Unknown"),
            }
        }
    }
}

#[test]
fn failed_assumptions_from_the_winner() {
    // x0 ∧ (¬x0 ∨ x1) with assumption ¬x1 is UNSAT; the failed subset
    // must mention the assumption ¬x1
    let v = |i| Var::from_index(i);
    let clauses = vec![vec![Lit::pos(v(0))], vec![Lit::neg(v(0)), Lit::pos(v(1))]];
    let config = PortfolioConfig::with_jobs(4);
    let out = Pool::new(&config).solve(2, clauses.clone(), &[Lit::neg(v(1))], Budget::unlimited());
    assert_eq!(out.result, SolveResult::Unsat);
    assert!(
        out.failed_assumptions.contains(&Lit::neg(v(1))),
        "failed set {:?}",
        out.failed_assumptions
    );
    // dropping the assumption makes it satisfiable again
    let mut pool = Pool::new(&config);
    let out = pool.solve(2, clauses, &[], Budget::unlimited());
    assert_eq!(out.result, SolveResult::Sat);
    assert_eq!(pool.value(v(0)), Some(true));
    assert_eq!(pool.value(v(1)), Some(true));
}

#[test]
fn budget_exhaustion_returns_unknown() {
    // a hard pigeonhole instance with a 1-conflict budget cannot finish
    let (num_vars, clauses) = pigeonhole(8, 7);
    let mut pool = Pool::new(&PortfolioConfig::with_jobs(4));
    let out = pool.solve(
        num_vars,
        clauses,
        &[],
        Budget {
            max_conflicts: 1,
            timeout: None,
        },
    );
    assert_eq!(out.result, SolveResult::Unknown);
    assert!(out.stats.winner.is_none());
    assert_eq!(pool.value(Var::from_index(0)), None);
}

#[test]
fn clause_sharing_is_observed_on_hard_unsat() {
    // pigeonhole generates many low-LBD clauses; with 4 workers some
    // imports should occur (not guaranteed per-worker, but across the
    // portfolio on an instance this hard it always happens in practice)
    let (num_vars, clauses) = pigeonhole(9, 8);
    let out = Pool::new(&PortfolioConfig::with_jobs(4)).solve(
        num_vars,
        clauses,
        &[],
        Budget::unlimited(),
    );
    assert_eq!(out.result, SolveResult::Unsat);
    assert!(
        out.stats.total.exported_clauses > 0,
        "no clauses exported: {:?}",
        out.stats.total
    );
}

/// PHP(n, m): n pigeons into m holes — UNSAT when n > m.
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
