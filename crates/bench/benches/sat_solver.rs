//! SAT-core throughput: pigeonhole (UNSAT, resolution-hard) and
//! satisfiable graph coloring — tracks regressions in the CDCL engine
//! that every other component sits on. The `proof_logging` group
//! measures the DRAT instrumentation overhead: `off` must match the
//! plain solver (the proof buffer is a never-taken branch when off) and
//! `on` must stay within ~15% of it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fec_sat::{Lit, SolveResult, Solver, Var};

fn pigeonhole(np: usize, nh: usize) -> Solver {
    pigeonhole_in(Solver::new(), np, nh)
}

fn pigeonhole_in(mut s: Solver, np: usize, nh: usize) -> Solver {
    for _ in 0..np * nh {
        s.new_var();
    }
    let v = |p: usize, h: usize| Lit::pos(Var::from_index(p * nh + h));
    for p in 0..np {
        let c: Vec<Lit> = (0..nh).map(|h| v(p, h)).collect();
        s.add_clause(&c);
    }
    for h in 0..nh {
        for p1 in 0..np {
            for p2 in (p1 + 1)..np {
                s.add_clause(&[!v(p1, h), !v(p2, h)]);
            }
        }
    }
    s
}

fn ring_coloring(n: usize, colors: usize) -> Solver {
    let mut s = Solver::new();
    for _ in 0..n * colors {
        s.new_var();
    }
    let v = |node: usize, c: usize| Lit::pos(Var::from_index(node * colors + c));
    for node in 0..n {
        let clause: Vec<Lit> = (0..colors).map(|c| v(node, c)).collect();
        s.add_clause(&clause);
        for (a, b) in (0..colors).flat_map(|a| ((a + 1)..colors).map(move |b| (a, b))) {
            s.add_clause(&[!v(node, a), !v(node, b)]);
        }
        let next = (node + 1) % n;
        for c in 0..colors {
            s.add_clause(&[!v(node, c), !v(next, c)]);
        }
    }
    s
}

fn bench_sat(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_core");
    for n in [6usize, 7, 8] {
        group.bench_with_input(BenchmarkId::new("pigeonhole_unsat", n), &n, |b, &n| {
            b.iter(|| {
                let mut s = pigeonhole(n, n - 1);
                assert_eq!(s.solve(&[]), SolveResult::Unsat);
            })
        });
    }
    for n in [100usize, 500] {
        group.bench_with_input(BenchmarkId::new("ring_3coloring_sat", n), &n, |b, &n| {
            b.iter(|| {
                let mut s = ring_coloring(n, 3);
                assert_eq!(s.solve(&[]), SolveResult::Sat);
            })
        });
    }
    group.finish();

    // DRAT instrumentation overhead on the same resolution-hard
    // instance: `off` is the plain solver, `on` logs every input,
    // learned clause, and deletion to the in-memory sink.
    let mut group = c.benchmark_group("proof_logging");
    let n = 7usize;
    group.bench_with_input(BenchmarkId::new("pigeonhole_off", n), &n, |b, &n| {
        b.iter(|| {
            let mut s = pigeonhole_in(Solver::new(), n, n - 1);
            assert_eq!(s.solve(&[]), SolveResult::Unsat);
        })
    });
    group.bench_with_input(BenchmarkId::new("pigeonhole_on", n), &n, |b, &n| {
        b.iter(|| {
            let mut empty = Solver::new();
            empty.enable_proof();
            let mut s = pigeonhole_in(empty, n, n - 1);
            assert_eq!(s.solve(&[]), SolveResult::Unsat);
            assert!(!s.take_proof().is_empty());
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sat
}
criterion_main!(benches);
