//! The portfolio engine: a resident pool of warm, diversified CDCL
//! workers.
//!
//! A [`Pool`] keeps `jobs` diversified CDCL workers alive across an
//! entire solving *session*. Consecutive queries ship only the clause
//! delta since the previous query (the caller's formula is monotone
//! under the activation-literal discipline — retraction is a unit
//! guard clause, also a delta), so every worker keeps its learned
//! clause database, VSIDS activities, phase saving, and previously
//! imported clauses warm from one query to the next. The SPSC sharing
//! mesh is likewise built once and reused: a clause exported during
//! query `q` may be imported during query `q+1`, which is sound for
//! exactly the same reason the warm learned-clause DB is — all
//! workers' formulas grow monotonically and stay identical. A one-shot
//! solve is simply a session of one query.
//!
//! Threading model: the coordinator (the thread driving the [`Pool`])
//! publishes jobs through a [`Gate`] and the resident worker threads
//! park between generations. `load` is *fire-and-forget* — the
//! coordinator returns as soon as the job is published and overlaps
//! its own work (e.g. the CEGIS synthesizer query) with the workers';
//! `solve` waits for all acknowledgements and collects per-query
//! reports. A worker whose job panics still acknowledges the
//! generation, carrying the panic message, and then exits; the
//! coordinator re-raises that message from its next call instead of
//! waiting on a worker that will never acknowledge again.
//!
//! Certification: with [`PortfolioConfig::certify`] every worker keeps
//! its `MemoryProofLogger` installed for the pool's lifetime and each
//! `solve` report drains the buffered steps into a per-query *segment*
//! (covering any loads since the previous solve plus this query's
//! derivations). Concatenating worker `i`'s segments in query
//! order reconstructs worker `i`'s complete stand-alone DRAT stream —
//! for a one-query pool the winner's single segment already is — so a
//! stitching checker upstream (see `fec-smt`) certifies warm answers
//! exactly as it certifies cold ones.
//!
//! In deterministic mode (and for `jobs == 1`) the workers live inline
//! on the calling thread and run in fixed round-robin conflict slices
//! per query — same seed ⇒ bit-identical winners, statistics, and
//! shipped-clause counts across runs, queries, and pool instances.

use crate::gate::Gate;
use crate::ring::{spsc, Consumer, Producer};
use crate::{diversify, PortfolioConfig};
use fec_sat::{Budget, Lit, MemoryProofLogger, ProofStep, SolveResult, Solver, SolverStats, Var};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Learned clauses with LBD at most this are shared with peers (glue
/// clauses are the ones worth shipping).
const SHARE_LBD_MAX: u32 = 6;

/// Capacity of each pairwise sharing ring (rounded up to a power of
/// two). Full rings drop clauses rather than block the exporter.
const RING_CAPACITY: usize = 2048;

/// A clause in flight between workers: literals plus LBD at export time.
type SharedClause = (Vec<Lit>, u32);

/// Per-worker ends of the sharing mesh: the producers that broadcast a
/// worker's exports to every peer, and the consumers that drain every
/// peer's exports into that worker.
type MeshEnds = (Vec<Producer<SharedClause>>, Vec<Consumer<SharedClause>>);

/// Aggregate statistics of one portfolio query.
#[derive(Clone, Debug, Default)]
pub struct PortfolioStats {
    /// Index of the worker that produced the answer (`None` on
    /// `Unknown`).
    pub winner: Option<usize>,
    /// Per-worker search statistics, indexed by worker id.
    pub workers: Vec<SolverStats>,
    /// Field-wise sum over all workers.
    pub total: SolverStats,
    /// Wall-clock time of the whole call.
    pub wall: Duration,
    /// Clauses physically transferred into workers for this query,
    /// summed over workers. Only the per-query delta ships, never the
    /// whole formula — the regression tests assert exactly this.
    pub shipped_clauses: u64,
}

/// What the coordinator publishes to the resident workers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum JobKind {
    /// Apply the clause delta, no solving. Fire-and-forget.
    Load,
    /// Apply the delta, then race a solve under the assumptions.
    Solve,
    /// Tear the pool down.
    Quit,
}

struct Job {
    kind: JobKind,
    /// Total variable count after this job's delta.
    num_vars: usize,
    /// Clause delta since the previous job.
    clauses: Vec<Vec<Lit>>,
    /// `Solve`: the query's assumptions.
    assumptions: Vec<Lit>,
    budget: Budget,
    /// The coordinator thread, unparked after every acknowledgement.
    waker: thread::Thread,
}

impl Job {
    fn new(kind: JobKind, num_vars: usize, clauses: Vec<Vec<Lit>>, assumptions: Vec<Lit>) -> Job {
        Job {
            kind,
            num_vars,
            clauses,
            assumptions,
            budget: Budget::unlimited(),
            waker: thread::current(),
        }
    }
}

/// What one worker reports for a solve query. The solver itself is not
/// `Send` (its proof logger may hold an `Rc`), so workers are built and
/// dropped inside their threads and only plain data crosses back.
struct WorkerReport {
    result: SolveResult,
    /// Delta since the worker's previous solve report.
    stats: SolverStats,
    model: Option<Vec<Option<bool>>>,
    failed_assumptions: Vec<Lit>,
    /// Everything the worker logged since its previous solve report.
    proof: Vec<ProofStep>,
}

/// A resident worker's acknowledgement of one generation.
enum Ack {
    /// A load or teardown job finished; its work rides
    /// into the next solve report's delta.
    Done,
    /// A solve job finished.
    Solved(WorkerReport),
    /// The job panicked with this message and the worker has exited.
    Panicked(String),
}

/// Result of one [`Pool::solve`] query.
pub struct PoolOutcome {
    /// The verdict (`Unknown` only if no worker finished in budget).
    pub result: SolveResult,
    /// On `Sat`: the winner's model, indexed by variable.
    pub model: Option<Vec<Option<bool>>>,
    /// On `Unsat` under assumptions: the winner's failed-assumption
    /// subset.
    pub failed_assumptions: Vec<Lit>,
    /// Per-query statistics: `workers` and `total` are *deltas* since
    /// each worker's previous solve report (so they cover this query
    /// plus any loads in between), and `shipped_clauses`
    /// counts only the delta physically transferred — the O(delta)
    /// guarantee the regression tests pin down.
    pub stats: PortfolioStats,
    /// With [`PortfolioConfig::certify`]: one DRAT segment per worker,
    /// containing everything that worker logged since its previous
    /// solve report. Empty `Vec` per worker when not certifying.
    pub proof_segments: Vec<Vec<ProofStep>>,
}

impl PoolOutcome {
    /// The winner's assignment of `v` (`None` when unassigned or when
    /// the result was not `Sat`).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.model.as_ref().and_then(|m| m[v.index()])
    }
}

/// A resident warm portfolio: `jobs` diversified workers that persist
/// across queries, fed per-query clause deltas.
///
/// ```
/// use fec_portfolio::{Pool, PortfolioConfig};
/// use fec_sat::{Budget, Lit, SolveResult, Var};
///
/// let v = |i| Var::from_index(i);
/// let mut pool = Pool::new(&PortfolioConfig::with_jobs(4));
/// let clauses = vec![
///     vec![Lit::pos(v(0)), Lit::pos(v(1))],
///     vec![Lit::neg(v(0)), Lit::pos(v(1))],
/// ];
/// let out = pool.solve(2, clauses, Vec::new(), Budget::unlimited());
/// assert_eq!(out.result, SolveResult::Sat);
/// assert_eq!(out.value(v(1)), Some(true));
/// // the next query ships only its delta to the warm workers
/// let out = pool.solve(2, vec![vec![Lit::neg(v(1))]], Vec::new(), Budget::unlimited());
/// assert_eq!(out.result, SolveResult::Unsat);
/// ```
pub struct Pool {
    inner: PoolInner,
    /// Queries answered so far (drives trace events).
    queries: u64,
}

enum PoolInner {
    /// `jobs == 1` or deterministic mode: workers live on the calling
    /// thread, round-robin conflict slices per query.
    Inline(InlinePool),
    /// Racing mode: resident worker threads coordinated by a [`Gate`].
    Threaded(ThreadedPool),
}

impl Pool {
    /// Builds the pool: workers are constructed (and, in racing mode,
    /// their threads spawned and parked) immediately, with an empty
    /// formula.
    pub fn new(config: &PortfolioConfig) -> Pool {
        let n = config.jobs.max(1);
        let inner = if n == 1 || config.deterministic {
            PoolInner::Inline(InlinePool::new(n, config))
        } else {
            PoolInner::Threaded(ThreadedPool::new(n, config))
        };
        Pool { inner, queries: 0 }
    }

    /// Number of resident workers.
    pub fn jobs(&self) -> usize {
        match &self.inner {
            PoolInner::Inline(p) => p.workers.len(),
            PoolInner::Threaded(p) => p.gate.workers(),
        }
    }

    /// Ships a clause delta to every worker without solving.
    /// Fire-and-forget in racing mode: returns once published.
    pub fn load(&mut self, num_vars: usize, clauses: Vec<Vec<Lit>>) {
        match &mut self.inner {
            PoolInner::Inline(p) => p.load(num_vars, &clauses),
            PoolInner::Threaded(p) => {
                p.publish(Job::new(JobKind::Load, num_vars, clauses, Vec::new()))
            }
        }
    }

    /// Ships the clause delta and races the warm workers on the query.
    ///
    /// Panics with a worker's panic message if that worker panicked,
    /// in this query or in an earlier fire-and-forget job.
    pub fn solve(
        &mut self,
        num_vars: usize,
        clauses: Vec<Vec<Lit>>,
        assumptions: Vec<Lit>,
        budget: Budget,
    ) -> PoolOutcome {
        let start = Instant::now();
        let n = self.jobs();
        let shipped = (clauses.len() * n) as u64;
        self.queries += 1;
        let _sp = fec_trace::span!(
            fec_trace::Level::Trace,
            "portfolio.pool.solve",
            "jobs" => n,
            "query" => self.queries,
            "delta_clauses" => clauses.len(),
            "vars" => num_vars,
        );
        let (reports, winner) = match &mut self.inner {
            PoolInner::Inline(p) => p.solve(num_vars, &clauses, &assumptions, budget),
            PoolInner::Threaded(p) => p.solve(Job {
                budget,
                ..Job::new(JobKind::Solve, num_vars, clauses, assumptions)
            }),
        };
        let out = assemble(reports, winner, shipped, start.elapsed());
        if fec_trace::enabled(fec_trace::Level::Debug) {
            fec_trace::counter!(
                fec_trace::Level::Debug,
                "portfolio.pool.shipped",
                out.stats.shipped_clauses
            );
            fec_trace::event!(
                fec_trace::Level::Debug,
                "portfolio.pool.query",
                "query" => self.queries,
                "result" => match out.result {
                    SolveResult::Sat => "sat",
                    SolveResult::Unsat => "unsat",
                    SolveResult::Unknown => "unknown",
                },
                "winner" => out.stats.winner.map_or(-1i64, |w| w as i64),
                "conflicts" => out.stats.total.conflicts,
                "shipped" => out.stats.shipped_clauses,
                "wall_us" => out.stats.wall.as_micros() as u64,
            );
        }
        out
    }
}

/// Folds per-query worker reports into the outcome. The winner is
/// named explicitly: every report may carry a proof segment, so "has a
/// proof" does not identify it.
fn assemble(
    reports: Vec<WorkerReport>,
    winner: Option<usize>,
    shipped: u64,
    wall: Duration,
) -> PoolOutcome {
    let mut stats = PortfolioStats {
        winner,
        wall,
        shipped_clauses: shipped,
        ..PortfolioStats::default()
    };
    let mut result = SolveResult::Unknown;
    let mut model = None;
    let mut failed = Vec::new();
    let mut segments = Vec::with_capacity(reports.len());
    for (i, r) in reports.into_iter().enumerate() {
        stats.total.merge(&r.stats);
        stats.workers.push(r.stats);
        segments.push(r.proof);
        if Some(i) == winner {
            result = r.result;
            model = r.model;
            failed = r.failed_assumptions;
        }
    }
    PoolOutcome {
        result,
        model,
        failed_assumptions: failed,
        stats,
        proof_segments: segments,
    }
}

// ---------------------------------------------------------------------
// workers and the sharing mesh
// ---------------------------------------------------------------------

/// Build the full N·(N−1) SPSC ring mesh (one ring per ordered pair of
/// distinct workers) and regroup the ends per worker. With `n` workers
/// the returned vector has `n` entries; entry `i` holds worker `i`'s
/// producers (feeding each peer) and consumers (fed by each peer). A
/// lone worker gets empty ends.
fn ring_mesh(n: usize) -> Vec<MeshEnds> {
    let mut producers: Vec<Vec<Producer<SharedClause>>> = (0..n).map(|_| Vec::new()).collect();
    let mut consumers: Vec<Vec<Consumer<SharedClause>>> = (0..n).map(|_| Vec::new()).collect();
    for (i, prods) in producers.iter_mut().enumerate() {
        for (j, cons) in consumers.iter_mut().enumerate() {
            if i != j {
                let (p, c) = spsc(RING_CAPACITY);
                prods.push(p);
                cons.push(c);
            }
        }
    }
    producers.into_iter().zip(consumers).collect()
}

/// One resident worker: its solver, its proof buffer when certifying,
/// and the statistics totals already reported.
struct Worker {
    solver: Solver,
    logger: Option<MemoryProofLogger>,
    /// Totals already reported by previous solve calls, so each report
    /// is a per-query delta.
    reported: SolverStats,
}

impl Worker {
    /// Builds diversified worker `i` over an empty formula and, when it
    /// has peers, wires it into the sharing mesh through `ends`.
    fn new(i: usize, config: &PortfolioConfig, (prods, cons): MeshEnds) -> Worker {
        let mut solver = Solver::with_config(diversify(i, config.seed));
        // installed before any clause arrives, so the stream records the
        // whole input formula
        let logger = config.certify.then(|| {
            let l = MemoryProofLogger::new();
            solver.set_proof_logger(Box::new(l.clone()));
            l
        });
        if !prods.is_empty() {
            solver.set_export_hook(
                Box::new(move |lits, lbd| {
                    // share-traffic profile: what LBD quality actually
                    // crosses the mesh
                    fec_trace::hist!(fec_trace::Level::Debug, "portfolio.share.lbd", lbd);
                    for p in &prods {
                        p.push((lits.to_vec(), lbd));
                    }
                }),
                SHARE_LBD_MAX,
            );
            solver.set_import_hook(Box::new(move || {
                let mut batch = Vec::new();
                for c in &cons {
                    batch.extend(c.drain());
                }
                observe_import(i, batch.len());
                batch
            }));
        }
        Worker {
            solver,
            logger,
            reported: SolverStats::default(),
        }
    }

    /// Grows the variable space and applies the clause delta.
    fn load(&mut self, num_vars: usize, clauses: &[Vec<Lit>]) {
        while self.solver.num_vars() < num_vars {
            self.solver.new_var();
        }
        for c in clauses {
            if !self.solver.add_clause(c) {
                break; // formula refuted at level 0; solver answers Unsat from here
            }
        }
    }

    /// This query's report: statistics and proof steps since the
    /// previous report, plus — for the winner only — the model or the
    /// failed-assumption subset.
    fn report(&mut self, num_vars: usize, result: SolveResult, won: bool) -> WorkerReport {
        let s = &self.solver;
        let totals = s.stats();
        let stats = totals.delta_since(&self.reported);
        self.reported = totals;
        WorkerReport {
            result,
            stats,
            model: (won && result == SolveResult::Sat)
                .then(|| (0..num_vars).map(|v| s.value(Var::from_index(v))).collect()),
            failed_assumptions: if won && result == SolveResult::Unsat {
                s.failed_assumptions().to_vec()
            } else {
                Vec::new()
            },
            // every worker ships its segment every query — the stitched
            // per-worker streams upstream need losers' derivations too
            // (their next-query imports may depend on them)
            proof: self
                .logger
                .as_ref()
                .map_or_else(Vec::new, |l| l.take_steps()),
        }
    }
}

/// Records one import-hook drain for worker `i`: the batch size into
/// the share-traffic histogram and the per-worker backlog gauge (the
/// drain happens at a restart boundary, so the batch size *is* the
/// queue depth that built up since the previous restart).
fn observe_import(i: usize, batch: usize) {
    if fec_trace::enabled(fec_trace::Level::Debug) {
        fec_trace::hist(
            fec_trace::Level::Debug,
            "portfolio.import.batch",
            batch as u64,
        );
        fec_trace::gauge(
            fec_trace::Level::Debug,
            &format!("portfolio.w{i}.queue_depth"),
            batch as i64,
        );
    }
}

/// One `portfolio.worker.done` event per worker with its full effort
/// breakdown — the per-worker view that makes sub-1.0× speedups
/// diagnosable (who burned the conflicts, who idled, who lost the
/// race after how long).
fn emit_worker_done(
    i: usize,
    stats: &SolverStats,
    result: SolveResult,
    won: bool,
    started: Instant,
) {
    fec_trace::event!(
        fec_trace::Level::Debug,
        "portfolio.worker.done",
        "worker" => i,
        "result" => match result {
            SolveResult::Sat => "sat",
            SolveResult::Unsat => "unsat",
            SolveResult::Unknown => "cancelled",
        },
        "won" => won,
        "conflicts" => stats.conflicts,
        "propagations" => stats.propagations,
        "restarts" => stats.restarts,
        "exported" => stats.exported_clauses,
        "imported" => stats.imported_clauses,
        "rejected" => stats.rejected_clauses,
        "elapsed_us" => started.elapsed().as_micros() as u64,
    );
}

// ---------------------------------------------------------------------
// inline (deterministic / single-worker) pool
// ---------------------------------------------------------------------

struct InlinePool {
    workers: Vec<Worker>,
    slice: u64,
}

impl InlinePool {
    fn new(n: usize, config: &PortfolioConfig) -> InlinePool {
        InlinePool {
            workers: ring_mesh(n)
                .into_iter()
                .enumerate()
                .map(|(i, ends)| Worker::new(i, config, ends))
                .collect(),
            slice: config.det_slice_conflicts.max(1),
        }
    }

    fn load(&mut self, num_vars: usize, clauses: &[Vec<Lit>]) {
        for w in &mut self.workers {
            w.load(num_vars, clauses);
        }
    }

    fn solve(
        &mut self,
        num_vars: usize,
        clauses: &[Vec<Lit>],
        assumptions: &[Lit],
        budget: Budget,
    ) -> (Vec<WorkerReport>, Option<usize>) {
        let start = Instant::now();
        self.load(num_vars, clauses);
        let n = self.workers.len();
        let mut verdict: Option<(usize, SolveResult)> = None;
        if n == 1 {
            let r = self.workers[0]
                .solver
                .solve_with_budget(assumptions, budget);
            if r != SolveResult::Unknown {
                verdict = Some((0, r));
            }
        } else {
            // fixed round-robin conflict slices with a fresh per-query
            // conflict ledger; wall-clock only enters through the
            // overall timeout, checked *between* epochs
            let mut spent = vec![0u64; n];
            'epochs: loop {
                let mut any_alive = false;
                for (i, w) in self.workers.iter_mut().enumerate() {
                    let remaining = budget.max_conflicts.saturating_sub(spent[i]);
                    if remaining == 0 {
                        continue;
                    }
                    any_alive = true;
                    let before = w.solver.stats().conflicts;
                    let r = w.solver.solve_with_budget(
                        assumptions,
                        Budget {
                            max_conflicts: remaining.min(self.slice),
                            timeout: None,
                        },
                    );
                    spent[i] += w.solver.stats().conflicts - before;
                    if r != SolveResult::Unknown {
                        verdict = Some((i, r));
                        break 'epochs;
                    }
                }
                if !any_alive {
                    break; // every worker exhausted its conflict budget
                }
                if let Some(t) = budget.timeout {
                    if start.elapsed() >= t {
                        break;
                    }
                }
            }
        }
        let reports = self
            .workers
            .iter_mut()
            .enumerate()
            .map(|(i, w)| match verdict {
                Some((v, r)) if v == i => w.report(num_vars, r, true),
                _ => w.report(num_vars, SolveResult::Unknown, false),
            })
            .collect();
        (reports, verdict.map(|(w, _)| w))
    }
}

// ---------------------------------------------------------------------
// threaded (racing) pool
// ---------------------------------------------------------------------

struct ThreadedPool {
    gate: Arc<Gate<Job, Ack>>,
    handles: Vec<thread::JoinHandle<()>>,
    /// The first worker panic seen. Once set the pool is dead: the
    /// panicked worker has exited, so every later call re-raises this.
    panicked: Option<String>,
}

impl ThreadedPool {
    fn new(n: usize, config: &PortfolioConfig) -> ThreadedPool {
        let gate = Arc::new(Gate::new(n));
        let handles = ring_mesh(n)
            .into_iter()
            .enumerate()
            .map(|(i, ends)| {
                let gate = Arc::clone(&gate);
                let config = *config;
                thread::spawn(move || worker_main(i, &gate, &config, ends))
            })
            .collect();
        ThreadedPool {
            gate,
            handles,
            panicked: None,
        }
    }

    /// Settles the previous generation (if any), then publishes `job`.
    /// Returns without waiting for the new generation — callers that
    /// need the reports call [`ThreadedPool::settle`] themselves.
    fn publish(&mut self, job: Job) {
        self.settle();
        self.launch(job);
    }

    /// Publishes `job` and wakes every worker. The gate must be idle.
    fn launch(&self, job: Job) {
        self.gate.publish(job);
        for h in &self.handles {
            h.thread().unpark();
        }
    }

    fn wait_idle(&self) {
        // workers unpark us via the job's waker after each ack; the
        // timeout is insurance against a stale waker (the Pool moved
        // threads between calls)
        while !self.gate.idle() {
            thread::park_timeout(Duration::from_millis(1));
        }
    }

    /// Waits until the in-flight generation is acknowledged and takes
    /// its acks, re-raising a worker panic on the coordinator.
    fn settle(&mut self) -> Vec<Option<Ack>> {
        if self.panicked.is_none() {
            self.wait_idle();
            let acks = self.gate.take_reports();
            self.panicked = acks.iter().enumerate().find_map(|(i, a)| match a {
                Some(Ack::Panicked(msg)) => Some(format!("portfolio worker {i} panicked: {msg}")),
                _ => None,
            });
            if self.panicked.is_none() {
                return acks;
            }
        }
        panic!("{}", self.panicked.as_deref().unwrap_or_default());
    }

    fn solve(&mut self, job: Job) -> (Vec<WorkerReport>, Option<usize>) {
        self.publish(job);
        let reports = self
            .settle()
            .into_iter()
            .map(|a| match a {
                Some(Ack::Solved(r)) => r,
                _ => unreachable!("every worker acks a solve generation with its report"),
            })
            .collect();
        (reports, self.gate.winner())
    }
}

impl Drop for ThreadedPool {
    fn drop(&mut self) {
        // no settle() here — Drop may run while a worker's panic unwinds
        // the coordinator. Every generation is fully acknowledged (a
        // panicking worker acks before it exits), so the teardown
        // publish cannot block, and the joins wait only on live
        // workers: panicked ones have already returned.
        self.wait_idle();
        self.launch(Job::new(JobKind::Quit, 0, Vec::new(), Vec::new()));
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Body of one resident worker thread.
fn worker_main(i: usize, gate: &Gate<Job, Ack>, config: &PortfolioConfig, ends: MeshEnds) {
    fec_trace::set_thread_name(format!("pool-worker-{i}"));
    let mut w = Worker::new(i, config, ends);
    w.solver.set_stop_flag(gate.stop_handle());
    let mut last_gen = 0usize;
    loop {
        let Some(gen) = gate.poll(last_gen) else {
            thread::park();
            continue;
        };
        last_gen = gen;
        let (kind, waker) = gate.with_job(|job| (job.kind, job.waker.clone()));
        // a panicking job still acks, carrying its message, and the
        // worker exits: the coordinator re-raises the panic instead of
        // waiting on an ack that would never come
        let ack = panic::catch_unwind(AssertUnwindSafe(|| {
            gate.with_job(|job| run_job(i, &mut w, gate, job))
        }))
        .unwrap_or_else(|payload| Ack::Panicked(panic_message(payload.as_ref())));
        let exit = kind == JobKind::Quit || matches!(ack, Ack::Panicked(_));
        gate.submit(i, ack);
        waker.unpark();
        if exit {
            break;
        }
    }
}

/// Runs one published job on worker `i`.
fn run_job(i: usize, w: &mut Worker, gate: &Gate<Job, Ack>, job: &Job) -> Ack {
    match job.kind {
        JobKind::Quit => Ack::Done,
        JobKind::Load => {
            w.load(job.num_vars, &job.clauses);
            Ack::Done
        }
        JobKind::Solve => {
            w.load(job.num_vars, &job.clauses);
            let _wsp = fec_trace::span!(
                fec_trace::Level::Trace,
                "portfolio.pool.worker",
                "worker" => i,
            );
            let started = Instant::now();
            let result = w.solver.solve_with_budget(&job.assumptions, job.budget);
            // first verdict wins this generation's election and cancels
            // the rest; losers keep their stats but extract nothing
            let won = result != SolveResult::Unknown && gate.try_win(i);
            if won {
                fec_trace::event!(
                    fec_trace::Level::Debug,
                    "portfolio.win",
                    "worker" => i,
                    "conflicts" => w.solver.stats().conflicts,
                );
            }
            let rep = w.report(job.num_vars, result, won);
            emit_worker_done(i, &rep.stats, result, won, started);
            Ack::Solved(rep)
        }
    }
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortfolioConfig;
    use std::sync::mpsc;

    fn lit(i: i32) -> Lit {
        let v = Var::from_index((i.unsigned_abs() - 1) as usize);
        if i > 0 {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    fn cnf(clauses: &[&[i32]]) -> Vec<Vec<Lit>> {
        clauses
            .iter()
            .map(|c| c.iter().map(|&l| lit(l)).collect())
            .collect()
    }

    fn workout(config: &PortfolioConfig) {
        let mut pool = Pool::new(config);
        // query 1: satisfiable 3-var formula
        let out = pool.solve(
            3,
            cnf(&[&[1, 2], &[-1, 2], &[-2, 3]]),
            Vec::new(),
            Budget::unlimited(),
        );
        assert_eq!(out.result, SolveResult::Sat);
        assert_eq!(out.value(Var::from_index(1)), Some(true));
        assert_eq!(out.stats.shipped_clauses, (3 * pool.jobs()) as u64);
        // query 2: only the delta ships; formula forced UNSAT
        let out = pool.solve(
            3,
            cnf(&[&[-2], &[2, -3], &[3]]),
            Vec::new(),
            Budget::unlimited(),
        );
        assert_eq!(out.result, SolveResult::Unsat);
        assert_eq!(out.stats.shipped_clauses, (3 * pool.jobs()) as u64);
        // per-query deltas: each query cost each worker at most one
        // solve call (threaded) — never the session total
        for w in &out.stats.workers {
            assert!(w.solve_calls <= 4, "delta leaked cumulative totals");
        }
    }

    #[test]
    fn warm_pool_single_worker() {
        workout(&PortfolioConfig::with_jobs(1));
    }

    #[test]
    fn warm_pool_threaded() {
        workout(&PortfolioConfig::with_jobs(3));
    }

    #[test]
    fn warm_pool_deterministic() {
        let cfg = PortfolioConfig {
            deterministic: true,
            det_slice_conflicts: 64,
            ..PortfolioConfig::with_jobs(3)
        };
        workout(&cfg);
    }

    #[test]
    fn warm_assumption_session() {
        // the CEGIS verifier shape: one load, many assumption-only
        // solves — queries after the first ship zero clauses
        let mut pool = Pool::new(&PortfolioConfig::with_jobs(2));
        pool.load(4, cnf(&[&[1, 2, 3, 4], &[-1, -2], &[-3, -4]]));
        let mut shipped = 0;
        for i in 0..3 {
            let out = pool.solve(4, Vec::new(), vec![lit(i + 1)], Budget::unlimited());
            assert_eq!(out.result, SolveResult::Sat, "assuming {} is sat", i + 1);
            shipped += out.stats.shipped_clauses;
        }
        assert_eq!(shipped, 0, "assumption-only queries shipped clauses");
        let out = pool.solve(
            4,
            cnf(&[&[-1], &[-2], &[-3], &[-4]]),
            Vec::new(),
            Budget::unlimited(),
        );
        assert_eq!(out.result, SolveResult::Unsat);
        assert_eq!(out.stats.shipped_clauses, 8);
    }

    #[test]
    fn certified_segments_stitch_per_worker() {
        let cfg = PortfolioConfig {
            certify: true,
            ..PortfolioConfig::with_jobs(2)
        };
        let mut pool = Pool::new(&cfg);
        let q1 = pool.solve(
            2,
            cnf(&[&[1, 2], &[-1, 2]]),
            Vec::new(),
            Budget::unlimited(),
        );
        assert_eq!(q1.result, SolveResult::Sat);
        assert_eq!(q1.proof_segments.len(), 2);
        let q2 = pool.solve(2, cnf(&[&[-2]]), Vec::new(), Budget::unlimited());
        assert_eq!(q2.result, SolveResult::Unsat);
        let w = q2.stats.winner.expect("unsat query has a winner");
        // stitch the winner's two segments and replay them through the
        // independent checker: the warm answer stays certifiable
        let mut checker = fec_drat::Checker::new();
        for seg in [&q1.proof_segments[w], &q2.proof_segments[w]] {
            for step in seg.iter() {
                checker.process(step).expect("stitched stream checks");
            }
        }
        assert!(checker.is_refuted(), "stitched stream proves UNSAT");
    }

    #[test]
    fn worker_panic_surfaces_instead_of_hanging() {
        // a clause naming variable 4 in a 2-variable query makes every
        // worker's add_clause index out of range on its own thread; the
        // coordinator must re-raise that panic, and dropping the pool
        // during the unwind must not wait on the dead workers. The call
        // runs on a helper thread so a hang fails the test instead of
        // stalling the suite.
        let (tx, rx) = mpsc::channel();
        let helper = thread::spawn(move || {
            let outcome = panic::catch_unwind(|| {
                let mut pool = Pool::new(&PortfolioConfig::with_jobs(2));
                pool.solve(2, cnf(&[&[5]]), Vec::new(), Budget::unlimited())
                    .result
            });
            let _ = tx.send(outcome.map_err(|p| panic_message(p.as_ref())));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("pool.solve hung on a panicked worker");
        helper.join().expect("helper thread caught the panic");
        let msg = outcome.expect_err("a clause outside the variable space must panic");
        assert!(msg.contains("portfolio worker"), "unexpected panic: {msg}");
    }
}
