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
//! The pool has two modes:
//!
//! - **One worker** lives inline on the calling thread. Worker 0 runs
//!   the stock configuration, so this *is* the plain solver: each
//!   clause goes straight into it as it is added, each query is one
//!   `solve_with_budget` call, and it emits no `portfolio.*` trace
//!   records.
//! - **N ≥ 2 workers** are resident threads. The coordinator (the
//!   thread driving the [`Pool`]) publishes jobs through a [`Gate`] and
//!   the workers park between generations. Clauses buffer on the
//!   coordinator and ship in batches: a load is *fire-and-forget* — the
//!   coordinator returns as soon as the job is published and overlaps
//!   its own work (e.g. encoding, or the CEGIS synthesizer query) with
//!   the workers'; `solve` ships the rest, races the workers, waits for
//!   all acknowledgements and collects per-query reports. A worker
//!   whose job panics still acknowledges the generation, carrying the
//!   panic message, and then exits; the coordinator re-raises that
//!   message from its next call instead of waiting on a worker that
//!   will never acknowledge again.
//!
//! Certification: with [`PortfolioConfig::certify`] every worker keeps
//! its `MemoryProofLogger` installed for the pool's lifetime and each
//! `solve` report drains the buffered steps into a per-query *segment*
//! (covering every clause added since the previous solve plus this
//! query's derivations). Concatenating worker `i`'s segments in query
//! order reconstructs worker `i`'s complete stand-alone DRAT stream —
//! for a one-query pool the winner's single segment already is — so a
//! stitching checker upstream (see `fec-smt`) certifies warm answers
//! exactly as it certifies cold ones.

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

/// Clauses added to a racing pool ship to its workers in batches of
/// this size, overlapping encoding with worker-side clause ingestion.
const PRELOAD_BATCH: usize = 4096;

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
    /// Per-worker search statistics of racing workers, indexed by
    /// worker id; empty for the one inline worker, whose statistics
    /// are `total`.
    pub workers: Vec<SolverStats>,
    /// Field-wise sum over all workers.
    pub total: SolverStats,
    /// Wall-clock time of the whole call.
    pub wall: Duration,
    /// Clauses transferred into workers with this query, summed over
    /// workers. Only the per-query delta ships, never the whole
    /// formula — the regression tests assert exactly this. Batches a
    /// racing pool shipped ahead of the query are not counted.
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
    /// A racing winner's `Sat` model, indexed by variable.
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

/// Result of one [`Pool::solve`] query. The model of a `Sat` answer
/// stays in the pool: read it with [`Pool::value`].
pub struct PoolOutcome {
    /// The verdict (`Unknown` only if no worker finished in budget).
    pub result: SolveResult,
    /// On `Unsat` under assumptions: the winner's failed-assumption
    /// subset.
    pub failed_assumptions: Vec<Lit>,
    /// Per-query statistics: `workers` and `total` are *deltas* since
    /// each worker's previous solve report (so they cover this query
    /// plus any loads in between), and `shipped_clauses`
    /// counts only the delta transferred with the query — the O(delta)
    /// guarantee the regression tests pin down.
    pub stats: PortfolioStats,
    /// With [`PortfolioConfig::certify`]: one DRAT segment per worker,
    /// containing everything that worker logged since its previous
    /// solve report. Empty when not certifying.
    pub proof_segments: Vec<Vec<ProofStep>>,
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
/// let out = pool.solve(2, clauses, &[], Budget::unlimited());
/// assert_eq!(out.result, SolveResult::Sat);
/// assert_eq!(pool.value(v(1)), Some(true));
/// // the next query ships only its delta to the warm workers
/// let out = pool.solve(2, vec![vec![Lit::neg(v(1))]], &[], Budget::unlimited());
/// assert_eq!(out.result, SolveResult::Unsat);
/// ```
pub struct Pool {
    inner: PoolInner,
}

enum PoolInner {
    /// One worker on the calling thread: the plain solver.
    Inline(Box<Worker>),
    /// N ≥ 2 resident worker threads racing each query.
    Threaded(ThreadedPool),
}

impl Pool {
    /// Builds the pool over an empty formula: one inline worker for
    /// `jobs <= 1`, otherwise `jobs` worker threads, spawned and parked
    /// immediately.
    pub fn new(config: &PortfolioConfig) -> Pool {
        let inner = if config.jobs <= 1 {
            PoolInner::Inline(Box::new(Worker::new(0, config, (Vec::new(), Vec::new()))))
        } else {
            PoolInner::Threaded(ThreadedPool::new(config.jobs, config))
        };
        Pool { inner }
    }

    /// Number of resident workers.
    pub fn jobs(&self) -> usize {
        match &self.inner {
            PoolInner::Inline(_) => 1,
            PoolInner::Threaded(p) => p.gate.workers(),
        }
    }

    /// Adds one clause over the first `num_vars` variables. The inline
    /// worker takes it at once; racing workers receive clauses in
    /// fire-and-forget batches, and the rest with the next query.
    pub fn add_clause(&mut self, num_vars: usize, lits: &[Lit]) {
        match &mut self.inner {
            PoolInner::Inline(w) => {
                w.grow(num_vars);
                w.solver.add_clause(lits);
            }
            PoolInner::Threaded(p) => {
                p.pending.push(lits.to_vec());
                if p.pending.len() >= PRELOAD_BATCH {
                    p.flush(num_vars);
                }
            }
        }
    }

    /// Ships a clause delta to every worker without solving.
    /// Fire-and-forget in racing mode: returns once published.
    pub fn load(&mut self, num_vars: usize, clauses: Vec<Vec<Lit>>) {
        match &mut self.inner {
            PoolInner::Inline(w) => w.load(num_vars, &clauses),
            PoolInner::Threaded(p) => {
                p.pending.extend(clauses);
                p.flush(num_vars);
            }
        }
    }

    /// Ships the clause delta and answers the query under
    /// `assumptions`: the inline worker solves it, racing workers race
    /// for it.
    ///
    /// Panics with a worker's panic message if that worker panicked,
    /// in this query or in an earlier fire-and-forget job.
    pub fn solve(
        &mut self,
        num_vars: usize,
        clauses: Vec<Vec<Lit>>,
        assumptions: &[Lit],
        budget: Budget,
    ) -> PoolOutcome {
        match &mut self.inner {
            PoolInner::Inline(w) => {
                // no heap allocation per query unless certifying: on the
                // ~10^5 tiny queries of a CEGIS run, a few short-lived
                // allocations per query fragment the heap enough to
                // raise peak RSS by ~6%
                let start = Instant::now();
                w.load(num_vars, &clauses);
                let result = w.solver.solve_with_budget(assumptions, budget);
                let won = result != SolveResult::Unknown;
                let report = w.report(result, won);
                PoolOutcome {
                    result,
                    failed_assumptions: report.failed_assumptions,
                    stats: PortfolioStats {
                        winner: won.then_some(0),
                        workers: Vec::new(),
                        total: report.stats,
                        wall: start.elapsed(),
                        shipped_clauses: clauses.len() as u64,
                    },
                    proof_segments: if w.logger.is_some() {
                        vec![report.proof]
                    } else {
                        Vec::new()
                    },
                }
            }
            PoolInner::Threaded(p) => p.solve(num_vars, clauses, assumptions, budget),
        }
    }

    /// The value of `v` in the most recent `Sat` answer's model (the
    /// winner's, when workers race). `None` before any `Sat` answer, or
    /// if `v` did not exist then.
    pub fn value(&self, v: Var) -> Option<bool> {
        match &self.inner {
            PoolInner::Inline(w) => w.solver.value(v),
            PoolInner::Threaded(p) => p.model.get(v.index()).copied().flatten(),
        }
    }
}

/// Folds per-query worker reports into the outcome. The winner is
/// named explicitly: every report may carry a proof segment, so "has a
/// proof" does not identify it.
fn assemble(
    reports: Vec<WorkerReport>,
    winner: Option<usize>,
    certify: bool,
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
    let mut failed = Vec::new();
    let mut segments = Vec::new();
    for (i, r) in reports.into_iter().enumerate() {
        stats.total.merge(&r.stats);
        stats.workers.push(r.stats);
        if certify {
            segments.push(r.proof);
        }
        if Some(i) == winner {
            result = r.result;
            failed = r.failed_assumptions;
        }
    }
    PoolOutcome {
        result,
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
/// producers (feeding each peer) and consumers (fed by each peer).
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

    /// Grows the variable space to `num_vars`.
    fn grow(&mut self, num_vars: usize) {
        while self.solver.num_vars() < num_vars {
            self.solver.new_var();
        }
    }

    /// Grows the variable space and applies the clause delta.
    fn load(&mut self, num_vars: usize, clauses: &[Vec<Lit>]) {
        self.grow(num_vars);
        for c in clauses {
            if !self.solver.add_clause(c) {
                break; // formula refuted at level 0; solver answers Unsat from here
            }
        }
    }

    /// This query's report: statistics and proof steps since the
    /// previous report, plus — for the winner only — the
    /// failed-assumption subset.
    fn report(&mut self, result: SolveResult, won: bool) -> WorkerReport {
        let totals = self.solver.stats();
        let stats = totals.delta_since(&self.reported);
        self.reported = totals;
        WorkerReport {
            result,
            stats,
            model: None,
            failed_assumptions: if won && result == SolveResult::Unsat {
                self.solver.failed_assumptions().to_vec()
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
// threaded (racing) pool
// ---------------------------------------------------------------------

struct ThreadedPool {
    gate: Arc<Gate<Job, Ack>>,
    handles: Vec<thread::JoinHandle<()>>,
    /// The first worker panic seen. Once set the pool is dead: the
    /// panicked worker has exited, so every later call re-raises this.
    panicked: Option<String>,
    /// Clauses added since the last shipment: the next job's delta.
    pending: Vec<Vec<Lit>>,
    /// The winner's model of the most recent `Sat` answer.
    model: Vec<Option<bool>>,
    /// Whether the workers log DRAT streams.
    certify: bool,
    /// Queries answered so far (drives trace events).
    queries: u64,
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
            pending: Vec::new(),
            model: Vec::new(),
            certify: config.certify,
            queries: 0,
        }
    }

    /// Ships the pending clauses as a fire-and-forget load.
    fn flush(&mut self, num_vars: usize) {
        let clauses = std::mem::take(&mut self.pending);
        self.publish(Job::new(JobKind::Load, num_vars, clauses, Vec::new()));
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

    fn solve(
        &mut self,
        num_vars: usize,
        clauses: Vec<Vec<Lit>>,
        assumptions: &[Lit],
        budget: Budget,
    ) -> PoolOutcome {
        let start = Instant::now();
        let n = self.gate.workers();
        let mut delta = std::mem::take(&mut self.pending);
        delta.extend(clauses);
        let shipped = (delta.len() * n) as u64;
        self.queries += 1;
        let _sp = fec_trace::span!(
            fec_trace::Level::Trace,
            "portfolio.pool.solve",
            "jobs" => n,
            "query" => self.queries,
            "delta_clauses" => delta.len(),
            "vars" => num_vars,
        );
        self.publish(Job {
            budget,
            ..Job::new(JobKind::Solve, num_vars, delta, assumptions.to_vec())
        });
        let mut reports: Vec<WorkerReport> = self
            .settle()
            .into_iter()
            .map(|a| match a {
                Some(Ack::Solved(r)) => r,
                _ => unreachable!("every worker acks a solve generation with its report"),
            })
            .collect();
        let winner = self.gate.winner();
        if let Some(model) = winner.and_then(|w| reports[w].model.take()) {
            self.model = model;
        }
        let out = assemble(reports, winner, self.certify, shipped, start.elapsed());
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
            let mut rep = w.report(result, won);
            if won && result == SolveResult::Sat {
                let s = &w.solver;
                rep.model = Some(
                    (0..job.num_vars)
                        .map(|v| s.value(Var::from_index(v)))
                        .collect(),
                );
            }
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
            &[],
            Budget::unlimited(),
        );
        assert_eq!(out.result, SolveResult::Sat);
        assert_eq!(pool.value(Var::from_index(1)), Some(true));
        assert_eq!(out.stats.shipped_clauses, (3 * pool.jobs()) as u64);
        // query 2: only the delta ships; formula forced UNSAT
        let out = pool.solve(3, cnf(&[&[-2], &[2, -3], &[3]]), &[], Budget::unlimited());
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
    fn warm_assumption_session() {
        // the CEGIS verifier shape: one load, many assumption-only
        // solves — queries after the first ship zero clauses
        let mut pool = Pool::new(&PortfolioConfig::with_jobs(2));
        pool.load(4, cnf(&[&[1, 2, 3, 4], &[-1, -2], &[-3, -4]]));
        let mut shipped = 0;
        for i in 0..3 {
            let out = pool.solve(4, Vec::new(), &[lit(i + 1)], Budget::unlimited());
            assert_eq!(out.result, SolveResult::Sat, "assuming {} is sat", i + 1);
            shipped += out.stats.shipped_clauses;
        }
        assert_eq!(shipped, 0, "assumption-only queries shipped clauses");
        let out = pool.solve(
            4,
            cnf(&[&[-1], &[-2], &[-3], &[-4]]),
            &[],
            Budget::unlimited(),
        );
        assert_eq!(out.result, SolveResult::Unsat);
        assert_eq!(out.stats.shipped_clauses, 8);
    }

    #[test]
    fn added_clauses_stream_to_the_workers() {
        // the inline worker takes each clause as it is added, so its
        // query ships nothing; racing workers take full batches ahead
        // of the query, which ships only the remainder
        for jobs in [1, 2] {
            let mut pool = Pool::new(&PortfolioConfig::with_jobs(jobs));
            let n = PRELOAD_BATCH + 3;
            for i in 0..n {
                // x_i → x_{i+1}
                pool.add_clause(n + 1, &[lit(-(i as i32 + 1)), lit(i as i32 + 2)]);
            }
            let out = pool.solve(n + 1, Vec::new(), &[lit(1)], Budget::unlimited());
            assert_eq!(out.result, SolveResult::Sat);
            assert_eq!(pool.value(Var::from_index(n)), Some(true));
            let remainder = if jobs == 1 { 0 } else { 3 * jobs as u64 };
            assert_eq!(out.stats.shipped_clauses, remainder, "jobs = {jobs}");
        }
    }

    #[test]
    fn certified_segments_stitch_per_worker() {
        let cfg = PortfolioConfig {
            certify: true,
            ..PortfolioConfig::with_jobs(2)
        };
        let mut pool = Pool::new(&cfg);
        let q1 = pool.solve(2, cnf(&[&[1, 2], &[-1, 2]]), &[], Budget::unlimited());
        assert_eq!(q1.result, SolveResult::Sat);
        assert_eq!(q1.proof_segments.len(), 2);
        let q2 = pool.solve(2, cnf(&[&[-2]]), &[], Budget::unlimited());
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
                pool.solve(2, cnf(&[&[5]]), &[], Budget::unlimited()).result
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
