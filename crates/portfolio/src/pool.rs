//! The portfolio engine: a resident pool of warm, diversified CDCL
//! workers.
//!
//! A [`Pool`] keeps `jobs` diversified CDCL workers alive across an
//! entire solving *session*. Consecutive queries ship only the clause
//! delta since the previous query (the caller's formula is monotone
//! under the activation-literal discipline — retraction is a unit
//! guard clause, also a delta), so every worker keeps its learned
//! clause database, VSIDS activities, phase saving, and previously
//! imported clauses warm from one query to the next. The sharing mesh
//! is likewise built once and reused: a clause exported during query
//! `q` may be imported during query `q+1`, which is sound for exactly
//! the same reason the warm learned-clause DB is — all workers'
//! formulas grow monotonically and stay identical. A one-shot solve is
//! simply a session of one query.
//!
//! The pool has two modes:
//!
//! - **One worker** lives inline on the calling thread. Worker 0 runs
//!   the stock configuration, so this *is* the plain solver: each
//!   clause goes straight into it as it is added, each query is one
//!   `solve_with_budget` call, and it emits no `portfolio.*` trace
//!   records.
//! - **N ≥ 2 workers** are resident threads, each blocked on its own
//!   `mpsc` job queue between jobs. Clauses buffer on the coordinator
//!   (the thread driving the [`Pool`]) and ship in batches: a load is
//!   *fire-and-forget* — the coordinator queues it for every worker and
//!   returns at once, overlapping its own work (e.g. encoding, or the
//!   CEGIS synthesizer query) with the workers'; `solve` ships the
//!   rest, races the workers, and collects one report per worker from
//!   the shared ack channel. A worker whose job panics sends the panic
//!   message on that channel instead and exits; the coordinator
//!   re-raises it from its next `solve`, and from every call after
//!   that, instead of waiting on a worker that will never report again.
//!
//! Certification: with [`PortfolioConfig::certify`] every worker logs
//! its DRAT stream for the pool's lifetime and each `solve` report
//! drains the logged steps into a per-query *segment* (covering every
//! clause added since the previous solve plus this query's
//! derivations). Concatenating worker `i`'s segments in query order
//! reconstructs worker `i`'s complete stand-alone DRAT stream — for a
//! one-query pool the winner's single segment already is — so a
//! stitching checker upstream (see `fec-smt`) certifies warm answers
//! exactly as it certifies cold ones.

use crate::{diversify, PortfolioConfig};
use fec_sat::{Budget, Lit, ProofStep, SolveResult, Solver, SolverStats, Var};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Learned clauses with LBD at most this are shared with peers (glue
/// clauses are the ones worth shipping).
const SHARE_LBD_MAX: u32 = 6;

/// Room in each worker's sharing inbox per peer. A full inbox drops
/// clauses rather than block the exporter.
const INBOX_PER_PEER: usize = 2048;

/// Clauses added to a racing pool ship to its workers in batches of
/// this size, overlapping encoding with worker-side clause ingestion.
const PRELOAD_BATCH: usize = 4096;

/// A clause in flight between workers: literals plus LBD at export time.
type SharedClause = (Vec<Lit>, u32);

/// A racing worker's ends of the sharing mesh: a sender into every
/// peer's inbox, and its own inbox.
struct MeshEnds {
    peers: Vec<SyncSender<SharedClause>>,
    inbox: Receiver<SharedClause>,
}

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

/// What the coordinator queues for every resident worker.
struct Job {
    /// Total variable count after this job's delta.
    num_vars: usize,
    /// Clause delta since the previous job.
    clauses: Vec<Vec<Lit>>,
    /// A solve job's assumptions and budget; `None` for a
    /// fire-and-forget load.
    query: Option<(Vec<Lit>, Budget)>,
}

/// What one worker reports for a solve query.
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

/// A resident worker's message on the ack channel: its index and its
/// solve report, or the message of a panic, after which it has exited.
type Ack = (usize, Result<WorkerReport, String>);

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
    /// `jobs <= 1`, otherwise `jobs` worker threads, spawned at once
    /// and blocked on their job queues.
    pub fn new(config: &PortfolioConfig) -> Pool {
        let inner = if config.jobs <= 1 {
            PoolInner::Inline(Box::new(Worker::new(0, config, None)))
        } else {
            PoolInner::Threaded(ThreadedPool::new(config.jobs, config))
        };
        Pool { inner }
    }

    /// Number of resident workers.
    pub fn jobs(&self) -> usize {
        match &self.inner {
            PoolInner::Inline(_) => 1,
            PoolInner::Threaded(p) => p.queues.len(),
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
                    proof_segments: if w.certify {
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

/// Builds the sharing mesh of `n ≥ 2` workers: one bounded inbox per
/// worker with room for [`INBOX_PER_PEER`] clauses from each peer, and
/// a sender into it held by each of those peers. Entry `i` holds
/// worker `i`'s ends.
fn mesh(n: usize) -> Vec<MeshEnds> {
    let (senders, inboxes): (Vec<_>, Vec<_>) = (0..n)
        .map(|_| mpsc::sync_channel(INBOX_PER_PEER * (n - 1)))
        .unzip();
    inboxes
        .into_iter()
        .enumerate()
        .map(|(i, inbox)| MeshEnds {
            peers: (0..n)
                .filter(|&j| j != i)
                .map(|j| senders[j].clone())
                .collect(),
            inbox,
        })
        .collect()
}

/// One resident worker: its solver and the statistics totals already
/// reported.
struct Worker {
    solver: Solver,
    /// Whether the solver logs its DRAT stream.
    certify: bool,
    /// Totals already reported by previous solve calls, so each report
    /// is a per-query delta.
    reported: SolverStats,
}

impl Worker {
    /// Builds diversified worker `i` over an empty formula and, when it
    /// has peers, wires it into the sharing mesh through `mesh`.
    fn new(i: usize, config: &PortfolioConfig, mesh: Option<MeshEnds>) -> Worker {
        let mut solver = Solver::with_config(diversify(i));
        if config.certify {
            // enabled before any clause arrives, so the stream records
            // the whole input formula
            solver.enable_proof();
        }
        if let Some(MeshEnds { peers, inbox }) = mesh {
            solver.set_export_hook(
                Box::new(move |lits, lbd| {
                    // share-traffic profile: what LBD quality actually
                    // crosses the mesh
                    fec_trace::hist!(fec_trace::Level::Debug, "portfolio.share.lbd", lbd);
                    for p in &peers {
                        // a full or closed inbox drops the clause:
                        // sharing only speeds the search up
                        let _ = p.try_send((lits.to_vec(), lbd));
                    }
                }),
                SHARE_LBD_MAX,
            );
            solver.set_import_hook(Box::new(move || {
                let batch: Vec<SharedClause> = inbox.try_iter().collect();
                observe_import(i, batch.len());
                batch
            }));
        }
        Worker {
            solver,
            certify: config.certify,
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
            proof: self.solver.take_proof(),
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

/// Winner slot value while a query is undecided.
const NO_WINNER: usize = usize::MAX;

/// Each query's first-to-finish election. Every atomic access is
/// `Relaxed`: the compare-exchange alone makes the winner unique, the
/// stop flag carries no data, the job queues order the coordinator's
/// reset before every worker's race, and the ack channel orders every
/// worker's claim before the coordinator reads the winner.
#[derive(Clone)]
struct Election {
    /// Raised by the winner; every racing solver polls it.
    stop: Arc<AtomicBool>,
    winner: Arc<AtomicUsize>,
}

impl Election {
    /// Coordinator: opens a fresh election before a solve job.
    fn reset(&self) {
        self.winner.store(NO_WINNER, Ordering::Relaxed);
        self.stop.store(false, Ordering::Relaxed);
    }

    /// Worker: claims the current query's verdict. Exactly one caller
    /// per query wins, and it cancels the other workers' solvers.
    fn try_win(&self, worker: usize) -> bool {
        let won = self
            .winner
            .compare_exchange(NO_WINNER, worker, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
        if won {
            self.stop.store(true, Ordering::Relaxed);
        }
        won
    }

    /// Coordinator, once every worker has reported: the winner.
    fn winner(&self) -> Option<usize> {
        Some(self.winner.load(Ordering::Relaxed)).filter(|&w| w != NO_WINNER)
    }
}

struct ThreadedPool {
    /// One job queue per worker. Dropping them ends the workers.
    queues: Vec<Sender<Arc<Job>>>,
    /// Every worker's solve reports and panic messages.
    acks: Receiver<Ack>,
    election: Election,
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
        let election = Election {
            stop: Arc::new(AtomicBool::new(false)),
            winner: Arc::new(AtomicUsize::new(NO_WINNER)),
        };
        let (ack_tx, acks) = mpsc::channel();
        let mut queues = Vec::with_capacity(n);
        let handles = mesh(n)
            .into_iter()
            .enumerate()
            .map(|(i, ends)| {
                let (queue, jobs) = mpsc::channel();
                queues.push(queue);
                let (acks, election, config) = (ack_tx.clone(), election.clone(), *config);
                thread::spawn(move || {
                    fec_trace::set_thread_name(format!("pool-worker-{i}"));
                    let mut w = Worker::new(i, &config, Some(ends));
                    w.solver.set_stop_flag(Arc::clone(&election.stop));
                    worker_main(i, w, &jobs, &acks, &election);
                })
            })
            .collect();
        ThreadedPool {
            queues,
            acks,
            election,
            handles,
            panicked: None,
            pending: Vec::new(),
            model: Vec::new(),
            certify: config.certify,
            queries: 0,
        }
    }

    /// Re-raises the first worker panic seen, if any.
    fn check(&self) {
        if let Some(msg) = &self.panicked {
            panic!("{msg}");
        }
    }

    /// Queues `job` for every worker. A panicked worker has dropped its
    /// queue, so its send fails; its panic message is already on the
    /// ack channel.
    fn send(&self, job: Job) {
        let job = Arc::new(job);
        for q in &self.queues {
            let _ = q.send(Arc::clone(&job));
        }
    }

    /// Ships the pending clauses as a fire-and-forget load.
    fn flush(&mut self, num_vars: usize) {
        self.check();
        let clauses = std::mem::take(&mut self.pending);
        self.send(Job {
            num_vars,
            clauses,
            query: None,
        });
    }

    fn solve(
        &mut self,
        num_vars: usize,
        clauses: Vec<Vec<Lit>>,
        assumptions: &[Lit],
        budget: Budget,
    ) -> PoolOutcome {
        self.check();
        let start = Instant::now();
        let n = self.queues.len();
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
        self.election.reset();
        self.send(Job {
            num_vars,
            clauses: delta,
            query: Some((assumptions.to_vec(), budget)),
        });
        let mut reports: Vec<Option<WorkerReport>> = (0..n).map(|_| None).collect();
        // every worker sends exactly one message per solve: its report,
        // or the panic (in this job or an earlier load) that ended it
        for _ in 0..n {
            match self.acks.recv().expect("a worker exited without reporting") {
                (i, Ok(report)) => reports[i] = Some(report),
                (i, Err(msg)) => {
                    // cancel the survivors; the panic is re-raised once
                    // they have reported, so none outlives the pool
                    self.election.stop.store(true, Ordering::Relaxed);
                    self.panicked
                        .get_or_insert(format!("portfolio worker {i} panicked: {msg}"));
                }
            }
        }
        self.check();
        let mut reports: Vec<WorkerReport> = reports.into_iter().flatten().collect();
        let winner = self.election.winner();
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
        // Drop may run while a worker's panic unwinds the coordinator,
        // so it must not re-raise. Closing the queues ends each worker
        // once it has applied the loads already queued; raising the
        // stop flag cuts short a race abandoned mid-query. Panicked
        // workers have already returned.
        self.election.stop.store(true, Ordering::Relaxed);
        self.queues.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Body of one resident worker thread: runs its jobs in order until
/// the coordinator closes the queue. A panicking job sends its message
/// instead of a report and the worker exits, so the coordinator
/// re-raises the panic instead of waiting on a report that would never
/// come.
fn worker_main(
    i: usize,
    mut w: Worker,
    jobs: &Receiver<Arc<Job>>,
    acks: &Sender<Ack>,
    election: &Election,
) {
    for job in jobs {
        match panic::catch_unwind(AssertUnwindSafe(|| run_job(i, &mut w, election, &job))) {
            Ok(None) => {}
            Ok(Some(report)) => {
                let _ = acks.send((i, Ok(report)));
            }
            Err(payload) => {
                let _ = acks.send((i, Err(panic_message(payload.as_ref()))));
                return;
            }
        }
    }
}

/// Runs one job on worker `i`: a load yields nothing, a solve its
/// report.
fn run_job(i: usize, w: &mut Worker, election: &Election, job: &Job) -> Option<WorkerReport> {
    w.load(job.num_vars, &job.clauses);
    let (assumptions, budget) = job.query.as_ref()?;
    let _wsp = fec_trace::span!(
        fec_trace::Level::Trace,
        "portfolio.pool.worker",
        "worker" => i,
    );
    let started = Instant::now();
    let result = w.solver.solve_with_budget(assumptions, *budget);
    // first verdict wins this query's election and cancels the rest;
    // losers keep their stats but extract nothing
    let won = result != SolveResult::Unknown && election.try_win(i);
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
    Some(rep)
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
    fn every_query_of_a_long_session_elects_one_winner() {
        // the election is reset before each solve job: over a long
        // session of easy queries, where several workers often finish
        // together, every query still has exactly one winner, and the
        // model read back is the one that answered it
        let mut pool = Pool::new(&PortfolioConfig::with_jobs(4));
        pool.load(
            8,
            cnf(&[&[1, 2, 3, 4, 5, 6, 7, 8], &[-1, -2, -3, -4, -5, -6, -7, -8]]),
        );
        for q in 0..1000i32 {
            let v = q % 8 + 1;
            let a = if (q / 8) % 2 == 0 { lit(v) } else { lit(-v) };
            let out = pool.solve(8, Vec::new(), &[a], Budget::unlimited());
            assert_eq!(out.result, SolveResult::Sat, "query {q}");
            assert!(out.stats.winner.is_some_and(|w| w < 4), "query {q}");
            assert_eq!(out.stats.workers.len(), 4, "query {q}");
            assert_eq!(pool.value(a.var()), Some(a.is_pos()), "query {q}");
        }
    }

    /// Runs `f` on a helper thread and returns the message it panicked
    /// with. A hang fails the test after 60 s instead of stalling the
    /// suite.
    fn panic_of(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = mpsc::channel();
        let helper = thread::spawn(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(f));
            let _ = tx.send(outcome.map_err(|p| panic_message(p.as_ref())));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the pool hung on a panicked worker");
        helper.join().expect("helper thread caught the panic");
        outcome.expect_err("a clause outside the variable space must panic")
    }

    #[test]
    fn worker_panic_surfaces_instead_of_hanging() {
        // a clause naming variable 4 in a 2-variable query makes every
        // worker's add_clause index out of range on its own thread; the
        // coordinator must re-raise that panic, and dropping the pool
        // during the unwind must not wait on the dead workers
        let msg = panic_of(|| {
            let mut pool = Pool::new(&PortfolioConfig::with_jobs(2));
            pool.solve(2, cnf(&[&[5]]), &[], Budget::unlimited());
        });
        assert!(msg.contains("portfolio worker"), "unexpected panic: {msg}");
    }

    #[test]
    fn load_panic_surfaces_by_the_next_solve() {
        // a full batch of bad clauses ships as a fire-and-forget load
        // that no one waits on, and every worker panics applying it;
        // the panic must still surface, at the latest from the next
        // solve
        let msg = panic_of(|| {
            let mut pool = Pool::new(&PortfolioConfig::with_jobs(2));
            for _ in 0..PRELOAD_BATCH {
                pool.add_clause(2, &[lit(5)]);
            }
            pool.solve(2, Vec::new(), &[], Budget::unlimited());
        });
        assert!(msg.contains("portfolio worker"), "unexpected panic: {msg}");
    }
}
