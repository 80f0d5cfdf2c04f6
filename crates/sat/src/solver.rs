//! The CDCL search engine.

use crate::clause::{ClauseArena, ClauseRef, Watcher};
use crate::config::{PhaseInit, SolverConfig, XorShift64};
use crate::heap::ActivityHeap;
use crate::proof::ProofStep;
use crate::types::{LBool, Lit, Var};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The clauses (under the given assumptions) are unsatisfiable.
    Unsat,
    /// A budget (conflicts or wall clock) ran out before a verdict.
    Unknown,
}

/// Resource limits for one `solve` call.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum number of conflicts, or `u64::MAX` for unlimited.
    pub max_conflicts: u64,
    /// Wall-clock deadline, or `None` for unlimited.
    pub timeout: Option<Duration>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_conflicts: u64::MAX,
            timeout: None,
        }
    }
}

impl Budget {
    /// Unlimited budget.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Wall-clock limit only.
    pub fn with_timeout(t: Duration) -> Self {
        Budget {
            max_conflicts: u64::MAX,
            timeout: Some(t),
        }
    }
}

/// Aggregate search statistics, cumulative across `solve` calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolverStats {
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub restarts: u64,
    pub learnt_clauses: u64,
    pub deleted_clauses: u64,
    pub solve_calls: u64,
    /// Learned clauses handed to the export hook (portfolio sharing).
    pub exported_clauses: u64,
    /// Shared clauses accepted from the import hook.
    pub imported_clauses: u64,
    /// Shared clauses rejected because they failed the RUP admission
    /// check under proof logging (see [`Solver::set_import_hook`]).
    pub rejected_clauses: u64,
}

// every field is a u64 counter; if this fails, a field of another
// width was added and the destructuring in `merge` needs review too
const _: () = assert!(
    std::mem::size_of::<SolverStats>() == 10 * std::mem::size_of::<u64>(),
    "SolverStats gained or lost a field: update merge() and this assertion"
);

impl SolverStats {
    /// Field-wise sum — aggregates statistics across portfolio workers.
    pub fn merge(&mut self, other: &SolverStats) {
        // exhaustive destructuring: a new field that is not merged
        // below is a compile error, not a silently-dropped statistic
        let SolverStats {
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
        } = *other;
        self.conflicts += conflicts;
        self.decisions += decisions;
        self.propagations += propagations;
        self.restarts += restarts;
        self.learnt_clauses += learnt_clauses;
        self.deleted_clauses += deleted_clauses;
        self.solve_calls += solve_calls;
        self.exported_clauses += exported_clauses;
        self.imported_clauses += imported_clauses;
        self.rejected_clauses += rejected_clauses;
    }

    /// Field-wise difference `self − baseline` — carves the effort of
    /// one query out of a cumulative counter set. A warm portfolio
    /// worker that persists across queries snapshots its stats before
    /// each solve and reports `stats().delta_since(&snapshot)`, so
    /// per-query aggregation keeps the same meaning it has with
    /// throwaway workers (e.g. `solve_calls` = queries × workers).
    ///
    /// Every counter is monotone, so the subtraction saturates only to
    /// guard against a caller mixing snapshots from different solvers.
    pub fn delta_since(&self, baseline: &SolverStats) -> SolverStats {
        // exhaustive destructuring, same discipline as `merge`: a new
        // field that is not subtracted below is a compile error
        let SolverStats {
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
        } = *self;
        SolverStats {
            conflicts: conflicts.saturating_sub(baseline.conflicts),
            decisions: decisions.saturating_sub(baseline.decisions),
            propagations: propagations.saturating_sub(baseline.propagations),
            restarts: restarts.saturating_sub(baseline.restarts),
            learnt_clauses: learnt_clauses.saturating_sub(baseline.learnt_clauses),
            deleted_clauses: deleted_clauses.saturating_sub(baseline.deleted_clauses),
            solve_calls: solve_calls.saturating_sub(baseline.solve_calls),
            exported_clauses: exported_clauses.saturating_sub(baseline.exported_clauses),
            imported_clauses: imported_clauses.saturating_sub(baseline.imported_clauses),
            rejected_clauses: rejected_clauses.saturating_sub(baseline.rejected_clauses),
        }
    }
}

/// Receiver for learned clauses passing the LBD sharing filter
/// (clause literals, LBD at learning time).
pub type ExportHook = Box<dyn FnMut(&[Lit], u32) + Send>;

/// Supplier of shared clauses, polled at restart boundaries; returns
/// `(clause, lbd)` batches drained from peer workers.
pub type ImportHook = Box<dyn FnMut() -> Vec<(Vec<Lit>, u32)> + Send>;

const INVALID_CLAUSE: ClauseRef = ClauseRef(u32::MAX);

/// A CDCL SAT solver (see crate docs for the feature list).
pub struct Solver {
    // clause database
    arena: ClauseArena,
    // watches[lit.index()] = watchers of clauses that contain ¬lit
    watches: Vec<Vec<Watcher>>,
    // vals[lit.index()] = the literal's value (both polarities kept)
    vals: Vec<LBool>,
    // assignment trail
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // reason[v] = clause that propagated v, INVALID for decisions
    reason: Vec<ClauseRef>,
    level: Vec<u32>,
    // branching
    activity: Vec<f64>,
    heap: ActivityHeap,
    var_inc: f64,
    saved_phase: Vec<bool>,
    // clause activity
    cla_inc: f64,
    // analyze scratch: seen variables, the learnt clause buffer, and
    // per-decision-level stamps for counting LBD
    seen: Vec<bool>,
    learnt_buf: Vec<Lit>,
    level_stamp: Vec<u64>,
    lbd_stamp: u64,
    // level-0 trail length at the last satisfied-clause sweep
    swept_trail: usize,
    // status
    ok: bool,
    stats: SolverStats,
    // learnt DB reduction schedule
    max_learnts: f64,
    // model snapshot from the last Sat answer
    model: Vec<LBool>,
    // failed assumptions from the last assumption-Unsat answer
    conflict_assumptions: Vec<Lit>,
    // DRAT proof steps not yet taken; None = logging off (the default)
    proof: Option<Vec<ProofStep>>,
    // heuristic knobs (fixed at construction)
    config: SolverConfig,
    // the solver's only randomness source, seeded from the config
    rng: XorShift64,
    // cooperative cancellation (portfolio first-to-finish)
    stop: Option<Arc<AtomicBool>>,
    // portfolio clause sharing
    export: Option<ExportHook>,
    export_lbd_max: u32,
    import: Option<ImportHook>,
    // LBD distribution of learned clauses (bucket 15 = "≥ 15"); only
    // maintained while tracing is enabled at Debug, so the conflict
    // path pays one predictable branch otherwise
    lbd_hist: [u64; 16],
    // portion of lbd_hist already flushed to the trace histogram
    lbd_flushed: [u64; 16],
    // (time, conflict count) at the previous effort flush: a restart
    // or the start of the current solve
    last_flush: (Instant, u64),
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// An empty solver with the default (historical) heuristics.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// An empty solver with explicit heuristic knobs — the entry point
    /// for portfolio diversification.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver {
            arena: ClauseArena::default(),
            watches: Vec::new(),
            vals: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            reason: Vec::new(),
            level: Vec::new(),
            activity: Vec::new(),
            heap: ActivityHeap::new(),
            var_inc: 1.0,
            saved_phase: Vec::new(),
            cla_inc: 1.0,
            seen: Vec::new(),
            learnt_buf: Vec::new(),
            level_stamp: vec![0],
            lbd_stamp: 0,
            swept_trail: 0,
            ok: true,
            stats: SolverStats::default(),
            max_learnts: 4000.0,
            model: Vec::new(),
            conflict_assumptions: Vec::new(),
            proof: None,
            rng: XorShift64::new(config.seed),
            config,
            stop: None,
            export: None,
            export_lbd_max: 0,
            import: None,
            lbd_hist: [0; 16],
            lbd_flushed: [0; 16],
            last_flush: (Instant::now(), 0),
        }
    }

    /// The heuristic configuration this solver was built with.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Installs a cancellation flag. When another thread sets it, the
    /// solver aborts at the next check point — inside the propagation
    /// loop (every 1024 propagations), after each conflict, and before
    /// each restart — and the pending `solve` returns
    /// [`SolveResult::Unknown`]. The solver remains usable.
    pub fn set_stop_flag(&mut self, flag: Arc<AtomicBool>) {
        self.stop = Some(flag);
    }

    /// Installs the learned-clause export hook: every clause learned by
    /// conflict analysis with LBD ≤ `lbd_max` (after minimization) is
    /// handed to `hook` before it is attached.
    pub fn set_export_hook(&mut self, hook: ExportHook, lbd_max: u32) {
        self.export = Some(hook);
        self.export_lbd_max = lbd_max;
    }

    /// Installs the shared-clause import hook, polled once per restart
    /// boundary (at decision level 0). When proof logging is
    /// enabled, each imported clause is admitted only if it is RUP
    /// with respect to this solver's current clause database — the
    /// accepted clause is then logged as a regular `Learn` step, so the
    /// proof stream stays self-contained. Without proof logging,
    /// imports are trusted (peers solve the same formula, so shared
    /// clauses are logical consequences of it).
    pub fn set_import_hook(&mut self, hook: ImportHook) {
        self.import = Some(hook);
    }

    #[inline]
    fn should_stop(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
    }

    /// Starts recording this solver's DRAT proof stream (see
    /// [`crate::proof`]), read with [`Solver::take_proof`].
    ///
    /// Must be called on a *fresh* solver (before any `add_clause`):
    /// clauses added earlier would be missing from the input record and
    /// an independent checker would reject lemmas derived from them.
    pub fn enable_proof(&mut self) {
        assert!(
            self.arena.is_empty() && self.trail.is_empty() && self.ok,
            "proof logging must be enabled before any clause is added"
        );
        self.proof = Some(Vec::new());
    }

    /// Removes and returns the proof steps logged since the previous
    /// call; empty when proof logging is off.
    pub fn take_proof(&mut self) -> Vec<ProofStep> {
        self.proof.as_mut().map(std::mem::take).unwrap_or_default()
    }

    #[inline]
    fn log_learn(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.push(ProofStep::Learn(lits.to_vec()));
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars());
        self.vals.extend([LBool::Undef; 2]);
        self.reason.push(INVALID_CLAUSE);
        self.level.push(0);
        // tiny seeded activities break the index-order tie among
        // untouched variables without outliving the first real bumps
        let act = if self.config.randomize_order {
            self.rng.next_f64() * 1e-9
        } else {
            0.0
        };
        self.activity.push(act);
        let phase = match self.config.phase_init {
            PhaseInit::AllFalse => false,
            PhaseInit::AllTrue => true,
            PhaseInit::Random => self.rng.next_bool(),
        };
        self.saved_phase.push(phase);
        self.seen.push(false);
        self.level_stamp.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.push_new_var(v, &self.activity);
        v
    }

    /// Number of variables created.
    pub fn num_vars(&self) -> usize {
        self.vals.len() / 2
    }

    /// Number of live problem + learnt clauses.
    pub fn num_clauses(&self) -> usize {
        self.arena
            .refs()
            .filter(|&c| !self.arena.deleted(c))
            .count()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    #[inline]
    fn record_lbd(&mut self, lbd: u32) {
        // guarded by the same single relaxed load as every other site;
        // the histogram write happens only when someone is listening
        if fec_trace::enabled(fec_trace::Level::Debug) {
            self.lbd_hist[(lbd as usize).min(15)] += 1;
        }
    }

    /// Sampled hot-loop observability: one `sat.snapshot` event per
    /// restart boundary (never inside the propagation loop), carrying
    /// cumulative totals, this solve's conflict rate, and the LBD
    /// histogram — plus gauge/histogram instrument flushes: learned-DB
    /// size and trail depth gauges, per-restart conflict-gap samples,
    /// and the effort since the previous flush ([`Self::flush_effort`]).
    /// `start` and `start_conflicts` are the solve's own start.
    fn emit_snapshot(&mut self, start: Instant, start_conflicts: u64) {
        let now = Instant::now();
        let secs = (now - start).as_secs_f64();
        let rate = if secs > 0.0 {
            (self.stats.conflicts - start_conflicts) as f64 / secs
        } else {
            0.0
        };
        let hist = self
            .lbd_hist
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",");
        fec_trace::event!(
            fec_trace::Level::Debug,
            "sat.snapshot",
            "conflicts" => self.stats.conflicts,
            "propagations" => self.stats.propagations,
            "decisions" => self.stats.decisions,
            "restarts" => self.stats.restarts,
            "learnt" => self.stats.learnt_clauses,
            "conflicts_per_s" => rate,
            "lbd_hist" => hist,
        );
        use fec_trace::Level::Debug;
        // gauges: the learnt-DB level and the trail depth at this
        // boundary (before the restart's backtrack to level 0)
        let live_learnt = self
            .stats
            .learnt_clauses
            .saturating_sub(self.stats.deleted_clauses);
        fec_trace::gauge!(Debug, "sat.learnt_db", live_learnt);
        fec_trace::gauge!(Debug, "sat.trail_depth", self.trail.len());
        // the mean conflict-to-conflict gap since the previous flush,
        // as one batched histogram record (the conflict loop itself
        // never reads the clock)
        let (at, base) = self.last_flush;
        let new_conflicts = self.stats.conflicts - base;
        if let Some(gap_us) = ((now - at).as_micros() as u64).checked_div(new_conflicts) {
            fec_trace::hist!(Debug, "sat.conflict_gap_us", gap_us, new_conflicts);
        }
        self.flush_effort(now);
    }

    /// Flushes the effort since the previous flush: the `sat.conflicts`
    /// counter delta (for watchdog/TTY rate displays and the metrics
    /// report) and the fresh portion of the LBD distribution. Runs at
    /// every restart and at the end of every solve, so short queries
    /// that never restart still report their conflicts.
    fn flush_effort(&mut self, now: Instant) {
        use fec_trace::Level::Debug;
        let new_conflicts = self.stats.conflicts - self.last_flush.1;
        if new_conflicts > 0 {
            fec_trace::counter!(Debug, "sat.conflicts", new_conflicts);
        }
        for (lbd, (&total, flushed)) in self
            .lbd_hist
            .iter()
            .zip(self.lbd_flushed.iter_mut())
            .enumerate()
        {
            fec_trace::hist!(Debug, "sat.lbd", lbd as u64, total - *flushed);
            *flushed = total;
        }
        self.last_flush = (now, self.stats.conflicts);
    }

    /// `false` once the clause set is known unsatisfiable outright
    /// (independent of assumptions).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Adds a clause (a disjunction of `lits`). Returns `false` if the
    /// solver is already in an unsatisfiable state afterwards.
    ///
    /// The clause is normalized before it is attached: sorted and
    /// deduplicated, dropped when tautological or satisfied at level 0,
    /// and stripped of literals false at level 0. An empty clause
    /// (after normalization) makes the instance trivially
    /// unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        // record the clause as given, before normalization: the proof
        // stream doubles as the checker's input formula
        if let Some(p) = self.proof.as_mut() {
            p.push(ProofStep::Input(lits.to_vec()));
        }
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(ls.len());
        let mut dropped_false = false;
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: contains both l and ¬l
            }
            match self.lit_value(l) {
                LBool::True => return true,           // already satisfied at level 0
                LBool::False => dropped_false = true, // drop falsified literal
                LBool::Undef => out.push(l),
            }
        }
        if dropped_false && !out.is_empty() {
            // the attached clause differs from the recorded input, so a
            // later deletion of it would not match any checker clause;
            // log the shortened form as a lemma (RUP: its negation
            // plus the level-0 units falsify the input clause)
            self.log_learn(&out);
        }
        match out.len() {
            0 => {
                // the clause was falsified outright by level-0 units:
                // the empty clause has reverse unit propagation
                self.log_learn(&[]);
                self.ok = false;
                false
            }
            1 => {
                self.uncheck_enqueue(out[0], INVALID_CLAUSE);
                if self.propagate().is_some() {
                    self.log_learn(&[]);
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&out, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt, lbd);
        let (w0, w1) = (lits[0], lits[1]);
        // a watcher fires when its literal's negation becomes true,
        // so the entry for watching w lives in watches[(!w).index()]
        self.watches[(!w0).index()].push(Watcher { cref, blocker: w1 });
        self.watches[(!w1).index()].push(Watcher { cref, blocker: w0 });
        cref
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.vals[l.index()]
    }

    /// The value of `v` in the most recent satisfying model.
    /// `None` before any `Sat` answer, or if `v` did not exist then.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index())? {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// After an `Unsat` answer under assumptions: the subset of
    /// assumption literals used to derive the contradiction.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_assumptions
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn uncheck_enqueue(&mut self, l: Lit, from: ClauseRef) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().index();
        self.vals[l.index()] = LBool::True;
        self.vals[(!l).index()] = LBool::False;
        self.reason[v] = from;
        self.level[v] = self.decision_level();
        self.trail.push(l);
    }

    /// Boolean constraint propagation from the current queue head.
    /// Returns a conflicting clause, if any.
    ///
    /// The cancellation flag is polled here every 1024 propagations;
    /// on cancellation the loop exits early (leaving the queue
    /// partially propagated) and the caller must check
    /// [`Solver::should_stop`] before relying on the state.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while conflict.is_none() && self.qhead < self.trail.len() {
            if self.stats.propagations & 0x3FF == 0 && self.should_stop() {
                return None;
            }
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // fast path: blocker already true means clause satisfied
                if self.vals[w.blocker.index()] == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                let Some(lits) = self.arena.live_lits_mut(cref) else {
                    continue; // lazily drop watcher of a tombstoned clause
                };
                // ensure the falsified literal sits at lits[1]
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let new_watcher = Watcher {
                    cref,
                    blocker: first,
                };
                if first != w.blocker && self.vals[first.index()] == LBool::True {
                    ws[j] = new_watcher;
                    j += 1;
                    continue;
                }
                // search for an unfalsified replacement watch
                for k in 2..lits.len() {
                    let lk = lits[k];
                    if self.vals[lk.index()] != LBool::False {
                        lits.swap(1, k);
                        self.watches[(!lk).index()].push(new_watcher);
                        continue 'watchers;
                    }
                }
                // clause is unit or conflicting
                ws[j] = new_watcher;
                j += 1;
                if self.vals[first.index()] == LBool::False {
                    conflict = Some(cref);
                    // copy back the rest of the watcher list untouched
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                } else {
                    self.uncheck_enqueue(first, cref);
                }
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
        }
        if conflict.is_some() {
            // unpropagated tail entries are above the conflict's decision
            // level and will be truncated by the imminent backtrack
            self.qhead = self.trail.len();
        }
        conflict
    }

    /// First-UIP conflict analysis. Returns the learnt clause with the
    /// asserting literal in slot 0 (and the watch partner, the highest-
    /// level remaining literal, in slot 1) plus the backjump level.
    ///
    /// The clause is built in the solver's reusable buffer; the caller
    /// hands it back through `learnt_buf` once it has been attached.
    fn analyze(&mut self, mut conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit(0)); // slot 0 = asserting literal
        let mut counter = 0usize;
        let mut resolving = false;
        let mut index = self.trail.len();

        loop {
            if self.arena.learnt(conflict) {
                self.bump_clause(conflict);
            }
            // skip lits[0] of a reason clause: it is the propagated literal
            for k in usize::from(resolving)..self.arena.lits(conflict).len() {
                let q = self.arena.lits(conflict)[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // next current-level literal on the trail to resolve on
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            resolving = true;
            conflict = self.reason[pl.var().index()];
            debug_assert_ne!(conflict, INVALID_CLAUSE, "resolving on a decision");
        }

        // clause minimization: drop literals whose reason is subsumed.
        // `seen` marks exactly the variables of learnt[1..] here. Kept
        // literals move to the front in order, dropped ones to the back,
        // so every seen mark can be cleared afterwards.
        let mut kept = 1;
        for i in 1..learnt.len() {
            if !self.literal_redundant(learnt[i]) {
                learnt.swap(kept, i);
                kept += 1;
            }
        }
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        learnt.truncate(kept);
        let mut minimized = learnt;

        let bt = if minimized.len() == 1 {
            0
        } else {
            // put the highest-level non-asserting literal in slot 1 so the
            // watch pair is (asserting, backjump-level) as CDCL requires
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()]
        };
        (minimized, bt)
    }

    /// Local redundancy test (MiniSat's basic minimization): `l` can be
    /// dropped when every other literal of its reason clause is either
    /// already in the learnt clause or fixed at level 0. Membership is
    /// `seen`: the reason's other literals are false, as the learnt
    /// clause's are, so a seen variable means the very same literal.
    fn literal_redundant(&self, l: Lit) -> bool {
        let r = self.reason[l.var().index()];
        if r == INVALID_CLAUSE {
            return false;
        }
        self.arena.lits(r).iter().all(|&q| {
            let v = q.var().index();
            q == !l || self.level[v] == 0 || self.seen[v]
        })
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn bump_clause(&mut self, c: ClauseRef) {
        let activity = self.arena.activity(c) + self.cla_inc;
        self.arena.set_activity(c, activity);
        if activity > 1e20 {
            self.arena.scale_learnt_activity(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    /// Undoes all assignments above `level`.
    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let keep = self.trail_lim[level as usize];
        for i in (keep..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.saved_phase[v.index()] = l.is_pos();
            self.vals[l.index()] = LBool::Undef;
            self.vals[(!l).index()] = LBool::Undef;
            self.reason[v.index()] = INVALID_CLAUSE;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    /// Literal-block distance: number of distinct decision levels,
    /// counted by stamping each level once per call.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_stamp += 1;
        let mut lbd = 0;
        for l in lits {
            let level = self.level[l.var().index()] as usize;
            if self.level_stamp[level] != self.lbd_stamp {
                self.level_stamp[level] = self.lbd_stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// Tombstones the worst half of the removable learnt clauses.
    fn reduce_db(&mut self) {
        let arena = &self.arena;
        let mut learnts: Vec<ClauseRef> = arena
            .refs()
            .filter(|&c| {
                arena.learnt(c)
                    && !arena.deleted(c)
                    && arena.lits(c).len() > 2
                    && arena.lbd(c) > 2
                    && !self.is_reason(c)
            })
            .collect();
        // worst first: high LBD, then low activity; the stable sort
        // keeps allocation order among ties
        learnts.sort_by(|&a, &b| {
            arena
                .lbd(b)
                .cmp(&arena.lbd(a))
                .then(arena.activity(a).total_cmp(&arena.activity(b)))
        });
        let n = learnts.len() / 2;
        for &c in learnts.iter().take(n) {
            self.arena.delete(c);
            self.stats.deleted_clauses += 1;
            if let Some(p) = self.proof.as_mut() {
                p.push(ProofStep::Delete(self.arena.lits(c).to_vec()));
            }
        }
    }

    fn is_reason(&self, c: ClauseRef) -> bool {
        let l = self.arena.lits(c)[0];
        self.lit_value(l) == LBool::True && self.reason[l.var().index()] == c
    }

    /// Tombstones every problem clause satisfied at level 0, logging a
    /// DRAT deletion for each, then purges tombstones from the watch
    /// lists (survivors keep their order) and clears the level-0
    /// reasons that pointed at removed clauses. Learnt clauses stay:
    /// `reduce_db` alone decides their fate. A satisfied clause never
    /// propagates or conflicts, so the search is unchanged.
    fn sweep_satisfied(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        self.swept_trail = self.trail.len();
        let (vals, proof) = (&self.vals, &mut self.proof);
        let removed = self.arena.delete_problem_clauses(|lits| {
            let satisfied = lits.iter().any(|&l| vals[l.index()] == LBool::True);
            if let Some(p) = proof.as_mut().filter(|_| satisfied) {
                p.push(ProofStep::Delete(lits.to_vec()));
            }
            satisfied
        });
        if removed == 0 {
            return;
        }
        for ws in &mut self.watches {
            ws.retain(|w| !self.arena.deleted(w.cref));
        }
        for l in &self.trail {
            let r = &mut self.reason[l.var().index()];
            if *r != INVALID_CLAUSE && self.arena.deleted(*r) {
                *r = INVALID_CLAUSE;
            }
        }
    }

    /// Hands a freshly learned clause to the export hook when its LBD
    /// passes the sharing filter.
    fn export_learnt(&mut self, lits: &[Lit], lbd: u32) {
        if let Some(hook) = self.export.as_mut() {
            if lbd <= self.export_lbd_max {
                hook(lits, lbd);
                self.stats.exported_clauses += 1;
            }
        }
    }

    /// Drains the import hook at a restart boundary (decision level 0)
    /// and integrates each shared clause. May discover unsatisfiability
    /// (`self.ok` becomes false).
    fn import_shared(&mut self) {
        if self.import.is_none() {
            return;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let batch = self.import.as_mut().map(|h| h()).unwrap_or_default();
        for (lits, lbd) in batch {
            if !self.ok {
                return;
            }
            self.integrate_import(&lits, lbd);
        }
    }

    /// Integrates one clause shared by a peer worker.
    ///
    /// The clause is simplified against the level-0 assignment first.
    /// With proof logging enabled, it is admitted only if RUP over
    /// this solver's live clause database (and then logged as a `Learn`
    /// step, keeping the proof self-contained); otherwise it is trusted
    /// — peers solve the same formula, so their learned clauses are
    /// logical consequences of it.
    fn integrate_import(&mut self, lits: &[Lit], lbd: u32) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut out: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            // defensive: peers share the identical CNF, so unknown
            // variables should not occur
            if l.var().index() >= self.num_vars() {
                return;
            }
            match self.lit_value(l) {
                LBool::True => return, // satisfied at level 0
                LBool::False => {}     // drop falsified literal
                LBool::Undef => out.push(l),
            }
        }
        out.sort_unstable();
        out.dedup();
        // adjacent sorted literals of one variable ⇒ tautology
        if out.windows(2).any(|w| w[1] == !w[0]) {
            return;
        }
        if self.proof.is_some() && !self.import_is_rup(&out) {
            // not locally derivable: reject to keep the proof sound
            self.stats.rejected_clauses += 1;
            return;
        }
        self.log_learn(&out);
        self.stats.imported_clauses += 1;
        match out.len() {
            0 => {
                // falsified at level 0: the (trusted) consequence
                // refutes the formula (already logged above)
                self.ok = false;
            }
            1 => {
                self.uncheck_enqueue(out[0], INVALID_CLAUSE);
                if self.propagate().is_some() {
                    self.log_learn(&[]);
                    self.ok = false;
                }
            }
            _ => {
                let lbd = lbd.clamp(1, out.len() as u32);
                self.attach_clause(&out, true, lbd);
            }
        }
    }

    /// Reverse-unit-propagation test used to filter imports under proof
    /// logging: assume the negation of every literal of `lits` on a
    /// scratch decision level and propagate; RUP holds iff that
    /// conflicts. Leaves the solver back at level 0.
    fn import_is_rup(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        self.trail_lim.push(self.trail.len());
        for &l in lits {
            debug_assert_eq!(self.lit_value(l), LBool::Undef);
            self.uncheck_enqueue(!l, INVALID_CLAUSE);
        }
        let conflicting = self.propagate().is_some();
        self.backtrack(0);
        conflicting
    }

    /// Solves under `assumptions` with an unlimited budget.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_with_budget(assumptions, Budget::unlimited())
    }

    /// Solves the clause set under the given assumption literals and
    /// resource budget. The solver remains usable afterwards regardless
    /// of the outcome (state is backtracked to level 0).
    pub fn solve_with_budget(&mut self, assumptions: &[Lit], budget: Budget) -> SolveResult {
        self.stats.solve_calls += 1;
        self.conflict_assumptions.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        if self.trail.len() > self.swept_trail {
            self.sweep_satisfied();
        }
        let start = Instant::now();
        let start_conflicts = self.stats.conflicts;
        // rates and gaps count from this solve's start, not from an
        // earlier solve's last flush
        self.last_flush = (start, start_conflicts);
        let conflict_budget = start_conflicts.saturating_add(budget.max_conflicts);
        let mut restart_idx = 0u64;
        let result = loop {
            if self.should_stop() {
                break SolveResult::Unknown;
            }
            let limit = self.config.restart.limit(restart_idx);
            restart_idx += 1;
            match self.search(assumptions, limit, conflict_budget, start, budget.timeout) {
                SearchOutcome::Sat => {
                    let vals = &self.vals;
                    self.model.clear();
                    self.model.extend(vals.iter().step_by(2));
                    break SolveResult::Sat;
                }
                SearchOutcome::Unsat => break SolveResult::Unsat,
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    // every restart is forward progress for the watchdog
                    fec_trace::advance();
                    if fec_trace::enabled(fec_trace::Level::Debug) {
                        self.emit_snapshot(start, start_conflicts);
                    }
                    continue;
                }
                SearchOutcome::BudgetExhausted => break SolveResult::Unknown,
            }
        };
        self.backtrack(0);
        if fec_trace::enabled(fec_trace::Level::Debug) {
            self.flush_effort(Instant::now());
        }
        result
    }

    fn search(
        &mut self,
        assumptions: &[Lit],
        restart_limit: u64,
        conflict_budget: u64,
        start: Instant,
        timeout: Option<Duration>,
    ) -> SearchOutcome {
        self.backtrack(0);
        // restart boundary: pull clauses shared by peer workers
        self.import_shared();
        if !self.ok {
            return SearchOutcome::Unsat;
        }
        let mut conflicts_this_restart = 0u64;
        loop {
            let conflict = self.propagate();
            if self.should_stop() {
                return SearchOutcome::BudgetExhausted;
            }
            if let Some(conf) = conflict {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    // conflict by unit propagation alone: refutation
                    self.log_learn(&[]);
                    self.ok = false;
                    return SearchOutcome::Unsat;
                }
                if self.decision_level() <= assumptions.len() as u32 {
                    // contradiction within the assumption prefix
                    self.analyze_final_clause(conf, assumptions);
                    return SearchOutcome::Unsat;
                }
                let (learnt, bt_level) = self.analyze(conf);
                self.log_learn(&learnt);
                #[cfg(debug_assertions)]
                self.debug_check_after_conflict(&learnt);
                self.backtrack(bt_level);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.record_lbd(1);
                    self.export_learnt(&learnt, 1);
                    self.backtrack(0);
                    match self.lit_value(asserting) {
                        LBool::Undef => self.uncheck_enqueue(asserting, INVALID_CLAUSE),
                        LBool::False => {
                            self.log_learn(&[]);
                            self.ok = false;
                            return SearchOutcome::Unsat;
                        }
                        LBool::True => {}
                    }
                } else {
                    let lbd = self.compute_lbd(&learnt);
                    self.record_lbd(lbd);
                    self.export_learnt(&learnt, lbd);
                    let cref = self.attach_clause(&learnt, true, lbd);
                    self.stats.learnt_clauses += 1;
                    self.uncheck_enqueue(asserting, cref);
                }
                self.learnt_buf = learnt;
                self.var_inc /= self.config.var_decay;
                self.cla_inc /= self.config.clause_decay;
                if self
                    .stats
                    .learnt_clauses
                    .saturating_sub(self.stats.deleted_clauses) as f64
                    > self.max_learnts
                {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
                if self.stats.conflicts >= conflict_budget {
                    return SearchOutcome::BudgetExhausted;
                }
                if conflicts_this_restart >= restart_limit {
                    return SearchOutcome::Restart;
                }
                if self.stats.conflicts.is_multiple_of(64) {
                    if let Some(t) = timeout {
                        if start.elapsed() >= t {
                            return SearchOutcome::BudgetExhausted;
                        }
                    }
                }
            } else {
                // no conflict: establish assumptions first, then decide
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            // already implied: open an empty decision level
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.analyze_final_lit(a, assumptions);
                            return SearchOutcome::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.uncheck_enqueue(a, INVALID_CLAUSE);
                        }
                    }
                    continue;
                }
                let next = loop {
                    match self.heap.pop_max(&self.activity) {
                        None => return SearchOutcome::Sat, // everything assigned
                        Some(v) if self.vals[Lit::pos(v).index()] == LBool::Undef => break v,
                        Some(_) => continue,
                    }
                };
                self.stats.decisions += 1;
                if self.stats.decisions.is_multiple_of(1024) {
                    if let Some(t) = timeout {
                        if start.elapsed() >= t {
                            return SearchOutcome::BudgetExhausted;
                        }
                    }
                }
                self.trail_lim.push(self.trail.len());
                let phase = self.saved_phase[next.index()];
                self.uncheck_enqueue(Lit::with_sign(next, phase), INVALID_CLAUSE);
            }
        }
    }

    /// Traces a conflict clause back to the assumptions that caused it.
    fn analyze_final_clause(&mut self, conf: ClauseRef, assumptions: &[Lit]) {
        let seed: Vec<Lit> = self.arena.lits(conf).to_vec();
        self.trace_to_assumptions(seed, assumptions, Vec::new());
    }

    /// Handles the case where assumption `failed` is already falsified.
    fn analyze_final_lit(&mut self, failed: Lit, assumptions: &[Lit]) {
        let v = failed.var().index();
        let mut preset = vec![failed];
        let seed = if self.level[v] == 0 {
            // contradicted by level-0 facts alone: {failed} suffices
            Vec::new()
        } else if self.reason[v] != INVALID_CLAUSE {
            // ¬failed was propagated: trace the falsified literals of
            // its reason clause back to the assumptions that set them
            self.arena.lits(self.reason[v])[1..].to_vec()
        } else {
            // ¬failed is itself an earlier assumption (directly
            // contradictory assumption set)
            preset.push(!failed);
            Vec::new()
        };
        self.trace_to_assumptions(seed, assumptions, preset);
    }

    fn trace_to_assumptions(&mut self, seed: Vec<Lit>, assumptions: &[Lit], preset: Vec<Lit>) {
        let set: std::collections::HashSet<Lit> = assumptions.iter().copied().collect();
        let mut out: Vec<Lit> = preset;
        let mut seen = vec![false; self.num_vars()];
        let mut stack = seed;
        while let Some(l) = stack.pop() {
            let v = l.var();
            if seen[v.index()] || self.level[v.index()] == 0 {
                continue;
            }
            seen[v.index()] = true;
            if set.contains(&!l) {
                if !out.contains(&!l) {
                    out.push(!l);
                }
            } else if self.reason[v.index()] != INVALID_CLAUSE {
                stack.extend_from_slice(self.arena.lits(self.reason[v.index()]));
            }
        }
        self.conflict_assumptions = out;
    }

    /// Exhaustive internal consistency check; panics on the first
    /// violation. Verifies:
    ///
    /// - trail/assignment agreement: exactly the trail literals are
    ///   assigned, all true, at plausible levels, with well-formed
    ///   reasons (a reason clause's slot 0 is the literal it implied);
    /// - watched-literal integrity: every live clause has length ≥ 2,
    ///   is watched on exactly its first two literals — once *each*,
    ///   not twice on one and never on the other — each watcher's
    ///   blocker is a literal of its clause, and no live clause has
    ///   stray watcher entries;
    /// - at a level-0 propagation fixpoint additionally: a live clause
    ///   with a falsified watched literal must be satisfied (otherwise
    ///   propagation missed a unit or conflict).
    ///
    /// Runs in O(clauses + watchers); debug builds invoke it on a
    /// sample of conflicts (see `debug_check_after_conflict`), and
    /// tests and external tools may call it at any point outside
    /// `propagate`.
    pub fn check_invariants(&self) {
        // --- trail / assignment agreement ---
        for (v, pair) in self.vals.chunks(2).enumerate() {
            assert!(
                matches!(
                    (pair[0], pair[1]),
                    (LBool::Undef, LBool::Undef)
                        | (LBool::True, LBool::False)
                        | (LBool::False, LBool::True)
                ),
                "v{v}'s literal values disagree: {pair:?}"
            );
        }
        let assigned = self.vals.iter().filter(|&&a| a == LBool::True).count();
        assert_eq!(
            assigned,
            self.trail.len(),
            "assigned variable count disagrees with trail length"
        );
        assert!(self.qhead <= self.trail.len(), "qhead beyond trail end");
        for (i, &l) in self.trail.iter().enumerate() {
            assert_eq!(
                self.lit_value(l),
                LBool::True,
                "trail[{i}] = {l:?} is not assigned true"
            );
            let v = l.var().index();
            assert!(
                self.level[v] <= self.decision_level(),
                "trail[{i}] = {l:?} has level {} above decision level {}",
                self.level[v],
                self.decision_level()
            );
            let r = self.reason[v];
            if r != INVALID_CLAUSE {
                assert!(!self.arena.deleted(r), "reason clause of {l:?} is deleted");
                assert_eq!(
                    self.arena.lits(r)[0],
                    l,
                    "reason clause of {l:?} does not have it in slot 0"
                );
            }
        }
        for (i, &lim) in self.trail_lim.iter().enumerate() {
            assert!(lim <= self.trail.len(), "trail_lim[{i}] beyond trail");
            if i > 0 {
                assert!(
                    self.trail_lim[i - 1] <= lim,
                    "trail_lim not monotonically non-decreasing at {i}"
                );
            }
        }
        // --- watched-literal integrity ---
        // tracked per watch slot, not just per clause: two watchers on
        // lits[0] and none on lits[1] also totals 2
        let mut watch_seen: std::collections::HashMap<ClauseRef, [bool; 2]> =
            self.arena.refs().map(|c| (c, [false; 2])).collect();
        for (wi, ws) in self.watches.iter().enumerate() {
            // watches[l.index()] fires when l becomes true, i.e. holds
            // the clauses currently watching ¬l
            let watched = !Lit(wi as u32);
            for w in ws {
                let seen = watch_seen
                    .get_mut(&w.cref)
                    .unwrap_or_else(|| panic!("watcher references no clause: {:?}", w.cref));
                if self.arena.deleted(w.cref) {
                    continue; // stale entries of tombstones are dropped lazily
                }
                let lits = self.arena.lits(w.cref);
                assert!(
                    lits[0] == watched || lits[1] == watched,
                    "clause {lits:?} watched on {watched:?}, not one of its first two literals"
                );
                let slot = usize::from(lits[1] == watched);
                assert!(!seen[slot], "clause {lits:?} watched twice on {watched:?}");
                seen[slot] = true;
                assert!(
                    lits.contains(&w.blocker),
                    "watcher blocker {:?} not in clause {lits:?}",
                    w.blocker
                );
            }
        }
        let at_fixpoint = self.decision_level() == 0 && self.qhead == self.trail.len() && self.ok;
        for c in self.arena.refs() {
            if self.arena.deleted(c) {
                continue;
            }
            let lits = self.arena.lits(c);
            assert!(
                lits.len() >= 2,
                "live clause {lits:?} shorter than 2 literals"
            );
            assert!(
                watch_seen[&c] == [true; 2],
                "clause {lits:?} watched on {:?} of its first two literals",
                watch_seen[&c]
            );
            if at_fixpoint
                && (self.lit_value(lits[0]) == LBool::False
                    || self.lit_value(lits[1]) == LBool::False)
            {
                assert!(
                    lits.iter().any(|&l| self.lit_value(l) == LBool::True),
                    "clause {lits:?} has a falsified watch at a level-0 fixpoint \
                     but is not satisfied"
                );
            }
        }
    }

    /// Debug-build hook run after every conflict analysis: the learnt
    /// clause must not repeat a variable, and on a sample of conflicts
    /// the full invariant sweep runs (every conflict would make debug
    /// runs quadratic in the clause database).
    #[cfg(debug_assertions)]
    fn debug_check_after_conflict(&self, learnt: &[Lit]) {
        let mut vars: Vec<Var> = learnt.iter().map(|l| l.var()).collect();
        vars.sort_unstable();
        let n = vars.len();
        vars.dedup();
        assert_eq!(
            n,
            vars.len(),
            "learned clause repeats a variable: {learnt:?}"
        );
        if self.stats.conflicts % 4096 == 1 {
            self.check_invariants();
        }
    }
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    BudgetExhausted,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(xs: &[i32], s: &mut Solver) -> Vec<Lit> {
        xs.iter()
            .map(|&x| {
                let v = Var::from_index((x.unsigned_abs() - 1) as usize);
                while s.num_vars() <= v.index() {
                    s.new_var();
                }
                Lit::with_sign(v, x > 0)
            })
            .collect()
    }

    fn add(s: &mut Solver, xs: &[i32]) {
        let c = lits(xs, s);
        s.add_clause(&c);
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn stats_delta_since_isolates_one_query() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        add(&mut s, &[-1, 2]);
        add(&mut s, &[1, -2]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let snapshot = s.stats();
        assert_eq!(snapshot.solve_calls, 1);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let delta = s.stats().delta_since(&snapshot);
        assert_eq!(delta.solve_calls, 1, "exactly the second query");
        assert!(delta.propagations <= s.stats().propagations);
        // merging the snapshot and the delta reconstructs the total
        let mut rebuilt = snapshot;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt.solve_calls, s.stats().solve_calls);
        assert_eq!(rebuilt.propagations, s.stats().propagations);
        assert_eq!(rebuilt.conflicts, s.stats().conflicts);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        add(&mut s, &[1]);
        add(&mut s, &[-1]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        add(&mut s, &[1]);
        add(&mut s, &[-1, 2]);
        add(&mut s, &[-2, 3]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(2)), Some(true));
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        let a = Lit::neg(Var::from_index(0));
        let b = Lit::neg(Var::from_index(1));
        assert_eq!(s.solve(&[a]), SolveResult::Sat);
        assert_eq!(s.solve(&[a, b]), SolveResult::Unsat);
        // solver still usable and SAT without assumptions
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn failed_assumptions_nonempty() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        let a = Lit::neg(Var::from_index(0));
        let b = Lit::neg(Var::from_index(1));
        assert_eq!(s.solve(&[a, b]), SolveResult::Unsat);
        assert!(!s.failed_assumptions().is_empty());
    }

    fn pigeonhole(np: usize, nh: usize) -> Solver {
        let mut s = Solver::new();
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

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        assert_eq!(pigeonhole(3, 2).solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let mut s = pigeonhole(5, 4);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn pigeonhole_4_into_4_sat() {
        let mut s = pigeonhole(4, 4);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn xor_triangle_unsat() {
        // x1^x2=1, x2^x3=1, x1^x3=1 is unsat
        let mut s = Solver::new();
        for _ in 0..3 {
            s.new_var();
        }
        let x = Var::from_index;
        let xor1 = |s: &mut Solver, a: Var, b: Var| {
            s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        };
        xor1(&mut s, x(0), x(1));
        xor1(&mut s, x(1), x(2));
        xor1(&mut s, x(0), x(2));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn budget_exhaustion_returns_unknown_then_recovers() {
        let mut s = pigeonhole(7, 6);
        let r = s.solve_with_budget(
            &[],
            Budget {
                max_conflicts: 1,
                timeout: None,
            },
        );
        assert_eq!(r, SolveResult::Unknown);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pre_set_stop_flag_returns_unknown() {
        let mut s = pigeonhole(7, 6);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_stop_flag(Arc::clone(&flag));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        // clearing the flag lets the same solver finish the instance
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn configs_agree_on_answers() {
        use crate::config::{PhaseInit, RestartPolicy};
        let configs = [
            SolverConfig::default(),
            SolverConfig {
                var_decay: 0.90,
                restart: RestartPolicy::Geometric {
                    base: 64,
                    factor: 1.3,
                },
                phase_init: PhaseInit::AllTrue,
                ..SolverConfig::default()
            },
            SolverConfig {
                phase_init: PhaseInit::Random,
                randomize_order: true,
                seed: 0xfec,
                ..SolverConfig::default()
            },
        ];
        for config in configs {
            let mut unsat = pigeonhole(6, 5);
            // rebuild with the config under test
            let mut s = Solver::with_config(config);
            for _ in 0..unsat.num_vars() {
                s.new_var();
            }
            assert_eq!(s.config().var_decay, config.var_decay);
            // pigeonhole(6,5) is UNSAT regardless of heuristics
            assert_eq!(unsat.solve(&[]), SolveResult::Unsat);
            let mut sat = Solver::with_config(config);
            let a = sat.new_var();
            let b = sat.new_var();
            sat.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            sat.add_clause(&[Lit::neg(a), Lit::pos(b)]);
            assert_eq!(sat.solve(&[]), SolveResult::Sat);
            assert_eq!(sat.value(b), Some(true));
        }
    }

    #[test]
    fn export_hook_sees_learned_clauses() {
        use std::sync::Mutex;
        let exported = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&exported);
        let mut s = pigeonhole(6, 5);
        s.set_export_hook(
            Box::new(move |lits, lbd| {
                sink.lock().unwrap().push((lits.to_vec(), lbd));
            }),
            u32::MAX,
        );
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let n = exported.lock().unwrap().len() as u64;
        assert!(n > 0);
        assert_eq!(s.stats().exported_clauses, n);
    }

    #[test]
    fn import_hook_clauses_are_used() {
        // Feed the refuting unit clauses of a tiny UNSAT instance in
        // via the import hook; the solver must pick them up at the
        // first restart boundary (start of search).
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        let mut fed = false;
        s.set_import_hook(Box::new(move || {
            if fed {
                Vec::new()
            } else {
                fed = true;
                vec![
                    (vec![Lit::neg(Var::from_index(0))], 1),
                    (vec![Lit::neg(Var::from_index(1))], 1),
                ]
            }
        }));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert_eq!(s.stats().imported_clauses, 2);
    }

    #[test]
    fn stats_merge_sums_fields() {
        let mut a = SolverStats {
            conflicts: 3,
            propagations: 10,
            exported_clauses: 1,
            ..SolverStats::default()
        };
        let b = SolverStats {
            conflicts: 4,
            imported_clauses: 2,
            rejected_clauses: 5,
            ..SolverStats::default()
        };
        a.merge(&b);
        assert_eq!(a.conflicts, 7);
        assert_eq!(a.propagations, 10);
        assert_eq!(a.exported_clauses, 1);
        assert_eq!(a.imported_clauses, 2);
        assert_eq!(a.rejected_clauses, 5);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a), Lit::pos(a), Lit::pos(b)]));
        assert!(s.add_clause(&[Lit::pos(a), Lit::neg(a)])); // tautology: dropped
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(!s.is_ok());
    }

    #[test]
    fn incremental_clause_addition_between_solves() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::pos(vars[0]), Lit::pos(vars[1])]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.add_clause(&[Lit::neg(vars[0])]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(vars[1]), Some(true));
        s.add_clause(&[Lit::neg(vars[1])]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn model_respects_all_clauses_graph_coloring() {
        // triangle graph, 3 colors: vars node*3+color
        let mut s = Solver::new();
        for _ in 0..9 {
            s.new_var();
        }
        let v = |n: usize, c: usize| Lit::pos(Var::from_index(n * 3 + c));
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for n in 0..3 {
            clauses.push((0..3).map(|c| v(n, c)).collect());
            for c1 in 0..3 {
                for c2 in (c1 + 1)..3 {
                    clauses.push(vec![!v(n, c1), !v(n, c2)]);
                }
            }
        }
        for (n1, n2) in [(0, 1), (1, 2), (0, 2)] {
            for c in 0..3 {
                clauses.push(vec![!v(n1, c), !v(n2, c)]);
            }
        }
        for c in &clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for c in &clauses {
            assert!(
                c.iter().any(|&l| s.value(l.var()) == Some(l.is_pos())),
                "model violates clause {c:?}"
            );
        }
    }

    #[test]
    fn invariants_hold_through_search() {
        // exercise conflicts, backtracking and DB growth, sweeping the
        // invariants at interesting points (debug builds also sample
        // them after conflicts automatically)
        let mut s = pigeonhole(5, 4);
        s.check_invariants();
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        s.check_invariants();

        let mut s = pigeonhole(4, 4);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.check_invariants();
    }

    #[test]
    fn invariants_hold_incrementally_with_assumptions() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2, 3]);
        add(&mut s, &[-1, -2]);
        let a = Lit::pos(Var::from_index(0));
        assert_eq!(s.solve(&[a]), SolveResult::Sat);
        s.check_invariants();
        add(&mut s, &[-1, -3]);
        add(&mut s, &[-1, 2, 3]); // with 1 assumed: ¬2, ¬3, but 2 ∨ 3 required
        assert_eq!(
            s.solve(&[a, Lit::neg(Var::from_index(1))]),
            SolveResult::Unsat
        );
        s.check_invariants();
    }

    #[test]
    fn level0_units_sweep_satisfied_problem_clauses() {
        // a scope as fec-smt builds it: clauses guarded by ¬g, closed
        // by the unit ¬g; plus a clause that becomes a level-0 reason
        let mut s = Solver::new();
        add(&mut s, &[1, 2, 3]);
        add(&mut s, &[-5, 6]);
        let g = 4;
        add(&mut s, &[-g, 1, 2]);
        add(&mut s, &[-g, 1, 3]);
        add(&mut s, &[-g, 2, 3]);
        assert_eq!(s.solve(&[Lit::pos(Var::from_index(3))]), SolveResult::Sat);
        assert_eq!(s.num_clauses(), 5);
        add(&mut s, &[-g]);
        add(&mut s, &[5]); // propagates 6 at level 0, its reason [-5, 6]
        assert_eq!(s.num_clauses(), 5, "the sweep waits for the next solve");
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.stats().learnt_clauses, 0);
        assert_eq!(s.num_clauses(), 1, "only [1, 2, 3] is not satisfied");
        s.check_invariants();
        assert_eq!(s.value(Var::from_index(5)), Some(true));
    }

    #[test]
    fn proof_stream_records_inputs_and_refutation() {
        let mut s = Solver::new();
        s.enable_proof();
        add(&mut s, &[1, 2]);
        add(&mut s, &[-1, 2]);
        add(&mut s, &[1, -2]);
        add(&mut s, &[-1, -2]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let steps = s.take_proof();
        let inputs = steps
            .iter()
            .filter(|s| matches!(s, ProofStep::Input(_)))
            .count();
        assert_eq!(inputs, 4, "every add_clause call is recorded");
        assert!(
            steps.iter().any(|s| matches!(s, ProofStep::Learn(_))),
            "an unsat run derives at least one lemma"
        );
        assert_eq!(
            steps.last(),
            Some(&ProofStep::Learn(Vec::new())),
            "the stream ends with the empty clause"
        );
    }

    #[test]
    #[should_panic(expected = "before any clause is added")]
    fn proof_enabled_after_clauses_panics() {
        let mut s = Solver::new();
        add(&mut s, &[1]);
        s.enable_proof();
    }

    #[test]
    fn many_solves_with_rotating_assumptions() {
        // blocking-clause style enumeration: count models of a 3-var free space
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        let mut count = 0;
        while s.solve(&[]) == SolveResult::Sat {
            count += 1;
            let block: Vec<Lit> = vs
                .iter()
                .map(|&v| Lit::with_sign(v, s.value(v) != Some(true)))
                .collect();
            s.add_clause(&block);
            assert!(count <= 8, "enumerated too many models");
        }
        assert_eq!(count, 8);
    }
}
