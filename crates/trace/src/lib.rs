//! **fec-trace** — structured tracing, metrics, and profiling for the
//! synthesis stack, with no dependencies outside `std`.
//!
//! The design follows the same discipline as the SAT core's proof
//! logging: instrumentation must be *zero-cost when disabled*.
//! Every emission site is guarded by [`enabled`], a single relaxed
//! atomic load against the installed maximum level; with no collector
//! installed (the default) that load reads `0` and the site costs one
//! predictable branch. Hot paths (the CDCL conflict loop) are
//! additionally *sampled* — they emit periodic snapshots at restart
//! boundaries rather than per-event records, so even fully enabled
//! tracing stays out of the propagation loop.
//!
//! # Model
//!
//! - an **event** is an instantaneous record: a level, a name
//!   (dot-separated taxonomy, e.g. `cegis.counterexample`), and typed
//!   key/value fields;
//! - a **span** is a named duration: entered with [`Span::enter`] (or
//!   the [`span!`] macro), closed on drop, timed with a monotonic
//!   clock;
//! - a **counter** is a named monotone accumulator; deltas are folded
//!   into the end-of-run metrics report and graphed by the Chrome
//!   sink;
//! - a **histogram** is a named log-bucketed sample distribution
//!   ([`Histogram`]: 65 power-of-two buckets, mergeable); hot paths
//!   flush pre-counted batches with [`hist_n`] so per-sample cost
//!   stays out of inner loops;
//! - a **gauge** is a named instantaneous level (last write wins;
//!   min/max envelope kept) — learned-clause DB size, trail depth,
//!   share-queue depth;
//! - a **progress** record is a heartbeat emitted by the watchdog
//!   thread ([`TraceConfig::progress_every`]): elapsed time, the
//!   global [`advance`] counter and its delta, and stall detection
//!   over a configurable window ([`TraceConfig::stall_after`]).
//!
//! # Sinks
//!
//! [`TraceConfig`] installs any combination of:
//!
//! - **stderr**: human-readable log lines, filtered by the configured
//!   level;
//! - **JSONL**: one self-describing JSON object per record (schema
//!   checked by [`validate_jsonl`]);
//! - **Chrome `trace_event`**: a JSON array loadable in Perfetto /
//!   `about:tracing`, with spans as `B`/`E` pairs, counters as `C`
//!   tracks, and thread-name metadata — flamegraphs for free;
//! - **metrics**: an in-memory aggregation (counter totals, span
//!   count/total/min/max) rendered as a report by [`metrics`] /
//!   written to a file by [`flush`].
//!
//! # Example
//!
//! ```
//! use fec_trace::{Level, TraceConfig};
//!
//! let buf = fec_trace::test_support::SharedBuf::default();
//! fec_trace::install(TraceConfig::new(Level::Debug).jsonl_writer(Box::new(buf.clone())));
//! {
//!     let _span = fec_trace::span!(Level::Info, "demo.work", "size" => 42u64);
//!     fec_trace::counter!(Level::Info, "demo.items", 3);
//! }
//! let report = fec_trace::shutdown().expect("collector was installed");
//! assert_eq!(report.counters["demo.items"], 3);
//! assert_eq!(report.spans["demo.work"].count, 1);
//! assert!(fec_trace::validate_jsonl(&buf.take_string()).unwrap() >= 3);
//! ```

#![forbid(unsafe_code)]

mod instrument;
mod json;
mod metrics;
mod sink;

pub use instrument::{
    bucket_floor, bucket_index, GaugeAgg, Histogram, StallDetector, HIST_BUCKETS,
};
pub use json::{parse_json, Json, JsonError};
pub use metrics::{MetricsReport, SpanAgg};
pub use sink::validate_jsonl;

use sink::{ChromeSink, JsonlSink, Sink, StderrSink};
use std::io::{IsTerminal, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Levels
// ---------------------------------------------------------------------------

/// Severity / verbosity of a record. `Off` disables everything.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
#[repr(u8)]
pub enum Level {
    /// No emission at all (the default global state).
    #[default]
    Off = 0,
    /// Unrecoverable problems.
    Error = 1,
    /// Suspicious but non-fatal conditions.
    Warn = 2,
    /// Run-level progress: CEGIS iterations, bounds, verdicts.
    Info = 3,
    /// Subsystem detail: solver snapshots, encoding sizes.
    Debug = 4,
    /// Everything, including per-query portfolio breakdowns.
    Trace = 5,
}

impl Level {
    /// Parses a CLI level name (`off|error|warn|info|debug|trace`).
    pub fn parse(s: &str) -> Option<Level> {
        Some(match s.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Level::Off,
            "error" => Level::Error,
            "warn" | "warning" => Level::Warn,
            "info" => Level::Info,
            "debug" => Level::Debug,
            "trace" => Level::Trace,
            _ => return None,
        })
    }

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Values and records
// ---------------------------------------------------------------------------

/// A typed field value attached to a record.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// What a record describes.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Kind {
    /// A point-in-time event.
    Event,
    /// A span opening.
    SpanBegin,
    /// A span closing; `dur_us` is the measured duration.
    SpanEnd { dur_us: u64 },
    /// A counter increment.
    Counter { delta: i64 },
    /// `count` histogram samples of `value` (log-bucketed by the
    /// metrics registry; see [`Histogram`]).
    Hist { value: u64, count: u64 },
    /// An absolute gauge write (last value wins; min/max kept).
    Gauge { value: i64 },
    /// A periodic heartbeat from the progress watchdog.
    Progress,
}

/// One record as handed to sinks.
pub struct Record<'a> {
    /// Microseconds since the collector was installed.
    pub ts_us: u64,
    /// Dense per-thread id (1-based, in first-emission order).
    pub tid: u64,
    /// Thread name, when one was set (see [`set_thread_name`]).
    pub thread_name: Option<&'a str>,
    pub level: Level,
    pub name: &'a str,
    pub kind: Kind,
    pub fields: &'a [(&'a str, Value)],
}

// ---------------------------------------------------------------------------
// Global collector
// ---------------------------------------------------------------------------

/// Maximum level any installed sink accepts; 0 = nothing installed.
/// This is the *only* state the disabled fast path reads.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static THREAD_NAME: std::cell::RefCell<Option<String>> = const { std::cell::RefCell::new(None) };
}

/// Names the current thread in trace output (Chrome metadata rows,
/// JSONL `thread` field). Cheap; safe to call with tracing disabled.
pub fn set_thread_name(name: impl Into<String>) {
    THREAD_NAME.with(|n| *n.borrow_mut() = Some(name.into()));
}

/// `true` when a record at `level` would reach at least one sink.
///
/// This is the zero-cost-when-disabled guard: a single relaxed atomic
/// load. Call it before building fields for an emission (the provided
/// macros do so automatically).
#[inline]
pub fn enabled(level: Level) -> bool {
    let l = level as u8;
    l != 0 && l <= MAX_LEVEL.load(Ordering::Relaxed)
}

struct Collector {
    sinks: Vec<SinkEntry>,
    metrics: metrics::Registry,
    metrics_out: Option<PathBuf>,
}

struct SinkEntry {
    /// Maximum level this sink accepts.
    level: Level,
    sink: Box<dyn Sink + Send>,
}

/// Configuration for [`install`]. Build with [`TraceConfig::new`], add
/// sinks, then install. Installing replaces any previous collector.
pub struct TraceConfig {
    level: Level,
    stderr: bool,
    jsonl: Option<Box<dyn Write + Send>>,
    chrome: Option<Box<dyn Write + Send>>,
    metrics_out: Option<PathBuf>,
    progress_every: Option<Duration>,
    stall_after: Duration,
}

impl TraceConfig {
    /// A configuration whose stderr sink (if enabled) filters at
    /// `level`. File sinks always record at `Trace` detail: they are
    /// explicitly requested and post-processed, so more is better.
    pub fn new(level: Level) -> TraceConfig {
        TraceConfig {
            level,
            stderr: false,
            jsonl: None,
            chrome: None,
            metrics_out: None,
            progress_every: None,
            stall_after: Duration::from_secs(30),
        }
    }

    /// Adds the human-readable stderr sink at the configured level.
    pub fn stderr(mut self) -> Self {
        self.stderr = true;
        self
    }

    /// Streams JSONL records to `w` (schema: [`validate_jsonl`]).
    pub fn jsonl_writer(mut self, w: Box<dyn Write + Send>) -> Self {
        self.jsonl = Some(w);
        self
    }

    /// Streams JSONL records to the file at `path`.
    pub fn jsonl_path(self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(self.jsonl_writer(Box::new(std::io::BufWriter::new(f))))
    }

    /// Streams Chrome `trace_event` JSON to `w` (load in Perfetto).
    pub fn chrome_writer(mut self, w: Box<dyn Write + Send>) -> Self {
        self.chrome = Some(w);
        self
    }

    /// Streams Chrome `trace_event` JSON to the file at `path`.
    pub fn chrome_path(self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(self.chrome_writer(Box::new(std::io::BufWriter::new(f))))
    }

    /// Writes the aggregated metrics report (JSON) to `path` on
    /// [`flush`] / [`shutdown`].
    pub fn metrics_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_out = Some(path.into());
        self
    }

    /// Starts the progress watchdog: a background thread that every
    /// `interval` emits a `progress` record to the active sinks (and
    /// flushes them, so live consumers see it), checks the global
    /// [`advance`] counter for stalls, and, when stderr is a terminal,
    /// redraws a one-line status there (carriage-return overwrite).
    pub fn progress_every(mut self, interval: Duration) -> Self {
        self.progress_every = Some(interval);
        self
    }

    /// How long the [`advance`] counter may sit still before the
    /// watchdog flags the run as stalled (default 30 s). Stalls are
    /// reported on the `progress` record (`stalled`/`stall_ms` fields)
    /// and escalated once per episode as a `progress.stall` warning.
    pub fn stall_after(mut self, window: Duration) -> Self {
        self.stall_after = window;
        self
    }
}

/// Installs the global collector described by `config`, replacing any
/// previous one (whose sinks are flushed and dropped). Metrics are
/// always aggregated while a collector is installed.
pub fn install(config: TraceConfig) {
    epoch(); // pin the timestamp origin before the first record
    stop_watchdog();
    let mut sinks: Vec<SinkEntry> = Vec::new();
    if config.stderr && config.level > Level::Off {
        sinks.push(SinkEntry {
            level: config.level,
            sink: Box::new(StderrSink),
        });
    }
    if let Some(w) = config.jsonl {
        sinks.push(SinkEntry {
            level: Level::Trace,
            sink: Box::new(JsonlSink::new(w)),
        });
    }
    if let Some(w) = config.chrome {
        sinks.push(SinkEntry {
            level: Level::Trace,
            sink: Box::new(ChromeSink::new(w)),
        });
    }
    // metrics aggregation and the watchdog both need every record to
    // pass the global guard, whatever the sink levels filter down to
    let force_full = config.metrics_out.is_some() || config.progress_every.is_some();
    let max = sinks
        .iter()
        .map(|s| s.level)
        .max()
        .unwrap_or(Level::Off)
        .max(if force_full { Level::Trace } else { Level::Off });
    let collector = Collector {
        sinks,
        metrics: metrics::Registry::default(),
        metrics_out: config.metrics_out,
    };
    let mut guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(mut old) = guard.replace(collector) {
        for s in &mut old.sinks {
            s.sink.flush();
        }
    }
    MAX_LEVEL.store(max as u8, Ordering::Relaxed);
    drop(guard);
    if let Some(interval) = config.progress_every {
        start_watchdog(interval, config.stall_after);
    }
}

/// `true` while a collector is installed.
pub fn is_installed() -> bool {
    MAX_LEVEL.load(Ordering::Relaxed) != 0
}

/// Flushes every sink and (if configured) writes the metrics report to
/// the `metrics_path` file. The collector stays installed.
pub fn flush() {
    let mut guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(c) = guard.as_mut() {
        for s in &mut c.sinks {
            s.sink.flush();
        }
        if let Some(path) = &c.metrics_out {
            let report = c.metrics.snapshot();
            let _ = std::fs::write(path, report.to_json());
        }
    }
}

/// Flushes, uninstalls the collector, and returns the final metrics
/// report (`None` when nothing was installed).
pub fn shutdown() -> Option<MetricsReport> {
    stop_watchdog();
    let taken = {
        let mut guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
        MAX_LEVEL.store(0, Ordering::Relaxed);
        guard.take()
    };
    let mut c = taken?;
    for s in &mut c.sinks {
        s.sink.flush();
    }
    let report = c.metrics.snapshot();
    if let Some(path) = &c.metrics_out {
        let _ = std::fs::write(path, report.to_json());
    }
    Some(report)
}

/// A snapshot of the aggregated metrics so far (`None` when no
/// collector is installed).
pub fn metrics() -> Option<MetricsReport> {
    let guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|c| c.metrics.snapshot())
}

fn dispatch(level: Level, name: &str, kind: Kind, fields: &[(&str, Value)]) {
    let ts_us = now_us();
    let tid = TID.with(|t| *t);
    THREAD_NAME.with(|n| {
        let n = n.borrow();
        let record = Record {
            ts_us,
            tid,
            thread_name: n.as_deref(),
            level,
            name,
            kind,
            fields,
        };
        let mut guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = guard.as_mut() {
            c.metrics.record(&record);
            for s in &mut c.sinks {
                if level <= s.level {
                    s.sink.record(&record);
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Emission API
// ---------------------------------------------------------------------------

/// Emits a point-in-time event. Callers should guard with [`enabled`]
/// (or use [`event!`], which does) so field construction is skipped
/// when tracing is off.
pub fn event(level: Level, name: &str, fields: &[(&str, Value)]) {
    if enabled(level) {
        dispatch(level, name, Kind::Event, fields);
    }
}

/// Adds `delta` to the counter `name` (metrics total + Chrome track).
pub fn counter(level: Level, name: &str, delta: i64) {
    if enabled(level) {
        dispatch(level, name, Kind::Counter { delta }, &[]);
    }
}

/// Records one sample into the log-bucketed histogram `name`.
pub fn hist(level: Level, name: &str, value: u64) {
    hist_n(level, name, value, 1);
}

/// Records `count` samples of `value` into the histogram `name` —
/// the batch form hot paths use to flush pre-bucketed tallies (e.g.
/// per-restart LBD counts) in one record.
pub fn hist_n(level: Level, name: &str, value: u64, count: u64) {
    if count > 0 && enabled(level) {
        dispatch(level, name, Kind::Hist { value, count }, &[]);
    }
}

/// Sets the gauge `name` to the absolute `value` (last write wins;
/// the metrics report keeps the min/max envelope, the Chrome sink a
/// plotted track).
pub fn gauge(level: Level, name: &str, value: i64) {
    if enabled(level) {
        dispatch(level, name, Kind::Gauge { value }, &[]);
    }
}

// ---------------------------------------------------------------------------
// Progress watchdog
// ---------------------------------------------------------------------------

/// Global forward-progress counter read by the watchdog. Ticked by
/// long-running loops at natural boundaries: the CDCL solver at every
/// restart, CEGIS at every iteration.
static ADVANCE: AtomicU64 = AtomicU64::new(0);

/// Ticks the forward-progress counter (no-op while tracing is off —
/// the disabled path is the same single relaxed load as [`enabled`]).
#[inline]
pub fn advance() {
    if MAX_LEVEL.load(Ordering::Relaxed) != 0 {
        ADVANCE.fetch_add(1, Ordering::Relaxed);
    }
}

/// The current value of the forward-progress counter.
pub fn advance_count() -> u64 {
    ADVANCE.load(Ordering::Relaxed)
}

struct WatchdogHandle {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

static WATCHDOG: Mutex<Option<WatchdogHandle>> = Mutex::new(None);

fn stop_watchdog() {
    let taken = {
        let mut guard = WATCHDOG.lock().unwrap_or_else(|e| e.into_inner());
        guard.take()
    };
    if let Some(h) = taken {
        h.stop.store(true, Ordering::Release);
        let _ = h.thread.join();
    }
}

fn start_watchdog(interval: Duration, stall_after: Duration) {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("trace-watchdog".into())
        .spawn(move || watchdog_loop(interval, stall_after, &stop2))
        .expect("spawn trace watchdog");
    let mut guard = WATCHDOG.lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(WatchdogHandle { stop, thread });
}

fn watchdog_loop(interval: Duration, stall_after: Duration, stop: &AtomicBool) {
    set_thread_name("trace-watchdog");
    // the status line's escapes belong on a terminal, never in a pipe
    let tty = std::io::stderr().is_terminal();
    let mut detector = StallDetector::new(stall_after.as_millis().max(1) as u64);
    let mut last_advance = advance_count();
    let mut was_stalled = false;
    'ticks: loop {
        // sleep in short slices so shutdown never waits a full interval
        let deadline = Instant::now() + interval;
        while Instant::now() < deadline {
            if stop.load(Ordering::Acquire) {
                break 'ticks;
            }
            std::thread::sleep(Duration::from_millis(5).min(interval));
        }
        let adv = advance_count();
        let delta = adv.wrapping_sub(last_advance);
        last_advance = adv;
        let now_ms = now_us() / 1000;
        let stall = detector.observe(adv, now_ms);
        let stalled = stall.is_some();
        let fields = [
            ("elapsed_ms", Value::U64(now_ms)),
            ("advance", Value::U64(adv)),
            ("delta", Value::U64(delta)),
            ("stalled", Value::Bool(stalled)),
            ("stall_ms", Value::U64(stall.unwrap_or(0))),
        ];
        dispatch(Level::Info, "progress", Kind::Progress, &fields);
        if stalled && !was_stalled {
            event(
                Level::Warn,
                "progress.stall",
                &[
                    ("idle_ms", Value::U64(stall.unwrap_or(0))),
                    ("advance", Value::U64(adv)),
                ],
            );
        }
        was_stalled = stalled;
        if tty {
            render_tty_line(now_ms, adv, delta, stall);
        }
        // push the heartbeat through to live consumers (tail -f etc.)
        flush();
    }
    // final heartbeat at shutdown: runs shorter than one interval
    // still record their end state (elapsed, total advance)
    let adv = advance_count();
    let now_ms = now_us() / 1000;
    let fields = [
        ("elapsed_ms", Value::U64(now_ms)),
        ("advance", Value::U64(adv)),
        ("delta", Value::U64(adv.wrapping_sub(last_advance))),
        ("stalled", Value::Bool(false)),
        ("stall_ms", Value::U64(0)),
    ];
    dispatch(Level::Info, "progress", Kind::Progress, &fields);
    if tty {
        let _ = std::io::stderr().lock().write_all(b"\r\x1b[K");
    }
}

/// Overwrites a single stderr status line (`\r` + clear-to-EOL).
fn render_tty_line(now_ms: u64, adv: u64, delta: u64, stall: Option<u64>) {
    let mut line = String::with_capacity(160);
    use std::fmt::Write as _;
    let _ = write!(
        line,
        "\r\x1b[K[fec {:>7.1}s] advance {adv} (+{delta})",
        now_ms as f64 / 1e3
    );
    if let Some(report) = metrics() {
        for (key, label) in [
            ("cegis.iterations", "iters"),
            ("cegis.counterexamples", "cex"),
            ("sat.conflicts", "conflicts"),
        ] {
            if let Some(v) = report.counters.get(key) {
                let _ = write!(line, "  {label} {v}");
            }
        }
        if let Some(g) = report.gauges.get("sat.learnt_db") {
            let _ = write!(line, "  learnt {}", g.last);
        }
    }
    if let Some(idle) = stall {
        let _ = write!(line, "  STALLED {:.1}s", idle as f64 / 1e3);
    }
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

/// An RAII span: created by [`Span::enter`], emits `SpanEnd` with the
/// measured duration on drop. When tracing is disabled at entry the
/// span is a no-op shell (no allocation, no clock read).
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: String,
    level: Level,
    start: Instant,
}

impl Span {
    /// Opens a span; emits `SpanBegin` with `fields` if enabled.
    pub fn enter(level: Level, name: &str, fields: &[(&str, Value)]) -> Span {
        if !enabled(level) {
            return Span { inner: None };
        }
        dispatch(level, name, Kind::SpanBegin, fields);
        Span {
            inner: Some(SpanInner {
                name: name.to_string(),
                level,
                start: Instant::now(),
            }),
        }
    }

    /// A disabled span (useful to thread through APIs unconditionally).
    pub fn none() -> Span {
        Span { inner: None }
    }

    /// `true` when this span is live (tracing was enabled at entry).
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            let dur_us = s.start.elapsed().as_micros() as u64;
            dispatch(s.level, &s.name, Kind::SpanEnd { dur_us }, &[]);
        }
    }
}

/// Emits an event, building fields only when the level is enabled:
/// `event!(Level::Info, "name", "key" => value, ...)`.
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::enabled($level) {
            $crate::event($level, $name, &[$(($k, $crate::Value::from($v))),*]);
        }
    };
}

/// Increments a counter: `counter!(Level::Debug, "name", delta)`.
#[macro_export]
macro_rules! counter {
    ($level:expr, $name:expr, $delta:expr) => {
        $crate::counter($level, $name, ($delta) as i64)
    };
}

/// Records a histogram sample: `hist!(Level::Debug, "name", value)`,
/// or a pre-counted batch: `hist!(Level::Debug, "name", value, n)`.
#[macro_export]
macro_rules! hist {
    ($level:expr, $name:expr, $value:expr) => {
        $crate::hist($level, $name, ($value) as u64)
    };
    ($level:expr, $name:expr, $value:expr, $count:expr) => {
        $crate::hist_n($level, $name, ($value) as u64, ($count) as u64)
    };
}

/// Sets a gauge to an absolute value: `gauge!(Level::Debug, "name", v)`.
#[macro_export]
macro_rules! gauge {
    ($level:expr, $name:expr, $value:expr) => {
        $crate::gauge($level, $name, ($value) as i64)
    };
}

/// Opens a span bound to the enclosing scope:
/// `let _s = span!(Level::Info, "name", "key" => value);`
#[macro_export]
macro_rules! span {
    ($level:expr, $name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::enabled($level) {
            $crate::Span::enter($level, $name, &[$(($k, $crate::Value::from($v))),*])
        } else {
            $crate::Span::none()
        }
    };
}

// ---------------------------------------------------------------------------
// Test support
// ---------------------------------------------------------------------------

/// Helpers for tests and benches that need to capture sink output.
pub mod test_support {
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    /// A cloneable in-memory `Write` target.
    #[derive(Clone, Default)]
    pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        /// Takes the accumulated bytes as a UTF-8 string.
        pub fn take_string(&self) -> String {
            let mut b = self.0.lock().unwrap_or_else(|e| e.into_inner());
            String::from_utf8_lossy(&std::mem::take(&mut *b)).into_owned()
        }

        /// Bytes written so far.
        pub fn len(&self) -> usize {
            self.0.lock().unwrap_or_else(|e| e.into_inner()).len()
        }

        /// `true` when nothing was written yet.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_and_order() {
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Trace);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn disabled_by_default() {
        // the global default must be fully off: enabled() is the only
        // thing hot paths consult
        assert!(!enabled(Level::Error) || is_installed());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(-2i64), Value::I64(-2));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
    }

    #[test]
    fn span_none_is_inert() {
        let s = Span::none();
        assert!(!s.is_live());
        drop(s); // must not emit or panic
    }
}
