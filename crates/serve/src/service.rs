//! The service proper: an NDJSON request/response protocol, a fixed
//! worker pool pulling from a bounded queue, and the transports
//! (stdin/stdout, Unix-domain socket).
//!
//! # Protocol
//!
//! Requests, one JSON object per line:
//!
//! | request | meaning |
//! |---------|---------|
//! | `{"id":N,"run":"SPEC"}` | run one scenario (spec text, `\n`-separated keys) |
//! | `{"id":N,"sweep":"SPEC","axes":[{"key":K,"values":[…]}]}` | expand a sweep grid and run every cell |
//! | `{"cancel":N}` | cancel request `N` (queued: dropped immediately; running: stops between cells) |
//! | `{"replay":N}` | re-run a completed request and assert byte-identical reports (waits for `N` if it is still queued/running) |
//! | `{"stats":true}` | emit a stats record |
//!
//! Responses, one JSON object per line, interleaved across concurrent
//! requests (correlate by `id`): `accepted`, per-cell `report` records
//! (the `report` member is the standard run report, byte-identical to
//! `sinr-lab run --json`), a final `done` per request, `cancelled`,
//! `replay` (with `"identical"`), `error`, `stats`, and one `drained`
//! record when the input side ends.
//!
//! EOF on the input is the graceful-drain signal: queued and running
//! requests finish, then the service emits `drained` and returns.
//! SIGTERM (when installed, see [`crate::install_sigterm_drain`]) marks
//! the service draining; it is observed at the next input line or EOF.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use sinr_scenario::json::{self, Json};
use sinr_scenario::{report_for, Axis, ReportRecord, ScenarioError, ScenarioSet, ScenarioSpec};

use crate::cache::{CacheStats, TableCache};
use crate::signal;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests (`0` = one per core).
    pub workers: usize,
    /// Bounded submission-queue depth; the reader blocks (back-pressure
    /// on the peer) when it is full.
    pub queue_depth: usize,
    /// Whether prepared deployments are cached at all (`false` mirrors
    /// `--no-cache`: every request prepares cold).
    pub cache: bool,
    /// Byte budget for the LRU table cache.
    pub cache_bytes: u64,
    /// Completed requests kept for `{"replay":ID}` (oldest evicted).
    pub replay_log: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_depth: 64,
            cache: true,
            cache_bytes: sinr_phys::max_table_bytes(),
            replay_log: 64,
        }
    }
}

/// What one connection did, for in-process callers (the storm bench).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSummary {
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests cancelled (queued or mid-run).
    pub cancelled: u64,
    /// Error records emitted (malformed requests and failed cells).
    pub errors: u64,
    /// Replay requests executed.
    pub replays: u64,
    /// Replays whose reports were **not** byte-identical (must be 0).
    pub replay_mismatches: u64,
    /// Scenario cells executed across all requests.
    pub cells: u64,
    /// Sustained throughput over the connection, cells per second.
    pub scenarios_per_sec: f64,
    /// Cache counters at connection end (service-global).
    pub cache: CacheStats,
}

/// A long-lived scenario service: one table cache shared by every
/// connection it serves.
pub struct Service {
    config: ServeConfig,
    cache: TableCache,
}

enum JobKind {
    Run {
        spec: String,
        axes: Vec<Axis>,
    },
    Replay {
        spec: String,
        axes: Vec<Axis>,
        expected: Arc<Vec<String>>,
    },
}

struct Job {
    id: u64,
    kind: JobKind,
    cancel: Arc<AtomicBool>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Bounded MPMC job queue: the reader pushes (blocking when full), the
/// workers pop (blocking when empty), `close` drains and releases
/// everyone.
struct Queue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    depth: usize,
}

impl Queue {
    fn new(depth: usize) -> Self {
        Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth: depth.max(1),
        }
    }

    fn push(&self, job: Job) {
        let mut st = self.state.lock().expect("queue lock");
        while st.jobs.len() >= self.depth && !st.closed {
            st = self.not_full.wait(st).expect("queue lock");
        }
        if !st.closed {
            st.jobs.push_back(job);
            self.not_empty.notify_one();
        }
    }

    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = st.jobs.pop_front() {
                self.not_full.notify_one();
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn contains(&self, id: u64) -> bool {
        let st = self.state.lock().expect("queue lock");
        st.jobs.iter().any(|j| j.id == id)
    }

    fn remove(&self, id: u64) -> bool {
        let mut st = self.state.lock().expect("queue lock");
        let before = st.jobs.len();
        st.jobs.retain(|j| j.id != id);
        let removed = st.jobs.len() < before;
        if removed {
            self.not_full.notify_one();
        }
        removed
    }

    fn len(&self) -> usize {
        self.state.lock().expect("queue lock").jobs.len()
    }
}

/// Serializes NDJSON records onto the connection. Write failures latch:
/// later records are dropped and the first error is reported when the
/// connection closes (a peer that hung up must not wedge the workers).
struct Emitter<W: Write> {
    writer: Mutex<W>,
    failed: Mutex<Option<io::Error>>,
}

impl<W: Write> Emitter<W> {
    fn new(writer: W) -> Self {
        Emitter {
            writer: Mutex::new(writer),
            failed: Mutex::new(None),
        }
    }

    fn line(&self, record: &str) {
        if self.failed.lock().expect("emit lock").is_some() {
            return;
        }
        let mut w = self.writer.lock().expect("writer lock");
        let result = w
            .write_all(record.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush());
        if let Err(e) = result {
            *self.failed.lock().expect("emit lock") = Some(e);
        }
    }

    fn take_error(&self) -> Option<io::Error> {
        self.failed.lock().expect("emit lock").take()
    }
}

struct ReplayRecord {
    spec: String,
    axes: Vec<Axis>,
    reports: Arc<Vec<String>>,
}

struct ReplayLog {
    cap: usize,
    map: HashMap<u64, ReplayRecord>,
    order: VecDeque<u64>,
}

impl ReplayLog {
    fn insert(&mut self, id: u64, record: ReplayRecord) {
        if self.cap == 0 {
            return;
        }
        if self.map.insert(id, record).is_none() {
            self.order.push_back(id);
        }
        while self.map.len() > self.cap {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&old);
        }
    }
}

/// Per-connection state shared by the reader and the workers.
struct Conn<W: Write> {
    emit: Emitter<W>,
    queue: Queue,
    running: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    log: Mutex<ReplayLog>,
    completed: AtomicU64,
    cancelled: AtomicU64,
    errors: AtomicU64,
    replays: AtomicU64,
    replay_mismatches: AtomicU64,
    cells: AtomicU64,
    started: Instant,
    workers: usize,
}

impl Service {
    /// A service with the given tuning.
    pub fn new(config: ServeConfig) -> Self {
        let cache = TableCache::new(config.cache_bytes);
        Service { config, cache }
    }

    /// Serves one connection: reads NDJSON requests from `input` until
    /// EOF (or a SIGTERM-drain), executes them on the worker pool, and
    /// streams NDJSON responses to `output`. Returns after the drain
    /// completes.
    ///
    /// # Errors
    ///
    /// The first I/O error on either side of the connection; requests
    /// already accepted still run to completion first.
    pub fn serve_connection<R: BufRead, W: Write + Send>(
        &self,
        input: R,
        output: W,
    ) -> io::Result<ServeSummary> {
        let workers = sinr_scenario::pool_threads(
            (self.config.workers > 0).then_some(self.config.workers),
            None,
        );
        let conn = Conn {
            emit: Emitter::new(output),
            queue: Queue::new(self.config.queue_depth),
            running: Mutex::new(HashMap::new()),
            log: Mutex::new(ReplayLog {
                cap: self.config.replay_log,
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            replay_mismatches: AtomicU64::new(0),
            cells: AtomicU64::new(0),
            started: Instant::now(),
            workers,
        };

        let mut read_error = None;
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    while let Some(job) = conn.queue.pop() {
                        self.process(&conn, job);
                    }
                });
            }
            for line in input.lines() {
                match line {
                    Ok(line) => {
                        if !line.trim().is_empty() {
                            self.dispatch(&conn, &line);
                        }
                    }
                    Err(e) => {
                        read_error = Some(e);
                        break;
                    }
                }
                if signal::draining() {
                    break;
                }
            }
            // EOF / drain: stop accepting, let the pool finish what was
            // admitted, then the scope joins the workers.
            conn.queue.close();
        });

        let summary = self.summary(&conn);
        conn.emit.line(&self.drained_record(&summary));
        if let Some(e) = conn.emit.take_error() {
            return Err(e);
        }
        if let Some(e) = read_error {
            return Err(e);
        }
        Ok(summary)
    }

    /// Serves connections on a Unix-domain socket at `path` (removing a
    /// stale socket file first), sequentially; the table cache persists
    /// across connections. With `once`, returns after the first
    /// connection drains — the testable form.
    ///
    /// # Errors
    ///
    /// Socket setup/accept failures, or a connection's I/O error.
    #[cfg(unix)]
    pub fn serve_socket(&self, path: &std::path::Path, once: bool) -> io::Result<()> {
        use std::os::unix::net::UnixListener;
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        loop {
            let (stream, _) = listener.accept()?;
            let reader = io::BufReader::new(stream.try_clone()?);
            self.serve_connection(reader, stream)?;
            if once || signal::draining() {
                return Ok(());
            }
        }
    }

    /// Current cache counters (service-global).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn summary(&self, conn: &Conn<impl Write>) -> ServeSummary {
        let cells = conn.cells.load(Ordering::Relaxed);
        let secs = conn.started.elapsed().as_secs_f64().max(1e-9);
        ServeSummary {
            completed: conn.completed.load(Ordering::Relaxed),
            cancelled: conn.cancelled.load(Ordering::Relaxed),
            errors: conn.errors.load(Ordering::Relaxed),
            replays: conn.replays.load(Ordering::Relaxed),
            replay_mismatches: conn.replay_mismatches.load(Ordering::Relaxed),
            cells,
            scenarios_per_sec: cells as f64 / secs,
            cache: self.cache.stats(),
        }
    }

    // ---- reader side -------------------------------------------------

    fn dispatch(&self, conn: &Conn<impl Write>, line: &str) {
        let request = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                conn.errors.fetch_add(1, Ordering::Relaxed);
                conn.emit.line(&error_record(None, &format!("{e}")));
                return;
            }
        };
        if request.get("stats").and_then(Json::as_bool) == Some(true) {
            conn.emit.line(&self.stats_record(conn));
            return;
        }
        if let Some(target) = request.get("cancel") {
            self.handle_cancel(conn, target);
            return;
        }
        if let Some(target) = request.get("replay") {
            self.handle_replay(conn, target);
            return;
        }
        let Some(id) = request.get("id").and_then(Json::as_u64) else {
            conn.errors.fetch_add(1, Ordering::Relaxed);
            conn.emit.line(&error_record(
                None,
                "request needs a numeric \"id\" (and one of run/sweep/cancel/replay/stats)",
            ));
            return;
        };
        let kind = if let Some(spec) = request.get("run").and_then(Json::as_str) {
            JobKind::Run {
                spec: spec.to_string(),
                axes: Vec::new(),
            }
        } else if let Some(spec) = request.get("sweep").and_then(Json::as_str) {
            match parse_axes(request.get("axes")) {
                Ok(axes) => JobKind::Run {
                    spec: spec.to_string(),
                    axes,
                },
                Err(msg) => {
                    conn.errors.fetch_add(1, Ordering::Relaxed);
                    conn.emit.line(&error_record(Some(id), msg));
                    return;
                }
            }
        } else {
            conn.errors.fetch_add(1, Ordering::Relaxed);
            conn.emit.line(&error_record(
                Some(id),
                "expected \"run\" or \"sweep\" (a spec-text string)",
            ));
            return;
        };
        self.enqueue(conn, id, kind);
    }

    fn enqueue(&self, conn: &Conn<impl Write>, id: u64, kind: JobKind) {
        conn.emit.line(
            &Json::Obj(vec![
                ("id".into(), Json::int(id)),
                ("event".into(), Json::str("accepted")),
                ("queue_depth".into(), Json::int(conn.queue.len() as u64)),
            ])
            .to_string(),
        );
        conn.queue.push(Job {
            id,
            kind,
            cancel: Arc::new(AtomicBool::new(false)),
        });
    }

    fn handle_cancel(&self, conn: &Conn<impl Write>, target: &Json) {
        let Some(id) = target.as_u64() else {
            conn.errors.fetch_add(1, Ordering::Relaxed);
            conn.emit
                .line(&error_record(None, "cancel needs a numeric id"));
            return;
        };
        if conn.queue.remove(id) {
            // Still queued: dropped synchronously, so a `cancel` sent
            // right after the submit is deterministic.
            conn.cancelled.fetch_add(1, Ordering::Relaxed);
            conn.emit.line(&cancelled_record(id, "queued", 0));
            return;
        }
        if let Some(flag) = conn.running.lock().expect("running lock").get(&id) {
            // Running: the worker observes the flag between cells and
            // emits the `cancelled` record itself.
            flag.store(true, Ordering::Relaxed);
            return;
        }
        conn.errors.fetch_add(1, Ordering::Relaxed);
        conn.emit.line(&error_record(
            Some(id),
            "cancel: id is not queued or running (completed requests cannot be cancelled)",
        ));
    }

    fn handle_replay(&self, conn: &Conn<impl Write>, target: &Json) {
        let Some(id) = target.as_u64() else {
            conn.errors.fetch_add(1, Ordering::Relaxed);
            conn.emit
                .line(&error_record(None, "replay needs a numeric id"));
            return;
        };
        // A replay naturally serializes against its target: if the id
        // is still queued or running (clients pipeline `run` then
        // `replay` on one connection), hold the input stream until it
        // completes, then resolve the stored reports.
        loop {
            let record = {
                let log = conn.log.lock().expect("log lock");
                log.map.get(&id).map(|r| JobKind::Replay {
                    spec: r.spec.clone(),
                    axes: r.axes.clone(),
                    expected: Arc::clone(&r.reports),
                })
            };
            if let Some(kind) = record {
                self.enqueue(conn, id, kind);
                return;
            }
            let pending = conn.queue.contains(id)
                || conn.running.lock().expect("running lock").contains_key(&id);
            if !pending {
                conn.errors.fetch_add(1, Ordering::Relaxed);
                conn.emit.line(&error_record(
                    Some(id),
                    "replay: id not found in the completed-request log",
                ));
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    fn stats_record(&self, conn: &Conn<impl Write>) -> String {
        let cache = self.cache.stats();
        let cells = conn.cells.load(Ordering::Relaxed);
        let secs = conn.started.elapsed().as_secs_f64().max(1e-9);
        Json::Obj(vec![
            ("event".into(), Json::str("stats")),
            (
                "completed".into(),
                Json::int(conn.completed.load(Ordering::Relaxed)),
            ),
            (
                "cancelled".into(),
                Json::int(conn.cancelled.load(Ordering::Relaxed)),
            ),
            (
                "errors".into(),
                Json::int(conn.errors.load(Ordering::Relaxed)),
            ),
            ("cells".into(), Json::int(cells)),
            ("queue_depth".into(), Json::int(conn.queue.len() as u64)),
            ("workers".into(), Json::int(conn.workers as u64)),
            ("scenarios_per_sec".into(), Json::Num(cells as f64 / secs)),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("enabled".into(), Json::Bool(self.config.cache)),
                    ("hits".into(), Json::int(cache.hits)),
                    ("misses".into(), Json::int(cache.misses)),
                    ("hit_rate".into(), Json::Num(cache.hit_rate())),
                    ("resident_bytes".into(), Json::int(cache.resident_bytes)),
                    ("entries".into(), Json::int(cache.entries as u64)),
                ]),
            ),
        ])
        .to_string()
    }

    fn drained_record(&self, summary: &ServeSummary) -> String {
        Json::Obj(vec![
            ("event".into(), Json::str("drained")),
            ("completed".into(), Json::int(summary.completed)),
            ("cancelled".into(), Json::int(summary.cancelled)),
            ("errors".into(), Json::int(summary.errors)),
            ("replays".into(), Json::int(summary.replays)),
            (
                "replay_mismatches".into(),
                Json::int(summary.replay_mismatches),
            ),
            ("cells".into(), Json::int(summary.cells)),
            (
                "scenarios_per_sec".into(),
                Json::Num(summary.scenarios_per_sec),
            ),
            ("cache_hit_rate".into(), Json::Num(summary.cache.hit_rate())),
            (
                "resident_bytes".into(),
                Json::int(summary.cache.resident_bytes),
            ),
        ])
        .to_string()
    }

    // ---- worker side -------------------------------------------------

    fn process(&self, conn: &Conn<impl Write>, job: Job) {
        conn.running
            .lock()
            .expect("running lock")
            .insert(job.id, Arc::clone(&job.cancel));
        match &job.kind {
            JobKind::Run { spec, axes } => self.process_run(conn, &job, spec, axes),
            JobKind::Replay {
                spec,
                axes,
                expected,
            } => self.process_replay(conn, &job, spec, axes, expected),
        }
        conn.running.lock().expect("running lock").remove(&job.id);
    }

    fn process_run(&self, conn: &Conn<impl Write>, job: &Job, spec: &str, axes: &[Axis]) {
        let started = Instant::now();
        let cells = match expand_cells(spec, axes) {
            Ok(cells) => cells,
            Err(e) => {
                conn.errors.fetch_add(1, Ordering::Relaxed);
                conn.emit.line(&error_record(Some(job.id), &e.to_string()));
                return;
            }
        };
        let mut reports = Vec::with_capacity(cells.len());
        let (mut hits, mut misses) = (0u64, 0u64);
        for (i, cell) in cells.iter().enumerate() {
            if job.cancel.load(Ordering::Relaxed) {
                conn.cancelled.fetch_add(1, Ordering::Relaxed);
                conn.cells.fetch_add(i as u64, Ordering::Relaxed);
                conn.emit.line(&cancelled_record(job.id, "running", i));
                return;
            }
            match self.execute_cell(cell) {
                Ok((report, hit)) => {
                    if hit {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    // The record shape is shared with the sharded sweep
                    // writer so the two NDJSON streams can never drift.
                    conn.emit.line(
                        &ReportRecord {
                            id: Some(job.id),
                            cell: i,
                            name: &cell.name,
                            cached: Some(hit),
                            shard: None,
                            report: &report,
                        }
                        .render(),
                    );
                    reports.push(report);
                }
                Err(e) => {
                    conn.errors.fetch_add(1, Ordering::Relaxed);
                    conn.cells.fetch_add(i as u64, Ordering::Relaxed);
                    conn.emit.line(
                        &Json::Obj(vec![
                            ("id".into(), Json::int(job.id)),
                            ("event".into(), Json::str("error")),
                            ("cell".into(), Json::int(i as u64)),
                            ("error".into(), Json::str(e.to_string())),
                        ])
                        .to_string(),
                    );
                    return;
                }
            }
        }
        let count = reports.len();
        conn.cells.fetch_add(count as u64, Ordering::Relaxed);
        conn.completed.fetch_add(1, Ordering::Relaxed);
        conn.log.lock().expect("log lock").insert(
            job.id,
            ReplayRecord {
                spec: spec.to_string(),
                axes: axes.to_vec(),
                reports: Arc::new(reports),
            },
        );
        conn.emit.line(
            &Json::Obj(vec![
                ("id".into(), Json::int(job.id)),
                ("event".into(), Json::str("done")),
                ("cells".into(), Json::int(count as u64)),
                ("cache_hits".into(), Json::int(hits)),
                ("cache_misses".into(), Json::int(misses)),
                (
                    "elapsed_ms".into(),
                    Json::int(started.elapsed().as_millis() as u64),
                ),
            ])
            .to_string(),
        );
    }

    fn process_replay(
        &self,
        conn: &Conn<impl Write>,
        job: &Job,
        spec: &str,
        axes: &[Axis],
        expected: &Arc<Vec<String>>,
    ) {
        let outcome = (|| -> Result<(bool, usize), ScenarioError> {
            let cells = expand_cells(spec, axes)?;
            let mut identical = cells.len() == expected.len();
            for (i, cell) in cells.iter().enumerate() {
                if job.cancel.load(Ordering::Relaxed) {
                    return Ok((false, i));
                }
                let (report, _) = self.execute_cell(cell)?;
                identical &= expected.get(i).is_some_and(|want| *want == report);
            }
            Ok((identical, cells.len()))
        })();
        conn.replays.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok((identical, count)) => {
                conn.cells.fetch_add(count as u64, Ordering::Relaxed);
                if !identical {
                    conn.replay_mismatches.fetch_add(1, Ordering::Relaxed);
                }
                conn.emit.line(
                    &Json::Obj(vec![
                        ("id".into(), Json::int(job.id)),
                        ("event".into(), Json::str("replay")),
                        ("identical".into(), Json::Bool(identical)),
                        ("cells".into(), Json::int(count as u64)),
                    ])
                    .to_string(),
                );
            }
            Err(e) => {
                // A replay of a spec that ran before can only fail on a
                // changed environment (e.g. a different SINR_BACKEND);
                // surface it rather than claiming a mismatch.
                conn.replay_mismatches.fetch_add(1, Ordering::Relaxed);
                conn.errors.fetch_add(1, Ordering::Relaxed);
                conn.emit.line(&error_record(Some(job.id), &e.to_string()));
            }
        }
    }

    /// Runs one cell and renders its report, through the cache when
    /// enabled. The returned boolean is the cache-hit flag.
    fn execute_cell(&self, cell: &ScenarioSpec) -> Result<(String, bool), ScenarioError> {
        let (run, hit) = if self.config.cache {
            let (prep, hit) = self.cache.get_or_prepare(cell)?;
            (cell.build_with_prepared(&prep)?.run()?, hit)
        } else {
            (cell.build()?.run()?, false)
        };
        // Rendered once: these bytes are streamed and kept for the
        // replay comparison, never re-rendered.
        Ok((report_for(&run).to_json(), hit))
    }
}

/// Expands a request into concrete cells: the spec itself for a `run`,
/// the sweep grid (trace recording off, exactly like
/// [`ScenarioSet::cells`]) when axes are present.
fn expand_cells(spec: &str, axes: &[Axis]) -> Result<Vec<ScenarioSpec>, ScenarioError> {
    let base = ScenarioSpec::parse(spec)?;
    if axes.is_empty() {
        return Ok(vec![base]);
    }
    let mut set = ScenarioSet::new(base);
    set.axes = axes.to_vec();
    set.cells()
}

fn parse_axes(axes: Option<&Json>) -> Result<Vec<Axis>, &'static str> {
    let Some(axes) = axes else {
        return Ok(Vec::new());
    };
    let arr = axes.as_arr().ok_or("\"axes\" must be an array")?;
    arr.iter()
        .map(|axis| {
            let key = axis
                .get("key")
                .and_then(Json::as_str)
                .ok_or("each axis needs a string \"key\"")?
                .to_string();
            let raw = axis
                .get("values")
                .and_then(Json::as_arr)
                .ok_or("each axis needs a \"values\" array")?;
            let values = raw
                .iter()
                .map(|v| match v {
                    Json::Str(s) => Ok(s.clone()),
                    // Render numbers the way the report side does, so
                    // "values":[2] means the same as "values":["2"].
                    Json::Num(n) => Ok(Json::Num(*n).to_string()),
                    _ => Err("axis values must be strings or numbers"),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Axis { key, values })
        })
        .collect()
}

fn error_record(id: Option<u64>, msg: &str) -> String {
    Json::Obj(vec![
        ("id".into(), Json::opt_int(id)),
        ("event".into(), Json::str("error")),
        ("error".into(), Json::str(msg)),
    ])
    .to_string()
}

fn cancelled_record(id: u64, site: &str, cells_done: usize) -> String {
    Json::Obj(vec![
        ("id".into(), Json::int(id)),
        ("event".into(), Json::str("cancelled")),
        ("where".into(), Json::str(site)),
        ("cells_done".into(), Json::int(cells_done as u64)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SPEC: &str = "name=serve-e2e\\ndeploy=lattice:4:4:2\\n\
                        sinr=alpha:3,beta:1.5,noise:1,eps:0.1,range:8\\n\
                        backend=cached\\nworkload=repeat:stride:2\\n\
                        stop=slots:30\\nmeasure=none\\nseed=7\\n";

    fn serve(input: &str, config: ServeConfig) -> (ServeSummary, Vec<Json>) {
        let service = Service::new(config);
        let mut out = Vec::new();
        let summary = service
            .serve_connection(Cursor::new(input.to_string()), &mut out)
            .expect("connection serves");
        let text = String::from_utf8(out).expect("output is UTF-8");
        let records = text
            .lines()
            .map(|l| json::parse(l).expect("every emitted record parses"))
            .collect();
        (summary, records)
    }

    fn events(records: &[Json], id: Option<u64>) -> Vec<&str> {
        records
            .iter()
            .filter(|r| r.get("id").and_then(Json::as_u64) == id || id.is_none())
            .filter_map(|r| r.get("event").and_then(Json::as_str))
            .collect()
    }

    #[test]
    fn runs_stream_reports_then_done_then_drained() {
        let input = format!("{{\"id\":1,\"run\":\"{SPEC}\"}}\n{{\"stats\":true}}\n");
        let (summary, records) = serve(&input, ServeConfig::default());
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.cells, 1);
        assert_eq!(
            events(&records, Some(1)),
            ["accepted", "report", "done"],
            "records: {records:?}"
        );
        let report = records
            .iter()
            .find(|r| r.get("event").and_then(Json::as_str) == Some("report"))
            .unwrap();
        assert_eq!(report.get("name").and_then(Json::as_str), Some("serve-e2e"));
        // The embedded report is the standard run report.
        assert!(report
            .get("report")
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.get("horizon"))
            .is_some());
        assert_eq!(
            records.last().unwrap().get("event").and_then(Json::as_str),
            Some("drained")
        );
        // The stats record answered synchronously.
        assert!(records
            .iter()
            .any(|r| r.get("event").and_then(Json::as_str) == Some("stats")));
    }

    #[test]
    fn sweeps_expand_axes_and_repeat_requests_hit_the_cache() {
        let input = format!(
            "{{\"id\":1,\"sweep\":\"{SPEC}\",\
             \"axes\":[{{\"key\":\"mac\",\"values\":[\"sinr\",\"tdma\"]}}]}}\n\
             {{\"id\":2,\"run\":\"{SPEC}\"}}\n"
        );
        let (summary, records) = serve(&input, ServeConfig::default());
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.cells, 3, "2 sweep cells + 1 run");
        // Same deployment×sinr×backend-class everywhere: one miss, the
        // rest hits, whichever request got in first.
        assert_eq!(summary.cache.misses, 1);
        assert_eq!(summary.cache.hits, 2);
        let dones: Vec<_> = records
            .iter()
            .filter(|r| r.get("event").and_then(Json::as_str) == Some("done"))
            .collect();
        assert_eq!(dones.len(), 2);
    }

    #[test]
    fn replay_is_byte_identical_and_unknown_ids_error() {
        let input =
            format!("{{\"id\":4,\"run\":\"{SPEC}\"}}\n{{\"replay\":4}}\n{{\"replay\":99}}\n");
        let (summary, records) = serve(&input, ServeConfig::default());
        assert_eq!(summary.replays, 1);
        assert_eq!(summary.replay_mismatches, 0, "records: {records:?}");
        let replay = records
            .iter()
            .find(|r| r.get("event").and_then(Json::as_str) == Some("replay"))
            .expect("replay record emitted");
        assert_eq!(replay.get("identical").and_then(Json::as_bool), Some(true));
        assert_eq!(summary.errors, 1, "the unknown id is an error record");
    }

    #[test]
    fn cancel_of_a_queued_request_drops_it_before_execution() {
        // One worker and a long job first keeps id=2 queued until the
        // cancel line is read — cancellation is then deterministic.
        let long = SPEC.replace("stop=slots:30", "stop=slots:4000");
        let input = format!(
            "{{\"id\":1,\"run\":\"{long}\"}}\n{{\"id\":2,\"run\":\"{SPEC}\"}}\n\
             {{\"cancel\":2}}\n"
        );
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let (summary, records) = serve(&input, config);
        assert_eq!(summary.cancelled, 1);
        assert_eq!(summary.completed, 1, "the long job still completes");
        assert_eq!(events(&records, Some(2)), ["accepted", "cancelled"]);
        let cancelled = records
            .iter()
            .find(|r| r.get("event").and_then(Json::as_str) == Some("cancelled"))
            .unwrap();
        assert_eq!(
            cancelled.get("where").and_then(Json::as_str),
            Some("queued")
        );
    }

    #[test]
    fn malformed_and_unknown_requests_get_error_records_not_crashes() {
        // Request 3 parses but names an ideal policy with fprog > fack,
        // which the layer constructor would assert on. Request 4 names a
        // hybrid cutoff below the minimum node distance, whose far-field
        // table on this lattice would need 277 GB; request 5 is valid
        // and must still complete.
        let tiny_cutoff = SPEC
            .replace("lattice:4:4:2", "lattice:32:32:2")
            .replace("backend=cached", "backend=hybrid:0.001");
        let input = format!(
            "not json at all\n\
             {{\"id\":1}}\n\
             {{\"run\":\"x\"}}\n\
             {{\"cancel\":\"x\"}}\n\
             {{\"id\":2,\"run\":\"deploy=bogus\\n\"}}\n\
             {{\"id\":3,\"run\":\"{SPEC}mac=ideal:random:2:5\\n\"}}\n\
             {{\"id\":4,\"run\":\"{tiny_cutoff}\"}}\n\
             {{\"id\":5,\"run\":\"{SPEC}\"}}\n"
        );
        let (summary, records) = serve(&input, ServeConfig::default());
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.errors, 7, "records: {records:?}");
        assert!(events(&records, Some(4)).contains(&"error"), "{records:?}");
        assert_eq!(events(&records, Some(5)), ["accepted", "report", "done"]);
        assert_eq!(
            records.last().unwrap().get("event").and_then(Json::as_str),
            Some("drained")
        );
    }

    #[test]
    fn retired_backend_component_is_an_error_record_and_serving_continues() {
        // Requests naming the retired `f32` backend component or the
        // retired `grid` model are refused with a structured error naming
        // the component, and the next request on the connection is
        // served as usual.
        let retired = [("cached:f32", "\"f32\""), ("grid:8", "\"grid\"")];
        let mut input = String::new();
        for (id, (backend, _)) in (1..).zip(retired) {
            let spec = SPEC.replace("backend=cached", &format!("backend={backend}"));
            input += &format!("{{\"id\":{id},\"run\":\"{spec}\"}}\n");
        }
        input += &format!("{{\"id\":3,\"run\":\"{SPEC}\"}}\n");
        let (summary, records) = serve(&input, ServeConfig::default());
        assert_eq!(summary.errors, 2, "records: {records:?}");
        assert_eq!(summary.completed, 1);
        for (id, (_, name)) in (1..).zip(retired) {
            let error = records
                .iter()
                .find(|r| {
                    r.get("id").and_then(Json::as_u64) == Some(id)
                        && r.get("event").and_then(Json::as_str) == Some("error")
                })
                .and_then(|r| r.get("error"))
                .and_then(Json::as_str)
                .expect("error record emitted");
            assert!(error.contains(name), "{error}");
        }
        assert_eq!(events(&records, Some(3)), ["accepted", "report", "done"]);
    }

    #[test]
    fn failing_cell_error_record_keeps_its_byte_layout() {
        // A spec that parses but cannot build fails at its cell: the
        // record carries the cell index between `event` and `error`.
        let crowded = SPEC.replace("lattice:4:4:2", "uniform:1000:1:1");
        let service = Service::new(ServeConfig::default());
        let mut out = Vec::new();
        service
            .serve_connection(
                Cursor::new(format!("{{\"id\":1,\"run\":\"{crowded}\"}}\n")),
                &mut out,
            )
            .expect("connection serves");
        let text = String::from_utf8(out).expect("output is UTF-8");
        let line = text
            .lines()
            .nth(1)
            .expect("an error record follows accepted");
        assert!(
            line.starts_with(
                "{\"id\":1,\"event\":\"error\",\"cell\":0,\"error\":\"deployment error: "
            ) && line.ends_with("\"}"),
            "{line}"
        );
    }

    #[test]
    fn no_cache_mode_never_caches_but_reports_match() {
        let input = format!("{{\"id\":1,\"run\":\"{SPEC}\"}}\n{{\"id\":2,\"run\":\"{SPEC}\"}}\n");
        let cached = serve(&input, ServeConfig::default());
        let cold = serve(
            &input,
            ServeConfig {
                cache: false,
                ..ServeConfig::default()
            },
        );
        assert_eq!(cold.0.cache.hits + cold.0.cache.misses, 0);
        assert_eq!(cached.0.cache.hits, 1);
        let report_of = |records: &[Json], id: u64| -> Json {
            records
                .iter()
                .find(|r| {
                    r.get("id").and_then(Json::as_u64) == Some(id)
                        && r.get("event").and_then(Json::as_str) == Some("report")
                })
                .and_then(|r| r.get("report"))
                .cloned()
                .expect("report record present")
        };
        // Cache on/off and hit/miss must not change results.
        assert_eq!(report_of(&cached.1, 1), report_of(&cached.1, 2));
        assert_eq!(report_of(&cached.1, 1), report_of(&cold.1, 1));
    }

    #[cfg(unix)]
    #[test]
    fn socket_transport_round_trips() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir().join(format!("sinr-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("serve.sock");
        let service = Service::new(ServeConfig::default());
        std::thread::scope(|s| {
            let server = s.spawn(|| service.serve_socket(&path, true));
            // The listener may not be bound yet; retry briefly.
            let mut stream = loop {
                match UnixStream::connect(&path) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
                }
            };
            writeln!(stream, "{{\"id\":1,\"run\":\"{SPEC}\"}}").expect("request writes");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("shutdown write half");
            let reader = BufReader::new(&stream);
            let mut saw_done = false;
            let mut saw_drained = false;
            for line in reader.lines() {
                let v = json::parse(&line.expect("line reads")).expect("record parses");
                match v.get("event").and_then(Json::as_str) {
                    Some("done") => saw_done = true,
                    Some("drained") => saw_drained = true,
                    _ => {}
                }
            }
            assert!(saw_done && saw_drained);
            server
                .join()
                .expect("server thread")
                .expect("serves cleanly");
        });
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
