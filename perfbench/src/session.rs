//! One open-loop connection to the scenario service, driven in-process:
//! a paced reader releases each NDJSON request at its due time, a
//! recorder timestamps every response record as the service flushes it,
//! and the records are matched back to their requests afterwards.

use std::io::{self, BufRead, Read, Write};
use std::time::{Duration, Instant};

use sinr_serve::json::{self, Value};
use sinr_serve::{ServeSummary, Service};

/// What a request asks the service to do.
#[derive(Debug, Clone)]
pub enum Kind {
    /// A `run` (one cell) or `sweep` (several cells) request.
    Run {
        /// Spec text, for the batch cross-check.
        spec: String,
        /// Cells the request expands to.
        cells: usize,
    },
    /// A `{"replay":N}` probe of an earlier run.
    Replay,
}

/// One request of a session.
#[derive(Debug, Clone)]
pub struct Request {
    /// Offset from the session start at which the request is due.
    pub due: Duration,
    /// The request id (for a replay: the id it replays).
    pub id: u64,
    /// The NDJSON line sent.
    pub line: String,
    /// What it asks for.
    pub kind: Kind,
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// When it was due.
    pub due: Instant,
    /// When the reader handed it to the service.
    pub released: Option<Instant>,
    /// When the `accepted` record was flushed.
    pub accepted: Option<Instant>,
    /// When the closing record (`done`, `replay`, `error`, `cancelled`)
    /// was flushed.
    pub closed: Option<Instant>,
    /// Whether it closed successfully (`done`, or an identical replay).
    pub ok: bool,
    /// Report bytes of each served cell, in cell order.
    pub reports: Vec<String>,
}

impl Outcome {
    /// Due time → closing record, in seconds.
    pub fn latency(&self) -> Option<f64> {
        self.closed.map(|c| secs(self.due, c))
    }
}

/// Seconds from `a` to `b` (0 if `b` is earlier).
pub fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// A finished session.
pub struct Session {
    /// Per-request outcomes, in request order.
    pub outcomes: Vec<Outcome>,
    /// The service's own summary of the connection.
    pub summary: ServeSummary,
    /// Records the matcher could not attribute, or errors it saw.
    pub problems: Vec<String>,
}

/// Releases one line per due time; `lines()` on the service side reads
/// through `fill_buf`/`consume`.
struct Paced<'a> {
    requests: &'a [Request],
    start: Instant,
    next: usize,
    pos: usize,
    buf: Vec<u8>,
    released: Vec<Instant>,
}

impl BufRead for Paced<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.next >= self.requests.len() {
            return Ok(&[]);
        }
        if self.released.len() == self.next {
            let due = self.start + self.requests[self.next].due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            self.released.push(Instant::now());
            self.buf.clear();
            self.buf
                .extend_from_slice(self.requests[self.next].line.as_bytes());
            self.buf.push(b'\n');
            self.pos = 0;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
        if self.pos >= self.buf.len() && self.released.len() > self.next {
            self.next += 1;
        }
    }
}

impl Read for Paced<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Timestamps each complete record when the service flushes it.
#[derive(Default)]
struct Recorder {
    pending: Vec<u8>,
    lines: Vec<(Instant, Vec<u8>)>,
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let now = Instant::now();
        while let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
            let rest = self.pending.split_off(nl + 1);
            let mut line = std::mem::replace(&mut self.pending, rest);
            line.pop();
            self.lines.push((now, line));
        }
        Ok(())
    }
}

/// Serves `requests` on one connection of `service`, each released at
/// `start + due`, and matches the response records back to them.
///
/// # Errors
///
/// The connection's I/O error.
pub fn serve(service: &Service, requests: &[Request], start: Instant) -> Result<Session, String> {
    let mut reader = Paced {
        requests,
        start,
        next: 0,
        pos: 0,
        buf: Vec::new(),
        released: Vec::with_capacity(requests.len()),
    };
    let mut recorder = Recorder::default();
    let summary = service
        .serve_connection(&mut reader, &mut recorder)
        .map_err(|e| format!("serve connection: {e}"))?;
    recorder.flush().map_err(|e| e.to_string())?;

    let mut outcomes: Vec<Outcome> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| Outcome {
            due: start + r.due,
            released: reader.released.get(i).copied(),
            accepted: None,
            closed: None,
            ok: false,
            reports: Vec::new(),
        })
        .collect();
    let mut problems = Vec::new();
    // Requests sharing an id (a run and its replays) are accepted and
    // closed in issue order, so a per-id cursor attributes records.
    let by_id = |id: u64| -> Vec<usize> {
        requests
            .iter()
            .enumerate()
            .filter(|(_, r)| r.id == id)
            .map(|(i, _)| i)
            .collect()
    };
    let mut index: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
    for (at, raw) in &recorder.lines {
        let text = String::from_utf8_lossy(raw);
        let record = match json::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                problems.push(format!("unparseable record ({e}): {text}"));
                continue;
            }
        };
        let event = record.get("event").and_then(Value::as_str).unwrap_or("");
        if event == "drained" || event == "stats" {
            continue;
        }
        let Some(id) = record.get("id").and_then(Value::as_u64) else {
            problems.push(format!("record without id: {text}"));
            continue;
        };
        let members = index.entry(id).or_insert_with(|| by_id(id));
        let first =
            |pred: &dyn Fn(&Outcome) -> bool| members.iter().copied().find(|&i| pred(&outcomes[i]));
        match event {
            "accepted" => match first(&|o| o.accepted.is_none()) {
                Some(i) => outcomes[i].accepted = Some(*at),
                None => problems.push(format!("unexpected accepted for id {id}")),
            },
            "report" => {
                let body = text
                    .find(",\"report\":")
                    .map(|p| &text[p + ",\"report\":".len()..text.len() - 1]);
                match (first(&|o| o.accepted.is_some() && o.closed.is_none()), body) {
                    (Some(i), Some(body)) => outcomes[i].reports.push(body.to_string()),
                    _ => problems.push(format!("unattributed report for id {id}")),
                }
            }
            "done" | "replay" | "error" | "cancelled" => {
                match first(&|o| o.accepted.is_some() && o.closed.is_none())
                    .or_else(|| first(&|o| o.closed.is_none()))
                {
                    Some(i) => {
                        let o = &mut outcomes[i];
                        o.closed = Some(*at);
                        o.ok = match event {
                            "done" => true,
                            "replay" => {
                                record.get("identical").and_then(Value::as_bool) == Some(true)
                            }
                            _ => false,
                        };
                        if !o.ok {
                            problems.push(format!("request {id} failed: {text}"));
                        }
                    }
                    None => problems.push(format!("unattributed {event} for id {id}")),
                }
            }
            other => problems.push(format!("unknown event {other:?}: {text}")),
        }
    }
    for (o, r) in outcomes.iter_mut().zip(requests) {
        if let Kind::Run { cells, .. } = r.kind {
            if o.ok && o.reports.len() != cells {
                o.ok = false;
                problems.push(format!(
                    "request {} served {} of {cells} cells",
                    r.id,
                    o.reports.len()
                ));
            }
        }
        if o.closed.is_none() {
            problems.push(format!("request {} never closed", r.id));
        }
    }
    Ok(Session {
        outcomes,
        summary,
        problems,
    })
}

/// A `run` request line.
pub fn run_line(id: u64, spec: &str) -> String {
    sinr_scenario::Json::Obj(vec![
        ("id".into(), sinr_scenario::Json::int(id)),
        ("run".into(), sinr_scenario::Json::str(spec)),
    ])
    .to_string()
}

/// A one-axis `sweep` request line.
pub fn sweep_line(id: u64, spec: &str, key: &str, values: &[&str]) -> String {
    use sinr_scenario::Json;
    Json::Obj(vec![
        ("id".into(), Json::int(id)),
        ("sweep".into(), Json::str(spec)),
        (
            "axes".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("key".into(), Json::str(key)),
                (
                    "values".into(),
                    Json::Arr(values.iter().map(|v| Json::str(*v)).collect()),
                ),
            ])]),
        ),
    ])
    .to_string()
}

/// A replay probe line.
pub fn replay_line(target: u64) -> String {
    format!("{{\"replay\":{target}}}")
}
