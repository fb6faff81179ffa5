//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.call`), a start and an end, the span that
//! caused it and the id of the run or request it belongs to. Spans are
//! only recorded when tracing is on; they are written out as NDJSON
//! when the benchmark ends, and each layer's self time is derived from
//! them: a span's duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `scenario.prepare`.
    pub name: &'static str,
    /// The run or request this span belongs to.
    pub id: u64,
    /// Start of the interval.
    pub start: Instant,
    /// End of the interval.
    pub end: Instant,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's length in seconds.
    pub fn secs(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder; a no-op when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            id,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = Instant::now();
        out
    }

    /// Records an interval measured elsewhere (the serve timestamps);
    /// returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            id,
            start,
            end,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time in seconds per layer: each span's duration minus the
    /// union of its children's intervals (clipped to it), summed by layer.
    pub fn self_secs_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut kids: Vec<(Instant, Instant)> = children[i]
                .iter()
                .map(|&c| {
                    let k = &self.spans[c];
                    (k.start.max(s.start), k.end.min(s.end))
                })
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort();
            let mut covered = 0.0;
            let mut cursor: Option<(Instant, Instant)> = None;
            for (a, b) in kids {
                match cursor {
                    Some((ca, cb)) if a <= cb => cursor = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += (cb - ca).as_secs_f64();
                        cursor = Some((a, b));
                    }
                    None => cursor = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cursor {
                covered += (cb - ca).as_secs_f64();
            }
            *out.entry(s.layer()).or_insert(0.0) += (s.secs() - covered).max(0.0);
        }
        out
    }

    /// Writes every span as one NDJSON line: name, id, start and end in
    /// microseconds since the recorder was created, parent index.
    ///
    /// # Errors
    ///
    /// Any error `w` reports.
    pub fn write_ndjson(&self, w: &mut dyn Write) -> io::Result<()> {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent}}}",
                s.name,
                s.id,
                us(s.start),
                us(s.end)
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("scenario.run", 1, |t| t.span("phys.decide", 1, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms| base + Duration::from_millis(ms);
        let root = t.record("serve.request", 1, at(0), at(100), None);
        t.record("loadgen.lag", 1, at(0), at(10), root);
        t.record("serve.exec", 1, at(40), at(100), root);
        t.record("scenario.run", 1, at(50), at(90), Some(2));
        let by = t.self_secs_by_layer();
        assert!((by["serve"] - (0.030 + 0.020)).abs() < 1e-9, "{by:?}");
        assert!((by["loadgen"] - 0.010).abs() < 1e-9);
        assert!((by["scenario"] - 0.040).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_link_parents() {
        let mut t = Tracer::new(true);
        t.span("bench.pipeline", 3, |t| {
            t.span("scenario.parse", 3, |_| ());
            t.span("scenario.report", 3, |t| {
                t.span("graphs.diameter", 3, |_| ())
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        let mut buf = Vec::new();
        t.write_ndjson(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 4);
    }
}
