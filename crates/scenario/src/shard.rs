//! Crash-safe sharded sweep output: NDJSON report records, shard
//! manifests, resume scanning and merge validation.
//!
//! A sharded sweep writes two files per shard into the output
//! directory:
//!
//! * `shard-K-of-N.ndjson` — one [`ReportRecord`] line per completed
//!   cell, written with a single `write_all` and flushed before the
//!   cell counts as done. A `\n` only ever follows a complete record,
//!   so after a crash (even SIGKILL mid-write) everything up to the
//!   last newline is a valid prefix and at most one torn tail exists —
//!   [`ShardOutput::resume`] truncates it and re-runs that one cell.
//!   **This file is the completion truth**: a cell is done iff its
//!   record line is complete.
//! * `shard-K-of-N.manifest` — the sweep identity header (sweep key,
//!   cell count, shard assignment) followed by advisory
//!   `{"event":"done","cell":i}` records. The header is what `--resume`
//!   validates before trusting the output file; the done-records are
//!   bookkeeping for humans and dashboards, never consulted for
//!   correctness (they can lag the output by one crash window).
//!
//! The **sweep key** fingerprints everything that determines the
//! expanded grid — base spec text, axes, reseeding and trace policy —
//! so resuming against a directory produced by a different sweep fails
//! loudly instead of silently stitching unrelated reports together.
//! `shared_prepare` is deliberately excluded: it is proven
//! byte-identical (see `tests/sweep_equivalence.rs`), so toggling it
//! may not invalidate completed work.
//!
//! Records are read back with the crate's JSON parser ([`crate::json`])
//! and then re-rendered: a line counts only if the writer reproduces it
//! byte for byte, so anything the writer could not have produced (other
//! key order, whitespace, escapes or number spellings) is corruption.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::json::{self, Json};
use crate::report::Report;
use crate::spec::ScenarioSpec;
use crate::sweep::{unescape_cell_name, Shard};
use crate::{ScenarioError, ScenarioSet};

/// FNV-1a, 64-bit, over tagged length-prefixed fields (so field
/// boundaries can never alias: `["ab","c"]` and `["a","bc"]` hash
/// differently).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn field(&mut self, tag: u8, bytes: &[u8]) {
        self.byte(tag);
        for b in (bytes.len() as u64).to_le_bytes() {
            self.byte(b);
        }
        for &b in bytes {
            self.byte(b);
        }
    }
}

/// The sweep's identity fingerprint: a 64-bit hash of the base spec
/// text, every axis (key and values, in order), and the `reseed` /
/// `keep_traces` flags — exactly the inputs that determine the expanded
/// grid and its per-cell seeds. [`ScenarioSet::shared_prepare`] is
/// excluded on purpose: it is proven not to change any report byte, so
/// it may be toggled across resume without invalidating completed work.
pub fn sweep_key(set: &ScenarioSet) -> u64 {
    let mut h = Fnv::new();
    h.field(0, set.base.to_string().as_bytes());
    for axis in &set.axes {
        h.field(1, axis.key.as_bytes());
        for value in &axis.values {
            h.field(2, value.as_bytes());
        }
    }
    h.field(3, &[u8::from(set.reseed), u8::from(set.keep_traces)]);
    h.0
}

/// One NDJSON `report` record: the shape the scenario service streams
/// per cell and the sharded sweep writes per line, built in one place
/// so the two can never drift. Optional fields are omitted (not
/// nulled); the `report` member is a pre-rendered JSON object and is
/// always **last**, so a parser can recover it byte-identically as the
/// line's tail.
#[derive(Debug, Clone, Copy)]
pub struct ReportRecord<'a> {
    /// Service request id (service records only).
    pub id: Option<u64>,
    /// Global cell index within the expanded grid.
    pub cell: usize,
    /// Rendered cell name (`base/key=value/…`, percent-escaped).
    pub name: &'a str,
    /// Service cache disposition (service records only).
    pub cached: Option<bool>,
    /// Owning shard index (sharded sweep records only).
    pub shard: Option<usize>,
    /// The cell's report, already rendered as a JSON object.
    pub report: &'a str,
}

impl ReportRecord<'_> {
    /// Renders the record as one JSON object (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.report.len() + self.name.len() + 64);
        out.push('{');
        if let Some(id) = self.id {
            let _ = write!(out, "\"id\":{id},");
        }
        let _ = write!(
            out,
            "\"event\":\"report\",\"cell\":{},\"name\":{}",
            self.cell,
            Json::str(self.name)
        );
        if let Some(cached) = self.cached {
            let _ = write!(out, ",\"cached\":{cached}");
        }
        if let Some(shard) = self.shard {
            let _ = write!(out, ",\"shard\":{shard}");
        }
        let _ = write!(out, ",\"report\":{}}}", self.report);
        out
    }
}

/// A parsed sharded-output line: what [`ReportRecord`] with `shard`
/// set (and `id`/`cached` unset) renders.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ParsedRecord {
    cell: usize,
    name: String,
    shard: usize,
    /// The report object, byte-identical to what was written.
    report: String,
}

impl ParsedRecord {
    fn render(&self) -> String {
        ReportRecord {
            id: None,
            cell: self.cell,
            name: &self.name,
            cached: None,
            shard: Some(self.shard),
            report: &self.report,
        }
        .render()
    }
}

/// A non-negative integer member of a parsed record.
fn usize_field(v: &Json, key: &str) -> Option<usize> {
    v.get(key).and_then(Json::as_u64).map(|x| x as usize)
}

/// Accepts a parsed line only if the writer's rendering of it is the
/// line itself.
fn canonical(line: &str, rendered: &str) -> Result<(), String> {
    match line.bytes().zip(rendered.bytes()).position(|(a, b)| a != b) {
        None if line.len() == rendered.len() => Ok(()),
        at => Err(format!(
            "not a record this writer produced (differs at byte {})",
            at.unwrap_or(line.len().min(rendered.len()))
        )),
    }
}

fn parse_report_line(line: &str) -> Result<ParsedRecord, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let (Some(cell), Some(name), Some(shard), Some(report @ Json::Obj(_))) = (
        usize_field(&v, "cell"),
        v.get("name").and_then(Json::as_str),
        usize_field(&v, "shard"),
        v.get("report"),
    ) else {
        return Err("not a report record (needs cell, name, shard and a report object)".into());
    };
    let rec = ParsedRecord {
        cell,
        name: name.to_string(),
        shard,
        report: report.to_string(),
    };
    canonical(line, &rec.render())?;
    Ok(rec)
}

/// The manifest's first line: sweep identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ManifestHeader {
    key: u64,
    cells: usize,
    shard: Shard,
}

impl ManifestHeader {
    fn render(&self) -> String {
        Json::Obj(vec![
            ("event".into(), Json::str("sweep")),
            ("key".into(), Json::str(format!("{:016x}", self.key))),
            ("cells".into(), Json::int(self.cells as u64)),
            ("shard".into(), Json::int(self.shard.index as u64)),
            ("shards".into(), Json::int(self.shard.count as u64)),
        ])
        .to_string()
    }

    fn parse(line: &str) -> Result<ManifestHeader, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let key = v
            .get("key")
            .and_then(Json::as_str)
            .and_then(|k| u64::from_str_radix(k, 16).ok());
        let (Some(key), Some(cells), Some(index), Some(count)) = (
            key,
            usize_field(&v, "cells"),
            usize_field(&v, "shard"),
            usize_field(&v, "shards"),
        ) else {
            return Err("not a manifest header (needs key, cells, shard and shards)".into());
        };
        let header = ManifestHeader {
            key,
            cells,
            shard: Shard { index, count },
        };
        canonical(line, &header.render())?;
        if count == 0 || index >= count {
            return Err(format!("manifest shard {index}/{count} needs 0 <= K < N"));
        }
        Ok(header)
    }
}

fn sweep_err(path: &Path, what: impl std::fmt::Display) -> ScenarioError {
    ScenarioError::Sweep(format!("{}: {what}", path.display()))
}

/// `DIR/shard-K-of-N.ndjson`.
pub fn output_path(dir: &Path, shard: Shard) -> PathBuf {
    dir.join(format!("shard-{}-of-{}.ndjson", shard.index, shard.count))
}

/// `DIR/shard-K-of-N.manifest`.
pub fn manifest_path(dir: &Path, shard: Shard) -> PathBuf {
    dir.join(format!("shard-{}-of-{}.manifest", shard.index, shard.count))
}

/// Reads a file and truncates any torn (newline-less) tail left by a
/// crash mid-write, returning the complete-lines prefix. The handle is
/// left positioned at the (possibly new) end, ready for appending.
fn read_complete_lines(f: &mut File, path: &Path) -> Result<String, ScenarioError> {
    let mut buf = String::new();
    f.read_to_string(&mut buf).map_err(|e| sweep_err(path, e))?;
    let keep = buf.rfind('\n').map_or(0, |i| i + 1);
    if keep < buf.len() {
        f.set_len(keep as u64).map_err(|e| sweep_err(path, e))?;
        buf.truncate(keep);
    }
    f.seek(SeekFrom::Start(keep as u64))
        .map_err(|e| sweep_err(path, e))?;
    Ok(buf)
}

/// The crash-safe writer for one shard's two files. `record` is safe to
/// call from many worker threads (the executor's sink): each call
/// writes the report line with one `write_all` + flush under a lock, so
/// lines never interleave and a kill can tear at most the final line.
#[derive(Debug)]
pub struct ShardOutput {
    /// `(output, manifest)` under one lock so done-records keep the
    /// output's order.
    files: Mutex<(File, File)>,
    out_path: PathBuf,
    shard: Shard,
}

impl ShardOutput {
    /// Starts a fresh shard: creates `dir`, writes the manifest header
    /// and truncates any previous output.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Sweep`] on I/O failure, or if this shard's
    /// manifest already exists — a fresh start must not silently
    /// clobber resumable work; pass `--resume` (use
    /// [`ShardOutput::resume`]) to continue it.
    pub fn create(
        dir: &Path,
        set: &ScenarioSet,
        cells: usize,
        shard: Shard,
    ) -> Result<ShardOutput, ScenarioError> {
        std::fs::create_dir_all(dir).map_err(|e| sweep_err(dir, e))?;
        let m_path = manifest_path(dir, shard);
        if m_path.exists() {
            return Err(sweep_err(
                &m_path,
                "manifest already exists; pass --resume to continue it \
                 (or point --out at a fresh directory)",
            ));
        }
        let header = ManifestHeader {
            key: sweep_key(set),
            cells,
            shard,
        };
        let mut manifest = File::create(&m_path).map_err(|e| sweep_err(&m_path, e))?;
        manifest
            .write_all(format!("{}\n", header.render()).as_bytes())
            .and_then(|()| manifest.flush())
            .map_err(|e| sweep_err(&m_path, e))?;
        let out_path = output_path(dir, shard);
        let out = File::create(&out_path).map_err(|e| sweep_err(&out_path, e))?;
        Ok(ShardOutput {
            files: Mutex::new((out, manifest)),
            out_path,
            shard,
        })
    }

    /// Reopens a shard for resumption: validates the manifest header
    /// (sweep key, cell count, shard assignment) against the current
    /// sweep, scans the output for complete report lines — each
    /// checked for shard ownership, index range and a cell name that
    /// [`unescape_cell_name`]-decodes to the expanded grid's name at
    /// that index — truncates torn tails in both files, and returns the
    /// writer plus the set of already-completed cells. A shard with no
    /// manifest yet starts fresh (so one `--resume` command works for
    /// mixed finished/unstarted shards).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Sweep`] on I/O failure, identity mismatch
    /// (different sweep key / cell count / shard grid) or a corrupt
    /// record (undecodable line, wrong owner, out-of-range or duplicate
    /// cell, name not matching the grid).
    pub fn resume(
        dir: &Path,
        set: &ScenarioSet,
        cells: &[ScenarioSpec],
        shard: Shard,
    ) -> Result<(ShardOutput, BTreeSet<usize>), ScenarioError> {
        let m_path = manifest_path(dir, shard);
        if !m_path.exists() {
            let fresh = ShardOutput::create(dir, set, cells.len(), shard)?;
            return Ok((fresh, BTreeSet::new()));
        }
        let mut manifest = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&m_path)
            .map_err(|e| sweep_err(&m_path, e))?;
        let m_text = read_complete_lines(&mut manifest, &m_path)?;
        let header = m_text
            .lines()
            .next()
            .ok_or_else(|| sweep_err(&m_path, "empty manifest"))
            .and_then(|l| ManifestHeader::parse(l).map_err(|e| sweep_err(&m_path, e)))?;
        let want = ManifestHeader {
            key: sweep_key(set),
            cells: cells.len(),
            shard,
        };
        if header != want {
            return Err(sweep_err(
                &m_path,
                format!(
                    "sweep identity mismatch: manifest has key={:016x} cells={} shard={}, \
                     current sweep is key={:016x} cells={} shard={} — refusing to mix outputs",
                    header.key, header.cells, header.shard, want.key, want.cells, want.shard
                ),
            ));
        }
        let out_path = output_path(dir, shard);
        let mut out = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&out_path)
            .map_err(|e| sweep_err(&out_path, e))?;
        let o_text = read_complete_lines(&mut out, &out_path)?;
        let mut completed = BTreeSet::new();
        for line in o_text.lines() {
            let rec = parse_report_line(line).map_err(|e| sweep_err(&out_path, e))?;
            if rec.shard != shard.index || !shard.owns(rec.cell) {
                return Err(sweep_err(
                    &out_path,
                    format!("cell {} is not owned by shard {shard}", rec.cell),
                ));
            }
            let expected = cells.get(rec.cell).ok_or_else(|| {
                sweep_err(
                    &out_path,
                    format!("cell {} out of range ({} cells)", rec.cell, cells.len()),
                )
            })?;
            let recorded = unescape_cell_name(&rec.name).map_err(|e| sweep_err(&out_path, e))?;
            let grid = unescape_cell_name(&expected.name).map_err(|e| sweep_err(&out_path, e))?;
            if recorded != grid {
                return Err(sweep_err(
                    &out_path,
                    format!(
                        "cell {} name {:?} does not decode to the grid's {:?}",
                        rec.cell, rec.name, expected.name
                    ),
                ));
            }
            if !completed.insert(rec.cell) {
                return Err(sweep_err(
                    &out_path,
                    format!("cell {} recorded twice", rec.cell),
                ));
            }
        }
        Ok((
            ShardOutput {
                files: Mutex::new((out, manifest)),
                out_path,
                shard,
            },
            completed,
        ))
    }

    /// Writes one completed cell: the report line (single `write_all`,
    /// flushed — after this returns the cell survives any kill) and
    /// then the advisory manifest done-record.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Sweep`] wrapping the I/O error.
    pub fn record(&self, cell: usize, report: &Report) -> Result<(), ScenarioError> {
        let rendered = report.to_json();
        let line = ReportRecord {
            id: None,
            cell,
            name: &report.name,
            cached: None,
            shard: Some(self.shard.index),
            report: &rendered,
        }
        .render();
        let done = Json::Obj(vec![
            ("event".into(), Json::str("done")),
            ("cell".into(), Json::int(cell as u64)),
        ]);
        let mut files = self.files.lock().unwrap_or_else(PoisonError::into_inner);
        files
            .0
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| files.0.flush())
            .map_err(|e| sweep_err(&self.out_path, e))?;
        files
            .1
            .write_all(format!("{done}\n").as_bytes())
            .and_then(|()| files.1.flush())
            .map_err(|e| sweep_err(&self.out_path, e))
    }
}

/// A validated merge of every shard in an output directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedSweep {
    /// The common sweep key.
    pub key: u64,
    /// Shard count.
    pub shards: usize,
    /// Per-cell report JSON, in global cell order — byte-identical to
    /// what a single-process `sweep --json` run renders per cell.
    pub reports: Vec<String>,
}

/// Merges a sharded sweep's output directory: every manifest must
/// agree on the sweep identity, shards `0..N` must all be present, and
/// the report lines must cover every cell exactly once with each cell
/// in its owner's file. Reports come back in global cell order.
///
/// # Errors
///
/// [`ScenarioError::Sweep`] describing the first inconsistency: missing
/// or disagreeing manifests, a torn/corrupt record (an unfinished shard
/// — resume it first), foreign or duplicate cells, or incomplete
/// coverage.
pub fn merge_shards(dir: &Path) -> Result<MergedSweep, ScenarioError> {
    let entries = std::fs::read_dir(dir).map_err(|e| sweep_err(dir, e))?;
    let mut headers: Vec<ManifestHeader> = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| sweep_err(dir, e))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("manifest") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| sweep_err(&path, e))?;
        let first = text
            .lines()
            .next()
            .ok_or_else(|| sweep_err(&path, "empty manifest"))?;
        headers.push(ManifestHeader::parse(first).map_err(|e| sweep_err(&path, e))?);
    }
    let Some(first) = headers.first().copied() else {
        return Err(sweep_err(dir, "no shard manifests found"));
    };
    for h in &headers {
        if h.key != first.key || h.cells != first.cells || h.shard.count != first.shard.count {
            return Err(sweep_err(
                dir,
                format!(
                    "manifests disagree: shard {} has key={:016x} cells={} shards={}, \
                     shard {} has key={:016x} cells={} shards={}",
                    first.shard.index,
                    first.key,
                    first.cells,
                    first.shard.count,
                    h.shard.index,
                    h.key,
                    h.cells,
                    h.shard.count
                ),
            ));
        }
    }
    let present: BTreeSet<usize> = headers.iter().map(|h| h.shard.index).collect();
    if present.len() != headers.len() || present != (0..first.shard.count).collect() {
        return Err(sweep_err(
            dir,
            format!(
                "expected manifests for shards 0..{} exactly once, found {present:?}",
                first.shard.count
            ),
        ));
    }
    let mut reports: BTreeMap<usize, String> = BTreeMap::new();
    for k in 0..first.shard.count {
        let shard = Shard {
            index: k,
            count: first.shard.count,
        };
        let path = output_path(dir, shard);
        let text = std::fs::read_to_string(&path).map_err(|e| sweep_err(&path, e))?;
        if !text.is_empty() && !text.ends_with('\n') {
            return Err(sweep_err(
                &path,
                "torn final record (shard unfinished? resume it before merging)",
            ));
        }
        for line in text.lines() {
            let rec = parse_report_line(line).map_err(|e| sweep_err(&path, e))?;
            if rec.shard != k || !shard.owns(rec.cell) || rec.cell >= first.cells {
                return Err(sweep_err(
                    &path,
                    format!(
                        "cell {} does not belong in shard {shard}'s output",
                        rec.cell
                    ),
                ));
            }
            if reports.insert(rec.cell, rec.report).is_some() {
                return Err(sweep_err(
                    &path,
                    format!("cell {} recorded twice", rec.cell),
                ));
            }
        }
    }
    if reports.len() != first.cells {
        let missing = (0..first.cells).find(|i| !reports.contains_key(i));
        return Err(sweep_err(
            dir,
            format!(
                "incomplete sweep: {} of {} cells recorded (first missing: cell {}) — \
                 run or resume the missing shards before merging",
                reports.len(),
                first.cells,
                missing.unwrap_or(0)
            ),
        ));
    }
    Ok(MergedSweep {
        key: first.key,
        shards: first.shard.count,
        reports: reports.into_values().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DeploymentSpec, SourceSet, StopSpec, WorkloadSpec};
    use sinr_geom::DeploySpec;

    fn base() -> ScenarioSpec {
        ScenarioSpec::new(
            "shard-base",
            DeploymentSpec::plain(DeploySpec::Lattice {
                rows: 3,
                cols: 3,
                spacing: 2.0,
            }),
            WorkloadSpec::Repeat(SourceSet::All),
            StopSpec::Slots(40),
        )
    }

    #[test]
    fn report_record_round_trips_through_the_parser() {
        let line = ReportRecord {
            id: None,
            cell: 17,
            name: "base/name=a%2Fb%3Dc%25d/seed=3",
            cached: None,
            shard: Some(2),
            report: r#"{"name":"x","metrics":{"completed_at":null}}"#,
        }
        .render();
        let rec = parse_report_line(&line).unwrap();
        assert_eq!(rec.cell, 17);
        assert_eq!(rec.shard, 2);
        assert_eq!(rec.name, "base/name=a%2Fb%3Dc%25d/seed=3");
        assert_eq!(
            rec.report,
            r#"{"name":"x","metrics":{"completed_at":null}}"#
        );
        // The same record as valid JSON the writer cannot produce.
        for bad in [
            line.replace("\"cell\":", "\"cell\": "),
            line.replace("\"completed_at\":null", "\"completed_at\" : null"),
            line.replace("\"shard\":2,", "\"shard\":2.0,"),
        ] {
            assert!(parse_report_line(&bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn report_record_parses_escaped_names() {
        // A name containing every serializer escape survives the
        // render/parse round trip exactly.
        let name = "a\"b\\c\nd\te\u{1}f";
        let line = ReportRecord {
            id: None,
            cell: 0,
            name,
            cached: None,
            shard: Some(0),
            report: "{}",
        }
        .render();
        assert_eq!(parse_report_line(&line).unwrap().name, name);
    }

    #[test]
    fn service_record_shape_matches_the_legacy_format() {
        // The scenario service emitted this exact byte layout before the
        // shared builder existed; pin it so streaming clients never see
        // a format change.
        let line = ReportRecord {
            id: Some(7),
            cell: 3,
            name: "cell",
            cached: Some(true),
            shard: None,
            report: "{\"k\":1}",
        }
        .render();
        assert_eq!(
            line,
            "{\"id\":7,\"event\":\"report\",\"cell\":3,\"name\":\"cell\",\
             \"cached\":true,\"report\":{\"k\":1}}"
        );
    }

    #[test]
    fn manifest_header_round_trips_and_rejects_garbage() {
        let h = ManifestHeader {
            key: 0x0123_4567_89ab_cdef,
            cells: 120,
            shard: Shard { index: 3, count: 4 },
        };
        assert_eq!(
            h.render(),
            r#"{"event":"sweep","key":"0123456789abcdef","cells":120,"shard":3,"shards":4}"#
        );
        assert_eq!(ManifestHeader::parse(&h.render()).unwrap(), h);
        assert!(ManifestHeader::parse("{\"event\":\"sweep\"}").is_err());
        assert!(ManifestHeader::parse(&h.render()[..h.render().len() - 1]).is_err());
        // Valid JSON carrying the same fields, but not in the writer's
        // form: reordered keys, whitespace, a `+`-prefixed hex key.
        for bad in [
            r#"{"key":"0123456789abcdef","event":"sweep","cells":120,"shard":3,"shards":4}"#,
            r#"{"event":"sweep", "key":"0123456789abcdef","cells":120,"shard":3,"shards":4}"#,
            r#"{"event":"sweep","key":"+123456789abcdef","cells":120,"shard":3,"shards":4}"#,
        ] {
            assert!(ManifestHeader::parse(bad).is_err(), "accepted {bad}");
        }
    }

    /// Byte strings that are mostly near-misses of valid lines: random
    /// bytes, and one-byte truncations, insertions and flips of real
    /// records and headers.
    struct Garbage;

    impl proptest::Strategy for Garbage {
        type Value = String;
        fn generate(&self, rng: &mut rand::rngs::StdRng) -> String {
            use rand::Rng;
            let header = ManifestHeader {
                key: rng.random(),
                cells: 12,
                shard: Shard { index: 1, count: 4 },
            };
            let record = ReportRecord {
                id: None,
                cell: 5,
                name: "base/seed=\"3\"",
                cached: None,
                shard: Some(1),
                report: r#"{"name":"x","metrics":{"a":-0.00000015,"b":[true,null]}}"#,
            };
            let mut bytes = match rng.random_range(0..3u32) {
                0 => header.render().into_bytes(),
                1 => record.render().into_bytes(),
                _ => (0..rng.random_range(0..64usize))
                    .map(|_| rng.random_range(0..=255u8))
                    .collect(),
            };
            if !bytes.is_empty() {
                let at = rng.random_range(0..bytes.len());
                match rng.random_range(0..3u32) {
                    0 => bytes.truncate(at),
                    1 => bytes.insert(at, rng.random_range(0..=255u8)),
                    _ => bytes[at] ^= 1 << rng.random_range(0..8u32),
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn garbage_lines_are_errors_not_panics(line in Garbage) {
            // Each reader returns Ok or Err; a panic fails the test.
            let _ = json::parse(&line);
            let _ = parse_report_line(&line);
            let _ = ManifestHeader::parse(&line);
        }
    }

    #[test]
    fn sweep_key_tracks_grid_inputs_and_ignores_shared_prepare() {
        let set = ScenarioSet::new(base()).axis("mac.t_mult", vec!["1".into(), "2".into()]);
        let key = sweep_key(&set);
        assert_eq!(key, sweep_key(&set.clone().without_shared_prepare()));
        assert_ne!(key, sweep_key(&set.clone().with_reseed()));
        assert_ne!(key, sweep_key(&set.clone().with_traces()));
        assert_ne!(
            key,
            sweep_key(&ScenarioSet::new(base()).axis("mac.t_mult", vec!["1".into(), "3".into()]))
        );
        assert_ne!(key, sweep_key(&ScenarioSet::new(base())));
    }

    #[test]
    fn create_refuses_to_clobber_and_resume_validates_identity() {
        let dir = std::env::temp_dir().join(format!("sinr-shard-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let set = ScenarioSet::new(base()).axis("seed", vec!["1".into(), "2".into()]);
        let cells = set.cells().unwrap();
        let shard = Shard { index: 0, count: 2 };
        let out = ShardOutput::create(&dir, &set, cells.len(), shard).unwrap();
        assert!(ShardOutput::create(&dir, &set, cells.len(), shard)
            .unwrap_err()
            .to_string()
            .contains("--resume"));
        let report = Report {
            name: cells[0].name.clone(),
            spec: String::new(),
            realized: vec![],
            metrics: vec![("completed_at".into(), Json::Null)],
        };
        out.record(0, &report).unwrap();
        drop(out);
        let manifest = std::fs::read_to_string(manifest_path(&dir, shard)).unwrap();
        assert_eq!(
            manifest.lines().nth(1),
            Some(r#"{"event":"done","cell":0}"#)
        );
        // Resume sees the completed cell and keeps its bytes.
        let (_out, completed) = ShardOutput::resume(&dir, &set, &cells, shard).unwrap();
        assert_eq!(completed, BTreeSet::from([0]));
        // A different sweep must be rejected by key.
        let other = ScenarioSet::new(base()).axis("seed", vec!["1".into(), "3".into()]);
        let err = ShardOutput::resume(&dir, &other, &other.cells().unwrap(), shard).unwrap_err();
        assert!(err.to_string().contains("identity mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_truncates_a_torn_tail_and_rejects_duplicates() {
        let dir = std::env::temp_dir().join(format!("sinr-shard-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let set = ScenarioSet::new(base()).axis("seed", vec!["1".into(), "2".into()]);
        let cells = set.cells().unwrap();
        let shard = Shard::full();
        let out = ShardOutput::create(&dir, &set, cells.len(), shard).unwrap();
        let report = |i: usize| Report {
            name: cells[i].name.clone(),
            spec: String::new(),
            realized: vec![],
            metrics: vec![],
        };
        out.record(0, &report(0)).unwrap();
        drop(out);
        // Simulate a kill mid-write: append half a record, no newline.
        let path = output_path(&dir, shard);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\":\"report\",\"cell\":1,\"na")
            .unwrap();
        drop(f);
        let before = std::fs::read_to_string(&path).unwrap();
        let (out, completed) = ShardOutput::resume(&dir, &set, &cells, shard).unwrap();
        assert_eq!(completed, BTreeSet::from([0]));
        let after = std::fs::read_to_string(&path).unwrap();
        assert!(before.starts_with(&after) && after.ends_with('\n'));
        // A duplicate record is corruption, not a skip.
        out.record(0, &report(0)).unwrap();
        drop(out);
        let err = ShardOutput::resume(&dir, &set, &cells, shard).unwrap_err();
        assert!(err.to_string().contains("recorded twice"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_validates_coverage_and_orders_reports() {
        let dir = std::env::temp_dir().join(format!("sinr-shard-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let set = ScenarioSet::new(base()).axis("seed", (1..=4).map(|s| s.to_string()).collect());
        let cells = set.cells().unwrap();
        let report = |i: usize| Report {
            name: cells[i].name.clone(),
            spec: String::new(),
            realized: vec![],
            metrics: vec![("cell".into(), Json::int(i as u64))],
        };
        for k in 0..2 {
            let shard = Shard { index: k, count: 2 };
            let out = ShardOutput::create(&dir, &set, cells.len(), shard).unwrap();
            for i in (0..cells.len()).filter(|i| shard.owns(*i)) {
                // Shard 1 writes out of order; merge must re-sort.
                out.record(i, &report(i)).unwrap();
            }
        }
        let merged = merge_shards(&dir).unwrap();
        assert_eq!(merged.shards, 2);
        assert_eq!(merged.reports.len(), 4);
        for (i, r) in merged.reports.iter().enumerate() {
            assert_eq!(r, &report(i).to_json());
        }
        // Remove one shard's manifest: merge must fail loudly.
        std::fs::remove_file(manifest_path(&dir, Shard { index: 1, count: 2 })).unwrap();
        assert!(merge_shards(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
