//! Journal shipping: the spool a shard streams its admissions and
//! terminal states into, and the replay the router runs when that shard
//! dies.
//!
//! Each shard appends one JSON line per event to
//! `<spool_dir>/shard-<id>.jsonl`:
//!
//! ```text
//! {"event":"submit","job":3,"spec":{...the raw job body...}}
//! {"event":"evict","job":3}                      // admission was revoked (queue full)
//! {"event":"done","job":3,"seconds":0.2,"result":{...}}
//! {"event":"failed","job":4,"error":"..."}
//! ```
//!
//! The `submit` line is written **before** the job id enters the run
//! queue (and therefore strictly before the `202` ack leaves the shard),
//! so a SIGKILLed shard can never owe an acked job the spool does not
//! know about. `done` lines carry the full result, so jobs that finished
//! on a dead shard stay servable from the spool alone. A plain
//! `write(2)` is durability enough here: spool replay guards against
//! *process* death (the write syscall completing makes the line visible
//! to the router regardless of what happens to the shard afterwards);
//! *machine*-crash durability remains the fsynced shard journal's job.
//!
//! [`replay`] folds a spool file into the dead shard's outstanding debt:
//! jobs with a terminal line are served as-is, acked-but-unfinished jobs
//! are re-submitted to surviving shards. Torn or malformed lines (a
//! shard killed mid-write) are skipped — a torn `submit` line means the
//! ack never left, so nothing is owed.
//!
//! Every consumer of a replay goes through one transfer path,
//! `router::handoff::transfer`: failover, and the **membership
//! handoffs** (`router::admin_join` / `admin_leave`). A join streams each
//! donor's pending records whose ring owner moved to the newcomer, a
//! graceful leave streams the departing shard's whole spool onto the
//! survivors, and a recovered shard rejoins by replaying its own stale
//! spool through the handoff staging table. Spool records are the unit of
//! streaming in every case — handoff needs no second journal format.

use crate::job::JobSpec;
use crate::store::{JobRecord, JobStatus};
use sspc_common::json::Value;
use sspc_common::{Error, Result};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Where shard `shard`'s spool file lives under `dir`.
pub fn spool_path(dir: &Path, shard: u16) -> PathBuf {
    dir.join(format!("shard-{shard}.jsonl"))
}

/// Append-only writer for one shard's spool file. Shipping never fails
/// the request that triggered it — a spool write error is counted (and
/// surfaced through `/healthz`) instead, because refusing jobs over a
/// *failover aid* would turn a router-side problem into shard downtime.
pub struct SpoolWriter {
    file: Mutex<File>,
    failures: AtomicU64,
}

impl SpoolWriter {
    /// Creates `dir` if needed and opens (appending) this shard's spool.
    /// A torn final line left by a killed process is ended first, so the
    /// next event starts a line of its own.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when the directory or file cannot be
    /// created or the torn line cannot be ended.
    pub fn open(dir: &Path, shard: u16) -> Result<SpoolWriter> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::InvalidParameter(format!("spool dir {}: {e}", dir.display())))?;
        let path = spool_path(dir, shard);
        let fail =
            |e: std::io::Error| Error::InvalidParameter(format!("spool {}: {e}", path.display()));
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(fail)?;
        let mut last = [b'\n'];
        if file.metadata().map_err(fail)?.len() > 0 {
            file.seek(SeekFrom::End(-1)).map_err(fail)?;
            file.read_exact(&mut last).map_err(fail)?;
        }
        if last[0] != b'\n' {
            file.write_all(b"\n").map_err(fail)?;
        }
        Ok(SpoolWriter {
            file: Mutex::new(file),
            failures: AtomicU64::new(0),
        })
    }

    /// Appends one event line; errors are counted, never propagated.
    pub fn ship(&self, event: &Value) {
        let Ok(mut line) = event.to_string_checked() else {
            self.failures.fetch_add(1, Ordering::Relaxed);
            return;
        };
        line.push('\n');
        let mut file = self.file.lock().expect("spool poisoned");
        if file.write_all(line.as_bytes()).is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// How many ship attempts failed (serialization or I/O).
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }
}

/// The `submit` event for job `id` with its raw (already-validated) body.
pub fn submit_event(id: u64, raw: &Value) -> Value {
    Value::object()
        .with("event", "submit")
        .with("job", id)
        .with("spec", raw.clone())
}

/// The `evict` event: job `id`'s admission was revoked (queue refused
/// it after the store insert), so its `submit` line is void.
pub fn evict_event(id: u64) -> Value {
    Value::object().with("event", "evict").with("job", id)
}

/// The `done` event carrying the full result, so a finished job on a
/// dead shard stays servable from the spool.
pub fn done_event(id: u64, result: &Value, seconds: f64) -> Value {
    Value::object()
        .with("event", "done")
        .with("job", id)
        .with("seconds", seconds)
        .with("result", result.clone())
}

/// The `failed` event with the job's terminal error.
pub fn failed_event(id: u64, error: &str) -> Value {
    Value::object()
        .with("event", "failed")
        .with("job", id)
        .with("error", error)
}

/// The id after the largest job id `path` names (0 for a missing or
/// empty spool). A restarted shard assigns ids from here at the lowest,
/// so it never acks an id its previous life acked: the router may still
/// owe that id, and would answer for the old job instead of the new one.
pub fn next_id(path: &Path) -> u64 {
    let Ok(file) = File::open(path) else {
        return 0;
    };
    BufReader::new(file)
        .lines()
        .map_while(std::io::Result::ok)
        .filter_map(|line| Value::parse(&line).ok()?.get("job")?.as_u64())
        .max()
        .map_or(0, |id| id + 1)
}

/// What a dead shard owes, folded from its spool file.
#[derive(Debug, Default)]
pub struct SpoolReplay {
    /// Acked-but-unfinished jobs, in admission order: `(old id, raw
    /// spec)` — these must be re-submitted to surviving shards.
    pub pending: Vec<(u64, Value)>,
    /// Jobs that reached a terminal state on the dead shard: `(old id,
    /// full status document)` — these are served from the router as-is.
    pub terminal: Vec<(u64, Value)>,
}

/// Folds `path` into the dead shard's debt. A missing file is an empty
/// debt (the shard never shipped anything); malformed or torn lines are
/// skipped.
pub fn replay(path: &Path) -> SpoolReplay {
    let Ok(file) = File::open(path) else {
        return SpoolReplay::default();
    };
    let mut specs: BTreeMap<u64, Value> = BTreeMap::new();
    let mut finished: BTreeMap<u64, Value> = BTreeMap::new();
    for line in BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        let Ok(event) = Value::parse(&line) else {
            continue;
        };
        let Some(id) = event.get("job").and_then(Value::as_u64) else {
            continue;
        };
        match event.get("event").and_then(Value::as_str) {
            Some("submit") => {
                if let Some(spec) = event.get("spec") {
                    specs.insert(id, spec.clone());
                }
            }
            Some("evict") => {
                specs.remove(&id);
            }
            Some("done") => {
                let (Some(result), Some(seconds)) = (
                    event.get("result"),
                    event.get("seconds").and_then(Value::as_f64),
                ) else {
                    continue;
                };
                if let Some(doc) = terminal_doc(
                    id,
                    specs.get(&id),
                    JobStatus::Done {
                        result: result.clone(),
                        seconds,
                    },
                ) {
                    finished.insert(id, doc);
                }
            }
            Some("failed") => {
                let Some(error) = event.get("error").and_then(Value::as_str) else {
                    continue;
                };
                if let Some(doc) = terminal_doc(
                    id,
                    specs.get(&id),
                    JobStatus::Failed {
                        error: error.into(),
                    },
                ) {
                    finished.insert(id, doc);
                }
            }
            _ => {}
        }
    }
    for id in finished.keys() {
        specs.remove(id);
    }
    SpoolReplay {
        pending: specs.into_iter().collect(),
        terminal: finished.into_iter().collect(),
    }
}

/// Rebuilds the status document a shard would have served for a
/// terminal job, from its spooled spec + terminal event. `None` when the
/// spec is missing or no longer parses (nothing useful can be served).
fn terminal_doc(id: u64, raw: Option<&Value>, status: JobStatus) -> Option<Value> {
    let raw = raw?;
    let spec = JobSpec::from_json(raw).ok()?;
    let record = JobRecord {
        spec,
        raw: raw.clone(),
        status,
        submitted_at: 0.0,
        finished_at: None,
    };
    Some(record.to_value(id, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sspc-spool-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn job_body(seed: u64) -> Value {
        Value::parse(&format!(
            r#"{{"k":2,"dataset":{{"generate":{{"n":32,"d":6,"dims":3,"seed":{}}}}},"algorithms":"harp","runs":1,"seed":7}}"#,
            seed + 1
        ))
        .unwrap()
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let folded = replay(Path::new("/nonexistent/shard-0.jsonl"));
        assert!(folded.pending.is_empty());
        assert!(folded.terminal.is_empty());
    }

    #[test]
    fn replay_folds_submits_evicts_and_terminals() {
        let dir = temp_dir("fold");
        let writer = SpoolWriter::open(&dir, 1).unwrap();
        let base = 1u64 << 48;
        writer.ship(&submit_event(base + 1, &job_body(1)));
        writer.ship(&submit_event(base + 2, &job_body(2)));
        writer.ship(&submit_event(base + 3, &job_body(3)));
        writer.ship(&submit_event(base + 4, &job_body(4)));
        writer.ship(&evict_event(base + 2));
        let result = Value::object().with("labels", Value::Arr(vec![]));
        writer.ship(&done_event(base + 1, &result, 0.25));
        writer.ship(&failed_event(base + 3, "boom"));
        assert_eq!(writer.failures(), 0);

        let folded = replay(&spool_path(&dir, 1));
        // Only job 4 is still owed: 1 finished, 2 was evicted, 3 failed.
        assert_eq!(
            folded.pending.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![base + 4]
        );
        let ids: Vec<u64> = folded.terminal.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![base + 1, base + 3]);
        let done = &folded.terminal[0].1;
        assert_eq!(done.get("status").and_then(Value::as_str), Some("done"));
        assert_eq!(done.get("job").and_then(Value::as_u64), Some(base + 1));
        assert!(done.get("result").is_some());
        let failed = &folded.terminal[1].1;
        assert_eq!(failed.get("status").and_then(Value::as_str), Some("failed"));
        assert_eq!(failed.get("error").and_then(Value::as_str), Some("boom"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shard killed mid-write leaves a torn final line; its restart's
    /// first event must start a line of its own, not extend the torn one.
    #[test]
    fn reopened_spool_starts_after_a_torn_line() {
        let dir = temp_dir("reopen");
        let path = spool_path(&dir, 0);
        std::fs::write(&path, "{\"event\":\"submit\",\"job\":8,\"sp").unwrap();
        let writer = SpoolWriter::open(&dir, 0).unwrap();
        writer.ship(&submit_event(9, &job_body(9)));
        let folded = replay(&path);
        assert_eq!(
            folded.pending.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![9]
        );
        assert_eq!(next_id(&path), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_skips_torn_and_malformed_lines() {
        let dir = temp_dir("torn");
        let path = spool_path(&dir, 0);
        let mut file = File::create(&path).unwrap();
        let good = submit_event(7, &job_body(7)).to_string_checked().unwrap();
        writeln!(file, "{good}").unwrap();
        writeln!(file, "not json at all").unwrap();
        // A torn write: the line a shard was killed in the middle of.
        write!(file, "{{\"event\":\"submit\",\"job\":8,\"sp").unwrap();
        drop(file);
        let folded = replay(&path);
        assert_eq!(
            folded.pending.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![7]
        );
        // The torn line's id cannot be read back; the intact one can.
        assert_eq!(next_id(&path), 8);
        assert_eq!(next_id(&dir.join("missing.jsonl")), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
