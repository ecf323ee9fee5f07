//! The batch service as the benchmark drives it: a router over two
//! one-worker shards on loopback with disk stores and a shared spool, a
//! closed loop of blocking clients, and from-outside probes of the job,
//! store, router and client layers.

use crate::stats::{median, wire_digest, Tally};
use crate::trace::{Span, Tracer};
use sspc_common::json::Value;
use sspc_common::Result;
use sspc_server::backoff::Backoff;
use sspc_server::client::Client;
use sspc_server::router::shard_of;
use sspc_server::store::EvictionPolicy;
use sspc_server::{DiskStore, JobSpec, JobStore, Router, RouterConfig, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shards behind the router.
pub const SHARDS: u16 = 2;
/// Jobs each shard keeps before evicting the oldest finished ones.
pub const MAX_JOBS: usize = 256;
/// First poll interval of a waiting client; it backs off up to 8×.
pub const POLL_BASE: Duration = Duration::from_millis(5);
/// A job not finished this long after its submission counts as
/// unfinished (far above any job in the mixes, far below the run limit).
const WAIT_LIMIT: Duration = Duration::from_secs(30);

/// A running router plus its shards, all in this process.
pub struct Fleet {
    router: Router,
    shards: Vec<Server>,
    shard_addrs: Vec<String>,
    dir: PathBuf,
}

impl Fleet {
    /// Starts `SHARDS` one-worker shards with disk stores under `dir`,
    /// shipping their journals to a spool the router replays on failover,
    /// and the router in front of them.
    ///
    /// # Errors
    ///
    /// Store, bind or start failures.
    pub fn start(dir: &Path) -> Result<Fleet> {
        let _ = std::fs::remove_dir_all(dir);
        let spool = dir.join("spool");
        let mut shards = Vec::new();
        let mut roster = Vec::new();
        for shard in 0..SHARDS {
            let server = Server::start(&ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 1,
                state_dir: Some(dir.join(format!("shard-{shard}"))),
                // Finished jobs beyond the cap are evicted, so memory
                // tracks the cap rather than how many jobs a run finished.
                max_jobs: Some(MAX_JOBS),
                shard_id: shard,
                spool_dir: Some(spool.clone()),
                ..Default::default()
            })?;
            roster.push((shard, server.addr().to_string()));
            shards.push(server);
        }
        let router = Router::start(&RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: roster.clone(),
            spool_dir: Some(spool),
            ..Default::default()
        })?;
        Ok(Fleet {
            router,
            shards,
            shard_addrs: roster.into_iter().map(|(_, a)| a).collect(),
            dir: dir.to_path_buf(),
        })
    }

    /// The router's address, where clients connect.
    pub fn addr(&self) -> String {
        self.router.addr().to_string()
    }

    /// Stops the router and the shards, joining their threads, and
    /// removes their state.
    pub fn stop(self) {
        self.router.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// `(p50, p99)` queue wait in ms from the router's `/healthz` fan-in.
    ///
    /// # Errors
    ///
    /// Connection failures or a malformed document.
    pub fn queue_wait_ms(&self) -> Result<(f64, f64)> {
        let health = Client::new(self.addr()).healthz()?;
        let read = |q: &str| {
            health
                .get("latency")
                .and_then(|l| l.get("queue_wait"))
                .and_then(|w| w.get(q))
                .and_then(Value::as_f64)
                .ok_or_else(|| {
                    sspc_common::Error::InvalidParameter(format!("/healthz lacks queue_wait {q}"))
                })
        };
        Ok((read("p50_ms")?, read("p99_ms")?))
    }

    /// Median `GET /jobs/<id>` round trip through the router minus the
    /// median of the same request sent straight to the owning shard, in
    /// ms, over `ids` (the two requests alternate per id).
    ///
    /// # Errors
    ///
    /// Any failed lookup.
    pub fn hop_ms(&self, ids: &[u64]) -> Result<f64> {
        let mut via_router = Client::new(self.addr());
        let mut direct: Vec<Client> = self.shard_addrs.iter().map(Client::new).collect();
        let (mut routed, mut straight) = (Vec::new(), Vec::new());
        for &id in ids {
            let t = Instant::now();
            via_router.job_status(id)?;
            routed.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            direct[usize::from(shard_of(id))].job_status(id)?;
            straight.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(median(&routed) - median(&straight))
    }
}

/// One job that came back `done`.
pub struct Served {
    /// Index of its body in the workload's case list.
    pub case: usize,
    /// Job id the service assigned.
    pub id: u64,
    /// Submit to observed `done`, seconds.
    pub latency: f64,
    /// The `submit` round trip, seconds.
    pub submit: f64,
    /// Whether the job was waited for with counted polls and spans.
    pub traced: bool,
    /// Status polls until `done` was seen (counted for traced jobs only).
    pub polls: u32,
    /// The job document's `seconds`: execution time on the worker.
    pub exec: f64,
    /// [`wire_digest`] of the `result`.
    pub digest: u64,
}

/// What a closed loop produced.
pub struct LoopOutcome {
    /// Every job that finished `done`.
    pub served: Vec<Served>,
    /// Attempts and failures of every kind.
    pub tally: Tally,
    /// From the loop's start until the last client finished, seconds.
    pub wall: f64,
}

/// Runs `clients` closed-loop clients against `addr`: each takes the next
/// job from `schedule` (a case index per position; `None` ends the
/// schedule), submits it, waits until it is done, and only then takes the
/// next one. No new job starts after `deadline`.
///
/// Jobs at positions where `traced` holds are waited for with the
/// client's own poll policy spelled out (`job_status` under the jittered
/// backoff `wait_for` uses) so their polls can be counted, and their spans
/// are recorded; every other job waits in `Client::wait_for` itself.
pub fn closed_loop(
    addr: &str,
    bodies: &[&Value],
    schedule: &(dyn Fn(usize) -> Option<usize> + Sync),
    deadline: Option<Instant>,
    clients: usize,
    traced: &(dyn Fn(usize) -> bool + Sync),
    tracer: &Tracer,
) -> LoopOutcome {
    let next = AtomicUsize::new(0);
    let merged = Mutex::new((Vec::new(), Tally::default()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut client = Client::new(addr);
                let mut served = Vec::new();
                let mut tally = Tally::default();
                loop {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break;
                    }
                    let position = next.fetch_add(1, Ordering::Relaxed);
                    let Some(case) = schedule(position) else {
                        break;
                    };
                    tally.attempted += 1;
                    match one_job(&mut client, bodies[case], traced(position), tracer) {
                        Ok(mut job) => {
                            job.case = case;
                            served.push(job);
                        }
                        Err(kind) => kind.count(&mut tally),
                    }
                }
                let mut all = merged.lock().expect("loop results poisoned");
                all.0.extend(served);
                all.1.absorb(tally);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let (served, tally) = merged.into_inner().expect("loop results poisoned");
    LoopOutcome {
        served,
        tally,
        wall,
    }
}

/// Why a job did not come back `done`.
enum Miss {
    Refused,
    Failed,
    Unfinished,
}

impl Miss {
    fn count(self, tally: &mut Tally) {
        match self {
            Miss::Refused => tally.refused += 1,
            Miss::Failed => tally.failed += 1,
            Miss::Unfinished => tally.unfinished += 1,
        }
    }
}

fn one_job(
    client: &mut Client,
    body: &Value,
    traced: bool,
    tracer: &Tracer,
) -> std::result::Result<Served, Miss> {
    let t0 = Instant::now();
    let id = client.submit(body).map_err(|e| {
        if e.to_string().contains("submit refused") {
            Miss::Refused
        } else {
            Miss::Failed
        }
    })?;
    let t1 = Instant::now();
    let (doc, polls) = if traced {
        poll_until_done(client, id)?
    } else {
        match client.wait_for(id, POLL_BASE, WAIT_LIMIT) {
            Ok(doc) => (doc, 0),
            Err(sspc_common::Error::NoConvergence(_)) => return Err(Miss::Unfinished),
            Err(_) => return Err(Miss::Failed),
        }
    };
    let t2 = Instant::now();
    if doc.get("status").and_then(Value::as_str) != Some("done") {
        return Err(Miss::Failed);
    }
    let result = doc.get("result").ok_or(Miss::Failed)?;
    let exec = doc
        .get("seconds")
        .and_then(Value::as_f64)
        .ok_or(Miss::Failed)?;
    if traced {
        let root = tracer.id();
        for (name, start, end, fields) in [
            ("client.submit", t0, t1, vec![]),
            ("client.wait", t1, t2, vec![("polls", f64::from(polls))]),
        ] {
            tracer.record(Span {
                name,
                trace: root,
                id: tracer.id(),
                parent: Some(root),
                start,
                end,
                fields,
            });
        }
        tracer.record(Span {
            name: "service.job",
            trace: root,
            id: root,
            parent: None,
            start: t0,
            end: t2,
            fields: vec![("job", id as f64), ("exec_s", exec)],
        });
    }
    Ok(Served {
        case: 0,
        id,
        latency: (t2 - t0).as_secs_f64(),
        submit: (t1 - t0).as_secs_f64(),
        traced,
        polls,
        exec,
        digest: wire_digest(result),
    })
}

/// `Client::wait_for`'s policy, spelled out so the polls can be counted.
fn poll_until_done(client: &mut Client, id: u64) -> std::result::Result<(Value, u32), Miss> {
    let started = Instant::now();
    let mut backoff = Backoff::new(POLL_BASE, POLL_BASE.saturating_mul(8), id);
    let mut polls = 0;
    loop {
        polls += 1;
        let doc = client.job_status(id).map_err(|_| Miss::Failed)?;
        if matches!(
            doc.get("status").and_then(Value::as_str),
            Some("done" | "failed")
        ) {
            return Ok((doc, polls));
        }
        if started.elapsed() > WAIT_LIMIT {
            return Err(Miss::Unfinished);
        }
        std::thread::sleep(backoff.next_delay());
    }
}

/// The in-process job layer on one body: the oracle for the wire result
/// plus what each step cost.
pub struct Executed {
    /// [`wire_digest`] of `JobSpec::execute`'s result.
    pub digest: u64,
    /// The rendered result, for the store probe.
    pub result: Value,
    /// `Value::parse` + `JobSpec::from_json`, µs.
    pub parse_us: f64,
    /// `JobSpec::execute`, ms.
    pub execute_ms: f64,
    /// Result `to_string`, µs.
    pub render_us: f64,
}

/// Parses, executes and renders a job body in-process.
///
/// # Errors
///
/// Parse, validation or execution failures.
pub fn execute_in_process(body: &Value) -> Result<Executed> {
    let text = body.to_string();
    let t = Instant::now();
    let spec = JobSpec::from_json(&Value::parse(&text)?)?;
    let parse_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let outcome = spec.execute()?;
    let execute_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let rendered = std::hint::black_box(outcome.result.to_string());
    let render_us = t.elapsed().as_secs_f64() * 1e6;
    drop(rendered);
    Ok(Executed {
        digest: wire_digest(&outcome.result),
        result: outcome.result,
        parse_us,
        execute_ms,
        render_us,
    })
}

/// Times `DiskStore::insert` and `complete` (each an fsynced journal
/// append) for every `(body, result)` in a fresh store under `dir`;
/// returns the median of each in ms.
///
/// # Errors
///
/// Store open, parse or journal failures.
pub fn store_ms(dir: &Path, jobs: &[(&Value, &Value)]) -> Result<(f64, f64)> {
    let _ = std::fs::remove_dir_all(dir);
    let store = DiskStore::open(dir, EvictionPolicy::default())?.store;
    let (mut inserts, mut completes) = (Vec::new(), Vec::new());
    for (i, &(body, result)) in jobs.iter().enumerate() {
        let id = i as u64 + 1;
        let spec = JobSpec::from_json(body)?;
        let t = Instant::now();
        store.insert(id, spec, body.clone())?;
        inserts.push(t.elapsed().as_secs_f64() * 1e3);
        store.begin(id);
        let t = Instant::now();
        store.complete(id, result.clone(), 0.0);
        completes.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok((median(&inserts), median(&completes)))
}
