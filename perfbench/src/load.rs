//! The closed-loop load generator and the `debug` corpus set-up.
//!
//! Each client thread owns one connection and sends its next request
//! only after the previous one is answered, the way `quickrec submit`
//! waits. Job completion is polled with JOBS every millisecond (not
//! `Client::wait_for`, whose 15 ms sleep would quantize short jobs).

use crate::check::{Firsts, Observed, References, Seen};
use crate::ops::{self, Op, OpStream, Workload, CLIENTS, CORPUS, ENCODING, SCALE, THREADS};
use qr_server::proto::{Endpoint, JobInfo, JobState, Request, Response};
use qr_server::Client;
use quickrec_core::OrderMode;
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Sleep between two JOBS polls.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// A job that is not Done by then counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Client-side timings and counts of one run.
#[derive(Debug, Default)]
pub struct Timings {
    /// Whole-op latency, ms.
    pub op_ms: Vec<f64>,
    /// Latency per request kind (`record`, `fetch`, `query`, `replay`),
    /// ms. Jobs are timed from submission to the poll that
    /// saw them Done.
    pub kind_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Submission until the first poll that saw the job leave Queued, ms.
    pub queue_wait_ms: Vec<f64>,
    /// JOBS round trips, ms.
    pub jobs_rpc_ms: Vec<f64>,
    /// Jobs polled to completion.
    pub jobs_polled: u64,
    /// Bytes of file images per FETCH answer.
    pub fetch_wire_bytes: Vec<f64>,
    /// Completed recordings: (session id, kernel).
    pub recorded: Vec<(u64, &'static str)>,
    /// QUERY answers served from the idempotence cache.
    pub cache_hits: u64,
    /// Requests answered Busy.
    pub busy: u64,
    /// When the client's last op completed.
    pub last_done: Option<Instant>,
}

impl Timings {
    fn kind(&mut self, kind: &'static str, latency: Duration) {
        self.kind_ms.entry(kind).or_default().push(ms(latency));
    }

    /// Folds another client's timings into these.
    pub fn merge(&mut self, other: Timings) {
        self.op_ms.extend(other.op_ms);
        for (kind, v) in other.kind_ms {
            self.kind_ms.entry(kind).or_default().extend(v);
        }
        self.queue_wait_ms.extend(other.queue_wait_ms);
        self.jobs_rpc_ms.extend(other.jobs_rpc_ms);
        self.jobs_polled += other.jobs_polled;
        self.fetch_wire_bytes.extend(other.fetch_wire_bytes);
        self.recorded.extend(other.recorded);
        self.cache_hits += other.cache_hits;
        self.busy += other.busy;
        self.last_done = self.last_done.max(other.last_done);
    }
}

/// What the clients need to know about the run.
pub struct Plan<'a> {
    /// Traffic mix.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// In-process references by kernel.
    pub refs: &'a References,
    /// `debug` corpus session ids, indexed like [`CORPUS`].
    pub corpus: &'a [u64],
}

/// One client's connection plus everything it observed.
struct Session<'p> {
    plan: &'p Plan<'p>,
    conn: Client,
    timings: Timings,
    firsts: Firsts,
}

fn unexpected(what: &str, resp: Response, timings: &mut Timings) -> String {
    if let Response::Busy { queued } = resp {
        timings.busy += 1;
        return format!("{what}: server busy ({queued} queued)");
    }
    match resp {
        Response::Error { message } => format!("{what}: {message}"),
        other => format!("{what}: unexpected reply {other:?}"),
    }
}

impl Session<'_> {
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.conn.call(request).map_err(|e| e.to_string())
    }

    fn submit(&mut self, kernel: &'static str) -> Result<u64, String> {
        let request = Request::SubmitWorkload {
            name: kernel.to_string(),
            workload: kernel.to_string(),
            threads: THREADS,
            scale: SCALE,
            encoding: ENCODING,
            order: OrderMode::TotalOrder,
        };
        match self.call(&request)? {
            Response::Submitted { id } => Ok(id),
            other => Err(unexpected("SUBMIT", other, &mut self.timings)),
        }
    }

    /// Polls JOBS until session `id` is Done or Failed; returns its row
    /// and the time the finishing poll was answered.
    fn wait(&mut self, id: u64, submitted: Instant) -> Result<(JobInfo, Instant), String> {
        let mut left_queue = false;
        loop {
            let sent = Instant::now();
            let resp = self.call(&Request::Jobs)?;
            let now = Instant::now();
            self.timings.jobs_rpc_ms.push(ms(now - sent));
            let Response::JobList(jobs) = resp else {
                return Err(unexpected("JOBS", resp, &mut self.timings));
            };
            let job = jobs
                .into_iter()
                .find(|j| j.id == id)
                .ok_or_else(|| format!("session {id} vanished from JOBS"))?;
            if !left_queue && job.state != JobState::Queued {
                left_queue = true;
                self.timings.queue_wait_ms.push(ms(now - submitted));
            }
            if matches!(job.state, JobState::Done | JobState::Failed(_)) {
                self.timings.jobs_polled += 1;
                return Ok((job, now));
            }
            if now - submitted > JOB_TIMEOUT {
                return Err(format!("session {id} not done after {JOB_TIMEOUT:?}"));
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// Submits a recording and waits for it; `None` when it failed.
    fn record(
        &mut self,
        kernel: &'static str,
        seen: &mut Vec<Seen>,
    ) -> Result<Option<u64>, String> {
        let sent = Instant::now();
        let id = self.submit(kernel)?;
        let (job, done) = self.wait(id, sent)?;
        if job.state != JobState::Done {
            seen.push(Seen::Failed(format!(
                "{kernel}: RECORD ended {:?}",
                job.state
            )));
            return Ok(None);
        }
        self.timings.kind("record", done - sent);
        self.timings.recorded.push((id, kernel));
        seen.push(Seen::Record {
            kernel,
            fingerprint: job.fingerprint,
        });
        Ok(Some(id))
    }

    /// Queues a REPLAY job and waits for it.
    fn replay(&mut self, id: u64, seen: &mut Vec<Seen>) -> Result<(), String> {
        let sent = Instant::now();
        match self.call(&Request::Replay { id })? {
            Response::Queued => {}
            other => return Err(unexpected("REPLAY", other, &mut self.timings)),
        }
        let (job, done) = self.wait(id, sent)?;
        self.timings.kind("replay", done - sent);
        seen.push(Seen::Job {
            done: job.state == JobState::Done,
        });
        Ok(())
    }

    fn fetch(&mut self, id: u64, kernel: &'static str, seen: &mut Vec<Seen>) -> Result<(), String> {
        let sent = Instant::now();
        let resp = self.call(&Request::Fetch { id })?;
        self.timings.kind("fetch", sent.elapsed());
        let Response::Fetched { files, fingerprint } = resp else {
            return Err(unexpected("FETCH", resp, &mut self.timings));
        };
        let bytes: usize = files.iter().map(|(n, b)| n.len() + b.len()).sum();
        self.timings.fetch_wire_bytes.push(bytes as f64);
        let same_as_first = self.firsts.fetched(kernel, files);
        seen.push(Seen::Fetch {
            kernel,
            fingerprint,
            same_as_first,
        });
        Ok(())
    }

    fn query(
        &mut self,
        session: usize,
        shape: usize,
        cached: bool,
        seen: &mut Vec<Seen>,
    ) -> Result<(), String> {
        let reference = &self.plan.refs[CORPUS[session]];
        let query = ops::query_shapes(self.plan.seed, session)[shape].resolve(reference.geometry);
        let request = Request::Query {
            id: self.plan.corpus[session],
            query,
            dry_run: false,
            max_events: 0,
            replay_id: ops::replay_id(shape, cached),
        };
        let sent = Instant::now();
        let resp = self.call(&request)?;
        self.timings.kind("query", sent.elapsed());
        let Response::QueryAnswer {
            cached: hit,
            payload,
        } = resp
        else {
            return Err(unexpected("QUERY", resp, &mut self.timings));
        };
        self.timings.cache_hits += u64::from(hit);
        let same_as_first = self.firsts.answered(session, shape, payload);
        seen.push(Seen::Query {
            session,
            shape,
            same_as_first,
        });
        Ok(())
    }

    fn run_op(&mut self, op: Op, seen: &mut Vec<Seen>) -> Result<(), String> {
        let corpus = self.plan.corpus;
        match op {
            Op::Ingest { kernel } => {
                if let Some(id) = self.record(kernel, seen)? {
                    self.fetch(id, kernel, seen)?;
                }
            }
            Op::Query {
                session,
                shape,
                cached,
            } => self.query(session, shape, cached, seen)?,
            Op::Fetch { session } => self.fetch(corpus[session], CORPUS[session], seen)?,
            Op::Replay { session } => self.replay(corpus[session], seen)?,
        }
        Ok(())
    }
}

/// Runs the closed loop on every client until `seconds` have passed
/// (ops in flight then finish); returns what each client observed,
/// the merged timings and the start instant.
pub fn run(
    plan: &Plan<'_>,
    endpoint: &Endpoint,
    seconds: f64,
) -> Result<(Vec<Observed>, Timings, Instant), String> {
    let barrier = Barrier::new(CLIENTS + 1);
    let started = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<(Observed, Timings), String> {
                    let conn = Client::connect(endpoint).map_err(|e| e.to_string());
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    let mut s = Session {
                        plan,
                        conn: conn?,
                        timings: Timings::default(),
                        firsts: Firsts::default(),
                    };
                    let mut ops = Vec::new();
                    for op in OpStream::new(plan.workload, plan.seed, client) {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let sent = Instant::now();
                        let mut seen = Vec::new();
                        if let Err(e) = s.run_op(op, &mut seen) {
                            seen.push(Seen::Failed(format!("{}: {e}", op.kind())));
                            // The connection may be broken; start afresh.
                            s.conn = Client::connect(endpoint).map_err(|e| e.to_string())?;
                        }
                        let now = Instant::now();
                        s.timings.op_ms.push(ms(now - sent));
                        s.timings.last_done = Some(now);
                        ops.push(seen);
                    }
                    Ok((
                        Observed {
                            ops,
                            firsts: s.firsts,
                        },
                        s.timings,
                    ))
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        (started, results)
    });
    let (start, results) = started;
    let mut observed = Vec::with_capacity(CLIENTS);
    let mut timings = Timings::default();
    for result in results {
        let (o, t) = result?;
        observed.push(o);
        timings.merge(t);
    }
    Ok((observed, timings, start))
}

/// Records the `debug` corpus through the daemon: each client records
/// the sessions it owns, one at a time, and each recording must match
/// its reference. Returns the session ids (indexed like [`CORPUS`]) and
/// each job's submit-to-Done latency.
pub fn record_corpus(
    endpoint: &Endpoint,
    refs: &References,
) -> Result<(Vec<u64>, Vec<f64>), String> {
    let plan = Plan {
        workload: Workload::Debug,
        seed: 0,
        refs,
        corpus: &[],
    };
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let plan = &plan;
                scope.spawn(move || -> Result<(Vec<(usize, u64)>, Timings), String> {
                    let conn = Client::connect(endpoint).map_err(|e| e.to_string())?;
                    let mut s = Session {
                        plan,
                        conn,
                        timings: Timings::default(),
                        firsts: Firsts::default(),
                    };
                    let mut ids = Vec::new();
                    for session in ops::owned_sessions(client) {
                        let kernel = CORPUS[session];
                        let mut seen = Vec::new();
                        let id = s.record(kernel, &mut seen)?;
                        match (id, seen.as_slice()) {
                            (Some(id), [Seen::Record { fingerprint, .. }])
                                if *fingerprint == refs[kernel].fingerprint() =>
                            {
                                ids.push((session, id));
                            }
                            _ => {
                                return Err(format!(
                                    "corpus recording of {kernel} failed: {seen:?}"
                                ))
                            }
                        }
                    }
                    Ok((ids, s.timings))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("corpus thread panicked".into()))
            })
            .collect::<Vec<_>>()
    });
    let mut ids = vec![0; CORPUS.len()];
    let mut latencies = Vec::new();
    for result in per_client {
        let (owned, mut timings) = result?;
        for (session, id) in owned {
            ids[session] = id;
        }
        latencies.extend(timings.kind_ms.remove("record").unwrap_or_default());
    }
    Ok((ids, latencies))
}
