//! The traced run: the same seed-generated operations, in-process, with
//! a span around every public call the daemon's job functions
//! (`run_record_job`, `handle_query`, `run_followup_job`) make.
//!
//! Spans live in memory and are written out when the run ends. Each op
//! has a root span (`op.<kind>`) whose children are its stages; a
//! stage's self time is its duration minus what its children cover.

use crate::check::References;
use crate::ops::{self, Op, OpStream, Workload, CLIENTS, CORPUS, ENCODING, SCALE, THREADS};
use qr_capo::{record, Recording, RecordingConfig};
use qr_cpu::{CpuConfig, Machine};
use qr_replay::{CheckpointIndex, QueryEngine, ReplayQuery};
use qr_server::proto::{self, Response};
use qr_store::RecordingStore;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The daemon's checkpoint interval for the seek index it persists.
const CHECKPOINT_INTERVAL: usize = 25;

/// Recordings the closing probe pass reads back.
const PROBES: usize = 6;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name (`<layer>.<call>`), or `op.<kind>` for an op's root.
    pub name: &'static str,
    /// The op it belongs to.
    pub op: u64,
    /// Enclosing span, by index.
    pub parent: Option<usize>,
    /// Start, since the tracer began.
    pub start: Duration,
    /// End, since the tracer began.
    pub end: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Times `f` as a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration().saturating_sub(c))
            .collect()
    }

    /// Total self time per span name, ms.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t.as_secs_f64() * 1e3;
        }
        out
    }

    /// Per op that has spans named `name`: their summed duration, ms.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_insert(0.0) += s.duration().as_secs_f64() * 1e3;
        }
        by_op.into_values().collect()
    }

    /// Writes every span as a tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\top\tname\tstart_us\tend_us\tself_us")?;
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                t.as_micros()
            )?;
        }
        out.flush()
    }
}

/// Exact facts about one distinct recording the traced run made.
#[derive(Debug, Clone)]
pub struct RecordFacts {
    /// Guest instructions.
    pub instructions: u64,
    /// Chunk packets.
    pub chunks: u64,
    /// Makespan recorded, cycles.
    pub cycles: u64,
    /// Makespan of the same program with recording off, cycles.
    pub native_cycles: u64,
    /// `checkpoints.qrc` bytes.
    pub index_bytes: u64,
    /// Store bytes before compression.
    pub raw_bytes: u64,
    /// Store bytes after compression.
    pub stored_bytes: u64,
}

/// Rates measured per op.
#[derive(Debug, Default)]
pub struct Rates {
    /// Native simulation, guest Minstr per host second.
    pub sim_minstr_per_s: Vec<f64>,
    /// Recording time over native simulation time.
    pub record_vs_native: Vec<f64>,
    /// Store read + inflate, MB/s of uncompressed images.
    pub decompress_mb_s: Vec<f64>,
    /// Replay, guest Minstr per host second.
    pub replay_minstr_per_s: Vec<f64>,
    /// Timeline events each query re-executed.
    pub query_events: Vec<f64>,
}

/// The traced run's state: a private store, the tracer, and what the
/// recordings looked like.
pub struct Traced<'a> {
    /// All spans.
    pub tracer: Tracer,
    /// Per-op rates.
    pub rates: Rates,
    /// Facts per distinct kernel.
    pub facts: BTreeMap<&'static str, RecordFacts>,
    /// Ops run.
    pub ops: u64,
    refs: &'a References,
    store: RecordingStore,
    /// Stored recordings in the order made: (store id, kernel).
    stored: Vec<(u64, &'static str)>,
    /// (store id, replay id) of every query answer the daemon would
    /// have cached.
    query_cache: BTreeSet<(u64, u64)>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn secs(ms: f64) -> f64 {
    ms / 1e3
}

impl<'a> Traced<'a> {
    fn new(refs: &'a References, store_dir: &Path) -> Result<Traced<'a>, String> {
        let _ = std::fs::remove_dir_all(store_dir);
        Ok(Traced {
            tracer: Tracer::default(),
            rates: Rates::default(),
            facts: BTreeMap::new(),
            ops: 0,
            refs,
            store: RecordingStore::open(store_dir).map_err(err)?,
            stored: Vec::new(),
            query_cache: BTreeSet::new(),
        })
    }

    fn next_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops
    }

    /// What `run_record_job` does, stage by stage; then, outside the
    /// op, the same program with recording off and the compression of
    /// the same images on their own.
    fn record(&mut self, kernel: &'static str) -> Result<u64, String> {
        let op = self.next_op();
        let t = &mut self.tracer;
        let spec = qr_workloads::find(kernel).ok_or("unknown kernel")?;
        let (threads, scale) = (THREADS as usize, SCALE);
        let root = t.enter("op.record", op);
        let program = t
            .time("workloads.build", op, || (spec.build)(threads, scale))
            .map_err(err)?;
        let cfg = RecordingConfig::with_cores(threads);
        let recording = t
            .time("capo.record", op, || record(program.clone(), cfg.clone()))
            .map_err(err)?;
        if recording.exit_code != (spec.expected)(threads, scale) {
            return Err(format!("{kernel}: recorded checksum mismatch"));
        }
        let mut parts = t.time("capo.to_parts", op, || recording.to_parts(ENCODING));
        let index = t.time("replay.index_build", op, || -> Result<usize, String> {
            let bytes = CheckpointIndex::build(&program, &recording, CHECKPOINT_INTERVAL)
                .map_err(err)?
                .to_bytes();
            let len = bytes.len();
            parts.attach_checkpoints(bytes).map_err(err)?;
            Ok(len)
        })?;
        let id = t
            .time("store.put", op, || {
                self.store
                    .put_parts(kernel, &parts, ENCODING, recording.fingerprint)
            })
            .map_err(err)?;
        let manifest = t
            .time("store.manifest", op, || self.store.manifest(id))
            .map_err(err)?;
        t.exit(root);

        let native = t
            .time("sim.native", op, || {
                let mut machine = Machine::new(
                    program.clone(),
                    CpuConfig {
                        num_cores: threads,
                        ..cfg.cpu.clone()
                    },
                )?;
                qr_os::run_native(&mut machine, cfg.os.clone())
            })
            .map_err(err)?;
        t.time("store.compress", op, || {
            parts
                .files()
                .iter()
                .map(|(_, b)| qr_store::block::compress(b).len())
                .sum::<usize>()
        });
        if recording.fingerprint != self.refs[kernel].fingerprint() {
            return Err(format!(
                "{kernel}: traced recording disagrees with the reference"
            ));
        }
        let last = |name| *t.per_op_ms(name).last().unwrap_or(&f64::NAN);
        let (native_ms, record_ms) = (last("sim.native"), last("capo.record"));
        self.rates
            .sim_minstr_per_s
            .push(native.instructions as f64 / 1e6 / secs(native_ms));
        self.rates.record_vs_native.push(record_ms / native_ms);
        self.facts.entry(kernel).or_insert(RecordFacts {
            instructions: recording.instructions,
            chunks: recording.chunks.len() as u64,
            cycles: recording.cycles,
            native_cycles: native.cycles,
            index_bytes: index as u64,
            raw_bytes: manifest.uncompressed_bytes(),
            stored_bytes: manifest.compressed_bytes(),
        });
        self.stored.push((id, kernel));
        Ok(id)
    }

    /// What FETCH does: read and inflate every file, then encode the
    /// answer for the wire.
    fn fetch(&mut self, id: u64) -> Result<(), String> {
        let op = self.next_op();
        let t = &mut self.tracer;
        let root = t.enter("op.fetch", op);
        let (manifest, parts) = t
            .time("store.fetch_parts", op, || self.store.fetch_parts(id))
            .map_err(err)?;
        t.time("server.encode", op, || {
            let files = parts
                .files()
                .into_iter()
                .map(|(n, b)| (n.to_string(), b.to_vec()))
                .collect();
            proto::encode_response(&Response::Fetched {
                files,
                fingerprint: manifest.fingerprint,
            })
            .len()
        });
        t.exit(root);
        let fetch_ms = *t.per_op_ms("store.fetch_parts").last().unwrap_or(&f64::NAN);
        self.rates
            .decompress_mb_s
            .push(manifest.uncompressed_bytes() as f64 / 1e6 / secs(fetch_ms));
        Ok(())
    }

    /// What `handle_query` does: a replay id it answered before is
    /// served from the idempotence cache with no stage at all;
    /// otherwise the query executes and a non-zero id is cached.
    fn query(
        &mut self,
        id: u64,
        kernel: &'static str,
        query: ReplayQuery,
        replay_id: u64,
    ) -> Result<(), String> {
        let op = self.next_op();
        let t = &mut self.tracer;
        if replay_id != 0 && self.query_cache.contains(&(id, replay_id)) {
            t.time("op.query", op, || ());
            return Ok(());
        }
        let spec = qr_workloads::find(kernel).ok_or("unknown kernel")?;
        let root = t.enter("op.query", op);
        let program = t
            .time("workloads.build", op, || {
                (spec.build)(THREADS as usize, SCALE)
            })
            .map_err(err)?;
        let (_, parts) = t
            .time("store.fetch_parts", op, || self.store.fetch_parts(id))
            .map_err(err)?;
        let recording = t
            .time("capo.decode", op, || Recording::from_parts(&parts))
            .map_err(err)?;
        let mut engine = t
            .time("replay.engine_new", op, || {
                QueryEngine::new(&program, &recording)
            })
            .map_err(err)?;
        if let Some(bytes) = parts.checkpoints.as_deref() {
            t.time("replay.index_attach", op, || {
                engine.attach_index_bytes(bytes)
            });
        }
        t.time("replay.query_exec", op, || engine.execute(query, None))
            .map_err(err)?;
        t.exit(root);
        if replay_id != 0 {
            self.query_cache.insert((id, replay_id));
        }
        self.rates
            .query_events
            .push(engine.plan(query).map_err(err)?.events_to_execute as f64);
        Ok(())
    }

    /// What a REPLAY job does.
    fn replay(&mut self, id: u64, kernel: &'static str) -> Result<(), String> {
        let op = self.next_op();
        let t = &mut self.tracer;
        let spec = qr_workloads::find(kernel).ok_or("unknown kernel")?;
        let root = t.enter("op.replay", op);
        let program = t
            .time("workloads.build", op, || {
                (spec.build)(THREADS as usize, SCALE)
            })
            .map_err(err)?;
        let (_, parts) = t
            .time("store.fetch_parts", op, || self.store.fetch_parts(id))
            .map_err(err)?;
        let recording = t
            .time("capo.decode", op, || Recording::from_parts(&parts))
            .map_err(err)?;
        let outcome = t
            .time("replay.replay", op, || {
                qr_replay::replay_and_verify(&program, &recording)
            })
            .map_err(err)?;
        t.exit(root);
        let replay_ms = *t.per_op_ms("replay.replay").last().unwrap_or(&f64::NAN);
        self.rates
            .replay_minstr_per_s
            .push(outcome.instructions as f64 / 1e6 / secs(replay_ms));
        Ok(())
    }

    /// What a VERIFY job does.
    fn verify(&mut self, id: u64) -> Result<(), String> {
        let op = self.next_op();
        let t = &mut self.tracer;
        let root = t.enter("op.verify", op);
        let report = t
            .time("store.verify", op, || self.store.verify(id))
            .map_err(err)?;
        t.exit(root);
        if report.all_ok() {
            Ok(())
        } else {
            Err(format!("store entry {id} failed verification"))
        }
    }
}

/// Runs the workload's ops in-process — the first `max_ops` of the
/// clients' sequences, interleaved, within `budget` — then reads back
/// up to [`PROBES`] of its recordings once each (fetch, query, replay,
/// verify), so every layer is timed on every workload.
pub fn run<'a>(
    workload: Workload,
    seed: u64,
    refs: &'a References,
    max_ops: usize,
    budget: Duration,
    store_dir: &Path,
) -> Result<Traced<'a>, String> {
    let mut tr = Traced::new(refs, store_dir)?;
    let mut corpus = Vec::new();
    if workload == Workload::Debug {
        for kernel in CORPUS {
            corpus.push(tr.record(kernel)?);
        }
    }
    let started = Instant::now();
    let mut streams: Vec<OpStream> = (0..CLIENTS)
        .map(|c| OpStream::new(workload, seed, c))
        .collect();
    'ops: for round in 0.. {
        for stream in &mut streams {
            if round * CLIENTS >= max_ops || started.elapsed() >= budget {
                break 'ops;
            }
            match stream.next().expect("op streams are endless") {
                Op::Ingest { kernel } => {
                    let id = tr.record(kernel)?;
                    tr.fetch(id)?;
                }
                Op::Query {
                    session,
                    shape,
                    cached,
                } => {
                    let query = ops::query_shapes(seed, session)[shape]
                        .resolve(refs[CORPUS[session]].geometry);
                    let replay_id = ops::replay_id(shape, cached);
                    tr.query(corpus[session], CORPUS[session], query, replay_id)?;
                }
                Op::Fetch { session } => tr.fetch(corpus[session])?,
                Op::Replay { session } => tr.replay(corpus[session], CORPUS[session])?,
            }
        }
    }
    let mut probed: Vec<(u64, &'static str)> = Vec::new();
    for &(id, kernel) in &tr.stored {
        if probed.len() < PROBES && !probed.iter().any(|&(_, k)| k == kernel) {
            probed.push((id, kernel));
        }
    }
    for (id, kernel) in probed {
        tr.fetch(id)?;
        let query = ops::query_shapes(seed, 0)[0].resolve(refs[kernel].geometry);
        tr.query(id, kernel, query, 0)?;
        tr.replay(id, kernel)?;
        tr.verify(id)?;
    }
    Ok(tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.enter("op.x", 1);
        t.time("a", 1, || std::thread::sleep(Duration::from_millis(3)));
        t.time("b", 1, || std::thread::sleep(Duration::from_millis(2)));
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let selfs = t.self_times();
        let children = spans[1].duration() + spans[2].duration();
        assert_eq!(selfs[0], spans[0].duration() - children);
        assert_eq!(
            selfs[1],
            spans[1].duration(),
            "a leaf's self time is its duration"
        );
        assert_eq!(t.per_op_ms("a").len(), 1);
    }
}
