//! Time-travel queries over a recording: a persisted checkpoint index,
//! O(log n) seek, and ranged / thread-slice / reverse-step queries.
//!
//! The paper's position is that replay debugging only becomes
//! interactive when you can jump *into* an execution instead of
//! replaying it front to back. This module provides that jump:
//!
//! - [`CheckpointIndex`] serializes the periodic [`ReplayCheckpoint`]s a
//!   replay produces into one framed `checkpoints.qrc` sidecar, with a
//!   binary-searchable key table (timeline position, chunk / input /
//!   instruction counters, per-thread instruction counts). Every
//!   [`KEYFRAME_PERIOD`]-th checkpoint is a full snapshot; the rest store
//!   only the 256-byte memory runs that changed since the previous one.
//! - [`QueryEngine::seek`] restores the nearest preceding checkpoint
//!   (its keyframe plus at most `KEYFRAME_PERIOD - 1` deltas) and
//!   re-executes forward, so reaching timeline position `p` costs
//!   O(log n) lookup plus at most one checkpoint interval of replay.
//! - [`ReplayQuery`] describes a slice of the execution (chunk range,
//!   one thread's events, an instruction window, the tail before a
//!   divergence, or `reverse_step`); [`QueryEngine::execute`] answers it
//!   with a [`QueryResult`] that is byte-identical to the same slice
//!   extracted from a from-scratch serial replay.
//!
//! A corrupt or mismatched index never fails a query: the engine
//! degrades to from-scratch replay (counting the event via `qr-obs`)
//! because the index is a cache of replay state, never a source of
//! truth.

use crate::replayer::{merged_timeline, replay_cpu_config, ReplayCheckpoint, Replayer, TimelineEvent};
use qr_capo::{InputEvent, Recording};
use qr_common::cursor::ByteReader;
use qr_common::frame::{self, PayloadKind};
use qr_common::varint::write_u64;
use qr_common::{Cycle, QrError, Result, ThreadId};
use qr_isa::Program;
use qr_mem::PagedMemory;

/// Newest `checkpoints.qrc` index layout this replayer understands, and
/// the only one it writes. Version 1 stored every checkpoint as a full
/// snapshot; version 2 tags each key with its record kind, so most
/// records can be deltas. A version-1 index reads as the all-keyframe
/// case of version 2.
pub const CHECKPOINT_INDEX_VERSION: u64 = 2;

/// The first checkpoint of an index and every `KEYFRAME_PERIOD`-th after
/// it are stored as full snapshots (keyframes); the others are deltas
/// against their predecessor. A seek therefore decodes one keyframe and
/// applies at most `KEYFRAME_PERIOD - 1` deltas before it re-executes.
pub const KEYFRAME_PERIOD: usize = 16;

/// Record-kind byte of a v2 key: a full snapshot.
const RECORD_KEYFRAME: u8 = 0;
/// Record-kind byte of a v2 key: a delta against the previous checkpoint.
const RECORD_DELTA: u8 = 1;

/// What kind of timeline event a descriptor describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A chunk of user instructions executed by one thread.
    Chunk,
    /// An injected syscall result.
    Syscall,
    /// An injected signal delivery.
    Signal,
}

impl EventKind {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            EventKind::Chunk => 0,
            EventKind::Syscall => 1,
            EventKind::Signal => 2,
        }
    }

    /// Inverse of [`EventKind::code`].
    pub fn from_code(code: u8) -> Option<EventKind> {
        match code {
            0 => Some(EventKind::Chunk),
            1 => Some(EventKind::Syscall),
            2 => Some(EventKind::Signal),
            _ => None,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Chunk => "chunk",
            EventKind::Syscall => "syscall",
            EventKind::Signal => "signal",
        }
    }
}

/// One merged-timeline event, described without replaying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventDescriptor {
    /// Position in the merged timeline.
    pub pos: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Thread the event belongs to.
    pub tid: ThreadId,
    /// Global timestamp.
    pub timestamp: Cycle,
    /// Instructions the event executes (0 for injected inputs).
    pub icount: u64,
    /// Kind-specific detail: chunk termination-reason code, syscall
    /// number, or 0 for signals.
    pub detail: u32,
}

/// Describes every event of `recording`'s merged timeline without
/// replaying anything — the static skeleton time-travel queries slice.
///
/// # Errors
///
/// Propagates timeline construction errors (duplicate timestamps,
/// malformed chunk schedules).
pub fn timeline_descriptors(recording: &Recording) -> Result<Vec<EventDescriptor>> {
    Ok(merged_timeline(recording)?
        .into_iter()
        .enumerate()
        .map(|(pos, event)| match event {
            TimelineEvent::Chunk(p) => EventDescriptor {
                pos: pos as u64,
                kind: EventKind::Chunk,
                tid: p.tid,
                timestamp: p.timestamp,
                icount: p.icount,
                detail: u32::from(p.reason.code()),
            },
            TimelineEvent::Input(InputEvent::Syscall { ts, record }) => EventDescriptor {
                pos: pos as u64,
                kind: EventKind::Syscall,
                tid: record.tid,
                timestamp: ts,
                icount: 0,
                detail: record.number,
            },
            TimelineEvent::Input(InputEvent::Signal { ts, tid }) => EventDescriptor {
                pos: pos as u64,
                kind: EventKind::Signal,
                tid,
                timestamp: ts,
                icount: 0,
                detail: 0,
            },
        })
        .collect())
}

/// The seek key of one persisted checkpoint: where it sits in the
/// timeline and how much progress the replay had made when it was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointKey {
    /// Timeline events already replayed at this checkpoint.
    pub position: u64,
    /// Instructions replayed.
    pub instructions: u64,
    /// Chunks replayed.
    pub chunks_replayed: u64,
    /// Input events injected.
    pub inputs_injected: u64,
    /// Cumulative instructions retired per thread (index = tid).
    pub thread_icounts: Vec<u64>,
    /// Whether the checkpoint's record is a full snapshot (a keyframe)
    /// rather than a delta against the previous checkpoint's state.
    pub keyframe: bool,
}

/// A persisted, binary-searchable set of replay checkpoints — the
/// contents of a `checkpoints.qrc` sidecar.
///
/// Record 0 of the framed container is the seek index (version, binding
/// fingerprints, interval, one [`CheckpointKey`] per checkpoint); each
/// following record is one checkpoint. A keyframe record is a whole
/// [`ReplayCheckpoint::to_bytes`] snapshot; a delta record has the same
/// layout but holds only the memory runs that changed since the previous
/// checkpoint. The first checkpoint and every [`KEYFRAME_PERIOD`]-th after
/// it are keyframes. Records stay as raw bytes until a seek needs one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointIndex {
    /// Checkpoint interval, in timeline events.
    pub interval: u64,
    /// Total events in the recording's merged timeline.
    pub timeline_len: u64,
    /// Fingerprint of the program the checkpoints replay.
    pub program_fingerprint: u64,
    /// Final-state fingerprint of the recording (binds the sidecar).
    pub recording_fingerprint: u64,
    /// Seek keys, strictly increasing by position.
    pub keys: Vec<CheckpointKey>,
    /// Every checkpoint record, back to back, parallel to `keys`.
    records: Vec<u8>,
    /// `ends[i]` is one past the last byte of record `i` in `records`.
    ends: Vec<usize>,
}

impl CheckpointIndex {
    /// Replays `recording` once, checkpointing every `every_events`
    /// timeline events, and encodes each checkpoint as it is taken.
    ///
    /// # Errors
    ///
    /// Propagates replay errors; a recording that cannot be replayed
    /// cleanly cannot be indexed.
    pub fn build(
        program: &Program,
        recording: &Recording,
        every_events: usize,
    ) -> Result<CheckpointIndex> {
        let descriptors = timeline_descriptors(recording)?;
        let num_threads = replay_cpu_config(recording)?.num_cores;
        let mut index = CheckpointIndex {
            interval: every_events as u64,
            timeline_len: descriptors.len() as u64,
            program_fingerprint: recording.meta.program_fingerprint,
            recording_fingerprint: recording.fingerprint,
            keys: Vec::new(),
            records: Vec::new(),
            ends: Vec::new(),
        };
        let mut thread_icounts = vec![0u64; num_threads];
        let mut scanned = 0usize;
        // Memory of the previous checkpoint, while the next is a delta.
        let mut base: Option<PagedMemory> = None;
        Replayer::new(program, recording)?.run_checkpointed(every_events, |rp| {
            // Checkpoints arrive in position order, so one forward scan
            // over the descriptors prices out all the per-thread counters.
            while scanned < rp.position() {
                let d = &descriptors[scanned];
                if d.kind == EventKind::Chunk {
                    thread_icounts[d.tid.index()] += d.icount;
                }
                scanned += 1;
            }
            let keyframe = base.is_none();
            let record = rp.snapshot_bytes(base.as_ref());
            index.push(
                CheckpointKey {
                    position: rp.position() as u64,
                    instructions: rp.instructions_so_far(),
                    chunks_replayed: rp.chunks_replayed_so_far() as u64,
                    inputs_injected: rp.inputs_injected_so_far() as u64,
                    thread_icounts: thread_icounts.clone(),
                    keyframe,
                },
                &record,
            );
            let next_is_delta = !index.keys.len().is_multiple_of(KEYFRAME_PERIOD);
            base = next_is_delta.then(|| rp.memory().clone());
        })?;
        Ok(index)
    }

    fn push(&mut self, key: CheckpointKey, record: &[u8]) {
        self.keys.push(key);
        self.records.extend_from_slice(record);
        self.ends.push(self.records.len());
    }

    /// The raw bytes of checkpoint `i`'s record.
    fn record(&self, i: usize) -> &[u8] {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.records[start..self.ends[i]]
    }

    /// Serializes the index as a framed `checkpoints.qrc` container, in
    /// the current ([`CHECKPOINT_INDEX_VERSION`]) layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut header = Vec::new();
        write_u64(&mut header, CHECKPOINT_INDEX_VERSION);
        header.extend_from_slice(&self.program_fingerprint.to_le_bytes());
        header.extend_from_slice(&self.recording_fingerprint.to_le_bytes());
        write_u64(&mut header, self.interval);
        write_u64(&mut header, self.timeline_len);
        write_u64(&mut header, self.keys.len() as u64);
        for key in &self.keys {
            header.push(if key.keyframe { RECORD_KEYFRAME } else { RECORD_DELTA });
            write_u64(&mut header, key.position);
            write_u64(&mut header, key.instructions);
            write_u64(&mut header, key.chunks_replayed);
            write_u64(&mut header, key.inputs_injected);
            write_u64(&mut header, key.thread_icounts.len() as u64);
            for &n in &key.thread_icounts {
                write_u64(&mut header, n);
            }
        }
        let mut w = frame::Writer::new(PayloadKind::CheckpointIndex);
        w.record(&header);
        for i in 0..self.ends.len() {
            w.record(self.record(i));
        }
        w.finish()
    }

    /// Inverse of [`CheckpointIndex::to_bytes`]. Also reads version-1
    /// indexes, whose keys carry no record kind: every record is a
    /// keyframe.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Unsupported`] for an index written by a newer
    /// format version (naming both versions), and [`QrError::Corrupt`]
    /// for malformed bytes, including a first record that is a delta.
    pub fn from_bytes(bytes: &[u8]) -> Result<CheckpointIndex> {
        let corrupt = |offset: u64, detail: String| QrError::Corrupt {
            what: "checkpoint index".into(),
            offset,
            detail,
        };
        let records = frame::read(bytes, PayloadKind::CheckpointIndex, "checkpoint index")?;
        let header = *records
            .first()
            .ok_or_else(|| corrupt(0, "missing index header record".into()))?;
        let mut r = ByteReader::new(header, "checkpoint index");
        let version = r.varint()?;
        if version > CHECKPOINT_INDEX_VERSION {
            return Err(QrError::Unsupported(format!(
                "checkpoint index version {version} \
                 (this replayer supports up to version {CHECKPOINT_INDEX_VERSION})"
            )));
        }
        if version == 0 {
            return Err(corrupt(0, "implausible index version 0".into()));
        }
        let program_fingerprint = r.u64()?;
        let recording_fingerprint = r.u64()?;
        let interval = r.varint()?;
        if interval == 0 {
            return Err(corrupt(r.pos() as u64, "checkpoint interval 0".into()));
        }
        let timeline_len = r.varint()?;
        let num_keys = r.count(records.len() as u64 - 1)?;
        if num_keys != records.len() - 1 {
            return Err(corrupt(
                r.pos() as u64,
                format!("index lists {num_keys} checkpoints but container has {}", records.len() - 1),
            ));
        }
        let mut index = CheckpointIndex {
            interval,
            timeline_len,
            program_fingerprint,
            recording_fingerprint,
            keys: Vec::with_capacity(num_keys),
            records: Vec::with_capacity(records[1..].iter().map(|rec| rec.len()).sum()),
            ends: Vec::with_capacity(num_keys),
        };
        for record in &records[1..] {
            let keyframe = match version {
                1 => true,
                _ => match r.u8()? {
                    RECORD_KEYFRAME => true,
                    RECORD_DELTA => false,
                    kind => {
                        let detail = format!("unknown checkpoint record kind {kind}");
                        return Err(corrupt(r.pos() as u64, detail));
                    }
                },
            };
            if !keyframe && index.keys.is_empty() {
                return Err(corrupt(
                    r.pos() as u64,
                    "first checkpoint record is a delta with no keyframe before it".into(),
                ));
            }
            let position = r.varint()?;
            if position >= timeline_len {
                return Err(corrupt(
                    r.pos() as u64,
                    format!("checkpoint position {position} beyond timeline of {timeline_len}"),
                ));
            }
            if let Some(prev) = index.keys.last().map(|k| k.position) {
                if position <= prev {
                    return Err(corrupt(
                        r.pos() as u64,
                        format!("checkpoint positions not increasing ({prev} then {position})"),
                    ));
                }
            }
            let instructions = r.varint()?;
            let chunks_replayed = r.varint()?;
            let inputs_injected = r.varint()?;
            let num_threads = r.count(250)?;
            let mut thread_icounts = Vec::with_capacity(num_threads);
            for _ in 0..num_threads {
                thread_icounts.push(r.varint()?);
            }
            index.push(
                CheckpointKey {
                    position,
                    instructions,
                    chunks_replayed,
                    inputs_injected,
                    thread_icounts,
                    keyframe,
                },
                record,
            );
        }
        r.finish()?;
        Ok(index)
    }

    /// Rebuilds checkpoint `i`: decodes the nearest keyframe at or before
    /// it and applies every delta after that keyframe up to `i` (at most
    /// [`KEYFRAME_PERIOD`]` - 1` for an index this crate wrote).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] for an out-of-range `i`, and
    /// [`QrError::Corrupt`] when a record fails to decode or does not sit
    /// at its key's position.
    pub fn restore(
        &self,
        program: &Program,
        recording: &Recording,
        i: usize,
    ) -> Result<ReplayCheckpoint> {
        let keys = self.keys.get(..=i).filter(|_| i < self.ends.len()).ok_or_else(|| {
            let len = self.keys.len();
            QrError::InvalidConfig(format!("checkpoint {i} is beyond the index ({len})"))
        })?;
        let first = keys.iter().rposition(|k| k.keyframe).ok_or_else(|| QrError::Corrupt {
            what: "checkpoint index".into(),
            offset: 0,
            detail: format!("no keyframe at or before checkpoint {i}"),
        })?;
        let mut cp = ReplayCheckpoint::from_bytes(program, recording, self.record(first))?;
        for j in first + 1..=i {
            cp = cp.apply_delta(self.record(j))?;
        }
        if cp.position() as u64 != keys[i].position {
            return Err(QrError::Corrupt {
                what: "checkpoint index".into(),
                offset: 0,
                detail: format!(
                    "record {i} holds position {} but its key says {}",
                    cp.position(),
                    keys[i].position
                ),
            });
        }
        Ok(cp)
    }

    /// Index of the latest checkpoint at or before timeline position
    /// `target`, if any.
    fn best_for(&self, target: usize) -> Option<usize> {
        self.keys
            .partition_point(|k| k.position as usize <= target)
            .checked_sub(1)
    }
}

/// A slice of a recorded execution to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayQuery {
    /// Chunks `start..end` (chunk ordinals, end exclusive) and every
    /// timeline event between them.
    Range {
        /// First chunk ordinal.
        start: u64,
        /// One past the last chunk ordinal.
        end: u64,
    },
    /// Every event belonging to one thread (its chunks, syscall results
    /// and signal deliveries), as the span from its first to its last.
    Thread {
        /// The thread.
        tid: ThreadId,
    },
    /// The events covering replayed-instruction counts `start..end`.
    Window {
        /// First instruction of interest.
        start: u64,
        /// One past the last instruction of interest.
        end: u64,
    },
    /// The last `instructions` instructions before the replay diverges
    /// (or before the end, for a clean recording).
    BeforeDivergence {
        /// Tail length, in instructions.
        instructions: u64,
    },
    /// The machine state `events` timeline events before the end —
    /// stepping backwards by re-executing forward from a checkpoint.
    ReverseStep {
        /// How many events to step back from the end.
        events: u64,
    },
}

impl ReplayQuery {
    /// Short label for metrics and audit spans.
    pub fn label(&self) -> &'static str {
        match self {
            ReplayQuery::Range { .. } => "range",
            ReplayQuery::Thread { .. } => "thread",
            ReplayQuery::Window { .. } => "window",
            ReplayQuery::BeforeDivergence { .. } => "before-divergence",
            ReplayQuery::ReverseStep { .. } => "reverse-step",
        }
    }

    /// Serializes the query for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match *self {
            ReplayQuery::Range { start, end } => {
                out.push(0);
                write_u64(&mut out, start);
                write_u64(&mut out, end);
            }
            ReplayQuery::Thread { tid } => {
                out.push(1);
                out.extend_from_slice(&tid.0.to_le_bytes());
            }
            ReplayQuery::Window { start, end } => {
                out.push(2);
                write_u64(&mut out, start);
                write_u64(&mut out, end);
            }
            ReplayQuery::BeforeDivergence { instructions } => {
                out.push(3);
                write_u64(&mut out, instructions);
            }
            ReplayQuery::ReverseStep { events } => {
                out.push(4);
                write_u64(&mut out, events);
            }
        }
        out
    }

    /// Inverse of [`ReplayQuery::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on malformed bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<ReplayQuery> {
        let mut r = ByteReader::new(buf, "replay query");
        let query = Self::read_from(&mut r)?;
        r.finish()?;
        Ok(query)
    }

    /// Reads one query from an open cursor (for embedding in larger
    /// wire messages).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on malformed bytes.
    pub fn read_from(r: &mut ByteReader<'_>) -> Result<ReplayQuery> {
        let tag = r.u8()?;
        Ok(match tag {
            0 => ReplayQuery::Range { start: r.varint()?, end: r.varint()? },
            1 => ReplayQuery::Thread { tid: ThreadId(r.u32()?) },
            2 => ReplayQuery::Window { start: r.varint()?, end: r.varint()? },
            3 => ReplayQuery::BeforeDivergence { instructions: r.varint()? },
            4 => ReplayQuery::ReverseStep { events: r.varint()? },
            _ => {
                return Err(QrError::Corrupt {
                    what: "replay query".into(),
                    offset: 0,
                    detail: format!("unknown query tag {tag}"),
                })
            }
        })
    }
}

impl std::fmt::Display for ReplayQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ReplayQuery::Range { start, end } => write!(f, "chunks {start}..{end}"),
            ReplayQuery::Thread { tid } => write!(f, "all events of {tid}"),
            ReplayQuery::Window { start, end } => write!(f, "instructions {start}..{end}"),
            ReplayQuery::BeforeDivergence { instructions } => {
                write!(f, "last {instructions} instructions before divergence")
            }
            ReplayQuery::ReverseStep { events } => write!(f, "reverse-step {events} events"),
        }
    }
}

/// What executing a query would cost — the dry-run answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// The query this plan answers.
    pub query: ReplayQuery,
    /// First timeline position of the result span.
    pub start: u64,
    /// One past the last timeline position of the result span.
    pub end: u64,
    /// Position of the checkpoint a seek would restore, if any.
    pub checkpoint: Option<u64>,
    /// Timeline events that must be re-executed to answer the query.
    pub events_to_execute: u64,
    /// Total events in the recording's timeline.
    pub timeline_len: u64,
}

impl QueryPlan {
    /// Renders the plan as the text `--dry-run` prints.
    pub fn render(&self) -> String {
        let from = match self.checkpoint {
            Some(pos) => format!("checkpoint at event {pos}"),
            None => "the start (no usable checkpoint)".into(),
        };
        format!(
            "plan: {}\n  span: events [{}, {}) of {}\n  resume from: {}\n  events to re-execute: {}\n",
            self.query, self.start, self.end, self.timeline_len, from, self.events_to_execute
        )
    }

    /// Serializes the plan for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.query.to_bytes();
        write_u64(&mut out, self.start);
        write_u64(&mut out, self.end);
        match self.checkpoint {
            Some(pos) => {
                out.push(1);
                write_u64(&mut out, pos);
            }
            None => out.push(0),
        }
        write_u64(&mut out, self.events_to_execute);
        write_u64(&mut out, self.timeline_len);
        out
    }

    /// Inverse of [`QueryPlan::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on malformed bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<QueryPlan> {
        let mut r = ByteReader::new(buf, "query plan");
        let query = ReplayQuery::read_from(&mut r)?;
        let start = r.varint()?;
        let end = r.varint()?;
        let checkpoint = match r.u8()? {
            0 => None,
            _ => Some(r.varint()?),
        };
        let events_to_execute = r.varint()?;
        let timeline_len = r.varint()?;
        r.finish()?;
        Ok(QueryPlan { query, start, end, checkpoint, events_to_execute, timeline_len })
    }
}

/// The answer to a [`ReplayQuery`]: the events of the span, the console
/// output and instruction count produced inside it, and the
/// architectural fingerprint at its end. Byte-identical whether it was
/// computed from a checkpoint seek or a from-scratch replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// The query this result answers.
    pub query: ReplayQuery,
    /// First timeline position of the span.
    pub start: u64,
    /// One past the last timeline position of the span.
    pub end: u64,
    /// Descriptors of the events inside the span.
    pub events: Vec<EventDescriptor>,
    /// Console bytes produced inside the span.
    pub console: Vec<u8>,
    /// Instructions re-executed inside the span.
    pub instructions: u64,
    /// Partial architectural fingerprint at the end of the span.
    pub fingerprint: u64,
    /// The divergence that ended the replay, for
    /// [`ReplayQuery::BeforeDivergence`] on a tampered recording.
    pub diverged: Option<String>,
}

impl QueryResult {
    /// Serializes the result for the wire. The bytes are a
    /// deterministic function of the result, so equivalence tests can
    /// compare results bytewise.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.query.to_bytes();
        write_u64(&mut out, self.start);
        write_u64(&mut out, self.end);
        write_u64(&mut out, self.events.len() as u64);
        for e in &self.events {
            write_u64(&mut out, e.pos);
            out.push(e.kind.code());
            out.extend_from_slice(&e.tid.0.to_le_bytes());
            write_u64(&mut out, e.timestamp.0);
            write_u64(&mut out, e.icount);
            out.extend_from_slice(&e.detail.to_le_bytes());
        }
        write_u64(&mut out, self.console.len() as u64);
        out.extend_from_slice(&self.console);
        write_u64(&mut out, self.instructions);
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        match &self.diverged {
            Some(msg) => {
                out.push(1);
                write_u64(&mut out, msg.len() as u64);
                out.extend_from_slice(msg.as_bytes());
            }
            None => out.push(0),
        }
        out
    }

    /// Inverse of [`QueryResult::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on malformed bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<QueryResult> {
        let corrupt = |offset: u64, detail: String| QrError::Corrupt {
            what: "query result".into(),
            offset,
            detail,
        };
        let mut r = ByteReader::new(buf, "query result");
        let query = ReplayQuery::read_from(&mut r)?;
        let start = r.varint()?;
        let end = r.varint()?;
        let num_events = r.count(1 << 30)?;
        let mut events = Vec::with_capacity(num_events);
        for _ in 0..num_events {
            let pos = r.varint()?;
            let kind_code = r.u8()?;
            let kind = EventKind::from_code(kind_code)
                .ok_or_else(|| corrupt(r.pos() as u64, format!("unknown event kind {kind_code}")))?;
            let tid = ThreadId(r.u32()?);
            let timestamp = Cycle(r.varint()?);
            let icount = r.varint()?;
            let detail = r.u32()?;
            events.push(EventDescriptor { pos, kind, tid, timestamp, icount, detail });
        }
        let console_len = r.count(1 << 30)?;
        let console = r.bytes(console_len)?.to_vec();
        let instructions = r.varint()?;
        let fingerprint = r.u64()?;
        let diverged = match r.u8()? {
            0 => None,
            _ => {
                let len = r.count(1 << 20)?;
                let at = r.pos() as u64;
                let msg = String::from_utf8(r.bytes(len)?.to_vec())
                    .map_err(|_| corrupt(at, "divergence message is not UTF-8".into()))?;
                Some(msg)
            }
        };
        r.finish()?;
        Ok(QueryResult { query, start, end, events, console, instructions, fingerprint, diverged })
    }
}

/// A query engine over one (program, recording) pair, optionally
/// accelerated by a [`CheckpointIndex`].
#[derive(Debug)]
pub struct QueryEngine<'a> {
    program: &'a Program,
    recording: &'a Recording,
    descriptors: Vec<EventDescriptor>,
    /// `cum_instructions[i]` = instructions replayed by the first `i`
    /// timeline events (length `timeline_len + 1`).
    cum_instructions: Vec<u64>,
    /// Timeline position of each chunk, by chunk ordinal.
    chunk_positions: Vec<usize>,
    index: Option<CheckpointIndex>,
}

impl<'a> QueryEngine<'a> {
    /// Builds an engine with no index (every seek replays from scratch).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] if `program` does not match
    /// the recording, plus timeline construction errors.
    pub fn new(program: &'a Program, recording: &'a Recording) -> Result<QueryEngine<'a>> {
        if program.fingerprint() != recording.meta.program_fingerprint {
            return Err(QrError::ReplayDivergence(
                "program image does not match the recording".into(),
            ));
        }
        let descriptors = timeline_descriptors(recording)?;
        let mut cum_instructions = Vec::with_capacity(descriptors.len() + 1);
        cum_instructions.push(0);
        let mut chunk_positions = Vec::new();
        for (pos, d) in descriptors.iter().enumerate() {
            if d.kind == EventKind::Chunk {
                chunk_positions.push(pos);
            }
            cum_instructions.push(cum_instructions[pos] + d.icount);
        }
        Ok(QueryEngine {
            program,
            recording,
            descriptors,
            cum_instructions,
            chunk_positions,
            index: None,
        })
    }

    /// Attaches a validated index.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] when the index was built
    /// for a different program or recording.
    pub fn attach_index(&mut self, index: CheckpointIndex) -> Result<()> {
        if index.program_fingerprint != self.recording.meta.program_fingerprint
            || index.recording_fingerprint != self.recording.fingerprint
            || index.timeline_len != self.descriptors.len() as u64
        {
            return Err(QrError::ReplayDivergence(
                "checkpoint index does not belong to this recording".into(),
            ));
        }
        self.index = Some(index);
        Ok(())
    }

    /// Attaches a persisted `checkpoints.qrc`, tolerantly: corrupt,
    /// unsupported or mismatched bytes degrade the engine to
    /// from-scratch seeks (counted by `qr-obs`) instead of failing.
    /// Returns whether the index was attached.
    pub fn attach_index_bytes(&mut self, bytes: &[u8]) -> bool {
        match CheckpointIndex::from_bytes(bytes).and_then(|ix| self.attach_index(ix)) {
            Ok(()) => true,
            Err(_) => {
                crate::obs::INDEX_CORRUPT.inc();
                false
            }
        }
    }

    /// Whether an index is attached.
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// Total events in the merged timeline.
    pub fn timeline_len(&self) -> usize {
        self.descriptors.len()
    }

    /// The timeline's event descriptors.
    pub fn descriptors(&self) -> &[EventDescriptor] {
        &self.descriptors
    }

    /// Returns a replayer positioned exactly at timeline position
    /// `target`: the nearest preceding checkpoint is restored (O(log n)
    /// binary search) and the remaining interval re-executed; without a
    /// usable checkpoint the replay runs from scratch. Either way the
    /// state at `target` is bit-for-bit the same.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] for an out-of-range target,
    /// plus replay errors from the forward execution.
    pub fn seek(&self, target: usize) -> Result<Replayer<'a>> {
        if target > self.descriptors.len() {
            return Err(QrError::InvalidConfig(format!(
                "seek target {target} is beyond the timeline ({} events)",
                self.descriptors.len()
            )));
        }
        let mut restored = None;
        if let Some(ix) = &self.index {
            if let Some(i) = ix.best_for(target) {
                // A snapshot that fails to deserialize or resume is the
                // same as no snapshot: fall back to from-scratch replay.
                match ix
                    .restore(self.program, self.recording, i)
                    .and_then(|cp| Replayer::resume(self.program, self.recording, cp))
                {
                    Ok(rp) => restored = Some(rp),
                    Err(_) => crate::obs::INDEX_CORRUPT.inc(),
                }
            }
        }
        crate::obs::SEEKS.inc_at(usize::from(restored.is_some()));
        let mut rp = match restored {
            Some(rp) => rp,
            None => Replayer::new(self.program, self.recording)?,
        };
        while rp.position() < target {
            if !rp.step_timeline()? {
                break;
            }
        }
        Ok(rp)
    }

    /// Resolves a query to its timeline span `[start, end)`.
    fn resolve_span(&self, query: ReplayQuery) -> Result<(usize, usize)> {
        let len = self.descriptors.len();
        match query {
            ReplayQuery::Range { start, end } => {
                let chunks = self.chunk_positions.len() as u64;
                if start > end {
                    return Err(QrError::InvalidConfig(format!(
                        "chunk range starts at {start} but ends at {end}"
                    )));
                }
                if end > chunks {
                    return Err(QrError::InvalidConfig(format!(
                        "chunk range end {end} is beyond the recording ({chunks} chunks)"
                    )));
                }
                let tstart = self
                    .chunk_positions
                    .get(start as usize)
                    .copied()
                    .unwrap_or(len);
                let tend = if end > start {
                    self.chunk_positions[end as usize - 1] + 1
                } else {
                    tstart
                };
                Ok((tstart, tend))
            }
            ReplayQuery::Thread { tid } => {
                let mut positions = self
                    .descriptors
                    .iter()
                    .filter(|d| d.tid == tid)
                    .map(|d| d.pos as usize);
                let first = positions.next().ok_or_else(|| {
                    QrError::InvalidConfig(format!("{tid} has no events in this recording"))
                })?;
                let last = positions.last().unwrap_or(first);
                Ok((first, last + 1))
            }
            ReplayQuery::Window { start, end } => {
                let total = *self.cum_instructions.last().unwrap_or(&0);
                if start > end {
                    return Err(QrError::InvalidConfig(format!(
                        "instruction window starts at {start} but ends at {end}"
                    )));
                }
                if end > total {
                    return Err(QrError::InvalidConfig(format!(
                        "instruction window end {end} is beyond the recording ({total} instructions)"
                    )));
                }
                let tstart = self
                    .cum_instructions
                    .partition_point(|&c| c <= start)
                    .saturating_sub(1);
                let tend = self.cum_instructions.partition_point(|&c| c < end).min(len);
                Ok((tstart, tend.max(tstart)))
            }
            ReplayQuery::BeforeDivergence { .. } => Ok((0, len)),
            ReplayQuery::ReverseStep { events } => {
                if events > len as u64 {
                    return Err(QrError::InvalidConfig(format!(
                        "cannot step back {events} events in a timeline of {len}"
                    )));
                }
                let target = len - events as usize;
                Ok((target, target))
            }
        }
    }

    /// Plans a query without executing anything — the `--dry-run` path.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] for out-of-range queries.
    pub fn plan(&self, query: ReplayQuery) -> Result<QueryPlan> {
        let (start, end) = self.resolve_span(query)?;
        // A divergence scan cannot use checkpoints: the divergence point
        // is unknown until the replay reaches it.
        let checkpoint = match query {
            ReplayQuery::BeforeDivergence { .. } => None,
            _ => self
                .index
                .as_ref()
                .and_then(|ix| ix.best_for(start))
                .map(|i| self.index.as_ref().unwrap().keys[i].position),
        };
        Ok(QueryPlan {
            query,
            start: start as u64,
            end: end as u64,
            checkpoint,
            events_to_execute: end as u64 - checkpoint.unwrap_or(0),
            timeline_len: self.descriptors.len() as u64,
        })
    }

    /// Executes a query. `max_events` bounds how many timeline events
    /// the engine may re-execute; a query that would exceed it fails
    /// before any replay work happens.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] for out-of-range queries,
    /// [`QrError::Unsupported`] when `max_events` is exceeded, plus
    /// replay errors from the forward execution.
    pub fn execute(&self, query: ReplayQuery, max_events: Option<u64>) -> Result<QueryResult> {
        let plan = self.plan(query)?;
        if let Some(max) = max_events {
            if plan.events_to_execute > max {
                return Err(QrError::Unsupported(format!(
                    "query would re-execute {} timeline events, exceeding max-events {max}",
                    plan.events_to_execute
                )));
            }
        }
        if let ReplayQuery::BeforeDivergence { instructions } = query {
            return self.execute_before_divergence(query, instructions);
        }
        let start = plan.start as usize;
        let end = plan.end as usize;
        let mut rp = self.seek(start)?;
        let console_before = rp.console_so_far().len();
        let instructions_before = rp.instructions_so_far();
        while rp.position() < end {
            if !rp.step_timeline()? {
                break;
            }
        }
        Ok(QueryResult {
            query,
            start: plan.start,
            end: plan.end,
            events: self.descriptors[start..end].to_vec(),
            console: rp.console_so_far()[console_before..].to_vec(),
            instructions: rp.instructions_so_far() - instructions_before,
            fingerprint: rp.partial_fingerprint(),
            diverged: None,
        })
    }

    /// The "last K instructions" query: scan forward from scratch until
    /// the replay diverges (or ends), then extract the tail window
    /// before that point.
    fn execute_before_divergence(
        &self,
        query: ReplayQuery,
        instructions: u64,
    ) -> Result<QueryResult> {
        let mut scan = Replayer::new(self.program, self.recording)?;
        let mut diverged = None;
        let stop = loop {
            let pos = scan.position();
            match scan.step_timeline() {
                Ok(true) => {}
                Ok(false) => break pos,
                Err(e) => {
                    diverged = Some(e.to_string());
                    break pos;
                }
            }
        };
        let at_stop = self.cum_instructions[stop];
        // Earliest event boundary keeping at most `instructions`
        // instructions in the window.
        let start = self.cum_instructions[..=stop].partition_point(|&c| at_stop - c > instructions);
        // The scan executed the failing event partially, so its state is
        // not usable; reach `stop` again cleanly (the seek may use the
        // index — every checkpoint precedes the divergence).
        let mut rp = self.seek(start)?;
        let console_before = rp.console_so_far().len();
        let instructions_before = rp.instructions_so_far();
        while rp.position() < stop {
            if !rp.step_timeline()? {
                break;
            }
        }
        Ok(QueryResult {
            query,
            start: start as u64,
            end: stop as u64,
            events: self.descriptors[start..stop].to_vec(),
            console: rp.console_so_far()[console_before..].to_vec(),
            instructions: rp.instructions_so_far() - instructions_before,
            fingerprint: rp.partial_fingerprint(),
            diverged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_key(position: u64, thread_icounts: Vec<u64>, keyframe: bool) -> CheckpointKey {
        CheckpointKey {
            position,
            instructions: thread_icounts.iter().sum(),
            chunks_replayed: position / 2,
            inputs_injected: position / 4,
            thread_icounts,
            keyframe,
        }
    }

    fn sample_index() -> CheckpointIndex {
        let mut ix = CheckpointIndex {
            interval: 8,
            timeline_len: 40,
            program_fingerprint: 0x1111_2222_3333_4444,
            recording_fingerprint: 0x5555_6666_7777_8888,
            keys: Vec::new(),
            records: Vec::new(),
            ends: Vec::new(),
        };
        ix.push(sample_key(8, vec![80, 40], true), &[1, 2, 3]);
        ix.push(sample_key(16, vec![150, 110], false), &[4, 5, 6]);
        ix
    }

    /// `ix` serialized in the version-1 layout: no record-kind bytes.
    fn v1_bytes(ix: &CheckpointIndex) -> Vec<u8> {
        let mut header = Vec::new();
        write_u64(&mut header, 1);
        header.extend_from_slice(&ix.program_fingerprint.to_le_bytes());
        header.extend_from_slice(&ix.recording_fingerprint.to_le_bytes());
        write_u64(&mut header, ix.interval);
        write_u64(&mut header, ix.timeline_len);
        write_u64(&mut header, ix.keys.len() as u64);
        for key in &ix.keys {
            for n in [key.position, key.instructions, key.chunks_replayed, key.inputs_injected] {
                write_u64(&mut header, n);
            }
            write_u64(&mut header, key.thread_icounts.len() as u64);
            for &n in &key.thread_icounts {
                write_u64(&mut header, n);
            }
        }
        let mut w = frame::Writer::new(PayloadKind::CheckpointIndex);
        w.record(&header);
        for i in 0..ix.keys.len() {
            w.record(ix.record(i));
        }
        w.finish()
    }

    #[test]
    fn index_round_trips() {
        let ix = sample_index();
        let bytes = ix.to_bytes();
        let back = CheckpointIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, ix);
        assert_eq!(bytes, back.to_bytes(), "re-serialization is byte-identical");
    }

    #[test]
    fn future_index_version_is_rejected_by_name() {
        let mut header = Vec::new();
        write_u64(&mut header, 99);
        let mut w = frame::Writer::new(PayloadKind::CheckpointIndex);
        w.record(&header);
        let err = CheckpointIndex::from_bytes(&w.finish()).unwrap_err();
        match err {
            QrError::Unsupported(msg) => {
                assert!(msg.contains("version 99"), "names the file's version: {msg}");
                assert!(
                    msg.contains(&format!("version {CHECKPOINT_INDEX_VERSION}")),
                    "names the supported version: {msg}"
                );
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_mismatched_indexes_are_structured_errors() {
        let bytes = sample_index().to_bytes();
        for cut in [0, 1, frame::HEADER_LEN, bytes.len() - 1] {
            let err = CheckpointIndex::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, QrError::Corrupt { .. }), "cut at {cut}: {err:?}");
        }
        // An index that lists more checkpoints than the container holds.
        let full = sample_index().to_bytes();
        let records = frame::read(&full, PayloadKind::CheckpointIndex, "test").unwrap();
        let mut w = frame::Writer::new(PayloadKind::CheckpointIndex);
        w.record(records[0]).record(records[1]);
        let err = CheckpointIndex::from_bytes(&w.finish()).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn v1_index_reads_as_all_keyframes() {
        let mut ix = sample_index();
        ix.keys[1].keyframe = true;
        let back = CheckpointIndex::from_bytes(&v1_bytes(&ix)).unwrap();
        assert_eq!(back, ix);
        let rewritten = CheckpointIndex::from_bytes(&back.to_bytes()).unwrap();
        assert_eq!(rewritten, ix, "a v1 index re-serializes as v2 without loss");
    }

    #[test]
    fn leading_delta_and_unknown_record_kinds_are_corrupt() {
        let mut ix = sample_index();
        ix.keys[0].keyframe = false;
        match CheckpointIndex::from_bytes(&ix.to_bytes()).unwrap_err() {
            QrError::Corrupt { detail, .. } => assert!(detail.contains("delta"), "{detail}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let bytes = sample_index().to_bytes();
        let records = frame::read(&bytes, PayloadKind::CheckpointIndex, "test").unwrap();
        let mut header = records[0].to_vec();
        // version, 2 fingerprints, interval, timeline_len, key count.
        let kind_at = 1 + 16 + 1 + 1 + 1;
        assert_eq!(header[kind_at], RECORD_KEYFRAME);
        header[kind_at] = 7;
        let mut w = frame::Writer::new(PayloadKind::CheckpointIndex);
        w.record(&header).record(records[1]).record(records[2]);
        let err = CheckpointIndex::from_bytes(&w.finish()).unwrap_err();
        assert!(err.to_string().contains("record kind 7"), "{err}");
    }

    #[test]
    fn non_increasing_checkpoint_positions_are_corrupt() {
        let mut ix = sample_index();
        ix.keys[1].position = 8;
        let err = CheckpointIndex::from_bytes(&ix.to_bytes()).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "{err:?}");
        let mut ix = sample_index();
        ix.keys[1].position = 41;
        let err = CheckpointIndex::from_bytes(&ix.to_bytes()).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "beyond timeline: {err:?}");
    }

    #[test]
    fn best_for_picks_latest_preceding_checkpoint() {
        let ix = sample_index();
        assert_eq!(ix.best_for(0), None);
        assert_eq!(ix.best_for(7), None);
        assert_eq!(ix.best_for(8), Some(0));
        assert_eq!(ix.best_for(15), Some(0));
        assert_eq!(ix.best_for(16), Some(1));
        assert_eq!(ix.best_for(1000), Some(1));
    }

    #[test]
    fn query_and_plan_and_result_round_trip() {
        let queries = [
            ReplayQuery::Range { start: 3, end: 17 },
            ReplayQuery::Thread { tid: ThreadId(2) },
            ReplayQuery::Window { start: 100, end: 250 },
            ReplayQuery::BeforeDivergence { instructions: 64 },
            ReplayQuery::ReverseStep { events: 5 },
        ];
        for q in queries {
            assert_eq!(ReplayQuery::from_bytes(&q.to_bytes()).unwrap(), q);
        }
        let plan = QueryPlan {
            query: queries[0],
            start: 6,
            end: 40,
            checkpoint: Some(32),
            events_to_execute: 8,
            timeline_len: 96,
        };
        assert_eq!(QueryPlan::from_bytes(&plan.to_bytes()).unwrap(), plan);
        assert!(plan.render().contains("checkpoint at event 32"));
        let result = QueryResult {
            query: queries[1],
            start: 6,
            end: 8,
            events: vec![EventDescriptor {
                pos: 6,
                kind: EventKind::Syscall,
                tid: ThreadId(2),
                timestamp: Cycle(991),
                icount: 0,
                detail: 4,
            }],
            console: b"hi".to_vec(),
            instructions: 17,
            fingerprint: 0xdead_beef_cafe_f00d,
            diverged: Some("replay diverged: tid1 rsw mismatch".into()),
        };
        assert_eq!(QueryResult::from_bytes(&result.to_bytes()).unwrap(), result);
    }

    #[test]
    fn unknown_query_tag_is_corrupt() {
        let err = ReplayQuery::from_bytes(&[9]).unwrap_err();
        assert!(matches!(err, QrError::Corrupt { .. }), "{err:?}");
    }
}
