//! The chunk-ordered replayer.

use crate::outcome::ReplayOutcome;
use crate::races::{RaceDetector, RaceReport};
use qr_capo::{InputEvent, Recording};
use qr_common::{CoreId, Cycle, QrError, Result, ThreadId, VirtAddr};
use qr_cpu::{CpuConfig, CpuContext, Machine, NondetKind, StepOutcome};
use qr_isa::program::STACK_TOP;
use qr_isa::{abi, Program, Reg};
use qr_mem::{MemEvent, PagedMemory, TsoMode};
use qr_os::kernel::EFAULT;
use qr_os::SyscallRecord;
use quickrec_core::{ChunkPacket, TerminationReason};
use std::collections::VecDeque;

/// Replays `recording` of `program` and verifies the outcome matches.
///
/// # Errors
///
/// Returns [`QrError::ReplayDivergence`] on any mismatch, or the
/// underlying error for malformed logs.
pub fn replay_and_verify(program: &Program, recording: &Recording) -> Result<ReplayOutcome> {
    let outcome = replay(program, recording)?;
    outcome.verify_against(recording)?;
    Ok(outcome)
}

/// Replays `recording` of `program` without verification.
///
/// # Errors
///
/// See [`replay_and_verify`].
pub fn replay(program: &Program, recording: &Recording) -> Result<ReplayOutcome> {
    Replayer::new(program, recording)?.run()
}

/// Replays `recording` with the dynamic race detector attached,
/// returning both the (verified) outcome and the race report.
///
/// Because replay is deterministic, the report is stable: the same
/// recording always yields the same races.
///
/// # Errors
///
/// See [`replay_and_verify`].
pub fn replay_with_race_detection(
    program: &Program,
    recording: &Recording,
) -> Result<(ReplayOutcome, RaceReport)> {
    let mut replayer = Replayer::new(program, recording)?;
    replayer.enable_race_detection();
    let (outcome, report) = replayer.run_with_report()?;
    outcome.verify_against(recording)?;
    Ok((outcome, report))
}

#[derive(Debug, Clone)]
struct ReplayThread {
    created: bool,
    exit_code: Option<u32>,
    handler: Option<VirtAddr>,
    signal_saved: Option<CpuContext>,
    nondet: VecDeque<(NondetKind, u32)>,
    /// Reason of the thread's most recently replayed chunk, used to
    /// cross-check syscall records against the replayed register state.
    last_reason: Option<TerminationReason>,
}

/// One replay in progress.
#[derive(Debug)]
pub struct Replayer<'a> {
    recording: &'a Recording,
    machine: Machine,
    threads: Vec<ReplayThread>,
    console: Vec<u8>,
    instructions: u64,
    chunks_replayed: usize,
    inputs_injected: usize,
    timeline_pos: usize,
    timeline: Vec<TimelineEvent>,
    detector: Option<RaceDetector>,
}

/// A resumable snapshot of an in-progress replay.
///
/// Checkpoints bound replay latency: instead of replaying a long
/// recording from the start to inspect a late event, resume from the
/// nearest checkpoint (the paper discusses periodic checkpointing as the
/// way to make replay-based debugging interactive).
///
/// A checkpoint is bound to the (program, recording) pair it came from;
/// [`Replayer::resume`] verifies the binding.
#[derive(Debug, Clone)]
pub struct ReplayCheckpoint {
    machine: Machine,
    threads: Vec<ReplayThread>,
    console: Vec<u8>,
    instructions: u64,
    chunks_replayed: usize,
    inputs_injected: usize,
    timeline_pos: usize,
    program_fingerprint: u64,
}

impl ReplayCheckpoint {
    /// Position in the merged timeline (events already replayed).
    pub fn position(&self) -> usize {
        self.timeline_pos
    }

    /// Instructions replayed up to this checkpoint.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Chunks replayed up to this checkpoint.
    pub fn chunks_replayed(&self) -> usize {
        self.chunks_replayed
    }

    /// Input events injected up to this checkpoint.
    pub fn inputs_injected(&self) -> usize {
        self.inputs_injected
    }

    /// Serializes the snapshot (machine state, per-thread replay state,
    /// console, counters) so it can be persisted in a `checkpoints.qrc`
    /// sidecar. The bytes are a deterministic function of the state.
    pub fn to_bytes(&self) -> Vec<u8> {
        SnapshotView {
            machine: &self.machine,
            threads: &self.threads,
            console: &self.console,
            counters: [
                self.instructions,
                self.chunks_replayed as u64,
                self.inputs_injected as u64,
                self.timeline_pos as u64,
            ],
            program_fingerprint: self.program_fingerprint,
        }
        .encode(None)
    }

    /// Inverse of [`ReplayCheckpoint::to_bytes`]: rebuilds a snapshot
    /// for the given (program, recording) pair. The machine is
    /// reconstructed from the recording's configuration, then overwritten
    /// with the serialized state, so a resumed replay is bit-for-bit
    /// identical to one resumed from the in-memory checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on malformed bytes.
    pub fn from_bytes(program: &Program, recording: &Recording, buf: &[u8]) -> Result<ReplayCheckpoint> {
        let machine = Machine::new(program.clone(), replay_cpu_config(recording)?)?;
        Self::decode(machine, buf, false)
    }

    /// Advances this snapshot to the next one by applying `buf`, a
    /// delta written by [`Replayer::snapshot_bytes`] against this
    /// snapshot's memory.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on malformed bytes.
    pub(crate) fn apply_delta(self, buf: &[u8]) -> Result<ReplayCheckpoint> {
        Self::decode(self.machine, buf, true)
    }

    /// Reads a snapshot (or, with `delta`, a delta against the state
    /// `machine` already holds) into `machine`.
    fn decode(mut machine: Machine, buf: &[u8], delta: bool) -> Result<ReplayCheckpoint> {
        let mut r = qr_common::cursor::ByteReader::new(buf, "checkpoint snapshot");
        let machine_len = r.count(buf.len() as u64)?;
        let machine_bytes = r.bytes(machine_len)?;
        let mut mr = qr_common::cursor::ByteReader::new(machine_bytes, "checkpoint machine state");
        if delta {
            machine.restore_state_delta(&mut mr)?;
        } else {
            machine.restore_state(&mut mr)?;
        }
        mr.finish()?;
        let num_threads = r.count(250)?;
        let mut threads = Vec::with_capacity(num_threads);
        for _ in 0..num_threads {
            let created = r.u8()? != 0;
            let exit_code = match r.u8()? {
                0 => None,
                _ => Some(r.u32()?),
            };
            let handler = match r.u8()? {
                0 => None,
                _ => Some(VirtAddr(r.u32()?)),
            };
            let signal_saved = match r.u8()? {
                0 => None,
                _ => Some(CpuContext::load_state(&mut r)?),
            };
            let nondet_len = r.count(1 << 24)?;
            let mut nondet = VecDeque::with_capacity(nondet_len);
            for _ in 0..nondet_len {
                let kind = match r.u8()? {
                    0 => NondetKind::Rdtsc,
                    1 => NondetKind::Rdrand,
                    code => {
                        return Err(QrError::Corrupt {
                            what: "checkpoint snapshot".into(),
                            offset: r.pos() as u64,
                            detail: format!("unknown nondet kind {code}"),
                        })
                    }
                };
                nondet.push_back((kind, r.u32()?));
            }
            let last_reason = match r.u8()? {
                0 => None,
                _ => {
                    let code = r.u8()?;
                    Some(TerminationReason::from_code(code).ok_or_else(|| QrError::Corrupt {
                        what: "checkpoint snapshot".into(),
                        offset: r.pos() as u64,
                        detail: format!("unknown termination reason {code}"),
                    })?)
                }
            };
            threads.push(ReplayThread {
                created,
                exit_code,
                handler,
                signal_saved,
                nondet,
                last_reason,
            });
        }
        let console_len = r.count(1 << 30)?;
        let console = r.bytes(console_len)?.to_vec();
        let instructions = r.varint()?;
        let chunks_replayed = r.varint()? as usize;
        let inputs_injected = r.varint()? as usize;
        let timeline_pos = r.varint()? as usize;
        let program_fingerprint = r.u64()?;
        r.finish()?;
        Ok(ReplayCheckpoint {
            machine,
            threads,
            console,
            instructions,
            chunks_replayed,
            inputs_injected,
            timeline_pos,
            program_fingerprint,
        })
    }
}

/// Borrowed view of the state a snapshot serializes, shared by
/// [`ReplayCheckpoint::to_bytes`] and [`Replayer::snapshot_bytes`] so an
/// index build can encode a live replay without cloning its machine.
struct SnapshotView<'s> {
    machine: &'s Machine,
    threads: &'s [ReplayThread],
    console: &'s [u8],
    /// Instructions, chunks replayed, inputs injected, timeline position.
    counters: [u64; 4],
    program_fingerprint: u64,
}

impl SnapshotView<'_> {
    /// The snapshot layout; with `base`, memory contents are a delta
    /// against it ([`Machine::save_state_delta`]).
    fn encode(&self, base: Option<&PagedMemory>) -> Vec<u8> {
        use qr_common::varint::write_u64;
        let mut out = Vec::new();
        let mut machine = Vec::new();
        match base {
            Some(base) => self.machine.save_state_delta(base, &mut machine),
            None => self.machine.save_state(&mut machine),
        }
        write_u64(&mut out, machine.len() as u64);
        out.extend_from_slice(&machine);
        write_u64(&mut out, self.threads.len() as u64);
        for t in self.threads {
            out.push(t.created as u8);
            match t.exit_code {
                Some(code) => {
                    out.push(1);
                    out.extend_from_slice(&code.to_le_bytes());
                }
                None => out.push(0),
            }
            match t.handler {
                Some(addr) => {
                    out.push(1);
                    out.extend_from_slice(&addr.0.to_le_bytes());
                }
                None => out.push(0),
            }
            match &t.signal_saved {
                Some(ctx) => {
                    out.push(1);
                    ctx.save_state(&mut out);
                }
                None => out.push(0),
            }
            write_u64(&mut out, t.nondet.len() as u64);
            for &(kind, value) in &t.nondet {
                out.push(match kind {
                    NondetKind::Rdtsc => 0,
                    NondetKind::Rdrand => 1,
                });
                out.extend_from_slice(&value.to_le_bytes());
            }
            match t.last_reason {
                Some(reason) => {
                    out.push(1);
                    out.push(reason.code());
                }
                None => out.push(0),
            }
        }
        write_u64(&mut out, self.console.len() as u64);
        out.extend_from_slice(self.console);
        for counter in self.counters {
            write_u64(&mut out, counter);
        }
        out.extend_from_slice(&self.program_fingerprint.to_le_bytes());
        out
    }
}

/// The CPU configuration a replay of `recording` runs under: one virtual
/// core per recorded thread, the recorded drain interval and memory
/// hierarchy. Shared by [`Replayer::new`] and checkpoint restoration so
/// a deserialized snapshot resumes on an identically-configured machine.
///
/// # Errors
///
/// Returns [`QrError::Unsupported`] for recordings with more than 250
/// threads.
pub(crate) fn replay_cpu_config(recording: &Recording) -> Result<CpuConfig> {
    let max_tid = recording
        .chunks
        .packets()
        .iter()
        .map(|p| p.tid.0)
        .chain(recording.inputs.events().iter().map(|e| e.tid().0))
        .max()
        .unwrap_or(0);
    let num_threads = max_tid as usize + 1;
    if num_threads > 250 {
        return Err(QrError::Unsupported(format!(
            "replay supports at most 250 threads, recording has {num_threads}"
        )));
    }
    Ok(CpuConfig {
        num_cores: num_threads,
        drain_interval: recording.meta.cpu.drain_interval,
        mem: recording.meta.cpu.mem.clone(),
    })
}

/// Builds the merged, timestamp-ordered timeline of chunks and input
/// events for `recording` — the event sequence every replay (full,
/// checkpointed, or seeked) steps through.
///
/// # Errors
///
/// Returns [`QrError::ReplayDivergence`] for duplicate timestamps, or
/// log-decode errors from the chunk schedule.
pub(crate) fn merged_timeline(recording: &Recording) -> Result<Vec<TimelineEvent>> {
    let schedule = recording.chunks.replay_schedule()?;
    let mut timeline: Vec<(Cycle, TimelineEvent)> = schedule
        .into_iter()
        .map(|p| (p.timestamp, TimelineEvent::Chunk(p)))
        .chain(
            recording
                .inputs
                .events()
                .iter()
                .map(|e| (e.ts(), TimelineEvent::Input(e.clone()))),
        )
        .collect();
    timeline.sort_by_key(|(ts, _)| *ts);
    for window in timeline.windows(2) {
        if window[0].0 == window[1].0 {
            return Err(QrError::ReplayDivergence(format!(
                "duplicate timeline timestamp {}",
                window[0].0
            )));
        }
    }
    Ok(timeline.into_iter().map(|(_, e)| e).collect())
}

impl<'a> Replayer<'a> {
    /// Prepares a replay: builds a machine with one virtual core per
    /// recorded thread (each thread keeps its own store buffer, which is
    /// what makes TSO reproduction exact) and creates the main thread.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] if the program does not
    /// match the recording, or [`QrError::Unsupported`] for recordings
    /// with more than 250 threads.
    pub fn new(program: &Program, recording: &'a Recording) -> Result<Replayer<'a>> {
        if program.fingerprint() != recording.meta.program_fingerprint {
            return Err(QrError::ReplayDivergence(
                "program image does not match the recording".into(),
            ));
        }
        let cpu = replay_cpu_config(recording)?;
        let num_threads = cpu.num_cores;
        let machine = Machine::new(program.clone(), cpu)?;
        let threads = (0..num_threads)
            .map(|i| ReplayThread {
                created: false,
                exit_code: None,
                handler: None,
                signal_saved: None,
                nondet: recording.inputs.nondet_for(ThreadId(i as u32)).iter().copied().collect(),
                last_reason: None,
            })
            .collect();
        let mut replayer = Replayer {
            recording,
            machine,
            threads,
            console: Vec::new(),
            instructions: 0,
            chunks_replayed: 0,
            inputs_injected: 0,
            timeline_pos: 0,
            timeline: Vec::new(),
            detector: None,
        };
        replayer.timeline = replayer.build_timeline()?;
        replayer.create_thread(ThreadId(0), program.entry(), 0)?;
        Ok(replayer)
    }

    /// Attaches the dynamic race detector for this replay.
    pub fn enable_race_detection(&mut self) {
        self.detector = Some(RaceDetector::new(self.threads.len()));
    }

    fn diverged(&self, msg: impl Into<String>) -> QrError {
        QrError::ReplayDivergence(msg.into())
    }

    /// The stack the kernel gave thread `tid` (allocation is sequential
    /// in tid order, so the address is a pure function of the tid).
    fn stack_range(&self, tid: ThreadId) -> (VirtAddr, VirtAddr) {
        let os = &self.recording.meta.os;
        let stride = os.stack_bytes + os.stack_guard_bytes;
        let top = STACK_TOP - tid.0 * stride;
        (VirtAddr(top - os.stack_bytes), VirtAddr(top))
    }

    fn create_thread(&mut self, tid: ThreadId, entry: VirtAddr, arg: u32) -> Result<()> {
        let slot = self
            .threads
            .get_mut(tid.index())
            .ok_or_else(|| QrError::ReplayDivergence(format!("spawn of unknown thread {tid}")))?;
        if slot.created {
            return Err(QrError::ReplayDivergence(format!("{tid} created twice")));
        }
        slot.created = true;
        let (base, top) = self.stack_range(tid);
        self.machine.mem_mut().map_region(base, top.0 - base.0)?;
        let mut ctx = CpuContext::new(entry);
        ctx.set_reg(Reg::SP, top.0);
        ctx.set_reg(Reg::R1, arg);
        self.machine.core_mut(CoreId(tid.0 as u8)).swap_context(Some(ctx));
        Ok(())
    }

    /// Runs the merged timeline to completion.
    ///
    /// # Errors
    ///
    /// See [`replay_and_verify`].
    pub fn run(self) -> Result<ReplayOutcome> {
        self.run_with_report().map(|(outcome, _)| outcome)
    }

    /// Runs the merged timeline to completion, returning the race report
    /// (empty unless [`Replayer::enable_race_detection`] was called).
    ///
    /// # Errors
    ///
    /// See [`replay_and_verify`].
    pub fn run_with_report(mut self) -> Result<(ReplayOutcome, RaceReport)> {
        crate::obs::RUNS.inc_at(crate::obs::SERIAL);
        while self.step_timeline()? {}
        crate::obs::NODES.add_at(crate::obs::SERIAL, self.timeline_pos as u64);
        self.finish()
    }

    // ----- time-travel inspection ------------------------------------

    /// Replays exactly one timeline event (a whole chunk or one input
    /// injection). Returns `false` when the timeline is exhausted.
    ///
    /// Between steps the replayed state can be inspected with
    /// [`Replayer::inspect_memory`], [`Replayer::thread_registers`] and
    /// [`Replayer::console_so_far`] — deterministic time-travel
    /// debugging over a recorded execution.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] like a full run would.
    pub fn step_timeline(&mut self) -> Result<bool> {
        if self.timeline_pos >= self.timeline.len() {
            return Ok(false);
        }
        let event = self.timeline[self.timeline_pos].clone();
        self.timeline_pos += 1;
        self.process_event(&event)?;
        Ok(true)
    }

    /// Current position in the merged timeline (events replayed so far).
    pub fn position(&self) -> usize {
        self.timeline_pos
    }

    /// Total number of timeline events.
    pub fn timeline_len(&self) -> usize {
        self.timeline.len()
    }

    /// The global timestamp of the next event to replay, if any.
    pub fn next_timestamp(&self) -> Option<Cycle> {
        self.timeline.get(self.timeline_pos).map(|e| match e {
            TimelineEvent::Chunk(p) => p.timestamp,
            TimelineEvent::Input(ev) => ev.ts(),
        })
    }

    /// Reads replayed guest memory at the current position.
    ///
    /// # Errors
    ///
    /// Faults on unmapped ranges, like the guest would.
    pub fn inspect_memory(&self, addr: VirtAddr, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.machine.mem().memory().read_bytes(addr, &mut buf)?;
        Ok(buf)
    }

    /// The registers of a live thread at the current position (`None`
    /// for exited or not-yet-created threads).
    pub fn thread_registers(&self, tid: ThreadId) -> Option<[u32; 16]> {
        let t = self.threads.get(tid.index())?;
        if !t.created || t.exit_code.is_some() {
            return None;
        }
        self.machine.core(CoreId(tid.0 as u8)).context().map(|c| *c.regs())
    }

    /// Console output produced up to the current position.
    pub fn console_so_far(&self) -> &[u8] {
        &self.console
    }

    /// Architectural fingerprint of the replay state at the current
    /// position, computed with the same digest the recorder used but
    /// *without* requiring every thread to have exited — the
    /// partial-progress view salvage replay reports.
    pub fn partial_fingerprint(&self) -> u64 {
        let exit_codes: Vec<Option<u32>> = self.threads.iter().map(|t| t.exit_code).collect();
        qr_os::native::fingerprint_of(&self.machine, &self.console, &exit_codes)
    }

    /// Instructions re-executed up to the current position.
    pub fn instructions_so_far(&self) -> u64 {
        self.instructions
    }

    /// Chunks replayed up to the current position.
    pub fn chunks_replayed_so_far(&self) -> usize {
        self.chunks_replayed
    }

    /// Input events injected up to the current position.
    pub fn inputs_injected_so_far(&self) -> usize {
        self.inputs_injected
    }

    /// Validates terminal state and produces the outcome.
    fn finish(mut self) -> Result<(ReplayOutcome, RaceReport)> {
        // Every created thread must have exited.
        for (i, t) in self.threads.iter().enumerate() {
            if t.created && t.exit_code.is_none() {
                return Err(self.diverged(format!("tid{i} never exited during replay")));
            }
        }
        let exit_codes: Vec<Option<u32>> = self.threads.iter().map(|t| t.exit_code).collect();
        let fingerprint = qr_os::native::fingerprint_of(&self.machine, &self.console, &exit_codes);
        let cycles = (0..self.machine.num_cores())
            .map(|i| self.machine.core(CoreId(i as u8)).cycles())
            .sum();
        let report = self.detector.take().map(RaceDetector::into_report).unwrap_or_default();
        Ok((
            ReplayOutcome {
                console: self.console,
                exit_code: exit_codes.first().copied().flatten().unwrap_or(0),
                fingerprint,
                cycles,
                instructions: self.instructions,
                chunks_replayed: self.chunks_replayed,
                inputs_injected: self.inputs_injected,
            },
            report,
        ))
    }

    /// Builds the merged, timestamp-ordered timeline of chunks and
    /// input events.
    fn build_timeline(&self) -> Result<Vec<TimelineEvent>> {
        merged_timeline(self.recording)
    }

    fn process_event(&mut self, event: &TimelineEvent) -> Result<()> {
        match event {
            TimelineEvent::Chunk(packet) => self.exec_chunk(packet)?,
            TimelineEvent::Input(InputEvent::Syscall { record, .. }) => {
                self.apply_syscall(record)?;
                self.inputs_injected += 1;
            }
            TimelineEvent::Input(InputEvent::Signal { tid, .. }) => {
                self.deliver_signal(*tid)?;
                self.inputs_injected += 1;
            }
        }
        Ok(())
    }

    /// Runs to completion, taking a [`ReplayCheckpoint`] every
    /// `every_events` timeline events.
    ///
    /// # Errors
    ///
    /// Returns [`qr_common::QrError::Unsupported`] when the race detector
    /// is attached (its analysis state is not checkpointable), plus the
    /// usual replay errors.
    pub fn run_with_checkpoints(
        self,
        every_events: usize,
    ) -> Result<(ReplayOutcome, Vec<ReplayCheckpoint>)> {
        let mut checkpoints = Vec::new();
        let outcome = self.run_checkpointed(every_events, |rp| checkpoints.push(rp.checkpoint()))?;
        Ok((outcome, checkpoints))
    }

    /// Runs to completion, handing the live replay to `at_checkpoint`
    /// every `every_events` timeline events — the streaming form of
    /// [`Replayer::run_with_checkpoints`], which lets a caller encode
    /// each checkpoint without keeping (or cloning) its machine.
    ///
    /// # Errors
    ///
    /// As [`Replayer::run_with_checkpoints`].
    pub(crate) fn run_checkpointed(
        mut self,
        every_events: usize,
        mut at_checkpoint: impl FnMut(&Replayer<'a>),
    ) -> Result<ReplayOutcome> {
        if self.detector.is_some() {
            return Err(QrError::Unsupported(
                "checkpointing cannot be combined with race detection".into(),
            ));
        }
        if every_events == 0 {
            return Err(QrError::InvalidConfig("checkpoint interval must be nonzero".into()));
        }
        while self.timeline_pos < self.timeline.len() {
            if self.timeline_pos > 0 && self.timeline_pos.is_multiple_of(every_events) {
                at_checkpoint(&self);
            }
            if !self.step_timeline()? {
                break;
            }
        }
        let (outcome, _) = self.finish()?;
        Ok(outcome)
    }

    /// Serializes the current replay state exactly as
    /// [`ReplayCheckpoint::to_bytes`] would serialize a checkpoint taken
    /// here; with `base`, memory contents are a delta against it (apply
    /// with [`ReplayCheckpoint::apply_delta`]).
    pub(crate) fn snapshot_bytes(&self, base: Option<&PagedMemory>) -> Vec<u8> {
        SnapshotView {
            machine: &self.machine,
            threads: &self.threads,
            console: &self.console,
            counters: [
                self.instructions,
                self.chunks_replayed as u64,
                self.inputs_injected as u64,
                self.timeline_pos as u64,
            ],
            program_fingerprint: self.recording.meta.program_fingerprint,
        }
        .encode(base)
    }

    /// Replayed guest memory at the current position.
    pub(crate) fn memory(&self) -> &PagedMemory {
        self.machine.mem().memory()
    }

    /// Snapshots the current replay state.
    fn checkpoint(&self) -> ReplayCheckpoint {
        ReplayCheckpoint {
            machine: self.machine.clone(),
            threads: self.threads.clone(),
            console: self.console.clone(),
            instructions: self.instructions,
            chunks_replayed: self.chunks_replayed,
            inputs_injected: self.inputs_injected,
            timeline_pos: self.timeline_pos,
            program_fingerprint: self.recording.meta.program_fingerprint,
        }
    }

    /// Resumes a replay from a checkpoint taken on the same
    /// (program, recording) pair.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] if the checkpoint does not
    /// belong to this program/recording.
    pub fn resume(
        program: &Program,
        recording: &'a Recording,
        checkpoint: ReplayCheckpoint,
    ) -> Result<Replayer<'a>> {
        if program.fingerprint() != recording.meta.program_fingerprint
            || checkpoint.program_fingerprint != recording.meta.program_fingerprint
        {
            return Err(QrError::ReplayDivergence(
                "checkpoint does not belong to this program/recording".into(),
            ));
        }
        let mut replayer = Replayer {
            recording,
            machine: checkpoint.machine,
            threads: checkpoint.threads,
            console: checkpoint.console,
            instructions: checkpoint.instructions,
            chunks_replayed: checkpoint.chunks_replayed,
            inputs_injected: checkpoint.inputs_injected,
            timeline_pos: checkpoint.timeline_pos,
            timeline: Vec::new(),
            detector: None,
        };
        replayer.timeline = replayer.build_timeline()?;
        Ok(replayer)
    }

    fn exec_chunk(&mut self, packet: &ChunkPacket) -> Result<()> {
        let tid = packet.tid;
        let core = CoreId(tid.0 as u8);
        if !self.threads[tid.index()].created {
            return Err(self.diverged(format!("chunk for never-created {tid}")));
        }
        if self.threads[tid.index()].exit_code.is_some() {
            return Err(self.diverged(format!("chunk for exited {tid}")));
        }
        for i in 0..packet.icount {
            let last = i + 1 == packet.icount;
            let step = self.machine.step(core);
            if step.instruction_retired() {
                self.instructions += 1;
            }
            if let Some(detector) = &mut self.detector {
                for event in &step.events {
                    match *event {
                        MemEvent::LocalRead { addr, width, atomic, .. } => {
                            detector.on_read(tid, addr, width, atomic);
                        }
                        MemEvent::LocalWrite { addr, width, atomic, .. } => {
                            detector.on_write(tid, addr, width, atomic);
                        }
                        _ => {}
                    }
                }
            }
            match step.outcome {
                StepOutcome::Retired => {}
                StepOutcome::Nondet { kind, rd } => {
                    let (rec_kind, value) = self.threads[tid.index()]
                        .nondet
                        .pop_front()
                        .ok_or_else(|| {
                            QrError::ReplayDivergence(format!("{tid} ran out of nondet values"))
                        })?;
                    if rec_kind != kind {
                        return Err(self.diverged(format!(
                            "{tid} nondet kind mismatch: replayed {kind:?}, recorded {rec_kind:?}"
                        )));
                    }
                    self.machine.write_reg(core, rd, value);
                }
                StepOutcome::Syscall => {
                    if !(last && packet.reason == TerminationReason::Syscall) {
                        return Err(self.diverged(format!(
                            "{tid} trapped into a syscall mid-chunk (instruction {i} of {})",
                            packet.icount
                        )));
                    }
                }
                StepOutcome::Halt => {
                    if !(last && packet.reason == TerminationReason::SphereEnd) {
                        return Err(self.diverged(format!("{tid} halted mid-chunk")));
                    }
                }
                StepOutcome::Fault(err) => {
                    return Err(self.diverged(format!("{tid} faulted during replay: {err}")));
                }
                StepOutcome::Idle => {
                    return Err(self.diverged(format!("{tid} has no context during its chunk")));
                }
            }
        }
        // Boundary drain: same rule the recorder applied.
        let drains = match packet.reason {
            TerminationReason::Syscall
            | TerminationReason::Trap
            | TerminationReason::ContextSwitch
            | TerminationReason::SphereEnd => true,
            TerminationReason::IcOverflow | TerminationReason::SigSaturation => {
                self.recording.meta.tso_mode == TsoMode::DrainAtChunk
            }
            TerminationReason::ConflictRaw
            | TerminationReason::ConflictWar
            | TerminationReason::ConflictWaw => false,
        };
        if drains {
            crate::obs::STORE_BUFFER_DRAINS.inc();
            let access = self.machine.drain_store_buffer(core)?;
            if let Some(detector) = &mut self.detector {
                for event in &access.events {
                    if let MemEvent::LocalWrite { addr, width, atomic, .. } = *event {
                        detector.on_write(tid, addr, width, atomic);
                    }
                }
            }
        }
        let pending = self.machine.mem().pending_stores(core).min(u8::MAX as usize) as u8;
        if pending != packet.rsw {
            return Err(self.diverged(format!(
                "{tid} pending-store count {pending} != recorded rsw {}",
                packet.rsw
            )));
        }
        self.threads[tid.index()].last_reason = Some(packet.reason);
        self.chunks_replayed += 1;
        Ok(())
    }

    fn apply_syscall(&mut self, record: &SyscallRecord) -> Result<()> {
        let tid = record.tid;
        let core = CoreId(tid.0 as u8);
        if !self.threads[tid.index()].created {
            return Err(self.diverged(format!("syscall record for never-created {tid}")));
        }
        // Cross-check the record against the replayed register state: the
        // thread stopped right after its syscall instruction, so `R0`
        // still holds the syscall number it actually invoked. A mismatch
        // means the log was reordered or tampered with.
        if self.threads[tid.index()].last_reason == Some(TerminationReason::Syscall) {
            let replayed_number = self.machine.read_reg(core, Reg::R0);
            if replayed_number != record.number {
                return Err(self.diverged(format!(
                    "{tid} invoked syscall {replayed_number} but the log records {}",
                    record.number
                )));
            }
            // An explicit exit's code comes from the replayed R1; the
            // injected result must agree.
            if record.number == abi::SYS_EXIT {
                let replayed_code = self.machine.read_reg(core, Reg::R1);
                if replayed_code != record.result {
                    return Err(self.diverged(format!(
                        "{tid} exited with {replayed_code} but the log records {}",
                        record.result
                    )));
                }
            }
        }
        // Kernel writes into user memory (read payloads) land first, at
        // this timeline position.
        for (addr, data) in &record.writes {
            self.machine.mem_mut().memory_mut().write_bytes(*addr, data)?;
        }
        match record.number {
            abi::SYS_EXIT => {
                if let Some(detector) = &mut self.detector {
                    detector.on_exit(tid);
                }
                self.threads[tid.index()].exit_code = Some(record.result);
                self.machine.core_mut(core).swap_context(None);
                return Ok(());
            }
            abi::SYS_SIGRETURN => {
                let saved = self.threads[tid.index()]
                    .signal_saved
                    .take()
                    .ok_or_else(|| QrError::ReplayDivergence(format!("{tid} sigreturn without a frame")))?;
                self.machine.core_mut(core).swap_context(Some(saved));
                return Ok(());
            }
            _ => {}
        }
        // Structural effects read the caller's argument registers, which
        // replay has reproduced.
        let a1 = self.machine.read_reg(core, Reg::R1);
        let a2 = self.machine.read_reg(core, Reg::R2);
        // Happens-before edges for the race detector.
        if let Some(detector) = &mut self.detector {
            match record.number {
                abi::SYS_SPAWN if record.result != EFAULT => {
                    detector.on_spawn(tid, ThreadId(record.result));
                }
                abi::SYS_JOIN if record.result != EFAULT => {
                    detector.on_join(tid, ThreadId(a1));
                }
                abi::SYS_FUTEX_WAKE => detector.on_futex_wake(tid, VirtAddr(a1)),
                abi::SYS_FUTEX_WAIT => detector.on_futex_wait(tid, VirtAddr(a1)),
                abi::SYS_KILL if record.result != EFAULT => {
                    detector.on_kill(tid, ThreadId(a1));
                }
                abi::SYS_WRITE if record.result != EFAULT => {
                    detector.on_kernel_read(tid, VirtAddr(a1), record.result as usize);
                }
                abi::SYS_READ if record.result != EFAULT => {
                    for (addr, data) in &record.writes {
                        detector.on_kernel_write(tid, *addr, data.len());
                    }
                }
                _ => {}
            }
        }
        match record.number {
            abi::SYS_SPAWN if record.result != EFAULT => {
                self.create_thread(ThreadId(record.result), VirtAddr(a1), a2)?;
            }
            abi::SYS_SBRK if record.result != EFAULT => {
                let grow = a1.div_ceil(64) * 64;
                if grow > 0 {
                    self.machine.mem_mut().map_region(VirtAddr(record.result), grow)?;
                }
            }
            abi::SYS_WRITE if record.result != EFAULT => {
                let mut buf = vec![0u8; record.result as usize];
                self.machine.mem().memory().read_bytes(VirtAddr(a1), &mut buf)?;
                self.console.extend_from_slice(&buf);
            }
            abi::SYS_SIGACTION => {
                self.threads[tid.index()].handler = (a1 != 0).then_some(VirtAddr(a1));
            }
            _ => {}
        }
        self.machine.write_reg(core, Reg::R0, record.result);
        Ok(())
    }

    fn deliver_signal(&mut self, tid: ThreadId) -> Result<()> {
        if let Some(detector) = &mut self.detector {
            detector.on_signal_delivery(tid);
        }
        let core = CoreId(tid.0 as u8);
        let handler = self.threads[tid.index()]
            .handler
            .ok_or_else(|| QrError::ReplayDivergence(format!("signal for {tid} without a handler")))?;
        let current = self
            .machine
            .core_mut(core)
            .swap_context(None)
            .ok_or_else(|| QrError::ReplayDivergence(format!("signal for contextless {tid}")))?;
        let mut frame = current.clone();
        self.threads[tid.index()].signal_saved = Some(current);
        frame.set_pc(handler);
        frame.set_reg(Reg::R1, 1);
        self.machine.core_mut(core).swap_context(Some(frame));
        Ok(())
    }
}

#[derive(Debug, Clone)]
pub(crate) enum TimelineEvent {
    Chunk(ChunkPacket),
    Input(InputEvent),
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_capo::{record, RecordingConfig};
    use qr_isa::Asm;

    fn sys(a: &mut Asm, number: u32, set_args: impl FnOnce(&mut Asm)) {
        a.movi_u(Reg::R0, number);
        set_args(a);
        a.syscall();
    }

    /// Locked-counter program with two threads (same as the capo test).
    fn racy_program() -> Program {
        let mut a = Asm::new();
        a.data_word("counter", &[0]);
        a.align_data_line();
        a.data_word("lock", &[0]);
        sys(&mut a, abi::SYS_SPAWN, |a| {
            a.movi_sym(Reg::R1, "work");
            a.movi(Reg::R2, 0);
        });
        a.mov(Reg::R6, Reg::R0);
        a.call("work_body");
        sys(&mut a, abi::SYS_JOIN, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi_sym(Reg::R2, "counter");
            a.ld(Reg::R1, Reg::R2, 0);
        });
        a.label("work");
        a.call("work_body");
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        a.label("work_body");
        a.movi(Reg::R8, 40);
        a.label("iter");
        a.movi_sym(Reg::R2, "lock");
        a.label("acquire");
        a.movi(Reg::R3, 0);
        a.movi(Reg::R4, 1);
        a.cas(Reg::R3, Reg::R2, Reg::R4);
        a.beqz(Reg::R3, "locked");
        a.pause();
        a.jmp("acquire");
        a.label("locked");
        a.movi_sym(Reg::R5, "counter");
        a.ld(Reg::R7, Reg::R5, 0);
        a.addi(Reg::R7, Reg::R7, 1);
        a.st(Reg::R5, 0, Reg::R7);
        a.movi(Reg::R3, 0);
        a.xchg(Reg::R3, Reg::R2);
        a.addi(Reg::R8, Reg::R8, -1);
        a.bnez(Reg::R8, "iter");
        a.ret();
        a.finish().unwrap()
    }

    #[test]
    fn racy_recording_replays_exactly() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        let outcome = replay_and_verify(&program, &recording).unwrap();
        assert_eq!(outcome.exit_code, 80);
        assert_eq!(outcome.chunks_replayed, recording.chunks.len());
        assert!(outcome.inputs_injected >= recording.inputs.events().len());
    }

    #[test]
    fn four_core_recording_replays() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(4)).unwrap();
        replay_and_verify(&program, &recording).unwrap();
    }

    #[test]
    fn single_core_preemptive_recording_replays() {
        let program = racy_program();
        let mut cfg = RecordingConfig::with_cores(1);
        cfg.os.quantum_cycles = 2_000; // force many context switches
        let recording = record(program.clone(), cfg).unwrap();
        assert!(
            recording
                .recorder_stats
                .chunks_by_reason[TerminationReason::ContextSwitch.code() as usize]
                > 0,
            "short quantum must produce context-switch chunks"
        );
        replay_and_verify(&program, &recording).unwrap();
    }

    #[test]
    fn read_payloads_and_nondet_replay() {
        let mut a = Asm::new();
        a.data_space("buf", 16);
        sys(&mut a, abi::SYS_READ, |a| {
            a.movi_sym(Reg::R1, "buf");
            a.movi(Reg::R2, 64);
        });
        a.rdtsc(Reg::R4);
        a.rdrand(Reg::R5);
        a.movi_sym(Reg::R3, "buf");
        a.ld(Reg::R6, Reg::R3, 0);
        a.add(Reg::R6, Reg::R6, Reg::R4);
        a.add(Reg::R6, Reg::R6, Reg::R5);
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        let program = a.finish().unwrap();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        let outcome = replay_and_verify(&program, &recording).unwrap();
        assert_eq!(outcome.exit_code, recording.exit_code);
    }

    #[test]
    fn console_output_is_reproduced() {
        let mut a = Asm::new();
        a.data_bytes("msg", b"quickrec replay\n");
        sys(&mut a, abi::SYS_WRITE, |a| {
            a.movi_sym(Reg::R1, "msg");
            a.movi(Reg::R2, 16);
        });
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        let program = a.finish().unwrap();
        let recording = record(program.clone(), RecordingConfig::with_cores(1)).unwrap();
        let outcome = replay_and_verify(&program, &recording).unwrap();
        assert_eq!(outcome.console, b"quickrec replay\n");
    }

    #[test]
    fn signals_replay_at_the_recorded_point() {
        let mut a = Asm::new();
        a.data_word("hits", &[0]);
        sys(&mut a, abi::SYS_SIGACTION, |a| {
            a.movi_sym(Reg::R1, "handler");
        });
        sys(&mut a, abi::SYS_GETTID, |_| {});
        a.mov(Reg::R7, Reg::R0);
        sys(&mut a, abi::SYS_SPAWN, |a| {
            a.movi_sym(Reg::R1, "killer");
            a.mov(Reg::R2, Reg::R7);
        });
        a.mov(Reg::R6, Reg::R0);
        a.movi_sym(Reg::R3, "hits");
        a.label("wait");
        a.ld(Reg::R4, Reg::R3, 0);
        a.beqz(Reg::R4, "wait");
        sys(&mut a, abi::SYS_JOIN, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi_sym(Reg::R3, "hits");
            a.ld(Reg::R1, Reg::R3, 0);
        });
        a.label("handler");
        a.movi_sym(Reg::R3, "hits");
        a.ld(Reg::R4, Reg::R3, 0);
        a.addi(Reg::R4, Reg::R4, 1);
        a.st(Reg::R3, 0, Reg::R4);
        a.fence();
        a.movi_u(Reg::R0, abi::SYS_SIGRETURN);
        a.syscall();
        a.label("killer");
        a.movi_u(Reg::R0, abi::SYS_KILL);
        a.syscall();
        a.movi(Reg::R1, 0);
        a.movi_u(Reg::R0, abi::SYS_EXIT);
        a.syscall();
        let program = a.finish().unwrap();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        assert_eq!(recording.exit_code, 1);
        replay_and_verify(&program, &recording).unwrap();
    }

    #[test]
    fn rsw_mode_recordings_replay_too() {
        let program = racy_program();
        let mut cfg = RecordingConfig::with_cores(2);
        cfg.cpu.mem.tso_mode = TsoMode::Rsw;
        cfg.cpu.drain_interval = 12; // more reordering pressure
        let recording = record(program.clone(), cfg).unwrap();
        replay_and_verify(&program, &recording).unwrap();
    }

    #[test]
    fn wrong_program_is_rejected() {
        let program = racy_program();
        let recording = record(program, RecordingConfig::with_cores(2)).unwrap();
        let mut other = Asm::new();
        other.halt();
        let other = other.finish().unwrap();
        match replay(&other, &recording) {
            Err(QrError::ReplayDivergence(msg)) => assert!(msg.contains("does not match")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tampered_chunk_log_is_detected() {
        let program = racy_program();
        let mut recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        // Corrupt one chunk's instruction count.
        let mut packets: Vec<ChunkPacket> = recording.chunks.packets().to_vec();
        let mid = packets.len() / 2;
        packets[mid].icount += 1;
        recording.chunks = packets.into_iter().collect();
        assert!(
            replay_and_verify(&program, &recording).is_err(),
            "a perturbed chunk schedule must not verify"
        );
    }

    #[test]
    fn replay_timing_metrics_are_populated() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(4)).unwrap();
        let outcome = replay(&program, &recording).unwrap();
        assert!(outcome.cycles > 0);
        assert_eq!(outcome.instructions, recording.instructions);
        assert!(outcome.slowdown_vs(&recording) > 0.0);
        // The replay executes serially, so its execution-cycle total must
        // at least cover every recorded instruction.
        assert!(outcome.cycles >= recording.instructions);
    }
}
