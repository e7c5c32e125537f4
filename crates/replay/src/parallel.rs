//! Parallel chunk-ordered replay with a conflict-dependency scheduler.
//!
//! Serial replay executes the merged timeline strictly in global
//! timestamp order — one chunk at a time, even on a many-core host. But
//! the recorded total order is stronger than necessary: two chunks only
//! need to stay ordered if the *same thread* issued them (program order)
//! or their read/write footprints actually conflict (some shared cache
//! line written by at least one of them). Any execution respecting those
//! constraints is conflict-equivalent to the recorded serialization and
//! therefore produces a byte-identical memory image, console and exit
//! vector — fingerprint equality is the correctness oracle, checked by
//! [`replay_parallel_and_verify`] and the equivalence test battery.
//!
//! # Dependency DAG
//!
//! Nodes are the merged timeline events (chunk packets plus input
//! events), in timestamp order. Edges, always from earlier to later
//! timestamps (hence acyclic):
//!
//! - **Program order**: consecutive nodes of the same thread.
//! - **Conflicts**: walking nodes in timestamp order with per-line
//!   last-writer / readers-since bookkeeping, a node reading line `L`
//!   depends on `L`'s last writer, and a node writing `L` depends on
//!   `L`'s last writer and every reader since (RAW, WAW, WAR edges at
//!   cache-line granularity — the same granularity the recording
//!   hardware detects conflicts at).
//! - **Spawn**: a successful `SYS_SPAWN` record precedes the child
//!   thread's first node.
//!
//! Chunk footprints come from the recording's optional
//! [`quickrec_core::FootprintLog`] sidecar. Recordings without complete
//! footprint coverage (legacy logs, salvaged prefixes) fall back to the
//! serial [`Replayer`] — missing footprints cost parallelism, never
//! correctness.
//!
//! # Execution model
//!
//! Every thread gets a private single-core *lane* machine (own store
//! buffer, so TSO reproduction stays exact) whose memory is fully
//! mapped. A shared *canonical* machine carries the authoritative memory
//! image and mirrors the serial replayer's region mapping operations
//! (data segment, stacks, `sbrk` growth) so its fingerprint hashes the
//! same region list. A worker executing a node:
//!
//! 1. **pulls** the node's footprint lines from canonical memory into
//!    the lane (clipped to canonical's mapped regions),
//! 2. **executes** the node on the lane exactly like serial replay
//!    (instruction-exact chunk execution, boundary drains, RSW checks,
//!    input injection), and
//! 3. **pushes** the node's write-set lines back to canonical memory.
//!
//! Because every conflicting predecessor pushed before this node pulls
//! (there is an edge), the pulled lines hold exactly the bytes serial
//! replay would have observed; concurrent nodes touch disjoint write
//! sets by construction. The per-core caches model coherence metadata
//! only — data lives in the paged memory — so line copies between
//! machines are architecturally exact.
//!
//! The reported [`ReplayOutcome::cycles`] is a *simulated makespan*: a
//! deterministic greedy list schedule of the DAG onto `jobs` workers
//! using each node's replayed cycle cost. It depends only on the
//! recording and `jobs`, never on host scheduling, keeping experiment
//! output byte-stable.

use crate::outcome::ReplayOutcome;
use crate::replayer::Replayer;
use qr_capo::{InputEvent, Recording};
use qr_common::ids::CACHE_LINE_SHIFT;
use qr_common::{CoreId, LineAddr, QrError, Result, ThreadId, VirtAddr};
use qr_cpu::{CpuConfig, CpuContext, Machine, NondetKind, StepOutcome};
use qr_isa::program::STACK_TOP;
use qr_isa::{abi, Program, Reg};
use qr_mem::TsoMode;
use qr_os::kernel::EFAULT;
use qr_os::SyscallRecord;
use quickrec_core::{ChunkPacket, TerminationReason};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Replays `recording` of `program` on up to `jobs` worker threads and
/// verifies the outcome against the recording.
///
/// # Errors
///
/// See [`replay_parallel`].
pub fn replay_parallel_and_verify(
    program: &Program,
    recording: &Recording,
    jobs: usize,
) -> Result<ReplayOutcome> {
    let outcome = replay_parallel(program, recording, jobs)?;
    outcome.verify_against(recording)?;
    Ok(outcome)
}

/// Replays `recording` of `program` on up to `jobs` worker threads,
/// falling back to serial replay when the recording lacks complete
/// footprint coverage.
///
/// # Errors
///
/// Returns [`QrError::InvalidConfig`] for `jobs == 0`, otherwise the
/// same errors as serial [`crate::replay`].
pub fn replay_parallel(program: &Program, recording: &Recording, jobs: usize) -> Result<ReplayOutcome> {
    ParallelReplayer::new(program, recording, jobs)?.run()
}

/// One timeline node of the dependency DAG.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) kind: NodeKind,
    pub(crate) tid: ThreadId,
    /// Lines to copy canonical → lane before executing (reads ∪ writes).
    pub(crate) pull: Vec<LineAddr>,
    /// Lines to copy lane → canonical after executing (writes).
    pub(crate) push: Vec<LineAddr>,
}

#[derive(Debug)]
pub(crate) enum NodeKind {
    Chunk(ChunkPacket),
    Input(InputEvent),
}

/// The dependency DAG over the merged timeline.
#[derive(Debug)]
pub(crate) struct Dag {
    pub(crate) nodes: Vec<Node>,
    /// Direct predecessors of each node (deduplicated, ascending).
    pub(crate) preds: Vec<Vec<usize>>,
    /// Direct successors of each node.
    pub(crate) succs: Vec<Vec<usize>>,
}

impl Dag {
    /// Fills the successor lists from the predecessor lists.
    pub(crate) fn link_succs(&mut self) {
        self.succs = vec![Vec::new(); self.nodes.len()];
        for (idx, p) in self.preds.iter().enumerate() {
            for &pred in p {
                self.succs[pred].push(idx);
            }
        }
    }
}

/// A parallel replay in preparation.
///
/// Construction builds the chunk dependency DAG from the recording's
/// footprint sidecar; [`ParallelReplayer::run`] executes it on a scoped
/// worker pool. Recordings without complete footprints (see
/// [`ParallelReplayer::fallback_reason`]) run through the serial
/// [`Replayer`] instead and still produce the same verified outcome.
#[derive(Debug)]
pub struct ParallelReplayer<'a> {
    program: &'a Program,
    recording: &'a Recording,
    jobs: usize,
    dag: Option<Dag>,
    fallback: Option<String>,
}

impl<'a> ParallelReplayer<'a> {
    /// Prepares a parallel replay with `jobs` workers.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] for `jobs == 0`,
    /// [`QrError::ReplayDivergence`] if the program does not match the
    /// recording, and log-format errors for malformed chunk logs.
    pub fn new(program: &'a Program, recording: &'a Recording, jobs: usize) -> Result<ParallelReplayer<'a>> {
        if jobs == 0 {
            return Err(QrError::InvalidConfig("replay needs at least one job".into()));
        }
        if program.fingerprint() != recording.meta.program_fingerprint {
            return Err(QrError::ReplayDivergence(
                "program image does not match the recording".into(),
            ));
        }
        let (dag, fallback) = match build_dag(recording)? {
            Ok(dag) => (Some(dag), None),
            Err(reason) => (None, Some(reason)),
        };
        Ok(ParallelReplayer { program, recording, jobs, dag, fallback })
    }

    /// Why this replay will take the serial path (`None` when the
    /// dependency scheduler can run).
    pub fn fallback_reason(&self) -> Option<&str> {
        self.fallback.as_deref()
    }

    /// Number of timeline nodes in the dependency DAG (0 on fallback).
    pub fn node_count(&self) -> usize {
        self.dag.as_ref().map_or(0, |d| d.nodes.len())
    }

    /// Number of dependency edges in the DAG (0 on fallback).
    pub fn edge_count(&self) -> usize {
        self.dag.as_ref().map_or(0, |d| d.preds.iter().map(Vec::len).sum())
    }

    /// Runs the replay to completion.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] on any mismatch, like the
    /// serial replayer.
    pub fn run(self) -> Result<ReplayOutcome> {
        let Some(dag) = self.dag else {
            return Replayer::new(self.program, self.recording)?.run();
        };
        Runtime::new(self.program, self.recording, dag, self.jobs)?.run()
    }
}

/// Builds the merged timestamp-ordered timeline as DAG nodes with their
/// footprint pull/push sets, or explains why serial fallback is needed
/// (no footprint sidecar, or incomplete coverage). Shared by the
/// conflict-derived DAG below and the recorded-order DAG in
/// [`crate::order`].
#[allow(clippy::type_complexity)]
pub(crate) fn build_timeline_nodes(
    recording: &Recording,
) -> Result<std::result::Result<Vec<Node>, String>> {
    let Some(footprints) = &recording.footprints else {
        return Ok(Err("recording carries no footprint sidecar".into()));
    };
    // Merge chunks and inputs into the same timestamp-ordered timeline
    // the serial replayer executes.
    let schedule = recording.chunks.replay_schedule()?;
    let mut timeline: Vec<(u64, NodeKind)> = schedule
        .into_iter()
        .map(|p| (p.timestamp.0, NodeKind::Chunk(p)))
        .chain(recording.inputs.events().iter().map(|e| (e.ts().0, NodeKind::Input(e.clone()))))
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
    let mut nodes = Vec::with_capacity(timeline.len());
    for (ts, kind) in timeline {
        let (tid, needs_footprint) = match &kind {
            NodeKind::Chunk(p) => (p.tid, true),
            NodeKind::Input(InputEvent::Syscall { record, .. }) => (record.tid, true),
            // Signal delivery manipulates registers only; program order
            // suffices and no footprint is recorded for it.
            NodeKind::Input(InputEvent::Signal { tid, .. }) => (*tid, false),
        };
        let (pull, push) = if needs_footprint {
            let Some(fp) = footprints.get(qr_common::Cycle(ts)) else {
                return Ok(Err(format!("no footprint for timeline timestamp {ts}")));
            };
            let mut pull: Vec<LineAddr> = fp.reads.iter().chain(fp.writes.iter()).copied().collect();
            pull.sort_unstable();
            pull.dedup();
            (pull, fp.writes.clone())
        } else {
            (Vec::new(), Vec::new())
        };
        nodes.push(Node { kind, tid, pull, push });
    }
    Ok(Ok(nodes))
}

/// Builds the dependency DAG, or explains why serial fallback is needed.
#[allow(clippy::type_complexity)]
fn build_dag(recording: &Recording) -> Result<std::result::Result<Dag, String>> {
    let nodes = match build_timeline_nodes(recording)? {
        Ok(nodes) => nodes,
        Err(reason) => return Ok(Err(reason)),
    };

    // Edge construction: one timestamp-ordered sweep with per-line
    // last-writer / readers-since bookkeeping plus per-thread program
    // order and spawn edges.
    let mut preds: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
    let mut last_writer: HashMap<u32, usize> = HashMap::new();
    let mut readers_since: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut last_of_tid: HashMap<u32, usize> = HashMap::new();
    let mut pending_spawn: HashMap<u32, usize> = HashMap::new();
    for (idx, node) in nodes.iter().enumerate() {
        let mut p: BTreeSet<usize> = BTreeSet::new();
        match last_of_tid.get(&node.tid.0) {
            Some(&prev) => {
                p.insert(prev);
            }
            None => {
                if let Some(&spawner) = pending_spawn.get(&node.tid.0) {
                    p.insert(spawner);
                }
            }
        }
        last_of_tid.insert(node.tid.0, idx);
        // Reads and writes are disjointly derivable from pull/push: the
        // push set is the writes; reads-only lines are pull minus push.
        for line in &node.pull {
            if let Some(&w) = last_writer.get(&line.0) {
                if w != idx {
                    p.insert(w);
                }
            }
            readers_since.entry(line.0).or_default().push(idx);
        }
        for line in &node.push {
            if let Some(since) = readers_since.get(&line.0) {
                p.extend(since.iter().copied().filter(|&r| r != idx));
            }
            if let Some(&w) = last_writer.get(&line.0) {
                if w != idx {
                    p.insert(w);
                }
            }
            last_writer.insert(line.0, idx);
            readers_since.remove(&line.0);
            // The writer itself still counts as a reader of the line's
            // new value for subsequent writers' WAR edges.
            readers_since.entry(line.0).or_default().push(idx);
        }
        if let NodeKind::Input(InputEvent::Syscall { record, .. }) = &node.kind {
            if record.number == abi::SYS_SPAWN && record.result != EFAULT {
                pending_spawn.insert(record.result, idx);
            }
        }
        preds.push(p.into_iter().collect());
    }
    let mut dag = Dag { nodes, preds, succs: Vec::new() };
    dag.link_succs();
    Ok(Ok(dag))
}

/// Per-thread replay lane: a private single-core machine plus the same
/// per-thread state the serial replayer tracks.
#[derive(Debug)]
struct Lane {
    machine: Machine,
    created: bool,
    exit_code: Option<u32>,
    handler: Option<VirtAddr>,
    signal_saved: Option<CpuContext>,
    nondet: VecDeque<(NondetKind, u32)>,
    last_reason: Option<TerminationReason>,
}

/// Shared state of one parallel replay run.
pub(crate) struct Runtime<'a> {
    recording: &'a Recording,
    dag: Dag,
    jobs: usize,
    lanes: Vec<Mutex<Lane>>,
    /// The authoritative memory image; its mapped-region list mirrors
    /// the serial replayer's mapping operations exactly (fingerprints
    /// hash region metadata as well as contents).
    canonical: Mutex<Machine>,
    ready: Mutex<VecDeque<usize>>,
    wake: Condvar,
    completed: AtomicUsize,
    abort: AtomicBool,
    /// First failure by timeline index, for deterministic error reports.
    failure: Mutex<Option<(usize, QrError)>>,
    indegree: Vec<AtomicUsize>,
    costs: Vec<AtomicU64>,
    instructions: AtomicU64,
    consoles: Mutex<BTreeMap<usize, Vec<u8>>>,
}

impl<'a> Runtime<'a> {
    pub(crate) fn new(
        program: &Program,
        recording: &'a Recording,
        dag: Dag,
        jobs: usize,
    ) -> Result<Runtime<'a>> {
        let max_tid = dag.nodes.iter().map(|n| n.tid.0).max().unwrap_or(0);
        let num_threads = max_tid as usize + 1;
        if num_threads > 250 {
            return Err(QrError::Unsupported(format!(
                "replay supports at most 250 threads, recording has {num_threads}"
            )));
        }
        let lane_cpu = CpuConfig {
            num_cores: 1,
            drain_interval: recording.meta.cpu.drain_interval,
            mem: recording.meta.cpu.mem.clone(),
        };
        let mut lanes = Vec::with_capacity(num_threads);
        for tid in 0..num_threads {
            let mut machine = Machine::new(program.clone(), lane_cpu.clone())?;
            // Lanes never fault on mapping: pulled lines are clipped to
            // canonical's regions, and recorded programs contain no wild
            // accesses (they would have faulted during recording).
            machine.mem_mut().map_region(VirtAddr(0), u32::MAX)?;
            lanes.push(Mutex::new(Lane {
                machine,
                created: false,
                exit_code: None,
                handler: None,
                signal_saved: None,
                nondet: recording.inputs.nondet_for(ThreadId(tid as u32)).iter().copied().collect(),
                last_reason: None,
            }));
        }
        let canonical = Machine::new(program.clone(), lane_cpu)?;
        let indegree = dag.preds.iter().map(|p| AtomicUsize::new(p.len())).collect();
        let ready: VecDeque<usize> =
            dag.preds.iter().enumerate().filter(|(_, p)| p.is_empty()).map(|(i, _)| i).collect();
        let costs = (0..dag.nodes.len()).map(|_| AtomicU64::new(0)).collect();
        let runtime = Runtime {
            recording,
            dag,
            jobs,
            lanes,
            canonical: Mutex::new(canonical),
            ready: Mutex::new(ready),
            wake: Condvar::new(),
            completed: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            failure: Mutex::new(None),
            indegree,
            costs,
            instructions: AtomicU64::new(0),
            consoles: Mutex::new(BTreeMap::new()),
        };
        runtime.create_thread(ThreadId(0), program.entry(), 0)?;
        Ok(runtime)
    }

    fn diverged(&self, msg: impl Into<String>) -> QrError {
        QrError::ReplayDivergence(msg.into())
    }

    /// The stack the kernel gave thread `tid` (same pure function of the
    /// tid the serial replayer uses).
    fn stack_range(&self, tid: ThreadId) -> (VirtAddr, VirtAddr) {
        let os = &self.recording.meta.os;
        let stride = os.stack_bytes + os.stack_guard_bytes;
        let top = STACK_TOP - tid.0 * stride;
        (VirtAddr(top - os.stack_bytes), VirtAddr(top))
    }

    /// Creates thread `tid`: context on its lane, stack region mapped in
    /// the canonical image (mirroring serial replay's mapping op).
    fn create_thread(&self, tid: ThreadId, entry: VirtAddr, arg: u32) -> Result<()> {
        let mut lane = self
            .lanes
            .get(tid.index())
            .ok_or_else(|| QrError::ReplayDivergence(format!("spawn of unknown thread {tid}")))?
            .lock()
            .unwrap();
        if lane.created {
            return Err(self.diverged(format!("{tid} created twice")));
        }
        lane.created = true;
        let (base, top) = self.stack_range(tid);
        self.canonical.lock().unwrap().mem_mut().map_region(base, top.0 - base.0)?;
        let mut ctx = CpuContext::new(entry);
        ctx.set_reg(Reg::SP, top.0);
        ctx.set_reg(Reg::R1, arg);
        lane.machine.core_mut(CoreId(0)).swap_context(Some(ctx));
        Ok(())
    }

    /// Copies the mapped parts of `lines` out of canonical memory.
    fn pull_lines(&self, lines: &[LineAddr]) -> Vec<(VirtAddr, Vec<u8>)> {
        if lines.is_empty() {
            return Vec::new();
        }
        let canonical = self.canonical.lock().unwrap();
        let mem = canonical.mem().memory();
        let regions: Vec<(u64, u64)> =
            mem.regions().map(|(b, l)| (u64::from(b.0), u64::from(b.0) + u64::from(l))).collect();
        let mut out = Vec::new();
        for &line in lines {
            let start = u64::from(line.0) << CACHE_LINE_SHIFT;
            let end = start + (1 << CACHE_LINE_SHIFT);
            for &(s, e) in &regions {
                let (lo, hi) = (start.max(s), end.min(e));
                if lo < hi {
                    let mut buf = vec![0u8; (hi - lo) as usize];
                    // Inside a mapped region by construction.
                    mem.read_bytes(VirtAddr(lo as u32), &mut buf).expect("clipped to mapped region");
                    out.push((VirtAddr(lo as u32), buf));
                }
            }
        }
        out
    }

    /// Copies the mapped parts of `lines` from `lane` into canonical
    /// memory. A write line with no mapped overlap at all is a
    /// divergence: serial replay would have faulted on that store.
    fn push_lines(&self, lane: &Lane, lines: &[LineAddr]) -> Result<()> {
        if lines.is_empty() {
            return Ok(());
        }
        let mut canonical = self.canonical.lock().unwrap();
        let regions: Vec<(u64, u64)> = canonical
            .mem()
            .memory()
            .regions()
            .map(|(b, l)| (u64::from(b.0), u64::from(b.0) + u64::from(l)))
            .collect();
        for &line in lines {
            let start = u64::from(line.0) << CACHE_LINE_SHIFT;
            let end = start + (1 << CACHE_LINE_SHIFT);
            let mut copied = false;
            for &(s, e) in &regions {
                let (lo, hi) = (start.max(s), end.min(e));
                if lo < hi {
                    let mut buf = vec![0u8; (hi - lo) as usize];
                    lane.machine
                        .mem()
                        .memory()
                        .read_bytes(VirtAddr(lo as u32), &mut buf)
                        .expect("lane memory is fully mapped");
                    canonical
                        .mem_mut()
                        .memory_mut()
                        .write_bytes(VirtAddr(lo as u32), &buf)
                        .expect("clipped to mapped region");
                    copied = true;
                }
            }
            if !copied {
                return Err(self.diverged(format!(
                    "chunk wrote line {:#x} outside every mapped region",
                    u64::from(line.0) << CACHE_LINE_SHIFT
                )));
            }
        }
        Ok(())
    }

    /// Executes one timeline node on its thread's lane.
    fn exec_node(&self, idx: usize) -> Result<()> {
        let node = &self.dag.nodes[idx];
        crate::obs::LINES.add_at(crate::obs::PULLED, node.pull.len() as u64);
        crate::obs::LINES.add_at(crate::obs::PUSHED, node.push.len() as u64);
        let mut lane = self.lanes[node.tid.index()].lock().unwrap();
        for (addr, bytes) in self.pull_lines(&node.pull) {
            lane.machine
                .mem_mut()
                .memory_mut()
                .write_bytes(addr, &bytes)
                .expect("lane memory is fully mapped");
        }
        let before = lane.machine.core(CoreId(0)).cycles();
        match &node.kind {
            NodeKind::Chunk(packet) => self.exec_chunk(&mut lane, packet)?,
            NodeKind::Input(InputEvent::Syscall { record, .. }) => {
                if let Some(fragment) = self.apply_syscall(&mut lane, record)? {
                    self.consoles.lock().unwrap().insert(idx, fragment);
                }
            }
            NodeKind::Input(InputEvent::Signal { tid, .. }) => self.deliver_signal(&mut lane, *tid)?,
        }
        let cost = lane.machine.core(CoreId(0)).cycles() - before;
        self.push_lines(&lane, &node.push)?;
        self.costs[idx].store(cost, Ordering::Relaxed);
        Ok(())
    }

    /// Instruction-exact chunk execution — the lane-local mirror of the
    /// serial replayer's chunk loop (same nondet injection, boundary
    /// drain rule and RSW cross-check).
    fn exec_chunk(&self, lane: &mut Lane, packet: &ChunkPacket) -> Result<()> {
        let tid = packet.tid;
        let core = CoreId(0);
        if !lane.created {
            return Err(self.diverged(format!("chunk for never-created {tid}")));
        }
        if lane.exit_code.is_some() {
            return Err(self.diverged(format!("chunk for exited {tid}")));
        }
        let mut retired = 0u64;
        for i in 0..packet.icount {
            let last = i + 1 == packet.icount;
            let step = lane.machine.step(core);
            if step.instruction_retired() {
                retired += 1;
            }
            match step.outcome {
                StepOutcome::Retired => {}
                StepOutcome::Nondet { kind, rd } => {
                    let (rec_kind, value) = lane.nondet.pop_front().ok_or_else(|| {
                        QrError::ReplayDivergence(format!("{tid} ran out of nondet values"))
                    })?;
                    if rec_kind != kind {
                        return Err(self.diverged(format!(
                            "{tid} nondet kind mismatch: replayed {kind:?}, recorded {rec_kind:?}"
                        )));
                    }
                    lane.machine.write_reg(core, rd, value);
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
            lane.machine.drain_store_buffer(core)?;
        }
        let pending = lane.machine.mem().pending_stores(core).min(u8::MAX as usize) as u8;
        if pending != packet.rsw {
            return Err(self.diverged(format!(
                "{tid} pending-store count {pending} != recorded rsw {}",
                packet.rsw
            )));
        }
        lane.last_reason = Some(packet.reason);
        self.instructions.fetch_add(retired, Ordering::Relaxed);
        Ok(())
    }

    /// Injects one recorded syscall, returning the console fragment a
    /// successful `SYS_WRITE` reproduces.
    fn apply_syscall(&self, lane: &mut Lane, record: &SyscallRecord) -> Result<Option<Vec<u8>>> {
        let tid = record.tid;
        let core = CoreId(0);
        if !lane.created {
            return Err(self.diverged(format!("syscall record for never-created {tid}")));
        }
        if lane.last_reason == Some(TerminationReason::Syscall) {
            let replayed_number = lane.machine.read_reg(core, Reg::R0);
            if replayed_number != record.number {
                return Err(self.diverged(format!(
                    "{tid} invoked syscall {replayed_number} but the log records {}",
                    record.number
                )));
            }
            if record.number == abi::SYS_EXIT {
                let replayed_code = lane.machine.read_reg(core, Reg::R1);
                if replayed_code != record.result {
                    return Err(self.diverged(format!(
                        "{tid} exited with {replayed_code} but the log records {}",
                        record.result
                    )));
                }
            }
        }
        for (addr, data) in &record.writes {
            lane.machine
                .mem_mut()
                .memory_mut()
                .write_bytes(*addr, data)
                .map_err(|e| self.diverged(format!("kernel write during replay faulted: {e}")))?;
        }
        match record.number {
            abi::SYS_EXIT => {
                lane.exit_code = Some(record.result);
                lane.machine.core_mut(core).swap_context(None);
                return Ok(None);
            }
            abi::SYS_SIGRETURN => {
                let saved = lane
                    .signal_saved
                    .take()
                    .ok_or_else(|| QrError::ReplayDivergence(format!("{tid} sigreturn without a frame")))?;
                lane.machine.core_mut(core).swap_context(Some(saved));
                return Ok(None);
            }
            _ => {}
        }
        let a1 = lane.machine.read_reg(core, Reg::R1);
        let a2 = lane.machine.read_reg(core, Reg::R2);
        let mut fragment = None;
        match record.number {
            abi::SYS_SPAWN if record.result != EFAULT => {
                self.create_thread(ThreadId(record.result), VirtAddr(a1), a2)?;
            }
            abi::SYS_SBRK if record.result != EFAULT => {
                let grow = a1.div_ceil(64) * 64;
                if grow > 0 {
                    self.canonical.lock().unwrap().mem_mut().map_region(VirtAddr(record.result), grow)?;
                }
            }
            abi::SYS_WRITE if record.result != EFAULT => {
                let mut buf = vec![0u8; record.result as usize];
                lane.machine
                    .mem()
                    .memory()
                    .read_bytes(VirtAddr(a1), &mut buf)
                    .map_err(|e| self.diverged(format!("console read during replay faulted: {e}")))?;
                fragment = Some(buf);
            }
            abi::SYS_SIGACTION => {
                lane.handler = (a1 != 0).then_some(VirtAddr(a1));
            }
            _ => {}
        }
        lane.machine.write_reg(core, Reg::R0, record.result);
        Ok(fragment)
    }

    /// Redirects the lane to its signal handler (registers only, exactly
    /// like the kernel's delivery path).
    fn deliver_signal(&self, lane: &mut Lane, tid: ThreadId) -> Result<()> {
        let handler = lane
            .handler
            .ok_or_else(|| QrError::ReplayDivergence(format!("signal for {tid} without a handler")))?;
        let current = lane
            .machine
            .core_mut(CoreId(0))
            .swap_context(None)
            .ok_or_else(|| QrError::ReplayDivergence(format!("signal for contextless {tid}")))?;
        let mut frame = current.clone();
        lane.signal_saved = Some(current);
        frame.set_pc(handler);
        frame.set_reg(Reg::R1, 1);
        lane.machine.core_mut(CoreId(0)).swap_context(Some(frame));
        Ok(())
    }

    /// One worker: pop ready nodes, execute, release successors.
    fn worker(&self) {
        let total = self.dag.nodes.len();
        loop {
            let idx = {
                let mut queue = self.ready.lock().unwrap();
                loop {
                    if self.abort.load(Ordering::SeqCst) || self.completed.load(Ordering::SeqCst) == total {
                        return;
                    }
                    if let Some(idx) = queue.pop_front() {
                        crate::obs::READY_QUEUE_DEPTH.observe(queue.len() as u64);
                        break idx;
                    }
                    crate::obs::DAG_STALLS.inc();
                    queue = self.wake.wait(queue).unwrap();
                }
            };
            match self.exec_node(idx) {
                Ok(()) => {
                    let mut newly_ready = Vec::new();
                    for &succ in &self.dag.succs[idx] {
                        if self.indegree[succ].fetch_sub(1, Ordering::SeqCst) == 1 {
                            newly_ready.push(succ);
                        }
                    }
                    self.completed.fetch_add(1, Ordering::SeqCst);
                    let mut queue = self.ready.lock().unwrap();
                    queue.extend(newly_ready);
                    drop(queue);
                    self.wake.notify_all();
                }
                Err(err) => {
                    let mut slot = self.failure.lock().unwrap();
                    if slot.as_ref().is_none_or(|(i, _)| idx < *i) {
                        *slot = Some((idx, err));
                    }
                    drop(slot);
                    self.abort.store(true, Ordering::SeqCst);
                    self.wake.notify_all();
                    return;
                }
            }
        }
    }

    /// Deterministic simulated makespan: an event-driven greedy schedule
    /// of the DAG onto `jobs` workers using replayed cycle costs — each
    /// node dispatches to the earliest-free worker once its predecessors
    /// finish, nodes ordered by (ready time, timeline index). Host
    /// scheduling never influences the number, so experiment reports
    /// stay byte-identical run to run.
    fn simulated_makespan(&self) -> u64 {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.dag.nodes.len();
        let mut indeg: Vec<usize> = self.dag.preds.iter().map(Vec::len).collect();
        let mut ready_time = vec![0u64; n];
        let mut ready: BinaryHeap<Reverse<(u64, usize)>> =
            (0..n).filter(|&i| indeg[i] == 0).map(|i| Reverse((0, i))).collect();
        let mut workers: BinaryHeap<Reverse<u64>> = (0..self.jobs).map(|_| Reverse(0)).collect();
        let mut makespan = 0u64;
        while let Some(Reverse((ready_at, i))) = ready.pop() {
            let Reverse(free_at) = workers.pop().expect("jobs >= 1");
            let finish = ready_at.max(free_at) + self.costs[i].load(Ordering::Relaxed);
            makespan = makespan.max(finish);
            workers.push(Reverse(finish));
            for &succ in &self.dag.succs[i] {
                ready_time[succ] = ready_time[succ].max(finish);
                indeg[succ] -= 1;
                if indeg[succ] == 0 {
                    ready.push(Reverse((ready_time[succ], succ)));
                }
            }
        }
        makespan
    }

    pub(crate) fn run(self) -> Result<ReplayOutcome> {
        crate::obs::RUNS.inc_at(crate::obs::PARALLEL);
        let workers = self.jobs.min(self.dag.nodes.len()).clamp(1, 32);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.worker());
            }
        });
        if let Some((_, err)) = self.failure.lock().unwrap().take() {
            return Err(err);
        }
        let total = self.dag.nodes.len();
        let completed = self.completed.load(Ordering::SeqCst);
        crate::obs::NODES.add_at(crate::obs::PARALLEL, completed as u64);
        if completed != total {
            // A dependency cycle is impossible (edges follow timestamp
            // order); reaching this means the scheduler wedged.
            return Err(QrError::Execution {
                detail: format!(
                    "parallel replay stalled: {completed} of {total} timeline events executed"
                ),
            });
        }
        let mut exit_codes = Vec::with_capacity(self.lanes.len());
        let mut chunks_replayed = 0;
        let mut inputs_injected = 0;
        for node in &self.dag.nodes {
            match node.kind {
                NodeKind::Chunk(_) => chunks_replayed += 1,
                NodeKind::Input(_) => inputs_injected += 1,
            }
        }
        for (i, lane) in self.lanes.iter().enumerate() {
            let lane = lane.lock().unwrap();
            if lane.created && lane.exit_code.is_none() {
                return Err(self.diverged(format!("tid{i} never exited during replay")));
            }
            exit_codes.push(lane.exit_code);
        }
        let mut console = Vec::new();
        for fragment in self.consoles.lock().unwrap().values() {
            console.extend_from_slice(fragment);
        }
        let cycles = self.simulated_makespan();
        let canonical = self.canonical.lock().unwrap();
        let fingerprint = qr_os::native::fingerprint_of(&canonical, &console, &exit_codes);
        Ok(ReplayOutcome {
            console,
            exit_code: exit_codes.first().copied().flatten().unwrap_or(0),
            fingerprint,
            cycles,
            instructions: self.instructions.load(Ordering::Relaxed),
            chunks_replayed,
            inputs_injected,
        })
    }
}

impl std::fmt::Debug for Runtime<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("nodes", &self.dag.nodes.len())
            .field("jobs", &self.jobs)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replayer::replay;
    use qr_capo::{record, RecordingConfig};
    use qr_isa::Asm;

    fn sys(a: &mut Asm, number: u32, set_args: impl FnOnce(&mut Asm)) {
        a.movi_u(Reg::R0, number);
        set_args(a);
        a.syscall();
    }

    /// The serial replayer tests' locked-counter program.
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
    fn parallel_matches_serial_on_the_racy_counter() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        let serial = replay(&program, &recording).unwrap();
        for jobs in [1, 2, 4] {
            let replayer = ParallelReplayer::new(&program, &recording, jobs).unwrap();
            assert_eq!(replayer.fallback_reason(), None);
            assert!(replayer.node_count() > 0);
            let outcome = replayer.run().unwrap();
            assert_eq!(outcome.fingerprint, serial.fingerprint, "jobs={jobs}");
            assert_eq!(outcome.console, serial.console);
            assert_eq!(outcome.exit_code, serial.exit_code);
            assert_eq!(outcome.instructions, serial.instructions);
            assert_eq!(outcome.chunks_replayed, serial.chunks_replayed);
            assert_eq!(outcome.inputs_injected, serial.inputs_injected);
            outcome.verify_against(&recording).unwrap();
        }
    }

    #[test]
    fn missing_footprints_fall_back_to_serial() {
        let program = racy_program();
        let mut recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        recording.footprints = None;
        let replayer = ParallelReplayer::new(&program, &recording, 4).unwrap();
        assert!(replayer.fallback_reason().unwrap().contains("no footprint sidecar"));
        let outcome = replayer.run().unwrap();
        outcome.verify_against(&recording).unwrap();
    }

    #[test]
    fn partial_footprints_fall_back_to_serial() {
        let program = racy_program();
        let mut recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        // Keep a strict prefix of the footprints, as a torn sidecar would.
        let full = recording.footprints.take().unwrap();
        let mut prefix = quickrec_core::FootprintLog::new();
        for fp in full.iter().take(full.len() / 2) {
            prefix.push(fp.clone());
        }
        recording.footprints = Some(prefix);
        let replayer = ParallelReplayer::new(&program, &recording, 2).unwrap();
        assert!(replayer.fallback_reason().unwrap().contains("no footprint for"));
        replayer.run().unwrap().verify_against(&recording).unwrap();
    }

    #[test]
    fn zero_jobs_is_rejected() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        assert!(matches!(
            ParallelReplayer::new(&program, &recording, 0),
            Err(QrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn wrong_program_is_rejected() {
        let program = racy_program();
        let recording = record(program, RecordingConfig::with_cores(2)).unwrap();
        let mut other = Asm::new();
        other.halt();
        let other = other.finish().unwrap();
        assert!(matches!(
            ParallelReplayer::new(&other, &recording, 2),
            Err(QrError::ReplayDivergence(_))
        ));
    }

    #[test]
    fn rsw_mode_recordings_replay_in_parallel() {
        let program = racy_program();
        let mut cfg = RecordingConfig::with_cores(2);
        cfg.cpu.mem.tso_mode = TsoMode::Rsw;
        cfg.cpu.drain_interval = 12;
        let recording = record(program.clone(), cfg).unwrap();
        let serial = replay(&program, &recording).unwrap();
        let outcome = replay_parallel_and_verify(&program, &recording, 4).unwrap();
        assert_eq!(outcome.fingerprint, serial.fingerprint);
    }

    #[test]
    fn makespan_is_deterministic_and_bounded() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(4)).unwrap();
        let one = replay_parallel(&program, &recording, 1).unwrap();
        let four_a = replay_parallel(&program, &recording, 4).unwrap();
        let four_b = replay_parallel(&program, &recording, 4).unwrap();
        assert_eq!(four_a.cycles, four_b.cycles, "makespan must not depend on host scheduling");
        assert!(four_a.cycles <= one.cycles, "more workers can only shorten the schedule");
        assert_eq!(four_a.fingerprint, one.fingerprint);
    }
}
