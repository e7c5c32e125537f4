//! Replay driven by a recorded partial order (`order.qrp`).
//!
//! A partial-order recording carries an [`quickrec_core::OrderLog`]
//! sidecar: per-thread node counts plus the explicit happens-before
//! edges (conflict, spawn, input causality) the recorder derived at
//! record time. At replay, the edges are fed straight into the parallel
//! scheduler's dependency DAG *instead of* re-deriving constraints from
//! the footprint sidecar — the recorded order is the ordering
//! authority, exactly as the total-order path treats the global chunk
//! timestamps.
//!
//! Reconstruction maps each recorded node `(tid, seq)` onto the merged
//! timeline: walking timeline events in timestamp order, a thread's
//! `n`-th event is its node `seq = n`. Program order (consecutive nodes
//! of one thread) is implicit in the log and added here; every logged
//! edge becomes a DAG edge. The log is linearized first
//! ([`quickrec_core::po::linearize`]) so a corrupt-but-CRC-valid edge
//! set that forms a cycle is rejected with a structured error instead
//! of deadlocking the scheduler.
//!
//! Any legal execution of this DAG is conflict-equivalent to the
//! recorded run (every conflicting pair is ordered by a recorded edge),
//! so serial (`jobs == 1`) and parallel replays both produce
//! fingerprints byte-identical to a total-order replay of the same
//! seeded execution — checked by the partial-order equivalence battery.
//!
//! Recordings whose footprint sidecar is missing or incomplete (torn
//! and salvaged, say) fall back to serial timestamp replay: the chunk
//! log still carries its global timestamps, which remain a legal total
//! order. Missing data costs parallelism, never correctness.

use crate::outcome::ReplayOutcome;
use crate::parallel::{build_timeline_nodes, Dag, Runtime};
use crate::replayer::Replayer;
use qr_capo::Recording;
use qr_common::{QrError, Result};
use qr_isa::Program;
use quickrec_core::po;
use std::collections::{BTreeSet, HashMap};

/// Replays `recording` under its recorded partial order on up to `jobs`
/// workers and verifies the outcome against the recording.
///
/// # Errors
///
/// See [`replay_ordered`]; additionally [`QrError::ReplayDivergence`]
/// when the outcome does not match the recording.
pub fn replay_ordered_and_verify(
    program: &Program,
    recording: &Recording,
    jobs: usize,
) -> Result<ReplayOutcome> {
    let outcome = replay_ordered(program, recording, jobs)?;
    outcome.verify_against(recording)?;
    Ok(outcome)
}

/// Replays `recording` with the recorded `order.qrp` partial order as
/// the ordering authority, on up to `jobs` workers (`jobs == 1` is the
/// serial case — the scheduler then executes one legal linearization).
///
/// # Errors
///
/// Returns [`QrError::InvalidConfig`] for `jobs == 0` or a recording
/// without an order log, [`QrError::ReplayDivergence`] when the log
/// disagrees with the timeline or the replayed execution diverges, and
/// [`QrError::Corrupt`] for an order log whose edges are cyclic or
/// dangling.
pub fn replay_ordered(
    program: &Program,
    recording: &Recording,
    jobs: usize,
) -> Result<ReplayOutcome> {
    if jobs == 0 {
        return Err(QrError::InvalidConfig("replay needs at least one job".into()));
    }
    if program.fingerprint() != recording.meta.program_fingerprint {
        return Err(QrError::ReplayDivergence(
            "program image does not match the recording".into(),
        ));
    }
    let Some(order) = &recording.order else {
        return Err(QrError::InvalidConfig(
            "recording has no order.qrp sidecar (recorded in total-order mode?)".into(),
        ));
    };
    let started = qr_obs::clock();
    // Proves the edge set is acyclic and every endpoint exists before
    // the scheduler commits to it.
    po::linearize(order)?;
    let nodes = match build_timeline_nodes(recording)? {
        Ok(nodes) => nodes,
        // Incomplete footprint coverage: the chunk timestamps are still
        // present and remain a legal total order.
        Err(_reason) => return Replayer::new(program, recording)?.run(),
    };
    // Node identity: a thread's n-th timeline event is its (tid, seq=n)
    // order-log node.
    let mut next_seq: HashMap<u32, u32> = HashMap::new();
    let mut index: HashMap<(u32, u32), usize> = HashMap::with_capacity(nodes.len());
    let mut preds: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
    let mut last_of_tid: HashMap<u32, usize> = HashMap::new();
    for (idx, node) in nodes.iter().enumerate() {
        let seq = next_seq.entry(node.tid.0).or_insert(0);
        index.insert((node.tid.0, *seq), idx);
        *seq += 1;
        // Program order is implicit in the log; materialize it here.
        let mut p = BTreeSet::new();
        if let Some(&prev) = last_of_tid.get(&node.tid.0) {
            p.insert(prev);
        }
        last_of_tid.insert(node.tid.0, idx);
        preds.push(p.into_iter().collect());
    }
    // The log and the timeline must describe the same execution:
    // identical thread sets and per-thread event counts.
    if order.threads().len() != next_seq.len()
        || order
            .threads()
            .iter()
            .any(|(tid, &count)| next_seq.get(&tid.0) != Some(&count))
    {
        return Err(QrError::ReplayDivergence(format!(
            "order log covers {} nodes across {} threads but the timeline has {} events across {} threads",
            order.node_count(),
            order.threads().len(),
            nodes.len(),
            next_seq.len()
        )));
    }
    // Every recorded happens-before edge becomes a scheduler edge.
    for edge in order.edges() {
        let (Some(&from), Some(&to)) = (
            index.get(&(edge.from.tid.0, edge.from.seq)),
            index.get(&(edge.to.tid.0, edge.to.seq)),
        ) else {
            return Err(QrError::ReplayDivergence(format!(
                "order edge {} -> {} names a node outside the timeline",
                edge.from, edge.to
            )));
        };
        if from != to && !preds[to].contains(&from) {
            preds[to].push(from);
        }
    }
    for p in &mut preds {
        p.sort_unstable();
    }
    let mut dag = Dag { nodes, preds, succs: Vec::new() };
    dag.link_succs();
    crate::obs::ORDER_RECONSTRUCT.observe_since(started);
    Runtime::new(program, recording, dag, jobs)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replayer::replay;
    use qr_capo::{record, RecordingConfig};
    use qr_isa::{abi, Asm, Reg};
    use quickrec_core::OrderMode;

    fn sys(a: &mut Asm, number: u32, set_args: impl FnOnce(&mut Asm)) {
        a.movi_u(Reg::R0, number);
        set_args(a);
        a.syscall();
    }

    /// The parallel replayer tests' locked-counter program.
    fn racy_program() -> qr_isa::Program {
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

    fn partial_config(cores: usize) -> RecordingConfig {
        let mut cfg = RecordingConfig::with_cores(cores);
        cfg.order = OrderMode::PartialOrder;
        cfg
    }

    #[test]
    fn ordered_replay_matches_serial_for_every_job_count() {
        let program = racy_program();
        let recording = record(program.clone(), partial_config(2)).unwrap();
        assert!(recording.order.is_some());
        let serial = replay(&program, &recording).unwrap();
        for jobs in [1, 2, 4] {
            let outcome = replay_ordered_and_verify(&program, &recording, jobs).unwrap();
            assert_eq!(outcome.fingerprint, serial.fingerprint, "jobs={jobs}");
            assert_eq!(outcome.console, serial.console);
            assert_eq!(outcome.exit_code, serial.exit_code);
            assert_eq!(outcome.instructions, serial.instructions);
        }
    }

    #[test]
    fn total_order_recordings_are_rejected() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        assert!(matches!(
            replay_ordered(&program, &recording, 2),
            Err(QrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn zero_jobs_is_rejected() {
        let program = racy_program();
        let recording = record(program.clone(), partial_config(2)).unwrap();
        assert!(matches!(
            replay_ordered(&program, &recording, 0),
            Err(QrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn mismatched_order_log_is_a_divergence() {
        let program = racy_program();
        let mut recording = record(program.clone(), partial_config(2)).unwrap();
        // An order log from a different execution (extra phantom thread)
        // must be refused, not silently replayed.
        let donor = record(program.clone(), partial_config(4)).unwrap();
        let mut threads = recording.order.as_ref().unwrap().threads().clone();
        let max = threads.keys().last().unwrap().0;
        threads.insert(qr_common::ThreadId(max + 7), 3);
        let forged =
            quickrec_core::OrderLog::new(threads, donor.order.as_ref().unwrap().edges().to_vec());
        recording.order = Some(forged);
        assert!(matches!(
            replay_ordered(&program, &recording, 2),
            Err(QrError::ReplayDivergence(_))
        ));
    }

    #[test]
    fn missing_footprints_fall_back_to_serial_timestamp_replay() {
        let program = racy_program();
        let mut recording = record(program.clone(), partial_config(2)).unwrap();
        let fingerprint = replay(&program, &recording).unwrap().fingerprint;
        recording.footprints = None;
        let outcome = replay_ordered(&program, &recording, 4).unwrap();
        assert_eq!(outcome.fingerprint, fingerprint);
        outcome.verify_against(&recording).unwrap();
    }
}
