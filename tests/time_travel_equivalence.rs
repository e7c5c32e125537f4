//! Time-travel equivalence battery: every query answered through the
//! persisted checkpoint index must be byte-identical to the same slice
//! of a from-scratch serial replay — the index bounds seek latency,
//! never changes answers.
//!
//! Covers the full workload suite across every chunk-log encoding
//! round-trip, a seeded random sweep of seek targets (including the
//! boundary positions and out-of-range targets), and a SplitMix64
//! mutation sweep over the `checkpoints.qrc` bytes proving corrupt
//! indexes are structured errors that silently degrade to from-scratch
//! replay.

use std::collections::BTreeMap;
use std::sync::Mutex;

use qr_common::frame::{self, PayloadKind};
use qr_common::{varint, SplitMix64, VirtAddr};
use qr_isa::program::DATA_BASE;
use qr_mem::memory::{DELTA_RUN_BYTES, PAGE_BYTES};
use quickrec::workloads::{find, suite, Scale};
use quickrec::{
    record, CheckpointIndex, Encoding, Program, QueryEngine, Recording, RecordingConfig,
    ReplayQuery, ThreadId,
};

/// Serializes the tests that count `qr_replay_index_corrupt_total`: each
/// turns the process-wide metrics switch on, and must not have another
/// test turn it back off mid-count.
static METRICS: Mutex<()> = Mutex::new(());

const THREADS: usize = 3;

fn recorded(name: &str) -> (Program, Recording) {
    let spec = find(name).expect("suite workload");
    let program = (spec.build)(THREADS, Scale::Test).expect("builds");
    let recording = record(program.clone(), RecordingConfig::with_cores(THREADS)).expect("records");
    (program, recording)
}

/// Round-trips a recording through its serialized parts, as it would
/// arrive from the store or over the wire.
fn reloaded(recording: &Recording, encoding: Encoding) -> Recording {
    Recording::from_parts(&recording.to_parts(encoding)).expect("parts decode")
}

/// The query mix exercised against every recording: chunk ranges,
/// thread slices, instruction windows, the pre-divergence tail, and
/// reverse steps, sized from the recording itself.
fn query_mix(recording: &Recording, timeline_len: u64) -> Vec<ReplayQuery> {
    let chunks = recording.chunks.len() as u64;
    vec![
        ReplayQuery::Range { start: 0, end: chunks.max(1) / 2 },
        ReplayQuery::Range { start: chunks / 3, end: chunks },
        ReplayQuery::Thread { tid: ThreadId(0) },
        ReplayQuery::Thread { tid: ThreadId(1) },
        ReplayQuery::Window { start: recording.instructions / 4, end: recording.instructions / 2 },
        ReplayQuery::BeforeDivergence { instructions: 64 },
        ReplayQuery::ReverseStep { events: 1 },
        ReplayQuery::ReverseStep { events: timeline_len / 2 },
    ]
}

#[test]
fn every_query_matches_scratch_replay_across_workloads_and_encodings() {
    for spec in suite() {
        let (program, original) = recorded(spec.name);
        for encoding in Encoding::ALL {
            let recording = reloaded(&original, encoding);
            let index = CheckpointIndex::build(&program, &recording, 16).expect("index builds");
            let persisted = index.to_bytes();

            let scratch = QueryEngine::new(&program, &recording).expect("engine");
            let mut indexed = QueryEngine::new(&program, &recording).expect("engine");
            assert!(
                indexed.attach_index_bytes(&persisted),
                "{}/{}: a freshly persisted index must attach",
                spec.name,
                encoding.name()
            );
            assert!(indexed.has_index() && !scratch.has_index());

            for query in query_mix(&recording, scratch.timeline_len() as u64) {
                let context = format!("{}/{}/{query}", spec.name, encoding.name());
                let from_scratch =
                    scratch.execute(query, None).unwrap_or_else(|e| panic!("{context}: {e}"));
                let from_index =
                    indexed.execute(query, None).unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_eq!(
                    from_index.to_bytes(),
                    from_scratch.to_bytes(),
                    "indexed answer diverged from the from-scratch answer: {context}"
                );
            }
        }
    }
}

#[test]
fn query_results_match_slices_of_a_full_serial_replay() {
    // Cross-check the engine against the slice computed by hand: step a
    // plain replayer to the span boundaries and diff its console and
    // instruction counters.
    let (program, recording) = recorded("lu");
    let index = CheckpointIndex::build(&program, &recording, 8).expect("index builds");
    let mut engine = QueryEngine::new(&program, &recording).expect("engine");
    assert!(engine.attach_index_bytes(&index.to_bytes()));

    let at = |position: u64| {
        let mut r = qr_replay::Replayer::new(&program, &recording).unwrap();
        while (r.position() as u64) < position && r.step_timeline().unwrap() {}
        (r.console_so_far().to_vec(), r.instructions_so_far(), r.partial_fingerprint())
    };

    let len = engine.timeline_len() as u64;
    for query in query_mix(&recording, len) {
        let result = engine.execute(query, None).unwrap_or_else(|e| panic!("{query}: {e}"));
        let (console_start, instructions_start, _) = at(result.start);
        let (console_end, instructions_end, fingerprint_end) = at(result.end);
        assert_eq!(
            result.console,
            console_end[console_start.len()..].to_vec(),
            "{query}: console slice"
        );
        assert_eq!(
            result.instructions,
            instructions_end - instructions_start,
            "{query}: instruction delta"
        );
        assert_eq!(result.fingerprint, fingerprint_end, "{query}: end-of-span fingerprint");
    }
}

#[test]
fn seeded_seek_sweep_agrees_with_scratch_and_rejects_out_of_range() {
    let (program, recording) = recorded("lu");
    let index = CheckpointIndex::build(&program, &recording, 8).expect("index builds");
    let scratch = QueryEngine::new(&program, &recording).expect("engine");
    let mut indexed = QueryEngine::new(&program, &recording).expect("engine");
    assert!(indexed.attach_index_bytes(&index.to_bytes()));

    let len = scratch.timeline_len();
    let mut rng = SplitMix64::new(0xC0FFEE_5EED);
    let mut targets = vec![0, len / 3, len - 1, len];
    targets.extend((0..24).map(|_| rng.below(len as u64 + 1) as usize));
    for target in targets {
        let a = indexed.seek(target).unwrap_or_else(|e| panic!("indexed seek {target}: {e}"));
        let b = scratch.seek(target).unwrap_or_else(|e| panic!("scratch seek {target}: {e}"));
        assert_eq!(a.position(), target, "seek lands exactly on the target");
        assert_eq!(a.position(), b.position());
        assert_eq!(a.partial_fingerprint(), b.partial_fingerprint(), "target {target}");
        assert_eq!(a.console_so_far(), b.console_so_far(), "target {target}");
        assert_eq!(a.instructions_so_far(), b.instructions_so_far(), "target {target}");
    }

    // Out-of-range targets are structured errors, not panics, on both
    // engines; so are queries over spans that do not exist.
    for bad in [len + 1, len + 1000, usize::MAX] {
        for engine in [&indexed, &scratch] {
            match engine.seek(bad) {
                Err(quickrec::QrError::InvalidConfig(msg)) => {
                    assert!(msg.contains("beyond"), "{msg}")
                }
                other => panic!("seek {bad}: expected InvalidConfig, got {other:?}"),
            }
        }
    }
    assert!(matches!(
        indexed.execute(ReplayQuery::Thread { tid: ThreadId(200) }, None),
        Err(quickrec::QrError::InvalidConfig(_))
    ));
}

/// One deterministic mutation of `bytes`, chosen by `rng`: truncate,
/// flip one bit, or swap two bytes (a reorder). Retries until the
/// result actually differs (a swap can pick two equal bytes).
fn mutate(bytes: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    loop {
        let mut out = bytes.to_vec();
        match rng.below(3) {
            0 => {
                let keep = rng.below(out.len() as u64) as usize;
                out.truncate(keep);
            }
            1 => {
                let at = rng.below(out.len() as u64) as usize;
                out[at] ^= 1 << rng.below(8);
            }
            _ => {
                let a = rng.below(out.len() as u64) as usize;
                let b = rng.below(out.len() as u64) as usize;
                out.swap(a, b);
            }
        }
        if out != bytes {
            return out;
        }
    }
}

#[test]
fn mutated_indexes_are_structured_errors_and_degrade_to_scratch() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let was_enabled = qr_obs::enabled();
    qr_obs::set_enabled(true);
    let (program, recording) = recorded("fft");
    let pristine = CheckpointIndex::build(&program, &recording, 8).expect("index builds");
    let bytes = pristine.to_bytes();
    let scratch = QueryEngine::new(&program, &recording).expect("engine");
    let baseline = scratch
        .execute(ReplayQuery::ReverseStep { events: 3 }, None)
        .expect("baseline query")
        .to_bytes();

    let corrupt_before = index_corrupt_count();
    let mut rng = SplitMix64::new(0xBAD_1DE5);
    let mut degraded = 0u64;
    for round in 0..48 {
        let mutated = mutate(&bytes, &mut rng);
        // Decoding damage is always a structured error, never a panic.
        match CheckpointIndex::from_bytes(&mutated) {
            Ok(_) => panic!("round {round}: a mutated index decoded cleanly"),
            Err(e @ (quickrec::QrError::Corrupt { .. } | quickrec::QrError::Unsupported(_))) => {
                let _ = e.to_string(); // error formatting is panic-free too
            }
            Err(other) => panic!("round {round}: unstructured error {other:?}"),
        }
        // Attaching the damaged sidecar silently degrades: the engine
        // reports no index and answers queries bit-for-bit like scratch.
        let mut engine = QueryEngine::new(&program, &recording).expect("engine");
        assert!(!engine.attach_index_bytes(&mutated), "round {round}: damaged index attached");
        assert!(!engine.has_index());
        degraded += 1;
        if round % 12 == 0 {
            let answer = engine
                .execute(ReplayQuery::ReverseStep { events: 3 }, None)
                .unwrap_or_else(|e| panic!("round {round}: degraded query failed: {e}"));
            assert_eq!(answer.to_bytes(), baseline, "round {round}");
        }
    }
    assert!(degraded >= 40, "the sweep must actually exercise mutations");
    let corrupt_after = index_corrupt_count();
    qr_obs::set_enabled(was_enabled);
    assert!(
        corrupt_after >= corrupt_before + degraded,
        "every rejected attach increments qr_replay_index_corrupt_total \
         ({corrupt_before} -> {corrupt_after}, {degraded} rejects)"
    );
}

/// `bytes` re-framed with record `at` edited: the CRCs stay valid, so
/// the damage gets past the container check to the record decoders.
fn reframed(bytes: &[u8], at: usize, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut records: Vec<Vec<u8>> = frame::read(bytes, PayloadKind::CheckpointIndex, "index")
        .expect("pristine index")
        .into_iter()
        .map(<[u8]>::to_vec)
        .collect();
    edit(&mut records[at]);
    let mut w = frame::Writer::new(PayloadKind::CheckpointIndex);
    for record in &records {
        w.record(record);
    }
    w.finish()
}

/// `bytes` with the first memory run of one delta record re-aimed past
/// the end of its page (behind valid CRCs), plus the position of the
/// checkpoint that record belongs to.
fn with_out_of_range_run(
    program: &Program,
    recording: &Recording,
    index: &CheckpointIndex,
    bytes: &[u8],
) -> (Vec<u8>, u64) {
    let scratch = QueryEngine::new(program, recording).expect("engine");
    // Whole runs of the first data page, which the workload rewrites.
    let len = program.data().len().min(PAGE_BYTES as usize) / DELTA_RUN_BYTES * DELTA_RUN_BYTES;
    let data_at = |position: u64| {
        let rp = scratch.seek(position as usize).expect("scratch seek");
        rp.inspect_memory(VirtAddr(DATA_BASE), len).expect("data page is mapped")
    };
    let records = frame::read(bytes, PayloadKind::CheckpointIndex, "index").expect("index");
    let page_tag = (DATA_BASE / PAGE_BYTES).to_le_bytes();
    for i in (1..index.keys.len()).filter(|&i| !index.keys[i].keyframe) {
        let before = data_at(index.keys[i - 1].position);
        let after = data_at(index.keys[i].position);
        // The first changed run of the page opens the page's first stretch.
        let Some(run) = (0..len / DELTA_RUN_BYTES).find(|r| {
            let span = r * DELTA_RUN_BYTES..(r + 1) * DELTA_RUN_BYTES;
            before[span.clone()] != after[span]
        }) else {
            continue;
        };
        let data = &after[run * DELTA_RUN_BYTES..(run + 1) * DELTA_RUN_BYTES];
        let mut first = Vec::new();
        varint::write_u64(&mut first, run as u64);
        // page number, run count (1-2 bytes), first run, stretch length
        // (1-2 bytes), then the run's bytes.
        let record = records[i + 1];
        let found = (0..record.len()).find_map(|j| {
            if !record[j..].starts_with(&page_tag) {
                return None;
            }
            (1..=2).find_map(|runs_len| {
                let at = j + page_tag.len() + runs_len;
                let tail = record.get(at..)?;
                let data_follows =
                    |n: usize| tail.get(first.len() + n..).is_some_and(|t| t.starts_with(data));
                (tail.starts_with(&first) && (1..=2).any(data_follows)).then_some(at)
            })
        });
        if let Some(at) = found {
            let mut beyond = Vec::new();
            varint::write_u64(&mut beyond, (PAGE_BYTES as usize / DELTA_RUN_BYTES) as u64);
            let damaged = reframed(bytes, i + 1, |r| {
                r.splice(at..at + first.len(), beyond);
            });
            return (damaged, index.keys[i].position);
        }
    }
    panic!("no delta record rewrites the first data page");
}

#[test]
fn damaged_v2_records_degrade_each_answer_to_scratch() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let was_enabled = qr_obs::enabled();
    qr_obs::set_enabled(true);
    let (program, recording) = recorded("fft");
    let scratch = QueryEngine::new(&program, &recording).expect("engine");
    let len = scratch.timeline_len() as u64;
    // Just over one keyframe group: two keyframes and their deltas.
    let interval = len as usize / (quickrec::KEYFRAME_PERIOD + 2);
    let index = CheckpointIndex::build(&program, &recording, interval).expect("index builds");
    assert!(
        index.keys.len() > quickrec::KEYFRAME_PERIOD,
        "want keyframes and deltas ({} checkpoints)",
        index.keys.len()
    );
    let bytes = index.to_bytes();
    let records = frame::read(&bytes, PayloadKind::CheckpointIndex, "index").expect("index");

    // (what, damaged index, position of the checkpoint a seek must use)
    let mut cases = Vec::new();
    for (r, record) in records.iter().enumerate() {
        let position = r.checked_sub(1).map_or(0, |i| index.keys[i].position);
        // A flipped bit under the frame CRC: the whole index is refused.
        let mut flipped = bytes.clone();
        flipped[record.as_ptr() as usize - bytes.as_ptr() as usize + record.len() / 2] ^= 0x10;
        cases.push((format!("record {r} flipped"), flipped, position));
        // A truncated record behind valid CRCs: the index attaches, and
        // the seek that needs the record falls back to scratch.
        if r > 0 {
            let cut = reframed(&bytes, r, |rec| rec.truncate(rec.len() / 2));
            cases.push((format!("record {r} truncated"), cut, position));
        }
    }
    let (run_damage, position) = with_out_of_range_run(&program, &recording, &index, &bytes);
    cases.push(("delta run beyond its page".into(), run_damage, position));

    let mut expected = BTreeMap::new();
    for (what, damaged, position) in cases {
        let query = ReplayQuery::ReverseStep { events: len - position };
        let want = expected.entry(position).or_insert_with(|| {
            scratch.execute(query, None).expect("scratch query").to_bytes()
        });
        let before = index_corrupt_count();
        let mut engine = QueryEngine::new(&program, &recording).expect("engine");
        engine.attach_index_bytes(&damaged);
        let answer = engine
            .execute(query, None)
            .unwrap_or_else(|e| panic!("{what}: degraded query failed: {e}"));
        assert_eq!(&answer.to_bytes(), want, "{what}: answer differs from scratch");
        assert!(index_corrupt_count() > before, "{what}: fallback was not counted");
    }
    qr_obs::set_enabled(was_enabled);
}

/// Current value of the `qr_replay_index_corrupt_total` counter, read
/// from the registry's text exposition.
fn index_corrupt_count() -> u64 {
    qr_obs::global()
        .render()
        .lines()
        .find(|l| l.starts_with("qr_replay_index_corrupt_total"))
        .and_then(|l| l.rsplit(' ').next()?.parse().ok())
        .unwrap_or(0)
}
