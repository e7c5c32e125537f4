//! Replay checkpointing: resuming from any checkpoint must reach exactly
//! the same outcome as a from-scratch replay — checkpoints only bound
//! latency, never change semantics.

use quickrec::{record, RecordingConfig};
use qr_replay::Replayer;

fn recorded() -> (quickrec::Program, quickrec::Recording) {
    let spec = quickrec::workloads::find("lu").expect("lu exists");
    let program = (spec.build)(3, quickrec::workloads::Scale::Test).expect("builds");
    let recording = record(program.clone(), RecordingConfig::with_cores(3)).expect("records");
    (program, recording)
}

#[test]
fn checkpointed_run_matches_plain_replay() {
    let (program, recording) = recorded();
    let plain = qr_replay::replay_and_verify(&program, &recording).unwrap();
    let (with_cp, checkpoints) = Replayer::new(&program, &recording)
        .unwrap()
        .run_with_checkpoints(25)
        .unwrap();
    assert_eq!(with_cp, plain, "checkpoint collection must not perturb replay");
    assert!(!checkpoints.is_empty(), "a multi-chunk recording yields checkpoints");
    // Positions are strictly increasing multiples of the interval.
    for (i, cp) in checkpoints.iter().enumerate() {
        assert_eq!(cp.position(), (i + 1) * 25);
    }
}

#[test]
fn resuming_from_every_checkpoint_reaches_the_same_outcome() {
    let (program, recording) = recorded();
    let plain = qr_replay::replay_and_verify(&program, &recording).unwrap();
    let (_, checkpoints) = Replayer::new(&program, &recording)
        .unwrap()
        .run_with_checkpoints(40)
        .unwrap();
    assert!(checkpoints.len() >= 2, "want several checkpoints to resume from");
    for (i, cp) in checkpoints.into_iter().enumerate() {
        let resumed = Replayer::resume(&program, &recording, cp)
            .unwrap()
            .run()
            .unwrap_or_else(|e| panic!("resume from checkpoint {i}: {e}"));
        assert_eq!(resumed.fingerprint, plain.fingerprint, "checkpoint {i}");
        assert_eq!(resumed.exit_code, plain.exit_code);
        assert_eq!(resumed.instructions, plain.instructions, "instruction totals include the prefix");
        resumed.verify_against(&recording).unwrap();
    }
}

#[test]
fn checkpoints_are_reusable() {
    // The same checkpoint can seed multiple independent resumes (e.g. a
    // debugger stepping forward repeatedly from one snapshot).
    let (program, recording) = recorded();
    let (_, checkpoints) = Replayer::new(&program, &recording)
        .unwrap()
        .run_with_checkpoints(50)
        .unwrap();
    let cp = checkpoints.into_iter().next().expect("at least one checkpoint");
    let a = Replayer::resume(&program, &recording, cp.clone()).unwrap().run().unwrap();
    let b = Replayer::resume(&program, &recording, cp).unwrap().run().unwrap();
    assert_eq!(a, b);
}

#[test]
fn foreign_checkpoints_are_rejected() {
    let (program, recording) = recorded();
    let (_, checkpoints) = Replayer::new(&program, &recording)
        .unwrap()
        .run_with_checkpoints(50)
        .unwrap();
    let cp = checkpoints.into_iter().next().expect("checkpoint");
    // A different program/recording pair must refuse the checkpoint.
    let spec = quickrec::workloads::find("fft").unwrap();
    let other_program = (spec.build)(3, quickrec::workloads::Scale::Test).unwrap();
    let other_recording = record(other_program.clone(), RecordingConfig::with_cores(3)).unwrap();
    assert!(Replayer::resume(&other_program, &other_recording, cp).is_err());
}

#[test]
fn zero_interval_is_rejected_and_race_detection_excluded() {
    let (program, recording) = recorded();
    assert!(Replayer::new(&program, &recording)
        .unwrap()
        .run_with_checkpoints(0)
        .is_err());
    let mut replayer = Replayer::new(&program, &recording).unwrap();
    replayer.enable_race_detection();
    assert!(replayer.run_with_checkpoints(10).is_err());
}

#[test]
fn step_timeline_inspection_matches_full_replay() {
    let (program, recording) = recorded();
    let full = qr_replay::replay_and_verify(&program, &recording).unwrap();
    let mut stepper = Replayer::new(&program, &recording).unwrap();
    assert_eq!(stepper.position(), 0);
    let total = stepper.timeline_len();
    assert!(total > 0);
    let mut steps = 0;
    while stepper.step_timeline().unwrap() {
        steps += 1;
        assert_eq!(stepper.position(), steps);
    }
    assert_eq!(steps, total);
    assert!(!stepper.step_timeline().unwrap(), "exhausted timeline stays exhausted");
    assert_eq!(stepper.console_so_far(), full.console.as_slice());
}

#[test]
fn mid_timeline_inspection_is_deterministic() {
    let (program, recording) = recorded();
    let mat = program.symbol("mat").expect("lu matrix symbol");
    let probe = |position: usize| {
        let mut r = Replayer::new(&program, &recording).unwrap();
        while r.position() < position && r.step_timeline().unwrap() {}
        r.inspect_memory(mat, 64).unwrap()
    };
    let total = Replayer::new(&program, &recording).unwrap().timeline_len();
    for pos in [1, total / 3, total / 2, total - 1] {
        assert_eq!(probe(pos), probe(pos), "inspection at {pos} must be stable");
    }
    // State actually evolves along the timeline.
    assert_ne!(probe(1), probe(total - 1));
}

#[test]
fn thread_registers_visible_only_while_alive() {
    let (program, recording) = recorded();
    let mut r = Replayer::new(&program, &recording).unwrap();
    assert!(r.thread_registers(quickrec::ThreadId(0)).is_some(), "main exists at start");
    assert!(r.thread_registers(quickrec::ThreadId(1)).is_none(), "worker not yet spawned");
    while r.step_timeline().unwrap() {}
    assert!(r.thread_registers(quickrec::ThreadId(0)).is_none(), "all exited at the end");
}

#[test]
fn index_rebuilds_every_checkpoint_byte_for_byte_from_keyframes_and_deltas() {
    use qr_replay::{CheckpointIndex, KEYFRAME_PERIOD};
    let (program, recording) = recorded();
    let (_, checkpoints) = Replayer::new(&program, &recording)
        .unwrap()
        .run_with_checkpoints(4)
        .unwrap();
    assert!(checkpoints.len() > KEYFRAME_PERIOD, "want more than one keyframe group");
    // Through persistence, as a seek would see it.
    let built = CheckpointIndex::build(&program, &recording, 4).unwrap();
    let index = CheckpointIndex::from_bytes(&built.to_bytes()).unwrap();
    assert_eq!(index.keys.len(), checkpoints.len());
    for (i, cp) in checkpoints.iter().enumerate() {
        assert_eq!(index.keys[i].keyframe, i % KEYFRAME_PERIOD == 0, "checkpoint {i}");
        let rebuilt = index
            .restore(&program, &recording, i)
            .unwrap_or_else(|e| panic!("restoring checkpoint {i}: {e}"));
        assert_eq!(rebuilt.to_bytes(), cp.to_bytes(), "checkpoint {i}");
    }
}
