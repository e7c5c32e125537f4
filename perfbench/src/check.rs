//! Correctness: in-process references and the verdict on every op.
//!
//! During the timed loop a client only records what it saw: the
//! fingerprint a job reported, and whether a fetched file set or a
//! query answer is byte-identical to the first one it saw for the same
//! key. After the loop, [`verify`] decodes each first file set
//! strictly, recomputes each first query answer with an in-process
//! [`QueryEngine`], and judges every op against the references.

use crate::ops::{Geometry, QueryShape, CORPUS, ENCODING};
use qr_capo::{record, Recording, RecordingConfig, RecordingParts};
use qr_isa::Program;
use qr_replay::{CheckpointIndex, QueryEngine, QueryResult};
use qr_workloads::Scale;
use std::collections::BTreeMap;

/// An in-process recording of one kernel at the benchmark's threads and
/// scale: what every daemon answer about that kernel must agree with.
pub struct Reference {
    /// The recorded program.
    pub program: Program,
    /// The recording.
    pub recording: Recording,
    /// Sizes the `debug` query shapes resolve against.
    pub geometry: Geometry,
}

impl Reference {
    /// Records `kernel` in-process, exactly as the daemon's RECORD job
    /// configures it.
    pub fn record(kernel: &str, threads: u32, scale: Scale) -> Result<Reference, String> {
        let spec =
            qr_workloads::find(kernel).ok_or_else(|| format!("unknown kernel `{kernel}`"))?;
        let program = (spec.build)(threads as usize, scale).map_err(|e| e.to_string())?;
        let recording = record(
            program.clone(),
            RecordingConfig::with_cores(threads as usize),
        )
        .map_err(|e| format!("recording {kernel}: {e}"))?;
        let timeline = qr_replay::timeline_descriptors(&recording).map_err(|e| e.to_string())?;
        let geometry = Geometry {
            chunks: recording.chunks.len() as u64,
            instructions: timeline.iter().map(|d| d.icount).sum(),
            timeline: timeline.len() as u64,
        };
        Ok(Reference {
            program,
            recording,
            geometry,
        })
    }

    /// Recorded outcome fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.recording.fingerprint
    }

    /// Recorded guest instructions, in thousands.
    pub fn kinstr(&self) -> f64 {
        self.recording.instructions as f64 / 1000.0
    }

    /// Chunk-log plus input-log bytes of the in-process recording, to
    /// cross-check what the daemon serves.
    pub fn log_bytes(&self) -> usize {
        let parts = self.recording.to_parts(ENCODING);
        parts.chunks.len() + parts.inputs.len()
    }

    /// The reference answer to `shape`, computed without any index.
    pub fn answer(&self, shape: QueryShape) -> Result<Vec<u8>, String> {
        let engine = QueryEngine::new(&self.program, &self.recording).map_err(|e| e.to_string())?;
        Ok(engine
            .execute(shape.resolve(self.geometry), None)
            .map_err(|e| e.to_string())?
            .to_bytes())
    }
}

/// References by kernel name.
pub type References = BTreeMap<&'static str, Reference>;

/// One thing a client saw, to be judged after the loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seen {
    /// A RECORD job ended Done with this fingerprint.
    Record {
        /// Kernel recorded.
        kernel: &'static str,
        /// Fingerprint the JOBS row reported.
        fingerprint: u64,
    },
    /// A FETCH answer.
    Fetch {
        /// Kernel of the fetched session.
        kernel: &'static str,
        /// Fingerprint the answer carried.
        fingerprint: u64,
        /// Whether the files equal the first set fetched for `kernel`.
        same_as_first: bool,
    },
    /// A QUERY answer.
    Query {
        /// Corpus session queried.
        session: usize,
        /// Shape index within the session.
        shape: usize,
        /// Whether the payload equals the first answer to this query.
        same_as_first: bool,
    },
    /// A REPLAY job's final state.
    Job {
        /// Whether it ended Done.
        done: bool,
    },
    /// A transport failure, Busy, error reply or unexpected reply.
    Failed(String),
}

/// First-seen payloads, kept whole so [`verify`] can check them once.
#[derive(Default)]
pub struct Firsts {
    /// First fetched file set per kernel.
    pub fetches: BTreeMap<&'static str, Vec<(String, Vec<u8>)>>,
    /// First answer per (session, shape).
    pub answers: BTreeMap<(usize, usize), Vec<u8>>,
}

impl Firsts {
    /// Files of a FETCH: whether they equal the first set for `kernel`
    /// (keeping them when they are the first).
    pub fn fetched(&mut self, kernel: &'static str, files: Vec<(String, Vec<u8>)>) -> bool {
        match self.fetches.get(kernel) {
            Some(first) => *first == files,
            None => {
                self.fetches.insert(kernel, files);
                true
            }
        }
    }

    /// A QUERY payload: whether it equals the first answer to the query.
    pub fn answered(&mut self, session: usize, shape: usize, payload: Vec<u8>) -> bool {
        match self.answers.get(&(session, shape)) {
            Some(first) => *first == payload,
            None => {
                self.answers.insert((session, shape), payload);
                true
            }
        }
    }
}

/// Ops attempted and failed, with the first few reasons.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops with at least one failed check.
    pub failed: u64,
    /// Why, for the first failures.
    pub reasons: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }
}

/// Strict decode of a fetched file set: every image must decode, the
/// checkpoint index must parse and belong to the recording, and the
/// outcome fingerprint must be the reference's.
pub fn check_files(files: &[(String, Vec<u8>)], expected: u64) -> Result<(), String> {
    let parts = RecordingParts::from_files(files).map_err(|e| e.to_string())?;
    let recording = Recording::from_parts(&parts).map_err(|e| e.to_string())?;
    if recording.fingerprint != expected {
        return Err(format!(
            "decoded fingerprint {:#x} != {expected:#x}",
            recording.fingerprint
        ));
    }
    if let Some(bytes) = &parts.checkpoints {
        let index = CheckpointIndex::from_bytes(bytes).map_err(|e| e.to_string())?;
        if index.recording_fingerprint != expected {
            return Err("checkpoint index belongs to another recording".into());
        }
    }
    Ok(())
}

/// Chunk-log plus input-log bytes of a fetched file set: the
/// memory-log footprint the paper measures.
pub fn log_bytes(files: &[(String, Vec<u8>)]) -> usize {
    files
        .iter()
        .filter(|(name, _)| name == Recording::CHUNKS_FILE || name == Recording::INPUTS_FILE)
        .map(|(_, bytes)| bytes.len())
        .sum()
}

/// What one client saw: one list of checks per op, plus its first
/// payloads.
#[derive(Default)]
pub struct Observed {
    /// Per op, everything it saw.
    pub ops: Vec<Vec<Seen>>,
    /// The client's first payloads per key.
    pub firsts: Firsts,
}

/// Judges every op of every client against the references. An op fails
/// when any one of its checks fails.
pub fn verify(clients: &[Observed], refs: &References, seed: u64) -> Tally {
    let mut tally = Tally::default();
    for client in clients {
        // Each first payload is checked once; later ones were compared
        // to it byte for byte during the loop.
        let files_ok: BTreeMap<&str, Result<(), String>> = client
            .firsts
            .fetches
            .iter()
            .map(|(&kernel, files)| {
                let verdict = match refs.get(kernel) {
                    Some(r) => check_files(files, r.fingerprint()),
                    None => Err(format!("no reference for {kernel}")),
                };
                (kernel, verdict)
            })
            .collect();
        let answers_ok: BTreeMap<(usize, usize), Result<(), String>> = client
            .firsts
            .answers
            .iter()
            .map(|(&(session, shape), payload)| {
                let verdict = refs
                    .get(CORPUS[session])
                    .ok_or_else(|| "no reference".to_string())
                    .and_then(|r| r.answer(crate::ops::query_shapes(seed, session)[shape]))
                    .and_then(|expected| {
                        QueryResult::from_bytes(payload).map_err(|e| e.to_string())?;
                        if *payload == expected {
                            Ok(())
                        } else {
                            Err("answer differs from the in-process QueryEngine".into())
                        }
                    });
                ((session, shape), verdict)
            })
            .collect();
        for op in &client.ops {
            tally.attempted += 1;
            if let Some(why) = op
                .iter()
                .find_map(|seen| judge(seen, refs, &files_ok, &answers_ok))
            {
                tally.fail(why);
            }
        }
    }
    tally
}

/// Why `seen` is wrong, or `None` when it checks out.
fn judge(
    seen: &Seen,
    refs: &References,
    files_ok: &BTreeMap<&str, Result<(), String>>,
    answers_ok: &BTreeMap<(usize, usize), Result<(), String>>,
) -> Option<String> {
    let expected = |kernel: &str| refs.get(kernel).map(Reference::fingerprint);
    match seen {
        Seen::Record {
            kernel,
            fingerprint,
        } => (expected(kernel) != Some(*fingerprint))
            .then(|| format!("{kernel}: recorded fingerprint {fingerprint:#x} != reference")),
        Seen::Fetch {
            kernel,
            fingerprint,
            same_as_first,
        } => {
            if expected(kernel) != Some(*fingerprint) {
                Some(format!(
                    "{kernel}: fetched fingerprint {fingerprint:#x} != reference"
                ))
            } else if !same_as_first {
                Some(format!("{kernel}: fetched files differ between fetches"))
            } else {
                match files_ok.get(kernel) {
                    Some(Ok(())) => None,
                    Some(Err(e)) => Some(format!("{kernel}: fetched files: {e}")),
                    None => Some(format!("{kernel}: fetched files were not kept")),
                }
            }
        }
        Seen::Query {
            session,
            shape,
            same_as_first,
        } => {
            let kernel = CORPUS[*session];
            if !same_as_first {
                Some(format!(
                    "{kernel}: query {shape} answered differently between calls"
                ))
            } else {
                match answers_ok.get(&(*session, *shape)) {
                    Some(Ok(())) => None,
                    Some(Err(e)) => Some(format!("{kernel}: query {shape}: {e}")),
                    None => Some(format!("{kernel}: query {shape} answer was not kept")),
                }
            }
        }
        Seen::Job { done } => (!done).then(|| "job did not end Done".to_string()),
        Seen::Failed(why) => Some(why.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs() -> References {
        let mut refs = References::new();
        refs.insert("fft", Reference::record("fft", 2, Scale::Test).unwrap());
        refs
    }

    fn one_op(seen: Vec<Seen>, firsts: Firsts) -> Vec<Observed> {
        vec![Observed {
            ops: vec![seen],
            firsts,
        }]
    }

    #[test]
    fn a_matching_record_passes_and_a_tampered_reference_fails() {
        let mut refs = refs();
        let fingerprint = refs["fft"].fingerprint();
        let op = vec![Seen::Record {
            kernel: "fft",
            fingerprint,
        }];
        let tally = verify(&one_op(op.clone(), Firsts::default()), &refs, 1);
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        refs.get_mut("fft").unwrap().recording.fingerprint ^= 1;
        let tally = verify(&one_op(op, Firsts::default()), &refs, 1);
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 1),
            "counted as failed, not as a success"
        );
        assert!(tally.reasons[0].contains("fingerprint"));
    }

    #[test]
    fn fetched_files_are_decoded_strictly() {
        let refs = refs();
        let r = &refs["fft"];
        let files: Vec<(String, Vec<u8>)> = r
            .recording
            .to_parts(ENCODING)
            .files()
            .into_iter()
            .map(|(n, b)| (n.to_string(), b.to_vec()))
            .collect();
        let seen = |same| Seen::Fetch {
            kernel: "fft",
            fingerprint: r.fingerprint(),
            same_as_first: same,
        };

        let mut firsts = Firsts::default();
        assert!(firsts.fetched("fft", files.clone()));
        assert!(firsts.fetched("fft", files.clone()));
        let tally = verify(&one_op(vec![seen(true)], firsts), &refs, 1);
        assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
        assert_eq!(log_bytes(&files), r.log_bytes());

        let mut torn = files.clone();
        let chunks = torn
            .iter_mut()
            .find(|(n, _)| n == Recording::CHUNKS_FILE)
            .unwrap();
        chunks.1.truncate(chunks.1.len() / 2);
        let mut firsts = Firsts::default();
        assert!(firsts.fetched("fft", torn));
        assert!(
            !firsts.fetched("fft", files),
            "a later, different set is flagged"
        );
        let tally = verify(&one_op(vec![seen(true)], firsts), &refs, 1);
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn failures_and_unfinished_jobs_count() {
        let ops = vec![
            vec![Seen::Job { done: true }],
            vec![Seen::Job { done: false }],
            vec![Seen::Job { done: true }, Seen::Failed("busy".into())],
        ];
        let tally = verify(
            &[Observed {
                ops,
                firsts: Firsts::default(),
            }],
            &References::new(),
            1,
        );
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }
}
