//! Seed-generated operation sequences.
//!
//! Every choice the benchmark makes — which kernel, which query — comes
//! from the `--seed` through [`SplitMix64`]; the daemon only ever sees
//! the generated requests. Choices are drawn in shuffled blocks (each
//! block holds every kernel, or the exact operation mix, once), so a
//! run's mix does not drift with the seed while the order does.

use qr_common::SplitMix64;
use qr_replay::ReplayQuery;
use qr_workloads::Scale;
use quickrec_core::Encoding;

/// Load-generator clients (and connections): the daemon box has 2 cores.
pub const CLIENTS: usize = 2;

/// The six large kernels `ingest` records and `debug` queries.
pub const CORPUS: [&str; 6] = ["fft", "lu", "radix", "ocean", "barnes", "water"];

/// Threads of every recording.
pub const THREADS: u32 = 4;

/// Scale of every recording.
pub const SCALE: Scale = Scale::Reference;

/// Chunk-log encoding of every recording.
pub const ENCODING: Encoding = Encoding::Delta;

/// Query sizes of the README's time-travel walkthrough:
/// `--range 0..40`, `--reverse-step 10` and `--window 0..5000`.
pub const RANGE_CHUNKS: u64 = 40;
/// See [`RANGE_CHUNKS`].
pub const REVERSE_STEP_EVENTS: u64 = 10;
/// See [`RANGE_CHUNKS`].
pub const WINDOW_INSTRUCTIONS: u64 = 5000;

/// Range and window starts, in parts per million of the recording, the
/// way experiment E14 picks its seek targets: the first, middle and
/// last position (1 000 000 is clamped to the last), plus
/// [`UNIFORM_STARTS`] seeded uniform ones.
const FIXED_STARTS: [u64; 3] = [0, 500_000, 1_000_000];
const UNIFORM_STARTS: usize = 8;

/// The two traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Record large kernels, then fetch them.
    Ingest,
    /// Query, fetch and replay a pre-recorded corpus.
    Debug,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "debug" => Some(Workload::Debug),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Debug => "debug",
        }
    }
}

/// A query whose positions are fractions of the recording, so one seed
/// gives the same sequence before any recording exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryShape {
    /// Step back [`REVERSE_STEP_EVENTS`] events from the end (README).
    ReverseStep,
    /// Step back a third of the timeline from the end (E14).
    ReverseThird,
    /// [`RANGE_CHUNKS`] chunks starting `at` parts per million into the
    /// chunk log.
    Range {
        /// Start, in parts per million of the chunk count.
        at: u64,
    },
    /// [`WINDOW_INSTRUCTIONS`] instructions starting `at` parts per
    /// million into the run.
    Window {
        /// Start, in parts per million of the instruction count.
        at: u64,
    },
}

/// The sizes a [`QueryShape`] is resolved against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Chunks in the recording.
    pub chunks: u64,
    /// Instructions in the recording's timeline.
    pub instructions: u64,
    /// Events in the merged timeline.
    pub timeline: u64,
}

/// Position `at` parts per million into `n`, clamped to the last one.
fn start(at: u64, n: u64) -> u64 {
    (at * n / 1_000_000).min(n.saturating_sub(1))
}

impl QueryShape {
    /// The concrete query against a recording of the given size. Every
    /// resolved query is in range, so none can fail for a valid recording.
    pub fn resolve(self, g: Geometry) -> ReplayQuery {
        match self {
            QueryShape::ReverseStep => ReplayQuery::ReverseStep {
                events: REVERSE_STEP_EVENTS.min(g.timeline),
            },
            QueryShape::ReverseThird => ReplayQuery::ReverseStep {
                events: (g.timeline / 3).max(1),
            },
            QueryShape::Range { at } => {
                let start = start(at, g.chunks);
                ReplayQuery::Range {
                    start,
                    end: (start + RANGE_CHUNKS).min(g.chunks),
                }
            }
            QueryShape::Window { at } => {
                let start = start(at, g.instructions);
                ReplayQuery::Window {
                    start,
                    end: (start + WINDOW_INSTRUCTIONS).min(g.instructions),
                }
            }
        }
    }
}

/// One client operation, as the closed loop issues it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `ingest`: submit a recording, poll until Done, fetch it.
    Ingest {
        /// Kernel to record.
        kernel: &'static str,
    },
    /// `debug`: one QUERY against a corpus session.
    Query {
        /// Index into [`CORPUS`].
        session: usize,
        /// Index into that session's [`query_shapes`].
        shape: usize,
        /// Send a non-zero replay id, so repeats hit the idempotence cache.
        cached: bool,
    },
    /// `debug`: FETCH a corpus session.
    Fetch {
        /// Index into [`CORPUS`].
        session: usize,
    },
    /// `debug`: REPLAY a corpus session and poll until Done.
    Replay {
        /// Index into [`CORPUS`].
        session: usize,
    },
}

impl Op {
    /// The op's kind, as reported per kind.
    pub fn kind(self) -> &'static str {
        match self {
            Op::Ingest { .. } => "ingest",
            Op::Query { .. } => "query",
            Op::Fetch { .. } => "fetch",
            Op::Replay { .. } => "replay",
        }
    }
}

/// The corpus sessions a `debug` client owns: the daemon refuses a
/// second in-flight job on one session, so the clients split them.
pub fn owned_sessions(client: usize) -> Vec<usize> {
    (0..CORPUS.len())
        .filter(|s| s % CLIENTS == client)
        .collect()
}

fn rng_for(seed: u64, stream: u64) -> SplitMix64 {
    // Decorrelate the per-client and per-session streams of one seed.
    let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
    SplitMix64::new(mix.next_u64())
}

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The query shapes of one corpus session: both reverse steps, then
/// every start once as a range and once as a window.
pub fn query_shapes(seed: u64, session: usize) -> Vec<QueryShape> {
    let mut rng = rng_for(seed, 0x100 + session as u64);
    let mut starts = FIXED_STARTS.to_vec();
    starts.extend((0..UNIFORM_STARTS).map(|_| rng.below(1_000_000)));
    let mut shapes = vec![QueryShape::ReverseStep, QueryShape::ReverseThird];
    shapes.extend(starts.iter().map(|&at| QueryShape::Range { at }));
    shapes.extend(starts.iter().map(|&at| QueryShape::Window { at }));
    shapes
}

/// The QUERY replay id of a query op: 0 (never cached) unless
/// `cached`, then one per shape, so a repeated id names the same query.
pub fn replay_id(shape: usize, cached: bool) -> u64 {
    if cached {
        shape as u64 + 1
    } else {
        0
    }
}

/// A seed-chosen index into [`query_shapes`]: reverse step, range or
/// window with equal odds, then one of that kind's variants.
fn pick_shape(rng: &mut SplitMix64) -> usize {
    let starts = (FIXED_STARTS.len() + UNIFORM_STARTS) as u64;
    (match rng.below(3) {
        0 => rng.below(2),
        1 => 2 + rng.below(starts),
        _ => 2 + starts + rng.below(starts),
    }) as usize
}

/// One client's endless operation sequence.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    client: usize,
    rng: SplitMix64,
    block: Vec<Op>,
}

impl OpStream {
    /// The sequence of `client` under `seed`.
    pub fn new(workload: Workload, seed: u64, client: usize) -> OpStream {
        OpStream {
            workload,
            client,
            rng: rng_for(seed, client as u64),
            block: Vec::new(),
        }
    }

    fn refill(&mut self) {
        let rng = &mut self.rng;
        let mut block = match self.workload {
            Workload::Ingest => CORPUS.iter().map(|&kernel| Op::Ingest { kernel }).collect(),
            Workload::Debug => {
                // Exactly 7 queries, 2 fetches and 1 replay per 10 ops.
                let own = owned_sessions(self.client);
                let pick = |rng: &mut SplitMix64| own[rng.below(own.len() as u64) as usize];
                let mut ops = Vec::with_capacity(10);
                for _ in 0..7 {
                    let session = pick(rng);
                    ops.push(Op::Query {
                        session,
                        shape: pick_shape(rng),
                        cached: rng.chance(1, 10),
                    });
                }
                for _ in 0..2 {
                    ops.push(Op::Fetch { session: pick(rng) });
                }
                ops.push(Op::Replay { session: pick(rng) });
                ops
            }
        };
        shuffle(rng, &mut block);
        // Consumed from the back.
        block.reverse();
        self.block = block;
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(workload: Workload, seed: u64, client: usize, n: usize) -> Vec<Op> {
        OpStream::new(workload, seed, client).take(n).collect()
    }

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        for w in [Workload::Ingest, Workload::Debug] {
            for client in 0..CLIENTS {
                assert_eq!(first(w, 7, client, 200), first(w, 7, client, 200), "{w:?}");
                assert_ne!(first(w, 7, client, 200), first(w, 8, client, 200), "{w:?}");
            }
            assert_ne!(
                first(w, 7, 0, 200),
                first(w, 7, 1, 200),
                "{w:?}: clients differ"
            );
        }
        assert_eq!(query_shapes(3, 2), query_shapes(3, 2));
        assert_ne!(query_shapes(3, 2), query_shapes(4, 2));
    }

    #[test]
    fn blocks_keep_the_mix_exact() {
        let ops = first(Workload::Ingest, 1, 0, 6);
        let mut kernels: Vec<&str> = ops
            .iter()
            .map(|op| match op {
                Op::Ingest { kernel } => *kernel,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        kernels.sort();
        kernels.dedup();
        assert_eq!(
            kernels.len(),
            CORPUS.len(),
            "one block holds every kernel once"
        );

        let ops = first(Workload::Debug, 1, 1, 100);
        let count = |kind: &str| ops.iter().filter(|op| op.kind() == kind).count();
        assert_eq!(
            (count("query"), count("fetch"), count("replay")),
            (70, 20, 10)
        );
        let own = owned_sessions(1);
        let shapes = query_shapes(1, 0).len();
        assert!(ops.iter().all(|op| match *op {
            Op::Query { session, shape, .. } => own.contains(&session) && shape < shapes,
            Op::Fetch { session } | Op::Replay { session } => own.contains(&session),
            Op::Ingest { .. } => false,
        }));
    }

    #[test]
    fn resolved_queries_stay_in_range() {
        let g = Geometry {
            chunks: 10,
            instructions: 500,
            timeline: 12,
        };
        for session in 0..CORPUS.len() {
            for shape in query_shapes(99, session) {
                match shape.resolve(g) {
                    ReplayQuery::ReverseStep { events } => {
                        assert!(events >= 1 && events <= g.timeline)
                    }
                    ReplayQuery::Range { start, end } => assert!(start < end && end <= g.chunks),
                    ReplayQuery::Window { start, end } => {
                        assert!(start < end && end <= g.instructions)
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }
}
