//! `perfbench` — the repository benchmark.
//!
//! Starts `quickrec serve` (default settings, its own process), drives
//! it with a closed loop of [`ops::CLIENTS`] clients running one of
//! two seed-generated traffic mixes, checks every answer against
//! in-process references, and prints every end-to-end metric with its
//! unit and sample count. With `--trace 1` it then repeats the same ops
//! in-process under spans and reports the per-layer numbers instead.
//!
//! ```text
//! perfbench --workload ingest|debug --seed N --seconds S --trace 0|1
//!           --quickrec PATH --work-dir DIR
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. The exit code is 0 only when every op checked
//! out.

mod check;
mod daemon;
mod expo;
mod load;
mod ops;
mod stats;
mod trace;

use check::{Observed, Reference, References};
use daemon::Daemon;
use ops::{Workload, CORPUS, SCALE, THREADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Daemon set-ups per run, before and after the timed loop: at least
/// this many on each side, repeated until the side has spent
/// [`SETUP_SPAN`]. `setup_s` is the median of all of them.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 4;
const SETUP_SPAN: Duration = Duration::from_millis(500);

/// End-to-end metrics in the result line (tracing off): every workload
/// reports each of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("stored_bytes_per_kinstr", "B/kinstr"),
    ("log_bytes_per_kinstr", "B/kinstr"),
];

/// Per-layer metrics in the result line (tracing on).
const PER_LAYER: [(&str, &str); 30] = [
    ("sim.native_ms", "ms"),
    ("sim.minstr_per_s", "Minstr/s"),
    ("workloads.build_ms", "ms"),
    ("capo.record_ms", "ms"),
    ("capo.record_vs_native", "ratio"),
    ("capo.to_parts_ms", "ms"),
    ("capo.decode_ms", "ms"),
    ("capo.sim_overhead_pct", "%"),
    ("core.chunks_per_kinstr", "1/kinstr"),
    ("replay.index_build_ms", "ms"),
    ("replay.index_bytes_per_kinstr", "B/kinstr"),
    ("replay.engine_new_ms", "ms"),
    ("replay.index_attach_ms", "ms"),
    ("replay.query_exec_ms", "ms"),
    ("replay.query_events_reexecuted", "count"),
    ("replay.replay_ms", "ms"),
    ("replay.minstr_per_s", "Minstr/s"),
    ("store.compress_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.commit_ms", "ms"),
    ("store.ratio", "ratio"),
    ("store.fetch_ms", "ms"),
    ("store.decompress_mb_s", "MB/s"),
    ("store.verify_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.jobs_rpc_ms", "ms"),
    ("server.polls_per_op", "count"),
    ("server.request_latency_us.jobs", "us"),
    ("server.residual_ms.record", "ms"),
    ("server.encode_ms", "ms"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quickrec: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed wants an integer")?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds wants a positive number")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
        },
        quickrec: PathBuf::from(get("--quickrec")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

/// One result figure: value, unit, and how it was measured.
struct Figure {
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Default)]
struct Figures(BTreeMap<String, Figure>);

impl Figures {
    fn put(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.0.insert(
            name.into(),
            Figure {
                value,
                unit,
                note: note.into(),
            },
        );
    }

    /// Median and highest trustworthy tail of `samples` as
    /// `<prefix>_p50_ms` and `<prefix>_p<tail>_ms`, when there are any.
    fn latency(&mut self, prefix: &str, samples: &[f64]) {
        let Some(s) = stats::summarize(samples) else {
            return;
        };
        self.put(
            format!("{prefix}_p50_ms"),
            s.p50,
            "ms",
            format!("n={}", s.n),
        );
        match s.tail {
            Some((p, v)) => self.put(
                format!("{prefix}_p{p}_ms"),
                v,
                "ms",
                format!("n={}, tail", s.n),
            ),
            None => self.put(
                format!("{prefix}_tail_ms"),
                f64::NAN,
                "ms",
                format!("n={} < 20: no tail", s.n),
            ),
        }
    }

    fn print(&self, title: &str) {
        println!("{title}");
        for (name, f) in &self.0 {
            println!("  {name:<34} {:>14.4} {:<9} {}", f.value, f.unit, f.note);
        }
    }

    /// The result object's `metrics`, holding exactly `names`.
    fn json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let f = self
                .0
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !f.value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                f.value
            ));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }
}

fn references() -> Result<References, String> {
    CORPUS
        .into_iter()
        .map(|k| Ok((k, Reference::record(k, THREADS, SCALE)?)))
        .collect()
}

/// Chunk-log plus input-log bytes of what the daemon serves for session
/// `id` of `kernel`: from the first file set a client fetched, or, when
/// no client fetched that kernel, from one FETCH now, decoded as
/// strictly as the loop's.
fn served_log_bytes(
    conn: &mut qr_server::Client,
    observed: &[Observed],
    refs: &References,
    id: u64,
    kernel: &'static str,
) -> Result<usize, String> {
    if let Some(files) = observed.iter().find_map(|o| o.firsts.fetches.get(kernel)) {
        return Ok(check::log_bytes(files));
    }
    match conn
        .call(&qr_server::Request::Fetch { id })
        .map_err(|e| e.to_string())?
    {
        qr_server::Response::Fetched { files, .. } => {
            check::check_files(&files, refs[kernel].fingerprint())
                .map_err(|e| format!("{kernel}: fetched files: {e}"))?;
            Ok(check::log_bytes(&files))
        }
        other => Err(format!("unexpected FETCH reply {other:?}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark; `Ok(false)` when some op failed its checks.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    println!(
        "perfbench {} seed={} seconds={} trace={} clients={} cores={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ops::CLIENTS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let prep = Instant::now();
    let refs = references()?;
    println!(
        "references: {} in-process recordings in {:.2?}",
        refs.len(),
        prep.elapsed()
    );

    // Set-up, several times: spawn to PONG, plus the `debug` corpus.
    // Some set-ups run before the timed loop and some after it, so one
    // burst of host noise cannot move them all.
    let mut setup_s = Vec::new();
    let mut corpus_record_ms = Vec::new();
    let mut set_up = |i: usize| -> Result<(Daemon, Vec<u64>), String> {
        let started = Instant::now();
        let daemon = Daemon::start(&args.quickrec, &args.work_dir.join(format!("daemon{i}")))?;
        let corpus = if w == Workload::Debug {
            let (ids, latencies) = load::record_corpus(daemon.endpoint(), &refs)?;
            corpus_record_ms.extend(latencies);
            ids
        } else {
            Vec::new()
        };
        setup_s.push(started.elapsed().as_secs_f64());
        Ok((daemon, corpus))
    };
    let throwaway = |(daemon, _): (Daemon, Vec<u64>), i: usize| -> Result<(), String> {
        daemon.stop()?;
        let _ = std::fs::remove_dir_all(args.work_dir.join(format!("daemon{i}")));
        Ok(())
    };
    let mut next = 1;
    let phase = Instant::now();
    while next < SETUPS_BEFORE || phase.elapsed() < SETUP_SPAN {
        throwaway(set_up(next)?, next)?;
        next += 1;
    }
    let (daemon, corpus) = set_up(0)?;

    // The timed closed loop, tracing off.
    let plan = load::Plan {
        workload: w,
        seed: args.seed,
        refs: &refs,
        corpus: &corpus,
    };
    let mut conn = daemon.connect()?;
    let scrape = |c: &mut qr_server::Client| {
        c.metrics()
            .map(|t| expo::parse(&t))
            .map_err(|e| e.to_string())
    };
    let before = scrape(&mut conn)?;
    let (cpu_before, host_before) = (daemon.cpu_s()?, daemon::host_ticks()?);
    let (observed, timings, start) = load::run(&plan, daemon.endpoint(), args.seconds)?;
    let wall = timings
        .last_done
        .map_or(args.seconds, |t| (t - start).as_secs_f64());
    let window = expo::delta(&before, &scrape(&mut conn)?);
    let report = match conn
        .call(&qr_server::Request::Stats)
        .map_err(|e| e.to_string())?
    {
        qr_server::Response::Stats(r) => r,
        other => return Err(format!("unexpected STATS reply {other:?}")),
    };
    // The distinct recordings the run stored, one session id each, and
    // the log bytes the daemon serves for them.
    let recorded: Vec<(u64, &'static str)> = if w == Workload::Debug {
        corpus.iter().copied().zip(CORPUS).collect()
    } else {
        timings.recorded.clone()
    };
    let mut distinct: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for &(id, kernel) in &recorded {
        if !distinct.contains_key(kernel) {
            let logs = served_log_bytes(&mut conn, &observed, &refs, id, kernel)?;
            distinct.insert(kernel, (id, logs));
        }
    }
    drop(conn);
    let daemon_cpu_s = daemon.cpu_s()? - cpu_before;
    let host_after = daemon::host_ticks()?;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    daemon.stop()?;
    let phase = Instant::now();
    for i in next.. {
        if i >= next + SETUPS_AFTER && phase.elapsed() >= SETUP_SPAN {
            break;
        }
        throwaway(set_up(i)?, i)?;
    }

    let checking = Instant::now();
    let tally = check::verify(&observed, &refs, args.seed);
    println!(
        "checks: {} ops judged in {:.2?}",
        tally.attempted,
        checking.elapsed()
    );
    for why in &tally.reasons {
        println!("  FAILED: {why}");
    }

    let mut e2e = Figures::default();
    let (lo, hi) = setup_s
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    e2e.put(
        "setup_s",
        stats::median(&setup_s).unwrap_or(f64::NAN),
        "s",
        format!("median of {} set-ups ({lo:.4} to {hi:.4})", setup_s.len()),
    );
    let ops = timings.op_ms.len();
    e2e.put(
        "ops_per_s",
        ops as f64 / wall,
        "1/s",
        format!("n={ops} ops in {wall:.2} s"),
    );
    e2e.latency("op", &timings.op_ms);
    for kind in ["record", "fetch", "query", "replay"] {
        if let Some(samples) = timings.kind_ms.get(kind) {
            e2e.latency(kind, samples);
        }
    }
    if w == Workload::Debug {
        e2e.put(
            "query_cache_hits",
            timings.cache_hits as f64,
            "count",
            "QUERY answers served from the idempotence cache",
        );
    }
    e2e.put(
        "daemon_cpu_ms_per_op",
        daemon_cpu_s * 1e3 / ops as f64,
        "ms",
        format!("daemon user+system CPU over the loop: {daemon_cpu_s:.2} s"),
    );
    let (stolen, total) = (host_after.0 - host_before.0, host_after.1 - host_before.1);
    e2e.put(
        "host_steal_pct",
        100.0 * stolen as f64 / total.max(1) as f64,
        "%",
        "CPU time the hypervisor took from this machine during the loop",
    );
    e2e.put(
        "peak_rss_mb",
        peak_rss_mb,
        "MB",
        "daemon VmHWM before shutdown",
    );
    e2e.put(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        format!(
            "{} failed / {} attempted; busy answers: {}",
            tally.failed, tally.attempted, timings.busy
        ),
    );

    // Bytes per kinstr over the distinct recordings the run stored, as
    // the daemon stored and served them: the same set, hence the same
    // figure, for every run of one seed.
    let stored_by_id: BTreeMap<u64, u64> = report
        .sessions
        .iter()
        .map(|s| (s.id, s.bytes_stored))
        .collect();
    let (mut stored, mut logs, mut ref_logs, mut kinstr) = (0.0, 0.0, 0.0, 0.0);
    for (&kernel, &(id, served)) in &distinct {
        stored += *stored_by_id
            .get(&id)
            .ok_or(format!("STATS lacks session {id}"))? as f64;
        logs += served as f64;
        ref_logs += refs[kernel].log_bytes() as f64;
        kinstr += refs[kernel].kinstr();
    }
    let n = distinct.len();
    e2e.put(
        "stored_bytes_per_kinstr",
        stored / kinstr,
        "B/kinstr",
        format!("{n} distinct recordings, daemon STATS"),
    );
    e2e.put(
        "log_bytes_per_kinstr",
        logs / kinstr,
        "B/kinstr",
        format!(
            "{n} distinct recordings, fetched files (in-process: {:.4})",
            ref_logs / kinstr
        ),
    );
    if w == Workload::Ingest {
        let recorded_kinstr: f64 = timings
            .recorded
            .iter()
            .map(|&(_, k)| refs[k].kinstr())
            .sum();
        e2e.put(
            "record_kinstr_per_s",
            recorded_kinstr / wall,
            "kinstr/s",
            format!("{} recordings", timings.recorded.len()),
        );
    }
    e2e.print("end-to-end (daemon, tracing off):");

    let metrics = if args.trace {
        let layers = traced(args, &refs, &timings, &window, &corpus_record_ms, ops)?;
        layers.print("per-layer (traced in-process run + daemon counters):");
        layers.json(&PER_LAYER)?
    } else {
        e2e.json(&END_TO_END)?
    };
    let _ = std::fs::remove_dir_all(args.work_dir.join("daemon0"));
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.attempted, tally.failed
    );
    Ok(correct)
}

/// The traced run and the daemon-side counters of the untraced one.
fn traced(
    args: &Args,
    refs: &References,
    timings: &load::Timings,
    window: &BTreeMap<String, f64>,
    corpus_record_ms: &[f64],
    daemon_ops: usize,
) -> Result<Figures, String> {
    let budget = Duration::from_secs_f64(args.seconds / 3.0);
    let store_dir = args.work_dir.join("traced-store");
    let tr = trace::run(
        args.workload,
        args.seed,
        refs,
        daemon_ops,
        budget,
        &store_dir,
    )?;
    let _ = std::fs::remove_dir_all(&store_dir);
    let spans_path =
        args.work_dir
            .join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    tr.tracer
        .write(&spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    println!(
        "traced run: {} ops, {} spans -> {}",
        tr.ops,
        tr.tracer.spans().len(),
        spans_path.display()
    );

    let t = &tr.tracer;
    let mut f = Figures::default();
    let p50 = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let stage = |name: &str| {
        let v = t.per_op_ms(name);
        (p50(&v), format!("n={}", v.len()))
    };
    for (metric, span) in [
        ("sim.native_ms", "sim.native"),
        ("workloads.build_ms", "workloads.build"),
        ("capo.record_ms", "capo.record"),
        ("capo.to_parts_ms", "capo.to_parts"),
        ("capo.decode_ms", "capo.decode"),
        ("replay.index_build_ms", "replay.index_build"),
        ("replay.engine_new_ms", "replay.engine_new"),
        ("replay.index_attach_ms", "replay.index_attach"),
        ("replay.query_exec_ms", "replay.query_exec"),
        ("replay.replay_ms", "replay.replay"),
        ("store.compress_ms", "store.compress"),
        ("store.put_ms", "store.put"),
        ("store.fetch_ms", "store.fetch_parts"),
        ("store.verify_ms", "store.verify"),
        ("server.encode_ms", "server.encode"),
    ] {
        let (v, note) = stage(span);
        f.put(metric, v, "ms", note);
    }
    let commit: Vec<f64> = t
        .per_op_ms("store.put")
        .iter()
        .zip(t.per_op_ms("store.compress"))
        .map(|(p, c)| p - c)
        .collect();
    f.put(
        "store.commit_ms",
        p50(&commit),
        "ms",
        "put - compress, per op",
    );
    let r = &tr.rates;
    f.put(
        "sim.minstr_per_s",
        p50(&r.sim_minstr_per_s),
        "Minstr/s",
        format!("n={}", r.sim_minstr_per_s.len()),
    );
    f.put(
        "capo.record_vs_native",
        p50(&r.record_vs_native),
        "ratio",
        format!("n={}", r.record_vs_native.len()),
    );
    f.put(
        "store.decompress_mb_s",
        p50(&r.decompress_mb_s),
        "MB/s",
        format!("n={}", r.decompress_mb_s.len()),
    );
    f.put(
        "replay.minstr_per_s",
        p50(&r.replay_minstr_per_s),
        "Minstr/s",
        format!("n={}", r.replay_minstr_per_s.len()),
    );
    f.put(
        "replay.query_events_reexecuted",
        p50(&r.query_events),
        "count",
        format!("median, n={}", r.query_events.len()),
    );

    // Exact ratios over the distinct recordings.
    let facts = tr.facts.values();
    let sum = |g: fn(&trace::RecordFacts) -> u64| facts.clone().map(g).sum::<u64>() as f64;
    let kinstr = sum(|x| x.instructions) / 1000.0;
    let distinct = format!("{} distinct recordings", tr.facts.len());
    f.put(
        "core.chunks_per_kinstr",
        sum(|x| x.chunks) / kinstr,
        "1/kinstr",
        distinct.clone(),
    );
    f.put(
        "capo.sim_overhead_pct",
        100.0 * (sum(|x| x.cycles) / sum(|x| x.native_cycles) - 1.0),
        "%",
        format!("modelled, {distinct}"),
    );
    f.put(
        "replay.index_bytes_per_kinstr",
        sum(|x| x.index_bytes) / kinstr,
        "B/kinstr",
        distinct.clone(),
    );
    f.put(
        "store.ratio",
        sum(|x| x.raw_bytes) / sum(|x| x.stored_bytes),
        "ratio",
        distinct,
    );

    // The daemon side of the untraced run.
    let (polls, polled) = (timings.jobs_rpc_ms.len(), timings.jobs_polled);
    f.put(
        "server.queue_wait_ms",
        p50(&timings.queue_wait_ms),
        "ms",
        format!("n={}", timings.queue_wait_ms.len()),
    );
    f.put(
        "server.jobs_rpc_ms",
        p50(&timings.jobs_rpc_ms),
        "ms",
        format!("n={polls}"),
    );
    f.put(
        "server.polls_per_op",
        polls as f64 / polled.max(1) as f64,
        "count",
        format!("{polled} jobs polled"),
    );
    if !timings.fetch_wire_bytes.is_empty() {
        f.put(
            "server.fetch_wire_bytes",
            p50(&timings.fetch_wire_bytes),
            "B",
            "median per FETCH",
        );
    }
    let busy = window
        .get("qr_server_busy_rejections_total")
        .copied()
        .unwrap_or(0.0);
    f.put(
        "server.busy_total",
        busy,
        "count",
        "METRICS delta over the timed loop",
    );
    for kind in ["jobs", "submit_workload", "fetch", "query", "replay"] {
        let labels = format!("kind=\"{kind}\"");
        if let Some(v) = expo::quantile(window, "qr_server_request_latency_us", &labels, 0.5) {
            f.put(
                format!("server.request_latency_us.{kind}"),
                v,
                "us",
                "p50, METRICS delta",
            );
        }
    }
    // Residual: the daemon's op latency minus the in-process stage sum.
    for kind in ["record", "fetch", "query", "replay"] {
        let daemon_ms = match (kind, args.workload) {
            ("record", Workload::Debug) => Some(corpus_record_ms),
            _ => timings.kind_ms.get(kind).map(Vec::as_slice),
        };
        let in_process = t.per_op_ms(&format!("op.{kind}"));
        if let (Some(d), false) = (daemon_ms, in_process.is_empty()) {
            let (d50, s50) = (p50(d), p50(&in_process));
            f.put(
                format!("server.residual_ms.{kind}"),
                d50 - s50,
                "ms",
                format!(
                    "daemon p50 {d50:.3} (n={}) - stages p50 {s50:.3} (n={})",
                    d.len(),
                    in_process.len()
                ),
            );
        }
    }
    println!("self time by span (traced run, ms total):");
    for (name, ms) in t.self_ms_by_name() {
        println!("  {name:<34} {ms:>12.3}");
    }
    Ok(f)
}
