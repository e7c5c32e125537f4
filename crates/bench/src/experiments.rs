//! The experiment catalog: every table and figure of the QuickRec
//! evaluation, expressed as declarative job lists for the parallel
//! executor (see `runner`).
//!
//! Each experiment contributes one [`Job`] per (workload, configuration)
//! tuple. Jobs run in any order on worker threads; rendering consumes
//! their outputs in submission order, so the printed report is identical
//! whichever execution mode produced it.

use crate::runner::{run_jobs, BuildCache, ExecMode, Job, JobOutput};
use crate::{hw_cfg, overhead_pct, pct, record_workload_with, run_native_workload_with, Table,
            CORE_HZ};
use qr_capo::{InputEvent, RecordingConfig};
use qr_common::QrError;
use qr_mem::TsoMode;
use qr_workloads::{suite, Scale, WorkloadSpec};
use quickrec_core::{Encoding, MrrConfig, OrderMode, TerminationReason};

/// Every deterministic experiment id, in report order (`repro all`).
pub const ALL_IDS: [&str; 22] = [
    "t1", "t2", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e9b", "e10", "e11", "e12",
    "a1", "a2", "a3", "a5", "a6", "r1", "v1",
];

/// Experiments that report host wall-clock time. They are excluded from
/// `repro all` — their numbers vary run to run, so including them would
/// break the harness guarantee that parallel output is byte-identical
/// to `--serial` — and must be invoked explicitly (like `cargo bench`).
pub const WALL_CLOCK_IDS: [&str; 5] = ["e10b", "e13", "e14", "e15", "e16"];

/// What an experiment prints after its table.
enum Footer {
    /// Nothing.
    None,
    /// A fixed line.
    Static(&'static str),
    /// A line computed from the mean of the jobs' footer statistics.
    MeanStat(fn(f64) -> String),
}

/// One experiment: identity, table shape, and its job list.
pub struct Experiment {
    /// Report id (`e5`, `a1`, …).
    pub id: &'static str,
    title: &'static str,
    note: &'static str,
    header: Vec<String>,
    jobs: Vec<Job>,
    footer: Footer,
}

fn full_cfg(threads: usize) -> RecordingConfig {
    crate::full_cfg(threads)
}

/// Builds the experiment with the given id, or `None` for unknown ids.
pub fn plan(id: &str) -> Option<Experiment> {
    Some(match id {
        "t1" => t1(),
        "t2" => t2(),
        "e1" => e1(),
        "e2" => e2(),
        "e3" => e3(),
        "e4" => e4(),
        "e5" => e5(),
        "e6" => e6(),
        "e7" => e7(),
        "e8" => e8(),
        "e9" => e9(),
        "e9b" => e9b(),
        "e10" => e10(),
        "e10b" => e10b(),
        "e11" => e11(),
        "e12" => e12(),
        "e13" => e13(),
        "e14" => e14(),
        "e15" => e15(),
        "e16" => e16(),
        "a1" => a1(),
        "a2" => a2(),
        "a3" => a3(),
        "a5" => a5(),
        "a6" => a6(),
        "r1" => r1(),
        "v1" => v1(),
        _ => return None,
    })
}

/// Renders the named experiments, executing all of their jobs under
/// `mode` with one shared build cache.
///
/// Returns the rendered report up to the first failure; on failure the
/// offending experiment id and error are returned alongside the partial
/// output (matching the serial harness, which stops at the first failing
/// experiment).
///
/// # Panics
///
/// Panics on unknown experiment ids — the CLI validates ids first.
pub fn render_experiments(
    ids: &[&str],
    mode: ExecMode,
) -> (String, Option<(&'static str, QrError)>) {
    let mut experiments: Vec<Experiment> =
        ids.iter().map(|id| plan(id).unwrap_or_else(|| panic!("unknown experiment `{id}`"))).collect();
    let mut all_jobs: Vec<Job> = Vec::new();
    let mut job_counts = Vec::with_capacity(experiments.len());
    for exp in &mut experiments {
        job_counts.push(exp.jobs.len());
        all_jobs.append(&mut exp.jobs);
    }
    let cache = BuildCache::new();
    let mut results = run_jobs(all_jobs, &cache, mode).into_iter();

    let mut out = String::new();
    for (exp, count) in experiments.iter().zip(job_counts) {
        out.push_str(&format!("\n=== {}: {} ===\n", exp.id.to_uppercase(), exp.title));
        if !exp.note.is_empty() {
            out.push_str(&format!("({})\n\n", exp.note));
        }
        let mut table = Table::new(exp.header.clone());
        let mut stats = Vec::new();
        for _ in 0..count {
            match results.next().expect("one result per job") {
                Ok(output) => {
                    for row in output.rows {
                        table.row(row);
                    }
                    if let Some(stat) = output.stat {
                        stats.push(stat);
                    }
                }
                Err(err) => return (out, Some((exp.id, err))),
            }
        }
        out.push_str(&table.render());
        match exp.footer {
            Footer::None => {}
            Footer::Static(line) => {
                out.push_str(line);
                out.push('\n');
            }
            Footer::MeanStat(fmt) => {
                let mean = stats.iter().sum::<f64>() / stats.len() as f64;
                out.push_str(&fmt(mean));
                out.push('\n');
            }
        }
    }
    (out, None)
}

/// One job per suite workload, in canonical order.
fn per_workload(f: impl Fn(WorkloadSpec) -> Job) -> Vec<Job> {
    suite().into_iter().map(f).collect()
}

/// T1 — platform configuration (the paper's system-parameters table).
fn t1() -> Experiment {
    let job: Job = Box::new(|_cache| {
        let cfg = RecordingConfig::with_cores(4);
        let mut rows = JobOutput::default();
        let mut row = |k: &str, v: String| rows.rows.push(vec![k.to_string(), v]);
        row("cores", format!("{}", cfg.cpu.num_cores));
        row("ISA", "PIA (32-bit IA-like, 8-byte fixed encoding)".to_string());
        row("memory model", "TSO (store buffers with forwarding)".to_string());
        row("L1 per core", format!("{} KiB ({} sets x {} ways x 64 B), MESI",
            cfg.cpu.mem.l1_bytes() / 1024, cfg.cpu.mem.l1_sets, cfg.cpu.mem.l1_ways));
        row("store buffer", format!("{} entries, background drain 1/{} instrs",
            cfg.cpu.mem.store_buffer_entries, cfg.cpu.drain_interval));
        row("miss penalty", format!("{} cycles (+{} dirty intervention)",
            cfg.cpu.mem.miss_penalty, cfg.cpu.mem.intervention_penalty));
        row("read signature", format!("{} bits, {} hashes", cfg.mrr.read_sig_bits, cfg.mrr.sig_hashes));
        row("write signature", format!("{} bits, {} hashes", cfg.mrr.write_sig_bits, cfg.mrr.sig_hashes));
        row("sig saturation limit", format!("{}%", cfg.mrr.sig_saturation_permille / 10));
        row("max chunk size", format!("{} instructions", cfg.mrr.max_chunk_icount));
        row("CBUF", format!("{} packets, DMA 1 packet/{} cycles", cfg.mrr.cbuf_entries, cfg.mrr.cbuf_drain_cycles));
        row("CMEM", format!("{} KiB, interrupt at {} KiB",
            cfg.mrr.cmem_capacity / 1024, cfg.mrr.cmem_interrupt_threshold / 1024));
        row("log encoding", cfg.mrr.encoding.name().to_string());
        row("OS quantum", format!("{} cycles", cfg.os.quantum_cycles));
        row("RSM syscall intercept", format!("{} cycles", cfg.overhead.syscall_intercept_cycles));
        row("RSM drain interrupt", format!("{} + {}/byte cycles",
            cfg.overhead.drain_base_cycles, cfg.overhead.drain_cycles_per_byte));
        Ok(rows)
    });
    Experiment {
        id: "t1",
        title: "QuickRec-RS platform configuration",
        note: "paper analog: QuickIA system parameters table",
        header: vec!["parameter".into(), "value".into()],
        jobs: vec![job],
        footer: Footer::None,
    }
}

/// T2 — the workload suite (the paper's benchmarks table).
fn t2() -> Experiment {
    Experiment {
        id: "t2",
        title: "workload suite (SPLASH-2 analogs)",
        note: "reference-scale sizes, 4 threads",
        header: vec!["workload".into(), "instructions".into(), "sync pattern".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let out = run_native_workload_with(cache, &spec, 4, Scale::Reference)?;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    format!("{}", out.instructions),
                    spec.description.to_string(),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E1 — memory-log generation rate (abstract claim: "insignificant").
fn e1() -> Experiment {
    Experiment {
        id: "e1",
        title: "memory-log generation rate",
        note: "paper: the rate of memory log generation is insignificant; \
         expect ~1-5 B/kilo-instruction for regular kernels, more for irregular ones",
        header: vec!["workload".into(), "chunks".into(), "log bytes".into(),
            "B/kilo-instr".into(), "KB/s @60MHz".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                let bytes = r.chunks.to_bytes(Encoding::Delta).len();
                let bpki = r.log_bytes_per_kilo_instruction(Encoding::Delta);
                let kbs = bytes as f64 / (r.cycles as f64 / CORE_HZ) / 1024.0;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    r.chunks.len().to_string(),
                    bytes.to_string(),
                    format!("{bpki:.2}"),
                    format!("{kbs:.1}"),
                ])
                .with_stat(bpki))
            })
        }),
        footer: Footer::MeanStat(|mean| format!("mean: {mean:.2} B/kilo-instruction")),
    }
}

/// E2 — chunk-size distribution.
fn e2() -> Experiment {
    Experiment {
        id: "e2",
        title: "chunk-size distribution (instructions per chunk)",
        note: "paper analog: chunk-size characterization",
        header: vec!["workload".into(), "p10".into(), "p50".into(), "p90".into(),
            "p99".into(), "max".into(), "mean".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    r.chunks.chunk_size_percentile(10).to_string(),
                    r.chunks.chunk_size_percentile(50).to_string(),
                    r.chunks.chunk_size_percentile(90).to_string(),
                    r.chunks.chunk_size_percentile(99).to_string(),
                    r.chunks.chunk_size_percentile(100).to_string(),
                    format!("{:.0}", r.recorder_stats.mean_chunk_size()),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E3 — chunk-termination reason breakdown.
fn e3() -> Experiment {
    let mut header = vec!["workload".to_string()];
    header.extend(TerminationReason::ALL.iter().map(|r| r.label().to_string()));
    Experiment {
        id: "e3",
        title: "why chunks terminate (% of chunks)",
        note: "paper analog: chunk-termination breakdown",
        header,
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                let total = r.chunks.len() as u64;
                let mut row = vec![spec.name.to_string()];
                for reason in TerminationReason::ALL {
                    let count = r.recorder_stats.chunks_by_reason[reason.code() as usize];
                    row.push(pct(count, total));
                }
                Ok(JobOutput::row(row))
            })
        }),
        footer: Footer::None,
    }
}

/// E4 — packet-encoding comparison.
fn e4() -> Experiment {
    Experiment {
        id: "e4",
        title: "log size by packet encoding (B/kilo-instruction)",
        note: "paper analog: log compression comparison; expect raw > packed > delta",
        header: vec!["workload".into(), "raw".into(), "packed".into(), "delta".into(),
            "delta vs raw".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                let sizes: Vec<f64> =
                    Encoding::ALL.iter().map(|&e| r.log_bytes_per_kilo_instruction(e)).collect();
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    format!("{:.2}", sizes[0]),
                    format!("{:.2}", sizes[1]),
                    format!("{:.2}", sizes[2]),
                    format!("{:.1}x", sizes[0] / sizes[2].max(1e-9)),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E5 — recording overhead (abstract claims: hardware negligible,
/// software ~13% mean).
fn e5() -> Experiment {
    Experiment {
        id: "e5",
        title: "recording overhead vs native execution",
        note: "paper: recording hardware has negligible overhead; the software stack costs ~13% on average",
        header: vec!["workload".into(), "native cycles".into(), "hw-only".into(),
            "full stack".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let native = run_native_workload_with(cache, &spec, 4, Scale::Reference)?;
                let hw = record_workload_with(cache, &spec, 4, Scale::Reference, hw_cfg(4))?;
                let full = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                let full_pct = overhead_pct(full.cycles, native.cycles);
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    native.cycles.to_string(),
                    format!("{:.2}%", overhead_pct(hw.cycles, native.cycles)),
                    format!("{full_pct:.2}%"),
                ])
                .with_stat(full_pct))
            })
        }),
        footer: Footer::MeanStat(|mean| {
            format!("mean full-stack overhead: {mean:.1}%  (paper: ~13%)")
        }),
    }
}

/// E6 — software overhead breakdown.
fn e6() -> Experiment {
    Experiment {
        id: "e6",
        title: "where the software overhead goes (% of overhead cycles)",
        note: "paper analog: RSM cost breakdown",
        header: vec!["workload".into(), "syscall".into(), "log-copy".into(),
            "cmem-drain".into(), "mrr-switch".into(), "signal".into(), "hw-stall".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                let o = &r.overhead;
                let total = o.total();
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    pct(o.syscall_cycles, total),
                    pct(o.copy_cycles, total),
                    pct(o.drain_cycles, total),
                    pct(o.switch_cycles, total),
                    pct(o.signal_cycles, total),
                    pct(o.hw_stall_cycles, total),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E7 — scaling with thread count.
fn e7() -> Experiment {
    let mut jobs: Vec<Job> = Vec::new();
    for spec in suite().into_iter().filter(|s| ["fft", "lu", "radix", "ocean", "water"].contains(&s.name)) {
        for threads in [1usize, 2, 4] {
            jobs.push(Box::new(move |cache: &BuildCache| {
                let native = run_native_workload_with(cache, &spec, threads, Scale::Reference)?;
                let full = record_workload_with(
                    cache, &spec, threads, Scale::Reference, full_cfg(threads))?;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    threads.to_string(),
                    full.instructions.to_string(),
                    format!("{:.2}%", overhead_pct(full.cycles, native.cycles)),
                    format!("{:.2}", full.log_bytes_per_kilo_instruction(Encoding::Delta)),
                ]))
            }));
        }
    }
    Experiment {
        id: "e7",
        title: "scaling with thread count (1/2/4)",
        note: "overhead and log rate per thread count, reference scale",
        header: vec!["workload".into(), "t".into(), "instructions".into(),
            "overhead".into(), "B/kilo-instr".into()],
        jobs,
        footer: Footer::Static("(log rate grows with threads: more cross-thread conflicts per instruction)"),
    }
}

/// E8 — TSO reordered-store-window statistics.
fn e8() -> Experiment {
    Experiment {
        id: "e8",
        title: "TSO effects: reordered store windows (Rsw mode)",
        note: "chunks that terminated with stores still in the store buffer; the RSW field makes them replayable",
        header: vec!["workload".into(), "chunks".into(), "rsw>0 chunks".into(),
            "% with rsw".into(), "mean rsw".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let mut cfg = full_cfg(4);
                cfg.cpu.mem.tso_mode = TsoMode::Rsw;
                cfg.cpu.drain_interval = 8;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, cfg)?;
                let s = &r.recorder_stats;
                let mean_rsw = if s.chunks_with_rsw == 0 {
                    0.0
                } else {
                    s.rsw_sum as f64 / s.chunks_with_rsw as f64
                };
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    r.chunks.len().to_string(),
                    s.chunks_with_rsw.to_string(),
                    pct(s.chunks_with_rsw, r.chunks.len() as u64),
                    format!("{mean_rsw:.2}"),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E9 — replay speed relative to recording.
fn e9() -> Experiment {
    Experiment {
        id: "e9",
        title: "replay cost (serialized replay cycles / parallel recording cycles)",
        note: "chunk-ordered replay serializes the execution; ratios near or above 1x on 4 cores show the cost",
        header: vec!["workload".into(), "record cycles".into(), "replay cycles".into(),
            "ratio".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let program = cache.program(&spec, 4, Scale::Small)?;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
                let outcome = qr_replay::replay(&program, &r)?;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    r.cycles.to_string(),
                    outcome.cycles.to_string(),
                    format!("{:.2}x", outcome.slowdown_vs(&r)),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E9b — parallel replay speedup from the conflict-dependency scheduler.
fn e9b() -> Experiment {
    Experiment {
        id: "e9b",
        title: "parallel replay speedup (conflict-dependency scheduler, 4 jobs)",
        note: "chunks with non-conflicting footprints replay concurrently; fingerprints must stay \
               byte-identical to serial replay (compute-dense workloads approach recording \
               parallelism, lock-dense ones stay near serial)",
        header: vec!["workload".into(), "serial cycles".into(), "parallel cycles".into(),
            "speedup".into(), "nodes".into(), "edges".into(), "fingerprint".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let program = cache.program(&spec, 4, Scale::Small)?;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
                let serial = qr_replay::replay(&program, &r)?;
                let replayer = qr_replay::ParallelReplayer::new(&program, &r, 4)?;
                if let Some(reason) = replayer.fallback_reason() {
                    return Err(QrError::Execution {
                        detail: format!("{}: parallel replay fell back to serial: {reason}", spec.name),
                    });
                }
                let (nodes, edges) = (replayer.node_count(), replayer.edge_count());
                let parallel = replayer.run()?;
                parallel.verify_against(&r)?;
                if parallel.fingerprint != serial.fingerprint {
                    return Err(QrError::Execution {
                        detail: format!("{}: parallel fingerprint diverged from serial", spec.name),
                    });
                }
                let speedup = serial.cycles as f64 / parallel.cycles.max(1) as f64;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    serial.cycles.to_string(),
                    parallel.cycles.to_string(),
                    format!("{speedup:.2}x"),
                    nodes.to_string(),
                    edges.to_string(),
                    format!("{:016x}", parallel.fingerprint),
                ])
                .with_stat(speedup.ln()))
            })
        }),
        footer: Footer::MeanStat(|mean| format!("geomean speedup at 4 jobs: {:.2}x", mean.exp())),
    }
}

/// E10 — recording-store compression ratio per chunk-log encoding.
fn e10() -> Experiment {
    Experiment {
        id: "e10",
        title: "recording-store compression by chunk-log encoding",
        note: "block-compressed store entries (32 KiB blocks, per-block CRC); \
         ratio = compressed/uncompressed of the framed chunk log",
        header: vec!["workload".into(), "raw B".into(), "raw z".into(), "packed B".into(),
            "packed z".into(), "delta B".into(), "delta z".into(), "entry ratio".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
                let mut cells = vec![spec.name.to_string()];
                for encoding in Encoding::ALL {
                    let parts = r.to_parts(encoding);
                    let compressed = qr_store::block::compress(&parts.chunks);
                    cells.push(parts.chunks.len().to_string());
                    cells.push(format!(
                        "{} ({})",
                        compressed.len(),
                        pct(compressed.len() as u64, parts.chunks.len() as u64)
                    ));
                }
                // Whole-entry ratio as the store would commit it
                // (meta + chunks + inputs + footprints, delta chunks).
                let parts = r.to_parts(Encoding::Delta);
                let (mut raw, mut stored) = (0usize, 0usize);
                for (_, bytes) in parts.files() {
                    raw += bytes.len();
                    stored += qr_store::block::compress(bytes).len();
                }
                let ratio = stored as f64 / raw as f64;
                cells.push(format!("{:.2}", ratio));
                Ok(JobOutput::row(cells).with_stat(ratio))
            })
        }),
        footer: Footer::MeanStat(|mean| {
            format!("mean whole-entry stored/raw ratio (delta encoding): {mean:.2}")
        }),
    }
}

/// E10b — `quickrecd` service throughput, serial vs sharded.
///
/// One job measures all three configurations back to back so the rows
/// never contend with each other for host cores (the harness may run
/// unrelated jobs concurrently, but the serial-vs-sharded comparison
/// shares whatever ambient load exists).
fn e10b() -> Experiment {
    let job: Job = Box::new(|_cache: &BuildCache| {
        use qr_server::proto::{Endpoint, Request, Response};
        let names = ["fft", "lu", "radix", "ocean", "water", "barnes", "fmm", "raytrace",
            "cholesky", "volrend", "radiosity", "fft", "lu", "radix", "ocean", "water"];
        let mut out = JobOutput::default();
        let mut serial_secs = None;
        for workers in [1usize, 2, 4] {
            let dir = std::env::temp_dir()
                .join(format!("qr-e10b-{workers}w-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let endpoint = Endpoint::Unix(dir.join("qd.sock"));
            let config = qr_server::ServerConfig {
                workers,
                shards: workers,
                queue_capacity: 64,
                store_root: dir.join("store"),
                event_workers: 2,
                max_connections: 4096,
            };
            let handle = qr_server::Server::start(&endpoint, &config)?;
            let mut client = qr_server::Client::connect(handle.endpoint())?;
            let started = std::time::Instant::now();
            let mut ids = Vec::new();
            for name in names {
                match client.call(&Request::SubmitWorkload {
                    name: name.into(),
                    workload: name.into(),
                    threads: 2,
                    scale: Scale::Small,
                    encoding: Encoding::Delta,
                    order: OrderMode::TotalOrder,
                })? {
                    Response::Submitted { id } => ids.push(id),
                    other => {
                        return Err(QrError::Execution {
                            detail: format!("{name}: unexpected response {other:?}"),
                        })
                    }
                }
            }
            for id in ids {
                client.wait_for(id, std::time::Duration::from_secs(300))?;
            }
            let elapsed = started.elapsed();
            match client.call(&Request::Shutdown)? {
                Response::ShuttingDown => {}
                other => {
                    return Err(QrError::Execution {
                        detail: format!("shutdown: unexpected response {other:?}"),
                    })
                }
            }
            drop(client);
            handle.wait();
            std::fs::remove_dir_all(&dir).ok();
            let secs = elapsed.as_secs_f64();
            let speedup = *serial_secs.get_or_insert(secs) / secs.max(f64::MIN_POSITIVE);
            out.rows.push(vec![
                workers.to_string(),
                workers.to_string(),
                names.len().to_string(),
                format!("{:.0}", secs * 1000.0),
                format!("{:.1}", names.len() as f64 / secs),
                format!("{speedup:.2}x"),
            ]);
        }
        Ok(out)
    });
    Experiment {
        id: "e10b",
        title: "quickrecd service throughput, serial vs sharded",
        note: "16 RECORD submissions against one daemon per row; wall-clock, so the shape \
         depends on host cores — sharded rows pull ahead only with cores to spare, and a \
         single-core host showing speedup ~1.0x at unchanged totals is the correct result \
         (concurrency without overhead)",
        header: vec!["workers".into(), "shards".into(), "jobs".into(), "wall ms".into(),
            "jobs/s".into(), "speedup".into()],
        jobs: vec![job],
        footer: Footer::Static(
            "(worker pool and registry shards scale together; RECORD jobs are embarrassingly \
             parallel until the store serializes commits)",
        ),
    }
}

/// V1 — determinism validation across the suite.
fn v1() -> Experiment {
    Experiment {
        id: "v1",
        title: "deterministic replay validation",
        note: "replay must reproduce memory, console and exit codes exactly",
        header: vec!["workload".into(), "chunks".into(), "inputs".into(),
            "fingerprint".into(), "verdict".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let program = cache.program(&spec, 4, Scale::Small)?;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
                let outcome = qr_replay::replay_and_verify(&program, &r)?;
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    outcome.chunks_replayed.to_string(),
                    outcome.inputs_injected.to_string(),
                    format!("{:016x}", outcome.fingerprint),
                    "PASS".to_string(),
                ]))
            })
        }),
        footer: Footer::None,
    }
}

/// E11 — input-log characterization.
fn e11() -> Experiment {
    Experiment {
        id: "e11",
        title: "input-log volume and composition",
        note: "the Capo3 side of the log: syscall results, copy_to_user payloads, nondet values",
        header: vec!["workload".into(), "events".into(), "payload bytes".into(),
            "nondet vals".into(), "log bytes".into(), "B/kilo-instr".into()],
        jobs: per_workload(|spec| {
            Box::new(move |cache| {
                let r = record_workload_with(cache, &spec, 4, Scale::Reference, full_cfg(4))?;
                let payload: usize = r
                    .inputs
                    .events()
                    .iter()
                    .map(|e| match e {
                        InputEvent::Syscall { record, .. } => {
                            record.writes.iter().map(|(_, d)| d.len()).sum()
                        }
                        InputEvent::Signal { .. } => 0,
                    })
                    .sum();
                let bytes = r.inputs.byte_size();
                Ok(JobOutput::row([
                    spec.name.to_string(),
                    r.inputs.events().len().to_string(),
                    payload.to_string(),
                    r.inputs.nondet_count().to_string(),
                    bytes.to_string(),
                    format!("{:.3}", bytes as f64 * 1000.0 / r.instructions as f64),
                ]))
            })
        }),
        footer: Footer::Static("(the input log is far smaller than the memory log for compute-bound workloads)"),
    }
}

/// E12 — observability is free of observer effects: recordings are
/// byte-identical with metrics on and off.
///
/// One job runs every comparison serially because the `qr-obs` enabled
/// flag is process-global: toggling it from concurrent jobs would only
/// perturb *metric contents* (never outputs), but serializing keeps the
/// flag state simple to reason about. The flag is restored afterwards.
fn e12() -> Experiment {
    let job: Job = Box::new(|cache: &BuildCache| {
        let workloads = ["fft", "lu", "radix", "water"];
        let mut out = JobOutput::default();
        let was_enabled = qr_obs::enabled();
        let result = (|| {
            for name in workloads {
                let spec = qr_workloads::suite::find(name).expect("suite member");
                qr_obs::set_enabled(true);
                let observed = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
                qr_obs::set_enabled(false);
                let blind = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
                if observed.fingerprint != blind.fingerprint {
                    return Err(QrError::Execution {
                        detail: format!("{name}: fingerprint changed with metrics enabled"),
                    });
                }
                let mut identical = true;
                let mut log_bytes = 0usize;
                for encoding in Encoding::ALL {
                    let on = observed.chunks.to_bytes(encoding);
                    let off = blind.chunks.to_bytes(encoding);
                    identical &= on == off;
                    if encoding == Encoding::Delta {
                        log_bytes = on.len();
                    }
                }
                if !identical {
                    return Err(QrError::Execution {
                        detail: format!("{name}: serialized chunk log changed with metrics enabled"),
                    });
                }
                out.rows.push(vec![
                    name.to_string(),
                    observed.chunks.len().to_string(),
                    log_bytes.to_string(),
                    format!("{:016x}", observed.fingerprint),
                    "identical".to_string(),
                ]);
            }
            Ok(())
        })();
        qr_obs::set_enabled(was_enabled);
        result?;
        Ok(out)
    });
    Experiment {
        id: "e12",
        title: "observability overhead accounting: metrics on vs off",
        note: "qr-obs is observational only — fingerprints and serialized logs must be \
         byte-identical with the metrics registry enabled and disabled",
        header: vec!["workload".into(), "chunks".into(), "delta log B".into(),
            "fingerprint".into(), "on vs off".into()],
        jobs: vec![job],
        footer: Footer::Static(
            "(wall-clock metric values are excluded from every deterministic report; \
             only their absence of side effects is asserted here)",
        ),
    }
}

/// E13 — hot-path raw speed: slice-by-8 CRC-32 vs the scalar reference,
/// hash-chain LZ vs the greedy reference, wide-copy decompression, store
/// ratio per encoding, and simulator instruction rate.
///
/// Wall-clock (see [`WALL_CLOCK_IDS`]), so it is excluded from
/// `repro all` and invoked explicitly. Besides printing the table it
/// writes a machine-readable summary to `BENCH_hotpath.json` (path
/// overridable via `QR_BENCH_JSON`, measurement window via
/// `QR_BENCH_MS`). The run *fails* only on differential drift — a fast
/// path disagreeing with its reference path on real recording bytes —
/// never on a speedup threshold, so CI stays immune to host-load flake.
fn e13() -> Experiment {
    let job: Job = Box::new(|cache: &BuildCache| {
        use qr_common::crc32;
        use qr_store::{block, lz};

        let ms = std::env::var("QR_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(400)
            .max(1);
        let window = std::time::Duration::from_millis(ms);

        // Corpus: real framed recording bytes (meta + chunk logs +
        // inputs + footprints across all three encodings) from four
        // workloads, so every rate below reflects the byte patterns the
        // hot paths actually see.
        let names = ["fft", "lu", "radix", "water"];
        let mut recordings = Vec::new();
        let mut corpus: Vec<u8> = Vec::new();
        for name in names {
            let spec = qr_workloads::suite::find(name).expect("suite member");
            let r = record_workload_with(cache, &spec, 4, Scale::Small, full_cfg(4))?;
            for encoding in Encoding::ALL {
                for (_, bytes) in r.to_parts(encoding).files() {
                    corpus.extend_from_slice(bytes);
                }
            }
            recordings.push((name, r));
        }

        // Differential drift gate: the fast paths must agree with their
        // reference paths on every file of every recording × encoding.
        let mut cases = 0u64;
        let mut drift = 0u64;
        let mut first_drift = String::new();
        let note_drift = |what: String, first: &mut String| {
            if first.is_empty() {
                *first = what;
            }
        };
        for (name, r) in &recordings {
            for encoding in Encoding::ALL {
                let parts = r.to_parts(encoding);
                for (file, bytes) in parts.files() {
                    cases += 1;
                    let mut bad = false;
                    if crc32::checksum(bytes) != crc32::checksum_scalar(bytes) {
                        bad = true;
                        note_drift(
                            format!("{name}/{encoding:?}/{file}: slice-by-8 CRC != scalar CRC"),
                            &mut first_drift,
                        );
                    }
                    let fast = lz::decompress(&lz::compress(bytes), bytes.len())?;
                    let greedy = lz::decompress(&lz::compress_greedy(bytes), bytes.len())?;
                    if fast != bytes || greedy != bytes {
                        bad = true;
                        note_drift(
                            format!("{name}/{encoding:?}/{file}: LZ round trip diverged"),
                            &mut first_drift,
                        );
                    }
                    if block::decompress(&block::compress(bytes))? != bytes {
                        bad = true;
                        note_drift(
                            format!("{name}/{encoding:?}/{file}: block round trip diverged"),
                            &mut first_drift,
                        );
                    }
                    drift += bad as u64;
                }
            }
        }

        // Throughput measurements (fixed window, quarter-window warmup).
        let mbs = |bytes_per_sec: f64| bytes_per_sec / (1024.0 * 1024.0);
        let crc_fast = mbs(crate::timing::bytes_per_sec(window, corpus.len(), || {
            crc32::checksum(&corpus)
        }));
        let crc_scalar = mbs(crate::timing::bytes_per_sec(window, corpus.len(), || {
            crc32::checksum_scalar(&corpus)
        }));
        let lz_fast = mbs(crate::timing::bytes_per_sec(window, corpus.len(), || {
            lz::compress(&corpus)
        }));
        let lz_greedy = mbs(crate::timing::bytes_per_sec(window, corpus.len(), || {
            lz::compress_greedy(&corpus)
        }));
        let packed = lz::compress(&corpus);
        let lz_dec = mbs(crate::timing::bytes_per_sec(window, corpus.len(), || {
            lz::decompress(&packed, corpus.len()).expect("benchmark corpus decompresses")
        }));
        let lz_dec_scalar = mbs(crate::timing::bytes_per_sec(window, corpus.len(), || {
            lz::decompress_scalar(&packed, corpus.len()).expect("benchmark corpus decompresses")
        }));
        let corpus_ratio = packed.len() as f64 / corpus.len().max(1) as f64;

        // Store ratio per chunk-log encoding, summed across workloads
        // (compressed/uncompressed of the framed chunk logs, as e10
        // reports per workload).
        let mut encoding_ratios = Vec::new();
        for encoding in Encoding::ALL {
            let (mut raw, mut stored) = (0usize, 0usize);
            for (_, r) in &recordings {
                let parts = r.to_parts(encoding);
                raw += parts.chunks.len();
                stored += block::compress(&parts.chunks).len();
            }
            encoding_ratios.push((encoding, stored as f64 / raw.max(1) as f64));
        }

        // Simulator rate: repeated full recordings of fft (4 threads,
        // small scale), using the recordings' own instruction counts.
        let sim_spec = qr_workloads::suite::find("fft").expect("suite member");
        let sim_started = std::time::Instant::now();
        let mut sim_instr = 0u64;
        let mut sim_runs = 0u64;
        loop {
            let r = record_workload_with(cache, &sim_spec, 4, Scale::Small, full_cfg(4))?;
            sim_instr += r.instructions;
            sim_runs += 1;
            if sim_started.elapsed() >= window {
                break;
            }
        }
        let sim_rate = sim_instr as f64 / sim_started.elapsed().as_secs_f64() / 1e6;

        let mut out = JobOutput::default();
        out.rows.push(vec![
            "crc32 MB/s".into(),
            format!("{crc_fast:.0}"),
            format!("{crc_scalar:.0}"),
            format!("{:.2}x", crc_fast / crc_scalar.max(f64::MIN_POSITIVE)),
        ]);
        out.rows.push(vec![
            "lz compress MB/s".into(),
            format!("{lz_fast:.0}"),
            format!("{lz_greedy:.0}"),
            format!("{:.2}x", lz_fast / lz_greedy.max(f64::MIN_POSITIVE)),
        ]);
        out.rows.push(vec![
            "lz decompress MB/s".into(),
            format!("{lz_dec:.0}"),
            format!("{lz_dec_scalar:.0}"),
            format!("{:.2}x", lz_dec / lz_dec_scalar.max(f64::MIN_POSITIVE)),
        ]);
        out.rows.push(vec![
            "lz corpus ratio".into(),
            format!("{corpus_ratio:.3}"),
            "-".into(),
            "-".into(),
        ]);
        for (encoding, ratio) in &encoding_ratios {
            out.rows.push(vec![
                format!("store ratio ({encoding:?})"),
                format!("{ratio:.3}"),
                "-".into(),
                "-".into(),
            ]);
        }
        out.rows.push(vec![
            "simulator Minstr/s".into(),
            format!("{sim_rate:.1}"),
            format!("({sim_runs} runs)"),
            "-".into(),
        ]);
        out.rows.push(vec![
            "differential".into(),
            format!("{cases} cases"),
            format!("{drift} drift"),
            if drift == 0 { "PASS".into() } else { "FAIL".into() },
        ]);

        // Machine-readable summary, hand-rolled JSON (no external crates).
        let json_path = std::env::var("QR_BENCH_JSON")
            .unwrap_or_else(|_| "BENCH_hotpath.json".into());
        let ratio_fields = encoding_ratios
            .iter()
            .map(|(e, r)| format!("    \"{}\": {r:.4}", format!("{e:?}").to_lowercase()))
            .collect::<Vec<_>>()
            .join(",\n");
        let json = format!(
            "{{\n  \"experiment\": \"e13\",\n  \"bench_ms\": {ms},\n  \"corpus_bytes\": {},\n\
             \x20 \"crc32\": {{\n    \"slice8_mb_s\": {crc_fast:.1},\n    \"scalar_mb_s\": \
             {crc_scalar:.1},\n    \"speedup\": {:.3}\n  }},\n  \"lz\": {{\n    \
             \"hash_chain_mb_s\": {lz_fast:.1},\n    \"greedy_mb_s\": {lz_greedy:.1},\n    \
             \"speedup\": {:.3},\n    \"decompress_mb_s\": {lz_dec:.1},\n    \
             \"decompress_scalar_mb_s\": {lz_dec_scalar:.1},\n    \"decompress_speedup\": \
             {:.3},\n    \"corpus_ratio\": \
             {corpus_ratio:.4}\n  }},\n  \"store_ratio\": {{\n{ratio_fields}\n  }},\n  \
             \"simulator\": {{\n    \"workload\": \"fft\",\n    \"threads\": 4,\n    \
             \"minstr_per_s\": {sim_rate:.2},\n    \"runs\": {sim_runs}\n  }},\n  \
             \"differential\": {{\n    \"cases\": {cases},\n    \"drift\": {drift}\n  }}\n}}\n",
            corpus.len(),
            crc_fast / crc_scalar.max(f64::MIN_POSITIVE),
            lz_fast / lz_greedy.max(f64::MIN_POSITIVE),
            lz_dec / lz_dec_scalar.max(f64::MIN_POSITIVE),
        );
        std::fs::write(&json_path, json).map_err(|e| QrError::Execution {
            detail: format!("writing {json_path}: {e}"),
        })?;

        if drift > 0 {
            return Err(QrError::Execution {
                detail: format!("hot-path differential drift ({drift}/{cases}): {first_drift}"),
            });
        }
        Ok(out)
    });
    Experiment {
        id: "e13",
        title: "hot-path throughput: fast paths vs reference paths",
        note: "wall-clock rates vary with the host; the differential column is the only \
         pass/fail signal — fast and reference paths must agree byte-for-byte on every \
         recording file (summary written to BENCH_hotpath.json, QR_BENCH_JSON to override)",
        header: vec!["metric".into(), "fast".into(), "reference".into(), "ratio".into()],
        jobs: vec![job],
        footer: Footer::Static(
            "(slice-by-8 CRC and the hash-chain matcher are the production paths; the scalar \
             CRC and greedy matcher exist as references for this differential gate)",
        ),
    }
}

/// E14 — time-travel seek latency versus checkpoint interval: how fast
/// the persisted `checkpoints.qrc` index lands a replayer on an
/// arbitrary timeline event, compared to replaying from scratch.
///
/// Wall-clock (see [`WALL_CLOCK_IDS`]), invoked explicitly. Writes a
/// machine-readable summary to `BENCH_seek.json` (path overridable via
/// `QR_BENCH_JSON`, measurement window via `QR_BENCH_MS`). Like e13,
/// the run *fails* only on differential drift — an indexed seek or
/// query disagreeing with the from-scratch answer — never on a latency
/// threshold, so CI stays immune to host-load flake.
fn e14() -> Experiment {
    let job: Job = Box::new(|cache: &BuildCache| {
        use qr_replay::{CheckpointIndex, QueryEngine, ReplayQuery};

        let ms = std::env::var("QR_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(400)
            .max(1);
        let window = std::time::Duration::from_millis(ms);
        const INTERVALS: [usize; 4] = [4, 8, 16, 32];
        const THREADS: usize = 3;

        // Deterministic seek targets for a timeline: the boundary
        // positions plus a seeded spread. The same targets feed both
        // the drift gate and the latency loop, so the two always talk
        // about the same work.
        let targets_for = |len: usize, seed: u64| -> Vec<usize> {
            let mut rng = qr_common::SplitMix64::new(seed);
            let mut targets = vec![0, len / 2, len.saturating_sub(1)];
            targets.extend((0..8).map(|_| rng.below(len as u64) as usize));
            targets
        };
        // Events an indexed seek to `target` re-executes: the gap back
        // to the nearest checkpoint at or before the target.
        let reexec = |index: &CheckpointIndex, target: usize| -> u64 {
            let floor = index
                .keys
                .iter()
                .take_while(|k| k.position <= target as u64)
                .last()
                .map_or(0, |k| k.position);
            target as u64 - floor
        };

        // Differential drift gate, deterministic and windowless: every
        // indexed seek and query must match the from-scratch engine on
        // several workloads across every interval.
        let mut cases = 0u64;
        let mut drift = 0u64;
        let mut first_drift = String::new();
        for (w, name) in ["fft", "lu", "radix"].iter().enumerate() {
            let spec = qr_workloads::suite::find(name).expect("suite member");
            let program = cache.program(&spec, THREADS, Scale::Test)?;
            let recording = record_workload_with(cache, &spec, THREADS, Scale::Test,
                full_cfg(THREADS))?;
            let scratch = QueryEngine::new(&program, &recording)?;
            let len = scratch.timeline_len();
            for interval in INTERVALS {
                let index = CheckpointIndex::build(&program, &recording, interval)?;
                let mut indexed = QueryEngine::new(&program, &recording)?;
                indexed.attach_index(index)?;
                for target in targets_for(len, 0x5EEC_0DE + w as u64) {
                    cases += 1;
                    let a = indexed.seek(target)?;
                    let b = scratch.seek(target)?;
                    if a.partial_fingerprint() != b.partial_fingerprint()
                        || a.instructions_so_far() != b.instructions_so_far()
                        || a.console_so_far() != b.console_so_far()
                    {
                        drift += 1;
                        if first_drift.is_empty() {
                            first_drift =
                                format!("{name}/interval {interval}: seek {target} diverged");
                        }
                    }
                }
                cases += 1;
                let query = ReplayQuery::ReverseStep { events: (len as u64 / 3).max(1) };
                if indexed.execute(query, None)?.to_bytes()
                    != scratch.execute(query, None)?.to_bytes()
                {
                    drift += 1;
                    if first_drift.is_empty() {
                        first_drift = format!("{name}/interval {interval}: {query} diverged");
                    }
                }
            }
        }

        // Latency measurement on one workload: mean seek time over the
        // rotating target set, from scratch and through each interval.
        let spec = qr_workloads::suite::find("lu").expect("suite member");
        let program = cache.program(&spec, THREADS, Scale::Test)?;
        let recording =
            record_workload_with(cache, &spec, THREADS, Scale::Test, full_cfg(THREADS))?;
        let scratch = QueryEngine::new(&program, &recording)?;
        let len = scratch.timeline_len();
        let targets = targets_for(len, 0x5EEC_0DE);
        let mean_us = |engine: &QueryEngine| {
            let mut next = 0usize;
            let (iters, elapsed) = crate::timing::measure(window, || {
                let target = targets[next % targets.len()];
                next += 1;
                engine.seek(target).expect("benchmark seek")
            });
            elapsed.as_secs_f64() * 1e6 / iters.max(1) as f64
        };

        let scratch_us = mean_us(&scratch);
        let mut out = JobOutput::default();
        out.rows.push(vec![
            "from scratch".into(),
            format!("{scratch_us:.1}"),
            format!("{:.1}", targets.iter().map(|&t| t as f64).sum::<f64>()
                / targets.len() as f64),
            "1.00x".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        let mut interval_fields = Vec::new();
        for interval in INTERVALS {
            let index = CheckpointIndex::build(&program, &recording, interval)?;
            let persisted = index.to_bytes();
            let index_bytes = persisted.len();
            let index_bytes_compressed = qr_store::block::compress(&persisted).len();
            let keyframes = index.keys.iter().filter(|k| k.keyframe).count();
            let checkpoints = index.keys.len();
            let mean_reexec = targets.iter().map(|&t| reexec(&index, t) as f64).sum::<f64>()
                / targets.len() as f64;
            let mut indexed = QueryEngine::new(&program, &recording)?;
            indexed.attach_index(index)?;
            let us = mean_us(&indexed);
            out.rows.push(vec![
                format!("interval {interval}"),
                format!("{us:.1}"),
                format!("{mean_reexec:.1}"),
                format!("{:.2}x", scratch_us / us.max(f64::MIN_POSITIVE)),
                index_bytes.to_string(),
                index_bytes_compressed.to_string(),
                format!("{keyframes}/{checkpoints}"),
            ]);
            interval_fields.push(format!(
                "    {{ \"interval\": {interval}, \"mean_seek_us\": {us:.2}, \
                 \"mean_reexec_events\": {mean_reexec:.2}, \"index_bytes\": {index_bytes}, \
                 \"index_bytes_compressed\": {index_bytes_compressed}, \
                 \"keyframes\": {keyframes}, \"checkpoints\": {checkpoints} }}"
            ));
        }
        out.rows.push(vec![
            "differential".into(),
            format!("{cases} cases"),
            format!("{drift} drift"),
            if drift == 0 { "PASS".into() } else { "FAIL".into() },
            "-".into(),
            "-".into(),
            "-".into(),
        ]);

        let json_path =
            std::env::var("QR_BENCH_JSON").unwrap_or_else(|_| "BENCH_seek.json".into());
        let json = format!(
            "{{\n  \"experiment\": \"e14\",\n  \"bench_ms\": {ms},\n  \"workload\": \"lu\",\n\
             \x20 \"threads\": {THREADS},\n  \"timeline_len\": {len},\n  \
             \"scratch_seek_us\": {scratch_us:.2},\n  \"intervals\": [\n{}\n  ],\n  \
             \"differential\": {{\n    \"cases\": {cases},\n    \"drift\": {drift}\n  }}\n}}\n",
            interval_fields.join(",\n"),
        );
        std::fs::write(&json_path, json).map_err(|e| QrError::Execution {
            detail: format!("writing {json_path}: {e}"),
        })?;

        if drift > 0 {
            return Err(QrError::Execution {
                detail: format!("time-travel seek drift ({drift}/{cases}): {first_drift}"),
            });
        }
        Ok(out)
    });
    Experiment {
        id: "e14",
        title: "time-travel seek latency vs checkpoint interval",
        note: "wall-clock latencies vary with the host; the differential row is the only \
         pass/fail signal — indexed seeks and queries must match the from-scratch engine \
         (summary written to BENCH_seek.json, QR_BENCH_JSON to override)",
        header: vec![
            "configuration".into(),
            "mean seek us".into(),
            "mean reexec events".into(),
            "speedup".into(),
            "index bytes".into(),
            "compressed".into(),
            "keyframes".into(),
        ],
        jobs: vec![job],
        footer: Footer::Static(
            "(the interval trades sidecar bytes for seek latency: smaller intervals re-execute \
             fewer events per seek but persist more checkpoints; every 16th is a full snapshot, \
             the rest memory deltas — see DESIGN.md, decision 12)",
        ),
    }
}

/// E15 — ordering-log cost versus core count: the bytes each ordering
/// authority needs per recorded instruction as the same 16-thread
/// workloads run on a machine growing from 2 to 16 cores. Total order
/// serializes the global chunk timestamps (delta-varint over the
/// replay schedule, the minimal encoding of that authority); partial
/// order serializes `order.qrp` — explicit happens-before edges only.
/// More cores mean more concurrency and therefore more chunk splits —
/// every one of which needs a timestamp — while the edge set tracks
/// the program's actual communication, which core count does not
/// change.
///
/// Wall-clock (see [`WALL_CLOCK_IDS`]) because it also reports record
/// wall time, so it is invoked explicitly. Writes a machine-readable
/// summary to `BENCH_order.json` (path overridable via
/// `QR_BENCH_JSON`). Like e13/e14, the run *fails* only on
/// deterministic gates — a partial-order replay fingerprint diverging
/// from the total-order replay of the same seeded execution, or the
/// partial-order bytes/instr growing 2→16 cores at least as fast as
/// the total-order bytes/instr — never on a time threshold, so CI
/// stays immune to host-load flake.
fn e15() -> Experiment {
    let job: Job = Box::new(|cache: &BuildCache| {
        use qr_common::varint;

        let core_counts = [2usize, 4, 8, 16];
        let threads = 16usize;
        let names = ["fft", "lu", "radix"];

        struct Point {
            cores: usize,
            instructions: u64,
            total_bytes: usize,
            partial_bytes: usize,
            edges: usize,
            total_ms: f64,
            partial_ms: f64,
            drift: u64,
        }
        let mut points = Vec::new();
        let mut cases = 0u64;
        let mut first_drift = String::new();

        for cores in core_counts {
            let mut point = Point {
                cores,
                instructions: 0,
                total_bytes: 0,
                partial_bytes: 0,
                edges: 0,
                total_ms: 0.0,
                partial_ms: 0.0,
                drift: 0,
            };
            for name in names {
                let spec = qr_workloads::suite::find(name).expect("suite member");
                let program = cache.program(&spec, threads, Scale::Small)?;

                let started = std::time::Instant::now();
                let total =
                    record_workload_with(cache, &spec, threads, Scale::Small, RecordingConfig::with_cores(cores))?;
                point.total_ms += started.elapsed().as_secs_f64() * 1e3;

                let mut cfg = RecordingConfig::with_cores(cores);
                cfg.order = OrderMode::PartialOrder;
                let started = std::time::Instant::now();
                let partial = record_workload_with(cache, &spec, threads, Scale::Small, cfg)?;
                point.partial_ms += started.elapsed().as_secs_f64() * 1e3;

                // Total-order ordering bytes: the global timestamps in
                // schedule order, delta-varint coded.
                let mut ts_bytes = Vec::new();
                let mut prev = 0u64;
                for packet in total.chunks.replay_schedule()? {
                    varint::write_u64(&mut ts_bytes, packet.timestamp.0 - prev);
                    prev = packet.timestamp.0;
                }
                let order = partial.order.as_ref().expect("partial-order recording");
                point.instructions += total.instructions;
                point.total_bytes += ts_bytes.len();
                point.partial_bytes += order.byte_size();
                point.edges += order.edges().len();

                // Drift gate: the partial-order replay must land on the
                // total-order fingerprint of the same seeded execution.
                cases += 1;
                let serial = qr_replay::replay(&program, &total)?;
                match qr_replay::replay_ordered_and_verify(&program, &partial, 2) {
                    Ok(outcome) if outcome.fingerprint == serial.fingerprint => {}
                    Ok(outcome) => {
                        point.drift += 1;
                        if first_drift.is_empty() {
                            first_drift = format!(
                                "{name}@{cores}c: ordered fingerprint {:#018x} != total {:#018x}",
                                outcome.fingerprint, serial.fingerprint
                            );
                        }
                    }
                    Err(e) => {
                        point.drift += 1;
                        if first_drift.is_empty() {
                            first_drift = format!("{name}@{cores}c: ordered replay failed: {e}");
                        }
                    }
                }
            }
            points.push(point);
        }

        let per_kinstr = |bytes: usize, instr: u64| 1e3 * bytes as f64 / instr.max(1) as f64;
        let drift: u64 = points.iter().map(|p| p.drift).sum();

        // Growth gate: scaling 2→16 cores must cost partial order
        // strictly less relative byte growth than total order. Both
        // series are deterministic (seeded executions), so this gate is
        // as replayable as the fingerprint one.
        let growth = |bytes: fn(&Point) -> usize| {
            let lo = &points[0];
            let hi = &points[points.len() - 1];
            per_kinstr(bytes(hi), hi.instructions) / per_kinstr(bytes(lo), lo.instructions)
        };
        let total_growth = growth(|p| p.total_bytes);
        let partial_growth = growth(|p| p.partial_bytes);
        let growth_ok = partial_growth < total_growth;

        let mut out = JobOutput::default();
        for p in &points {
            out.rows.push(vec![
                p.cores.to_string(),
                format!("{} ({:.2})", p.total_bytes, per_kinstr(p.total_bytes, p.instructions)),
                format!("{} ({:.2})", p.partial_bytes, per_kinstr(p.partial_bytes, p.instructions)),
                p.edges.to_string(),
                format!("{:.2}x", p.partial_bytes as f64 / p.total_bytes.max(1) as f64),
                format!("{:.0}/{:.0}", p.total_ms, p.partial_ms),
                if p.drift == 0 { "PASS".into() } else { format!("{} DRIFT", p.drift) },
            ]);
        }
        out.rows.push(vec![
            "growth 2→16".into(),
            format!("{total_growth:.2}x"),
            format!("{partial_growth:.2}x"),
            "-".into(),
            "-".into(),
            "-".into(),
            if growth_ok { "PASS".into() } else { "FAIL".into() },
        ]);

        // Machine-readable summary, hand-rolled JSON (no external crates).
        let json_path =
            std::env::var("QR_BENCH_JSON").unwrap_or_else(|_| "BENCH_order.json".into());
        let point_fields = points
            .iter()
            .map(|p| {
                format!(
                    "    {{\n      \"cores\": {},\n      \"instructions\": {},\n      \
                     \"total_order_bytes\": {},\n      \"total_order_bytes_per_kinstr\": \
                     {:.4},\n      \"partial_order_bytes\": {},\n      \
                     \"partial_order_bytes_per_kinstr\": {:.4},\n      \"edges\": {},\n      \
                     \"record_ms_total_order\": {:.1},\n      \"record_ms_partial_order\": \
                     {:.1},\n      \"drift\": {}\n    }}",
                    p.cores,
                    p.instructions,
                    p.total_bytes,
                    per_kinstr(p.total_bytes, p.instructions),
                    p.partial_bytes,
                    per_kinstr(p.partial_bytes, p.instructions),
                    p.edges,
                    p.total_ms,
                    p.partial_ms,
                    p.drift,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let json = format!(
            "{{\n  \"experiment\": \"e15\",\n  \"workloads\": [\"fft\", \"lu\", \"radix\"],\n  \
             \"threads\": 16,\n  \
             \"core_counts\": [2, 4, 8, 16],\n  \"points\": [\n{point_fields}\n  ],\n  \
             \"growth_2_to_16\": {{\n    \"total_order\": {total_growth:.4},\n    \
             \"partial_order\": {partial_growth:.4},\n    \"partial_grows_slower\": {growth_ok}\n  \
             }},\n  \"drift\": {{\n    \"cases\": {cases},\n    \"drift\": {drift}\n  }}\n}}\n",
        );
        std::fs::write(&json_path, json).map_err(|e| QrError::Execution {
            detail: format!("writing {json_path}: {e}"),
        })?;

        if drift > 0 {
            return Err(QrError::Execution {
                detail: format!("ordering drift ({drift}/{cases}): {first_drift}"),
            });
        }
        if !growth_ok {
            return Err(QrError::Execution {
                detail: format!(
                    "partial-order bytes/instr grew {partial_growth:.2}x from 2 to 16 cores, \
                     total order only {total_growth:.2}x"
                ),
            });
        }
        Ok(out)
    });
    Experiment {
        id: "e15",
        title: "ordering-log bytes vs core count: total order vs partial order",
        note: "bytes column shows total (bytes/kinstr); wall times vary with the host; the \
         drift and growth columns are the only pass/fail signals (summary written to \
         BENCH_order.json, QR_BENCH_JSON to override)",
        header: vec!["cores".into(), "total-order B".into(), "partial-order B".into(),
            "edges".into(), "partial/total".into(), "rec ms t/p".into(), "gate".into()],
        jobs: vec![job],
        footer: Footer::Static(
            "(total order serializes every chunk's global timestamp; partial order only the \
             happens-before edges that constrain replay, so its cost tracks actual sharing, \
             not core count)",
        ),
    }
}

/// E16 — daemon concurrency: one `quickrecd` multiplexing a thousand
/// live connections on a handful of event workers, with Busy
/// backpressure under saturation and fetch results byte-identical to a
/// sequential local recording.
fn e16() -> Experiment {
    let job: Job = Box::new(|cache: &BuildCache| {
        use qr_server::proto::{Endpoint, Request, Response};
        use qr_server::Client;

        let env_count = |name: &str, default: usize| {
            std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
        };
        let conns = env_count("QR_BENCH_CONNS", 1100).max(4);
        let jobs = env_count("QR_BENCH_JOBS", 64).clamp(1, conns);
        // An external daemon (spawned by verify.sh / CI) owns its own
        // lifecycle and configuration; in-process we pick a queue the
        // default burst must overflow so the Busy path is exercised.
        let external = std::env::var("QR_E16_SOCKET").ok();
        let queue_capacity = 16usize;
        let workers = 2usize;

        let dir = std::env::temp_dir().join(format!("qr-e16-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| QrError::Execution {
            detail: format!("scratch dir: {e}"),
        })?;
        let (endpoint, handle) = match &external {
            Some(path) => (Endpoint::Unix(path.into()), None),
            None => {
                let endpoint = Endpoint::Unix(dir.join("qd.sock"));
                let config = qr_server::ServerConfig {
                    workers,
                    shards: workers,
                    queue_capacity,
                    store_root: dir.join("store"),
                    event_workers: 2,
                    // Exactly the fleet size: every connection beyond
                    // the fleet must be refused with Busy at accept.
                    max_connections: conns,
                };
                let handle = qr_server::Server::start(&endpoint, &config)?;
                (endpoint, Some(handle))
            }
        };

        // Phase 1: open the whole fleet and keep every stream alive.
        let started = std::time::Instant::now();
        let mut clients = Vec::with_capacity(conns);
        clients.push(Client::connect_with_retry(&endpoint, std::time::Duration::from_secs(10))?);
        for _ in 1..conns {
            clients.push(Client::connect(&endpoint)?);
        }
        let connect_ms = started.elapsed().as_secs_f64() * 1e3;

        // Phase 2: one PING round trip on every open connection — each
        // must answer while all the others stay connected.
        let started = std::time::Instant::now();
        for (i, client) in clients.iter_mut().enumerate() {
            client.ping().map_err(|e| QrError::Execution {
                detail: format!("ping on connection {i} of {conns}: {e}"),
            })?;
        }
        let ping_ms = started.elapsed().as_secs_f64() * 1e3;

        // Phase 3: burst RECORD submissions over distinct connections.
        // Every one gets a framed answer: Submitted or a clean Busy.
        let started = std::time::Instant::now();
        let mut accepted = Vec::new();
        let mut busy = 0usize;
        for i in 0..jobs {
            let client = &mut clients[i % conns];
            match client.call(&Request::SubmitWorkload {
                name: format!("e16-{i}"),
                workload: "fft".into(),
                threads: 2,
                scale: Scale::Test,
                encoding: Encoding::Delta,
                order: OrderMode::TotalOrder,
            })? {
                Response::Submitted { id } => accepted.push(id),
                Response::Busy { .. } => busy += 1,
                other => {
                    return Err(QrError::Execution {
                        detail: format!("submission {i}: unexpected response {other:?}"),
                    })
                }
            }
        }
        if accepted.len() + busy != jobs || accepted.is_empty() {
            return Err(QrError::Execution {
                detail: format!(
                    "burst of {jobs} answered {} Submitted + {busy} Busy",
                    accepted.len()
                ),
            });
        }
        if external.is_none() && jobs > queue_capacity + workers && busy == 0 {
            return Err(QrError::Execution {
                detail: format!(
                    "a {jobs}-burst against a {queue_capacity}-deep queue never saw Busy"
                ),
            });
        }
        for &id in &accepted {
            clients[0].wait_for(id, std::time::Duration::from_secs(600))?;
        }
        let jobs_ms = started.elapsed().as_secs_f64() * 1e3;

        // Phase 4: fidelity gate. A sample of the daemon's recordings
        // must be byte-identical to one sequential local recording of
        // the same seeded workload (the daemon adds its checkpoint
        // sidecar on top; every file the local run produces must match).
        let spec = suite::find("fft").expect("suite member");
        let reference =
            record_workload_with(cache, &spec, 2, Scale::Test, RecordingConfig::with_cores(2))?;
        let ref_dir = dir.join("reference");
        std::fs::create_dir_all(&ref_dir).map_err(|e| QrError::Execution {
            detail: format!("reference dir: {e}"),
        })?;
        reference.save(&ref_dir, Encoding::Delta)?;
        let mut ref_files = Vec::new();
        for entry in std::fs::read_dir(&ref_dir).map_err(|e| QrError::Execution {
            detail: format!("reference dir: {e}"),
        })? {
            let entry = entry.map_err(|e| QrError::Execution { detail: e.to_string() })?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(entry.path())
                .map_err(|e| QrError::Execution { detail: format!("{name}: {e}") })?;
            ref_files.push((name, bytes));
        }

        let mut cases = 0u64;
        let mut drift = 0u64;
        let mut first_drift = String::new();
        let mut note_drift = |detail: String, drift: &mut u64| {
            *drift += 1;
            if first_drift.is_empty() {
                first_drift = detail;
            }
        };
        for &id in accepted.iter().take(8) {
            cases += 1;
            let Response::Fetched { files, fingerprint } =
                clients[0].call(&Request::Fetch { id })?
            else {
                note_drift(format!("session {id}: fetch refused"), &mut drift);
                continue;
            };
            if fingerprint != reference.fingerprint {
                note_drift(
                    format!(
                        "session {id}: fingerprint {fingerprint:#018x} != local \
                         {:#018x}",
                        reference.fingerprint
                    ),
                    &mut drift,
                );
                continue;
            }
            for (name, bytes) in &ref_files {
                let fetched = match files.iter().find(|(n, _)| n == name) {
                    Some((_, fetched)) => fetched,
                    None => {
                        note_drift(format!("session {id}: {name} missing"), &mut drift);
                        continue;
                    }
                };
                // The daemon legitimately rewrites the format manifest
                // to list its checkpoint sidecar; every other file must
                // be byte-identical to the local recording.
                if name == "format.qrv" {
                    use qr_common::frame::PayloadKind;
                    let mut expected = qr_capo::FormatManifest::from_bytes(bytes)?;
                    if !expected.payloads.contains(&PayloadKind::CheckpointIndex) {
                        expected.payloads.push(PayloadKind::CheckpointIndex);
                        expected.payloads.sort_by_key(|k| k.code());
                    }
                    if fetched != &expected.to_bytes() && fetched != bytes {
                        note_drift(
                            format!("session {id}: {name} differs beyond the sidecar entry"),
                            &mut drift,
                        );
                    }
                } else if fetched != bytes {
                    note_drift(
                        format!("session {id}: {name} differs from the local bytes"),
                        &mut drift,
                    );
                }
            }
        }

        // Phase 5 (in-process only): the accept path refuses connection
        // number max_connections+1 with a framed Busy, never a hang.
        let mut refused = 0usize;
        if external.is_none() {
            for i in 0..8 {
                match Client::connect(&endpoint) {
                    Err(_) => refused += 1,
                    Ok(mut extra) => match extra.ping() {
                        Err(_) => refused += 1,
                        Ok(()) => {
                            return Err(QrError::Execution {
                                detail: format!(
                                    "overload probe {i} was served with {conns} \
                                     connections already open (max_connections={conns})"
                                ),
                            })
                        }
                    },
                }
            }
        }

        // Phase 6: the event loop's own instrumentation is live.
        let metrics = clients[0].metrics()?;
        for family in ["qr_server_event_loop_wakeups_total", "qr_server_open_connections"] {
            if !metrics.contains(family) {
                return Err(QrError::Execution {
                    detail: format!("metrics exposition is missing `{family}`"),
                });
            }
        }

        // Phase 7 (in-process only): hang up everywhere; the gauge must
        // drain to exactly zero, then shut the daemon down.
        drop(clients);
        if let Some(handle) = handle {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while handle.open_connections() != 0 {
                if std::time::Instant::now() >= deadline {
                    return Err(QrError::Execution {
                        detail: format!(
                            "open-connections gauge stuck at {} after the fleet hung up",
                            handle.open_connections()
                        ),
                    });
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            handle.shutdown();
            handle.wait();
        }

        let mut out = JobOutput::default();
        out.rows.push(vec![
            "connections".into(),
            conns.to_string(),
            "held open concurrently on one daemon".into(),
        ]);
        out.rows.push(vec![
            "connect".into(),
            format!("{connect_ms:.0} ms"),
            format!("{:.0} conns/s", conns as f64 / (connect_ms / 1e3).max(1e-9)),
        ]);
        out.rows.push(vec![
            "ping sweep".into(),
            format!("{ping_ms:.0} ms"),
            format!("every one of {conns} connections answered"),
        ]);
        out.rows.push(vec![
            "submissions".into(),
            jobs.to_string(),
            format!("{} accepted, {busy} busy (all framed)", accepted.len()),
        ]);
        out.rows.push(vec![
            "jobs drained".into(),
            format!("{jobs_ms:.0} ms"),
            format!("{} RECORD jobs to Done", accepted.len()),
        ]);
        out.rows.push(vec![
            "overload probe".into(),
            refused.to_string(),
            if external.is_some() {
                "skipped (external daemon)".into()
            } else {
                format!("refused past max_connections={conns}")
            },
        ]);
        out.rows.push(vec![
            "fidelity".into(),
            format!("{cases} sessions"),
            if drift == 0 { "PASS (byte-identical to local)".into() }
            else { format!("{drift} DRIFT") },
        ]);

        // Machine-readable summary, hand-rolled JSON (no external crates).
        let json_path =
            std::env::var("QR_BENCH_JSON").unwrap_or_else(|_| "BENCH_daemon.json".into());
        let json = format!(
            "{{\n  \"experiment\": \"e16\",\n  \"connections\": {conns},\n  \
             \"event_workers\": 2,\n  \"external_daemon\": {},\n  \
             \"connect_ms\": {connect_ms:.1},\n  \
             \"connects_per_sec\": {:.1},\n  \"ping_sweep_ms\": {ping_ms:.1},\n  \
             \"submissions\": {jobs},\n  \"accepted\": {},\n  \"busy\": {busy},\n  \
             \"refused_at_accept\": {refused},\n  \"jobs_wall_ms\": {jobs_ms:.1},\n  \
             \"fidelity\": {{\n    \"cases\": {cases},\n    \"drift\": {drift}\n  }}\n}}\n",
            external.is_some(),
            conns as f64 / (connect_ms / 1e3).max(1e-9),
            accepted.len(),
        );
        std::fs::write(&json_path, json).map_err(|e| QrError::Execution {
            detail: format!("writing {json_path}: {e}"),
        })?;
        std::fs::remove_dir_all(&dir).ok();

        if drift > 0 {
            return Err(QrError::Execution {
                detail: format!("fetch drift ({drift} in {cases} sessions): {first_drift}"),
            });
        }
        Ok(out)
    });
    Experiment {
        id: "e16",
        title: "daemon concurrency: multiplexed sessions on the event-driven listener",
        note: "QR_BENCH_CONNS connections (default 1100) and QR_BENCH_JOBS submissions \
         (default 64) against one daemon; wall times vary with the host — the fidelity \
         drift, framed-answer and accounting gates are the pass/fail signals (summary \
         written to BENCH_daemon.json, QR_BENCH_JSON to override; QR_E16_SOCKET points \
         at an externally spawned daemon)",
        header: vec!["metric".into(), "value".into(), "detail".into()],
        jobs: vec![job],
        footer: Footer::Static(
            "(a fixed crew of event workers multiplexes every connection with poll(2); \
             the bounded worker pool still runs the CPU-bound jobs, so saturation shows \
             up as clean Busy answers, not stalled connections)",
        ),
    }
}

/// A1 — signature-size ablation.
fn a1() -> Experiment {
    let mut jobs: Vec<Job> = Vec::new();
    for name in ["radix", "ocean"] {
        let spec = qr_workloads::suite::find(name).expect("suite member");
        for bits in [256u32, 512, 1024, 2048, 8192] {
            jobs.push(Box::new(move |cache: &BuildCache| {
                let mut cfg = full_cfg(4);
                cfg.mrr = MrrConfig {
                    read_sig_bits: bits,
                    write_sig_bits: bits / 2,
                    track_exact_sets: true,
                    ..MrrConfig::default()
                };
                let r = record_workload_with(cache, &spec, 4, Scale::Small, cfg)?;
                Ok(JobOutput::row([
                    name.to_string(),
                    bits.to_string(),
                    r.chunks.len().to_string(),
                    format!("{:.0}", r.recorder_stats.mean_chunk_size()),
                    r.recorder_stats.conflict_chunks().to_string(),
                    r.recorder_stats.false_positive_conflicts.to_string(),
                ]))
            }));
        }
    }
    Experiment {
        id: "a1",
        title: "ablation: signature size vs chunk length and false positives",
        note: "smaller signatures saturate earlier and alias more; expect chunk sizes to grow with bits",
        header: vec!["workload".into(), "sig bits".into(), "chunks".into(),
            "mean chunk".into(), "conflict chunks".into(), "false-pos conflicts".into()],
        jobs,
        footer: Footer::None,
    }
}

/// A2 — CBUF-capacity ablation.
fn a2() -> Experiment {
    let mut jobs: Vec<Job> = Vec::new();
    for name in ["radix", "fft"] {
        let spec = qr_workloads::suite::find(name).expect("suite member");
        for (entries, drain) in [(1usize, 512u64), (2, 256), (4, 64), (64, 16)] {
            jobs.push(Box::new(move |cache: &BuildCache| {
                let native = run_native_workload_with(cache, &spec, 4, Scale::Small)?;
                let mut cfg = hw_cfg(4);
                cfg.mrr.cbuf_entries = entries;
                cfg.mrr.cbuf_drain_cycles = drain;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, cfg)?;
                Ok(JobOutput::row([
                    name.to_string(),
                    entries.to_string(),
                    drain.to_string(),
                    r.overhead.hw_stall_cycles.to_string(),
                    format!("{:.3}%", overhead_pct(r.cycles, native.cycles)),
                ]))
            }));
        }
    }
    Experiment {
        id: "a2",
        title: "ablation: CBUF capacity vs hardware stalls",
        note: "the only hardware overhead source; stalls appear only when the buffer is starved",
        header: vec!["workload".into(), "cbuf entries".into(), "drain cyc/pkt".into(),
            "stall cycles".into(), "hw overhead".into()],
        jobs,
        footer: Footer::None,
    }
}

/// A3 — TSO-mode ablation.
fn a3() -> Experiment {
    let mut jobs: Vec<Job> = Vec::new();
    for name in ["fft", "water", "radiosity"] {
        let spec = qr_workloads::suite::find(name).expect("suite member");
        for mode in [TsoMode::DrainAtChunk, TsoMode::Rsw] {
            jobs.push(Box::new(move |cache: &BuildCache| {
                let mut cfg = full_cfg(4);
                cfg.cpu.mem.tso_mode = mode;
                cfg.cpu.drain_interval = 8;
                // A small chunk-size cap forces hardware (ic-overflow) chunk
                // closings, where the two modes actually differ.
                cfg.mrr.max_chunk_icount = 400;
                let program = cache.program(&spec, 4, Scale::Small)?;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, cfg)?;
                let verdict = match qr_replay::replay_and_verify(&program, &r) {
                    Ok(_) => "PASS",
                    Err(_) => "FAIL",
                };
                Ok(JobOutput::row([
                    name.to_string(),
                    format!("{mode:?}"),
                    r.chunks.len().to_string(),
                    r.recorder_stats.chunks_with_rsw.to_string(),
                    r.chunks.to_bytes(Encoding::Delta).len().to_string(),
                    verdict.to_string(),
                ]))
            }));
        }
    }
    Experiment {
        id: "a3",
        title: "ablation: DrainAtChunk vs Rsw",
        note: "draining at hardware chunk boundaries removes RSW at a small cost; both modes replay exactly",
        header: vec!["workload".into(), "mode".into(), "chunks".into(), "rsw>0".into(),
            "log bytes".into(), "replay".into()],
        jobs,
        footer: Footer::None,
    }
}

/// A5 — store-buffer drain-interval ablation.
fn a5() -> Experiment {
    let mut jobs: Vec<Job> = Vec::new();
    for name in ["fft", "water"] {
        let spec = qr_workloads::suite::find(name).expect("suite member");
        for interval in [1u64, 4, 16, 64] {
            jobs.push(Box::new(move |cache: &BuildCache| {
                let mut cfg = full_cfg(4);
                cfg.cpu.mem.tso_mode = TsoMode::Rsw;
                cfg.cpu.drain_interval = interval;
                let program = cache.program(&spec, 4, Scale::Small)?;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, cfg)?;
                let verdict = match qr_replay::replay_and_verify(&program, &r) {
                    Ok(_) => "PASS",
                    Err(_) => "FAIL",
                };
                Ok(JobOutput::row([
                    name.to_string(),
                    interval.to_string(),
                    r.chunks.len().to_string(),
                    r.recorder_stats.chunks_with_rsw.to_string(),
                    pct(r.recorder_stats.chunks_with_rsw, r.chunks.len() as u64),
                    verdict.to_string(),
                ]))
            }));
        }
    }
    Experiment {
        id: "a5",
        title: "ablation: background drain interval vs TSO reordering",
        note: "slower drains leave more stores pending at chunk boundaries (larger RSW footprint)",
        header: vec!["workload".into(), "drain 1/N".into(), "chunks".into(), "rsw>0".into(),
            "% with rsw".into(), "replay".into()],
        jobs,
        footer: Footer::None,
    }
}

/// A6 — scheduling-quantum ablation.
fn a6() -> Experiment {
    let spec = qr_workloads::suite::find("lu").expect("suite member");
    let jobs: Vec<Job> = [1_000u64, 5_000, 20_000, 100_000]
        .into_iter()
        .map(|quantum| {
            Box::new(move |cache: &BuildCache| {
                let mut cfg = full_cfg(2); // 4 threads on 2 cores
                cfg.os.quantum_cycles = quantum;
                let program = cache.program(&spec, 4, Scale::Small)?;
                let r = record_workload_with(cache, &spec, 4, Scale::Small, cfg)?;
                let verdict = match qr_replay::replay_and_verify(&program, &r) {
                    Ok(_) => "PASS",
                    Err(_) => "FAIL",
                };
                let ctx = r.recorder_stats.chunks_by_reason
                    [TerminationReason::ContextSwitch.code() as usize];
                Ok(JobOutput::row([
                    quantum.to_string(),
                    ctx.to_string(),
                    r.chunks.len().to_string(),
                    r.overhead.total().to_string(),
                    verdict.to_string(),
                ]))
            }) as Job
        })
        .collect();
    Experiment {
        id: "a6",
        title: "ablation: scheduling quantum vs context-switch chunks and overhead",
        note: "threads > cores: shorter quanta force more recorder save/restores",
        header: vec!["quantum".into(), "ctx-switch chunks".into(), "chunks".into(),
            "overhead cycles".into(), "replay".into()],
        jobs,
        footer: Footer::None,
    }
}

/// R1 — log fault injection (the robustness contract of the framed
/// format and salvage replay).
fn r1() -> Experiment {
    use crate::fault::{self, Mutator};
    let workloads = ["fft", "water", "radix", "lu"];
    let combos: Vec<(WorkloadSpec, Encoding, Mutator)> = workloads
        .iter()
        .map(|name| qr_workloads::suite::find(name).expect("suite member"))
        .flat_map(|spec| {
            Encoding::ALL.iter().flat_map(move |&encoding| {
                Mutator::ALL.iter().map(move |&mutator| (spec, encoding, mutator))
            })
        })
        .collect();
    // The case budget is captured at plan time (the CLI sets it before
    // planning); each job then owns a fixed share, keyed RNG and all.
    let total = fault::fuzz_cases();
    let n_jobs = combos.len();
    let jobs: Vec<Job> = combos
        .into_iter()
        .enumerate()
        .map(|(i, (spec, encoding, mutator))| {
            let cases = total / n_jobs + usize::from(i < total % n_jobs);
            Box::new(move |cache: &BuildCache| {
                fault::fuzz_job(cache, &spec, encoding, mutator, cases)
            }) as Job
        })
        .collect();
    Experiment {
        id: "r1",
        title: "log fault injection: mutated recordings never panic, always salvage a true prefix",
        note: "per-job SplitMix64 streams keyed by (workload, encoding, mutator); every case asserts \
         strict decode rejects or the salvaged replay prefix-matches the clean run",
        header: vec!["workload".into(), "encoding".into(), "mutator".into(), "cases".into(),
            "rejected".into(), "decoded".into(), "mean salvaged".into()],
        jobs,
        footer: Footer::MeanStat(|mean| {
            format!("mean salvaged-timeline fraction: {:.1}% (0 panics, all prefixes verified)",
                100.0 * mean)
        }),
    }
}
