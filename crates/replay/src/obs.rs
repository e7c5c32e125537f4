//! Replay metrics, declared as [`qr_obs::Metric`] statics: serial vs
//! parallel scheduler traffic, DAG stalls, ready-queue occupancy, and
//! store-buffer activity. Observational only — replay outcomes and
//! fingerprints never read these back (see the determinism rule in
//! `qr-obs`).

use qr_obs::{Counter, Histogram, Metric};

/// Series index of the `mode="serial"` label.
pub(crate) const SERIAL: usize = 0;
/// Series index of the `mode="parallel"` label.
pub(crate) const PARALLEL: usize = 1;

pub(crate) static RUNS: Metric<Counter, 2> = Metric::counters(
    "qr_replay_runs_total",
    "Replay runs, by scheduler mode",
    "mode",
    || ["serial", "parallel"],
);

pub(crate) static NODES: Metric<Counter, 2> = Metric::counters(
    "qr_replay_nodes_total",
    "Timeline events executed, by scheduler mode",
    "mode",
    || ["serial", "parallel"],
);

pub(crate) static DAG_STALLS: Metric<Counter> = Metric::counter(
    "qr_replay_dag_stalls_total",
    "Parallel workers that blocked waiting for a ready DAG node",
);

/// The scheduler's occupancy signal: a deep queue means workers are
/// starved for slots, depth 0 after a pop means the DAG's critical path
/// is binding.
pub(crate) static READY_QUEUE_DEPTH: Metric<Histogram> = Metric::histogram(
    "qr_replay_ready_queue_depth",
    "Ready-queue depth observed at each parallel dispatch",
    &[1, 2, 4, 8, 16, 32, 64, 128, 256],
);

/// Series index of lines pulled canonical → lane before a node runs.
pub(crate) const PULLED: usize = 0;
/// Series index of lines pushed lane → canonical after a node runs.
pub(crate) const PUSHED: usize = 1;

pub(crate) static LINES: Metric<Counter, 2> = Metric::counters(
    "qr_replay_lines_total",
    "Cache lines copied between lanes and canonical memory",
    "direction",
    || ["pulled", "pushed"],
);

/// A corrupt or mismatched index degrades silently to from-scratch
/// replay; this counter is the only way to see it.
pub(crate) static INDEX_CORRUPT: Metric<Counter> = Metric::counter(
    "qr_replay_index_corrupt_total",
    "Persisted checkpoint indexes rejected and degraded to from-scratch replay",
);

/// Indexed by whether a persisted checkpoint cut the re-execution
/// distance.
pub(crate) static SEEKS: Metric<Counter, 2> = Metric::counters(
    "qr_replay_seeks_total",
    "Time-travel seeks, by whether a checkpoint index was used",
    "source",
    || ["scratch", "index"],
);

pub(crate) static ORDER_RECONSTRUCT: Metric<Histogram> = Metric::histogram(
    "qr_replay_order_reconstruct_us",
    "Microseconds spent rebuilding the replay DAG from a recorded order log",
    qr_obs::LATENCY_US,
);

pub(crate) static STORE_BUFFER_DRAINS: Metric<Counter> = Metric::counter(
    "qr_replay_store_buffer_drains_total",
    "Chunk-boundary store-buffer drains during replay",
);

#[cfg(test)]
mod tests {
    use super::*;

    /// Touches every family once, so hard-to-trigger ones (corrupt
    /// index) are pinned too.
    #[test]
    fn metric_catalog_is_pinned() {
        RUNS.inc_at(SERIAL);
        NODES.add_at(SERIAL, 1);
        DAG_STALLS.inc();
        READY_QUEUE_DEPTH.observe(1);
        LINES.add_at(PULLED, 1);
        INDEX_CORRUPT.inc();
        SEEKS.inc_at(1);
        ORDER_RECONSTRUCT.observe_since(qr_obs::clock());
        STORE_BUFFER_DRAINS.inc();
        let text = qr_obs::global().render();
        assert_eq!(qr_obs::catalog(&text, &["qr_replay_"]), include_str!("obs_catalog.txt"));
    }
}
