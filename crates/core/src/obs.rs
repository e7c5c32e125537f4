//! Recorder metrics, declared as [`qr_obs::Metric`] statics.
//!
//! Everything here is observational — values never feed back into the
//! recording (see the determinism rule in `qr-obs`).

use qr_obs::{Counter, Gauge, Histogram, Metric};

use crate::chunk::TerminationReason;
use crate::encoding::Encoding;
use crate::po::{DeriveStats, EdgeKind};

/// Indexed by [`TerminationReason::code`].
pub(crate) static CHUNKS: Metric<Counter, { TerminationReason::ALL.len() }> = Metric::counters(
    "qr_recorder_chunks_total",
    "Chunks emitted, by termination reason",
    "reason",
    || TerminationReason::ALL.map(TerminationReason::label),
);

pub(crate) static CHUNK_SIZE: Metric<Histogram> = Metric::histogram(
    "qr_recorder_chunk_size_insns",
    "Chunk sizes in user instructions",
    &[16, 64, 256, 1024, 4096, 16384, 65536, 262_144],
);

/// Indexed by [`Encoding::tag`].
pub(crate) static LOG_BYTES: Metric<Counter, { Encoding::ALL.len() }> = Metric::counters(
    "qr_recorder_log_bytes_total",
    "Serialized chunk-log bytes, by encoding",
    "encoding",
    || Encoding::ALL.map(Encoding::name),
);

/// The implicit program order, then every logged [`EdgeKind`], in the
/// order [`order_derived`] adds them.
static PO_EDGES: Metric<Counter, { EdgeKind::ALL.len() + 1 }> = Metric::counters(
    "qr_core_po_edges_total",
    "Partial-order happens-before edges derived, by kind",
    "kind",
    || ["program", EdgeKind::Conflict.label(), EdgeKind::Spawn.label(), EdgeKind::Input.label()],
);

pub(crate) static ORDER_REJECTS: Metric<Counter> = Metric::counter(
    "qr_core_po_rejects_total",
    "Order-log decodes that found corruption (strict reject or salvage stop)",
);

pub(crate) static ORDER_LOG_BYTES: Metric<Gauge> = Metric::gauge(
    "qr_core_po_log_bytes",
    "Serialized partial-order log size in bytes (last derivation)",
);

/// Accounts one partial-order derivation.
pub(crate) fn order_derived(stats: &DeriveStats) {
    let counts = [stats.program_edges, stats.conflict_edges, stats.spawn_edges, stats.input_edges];
    for (i, count) in counts.into_iter().enumerate() {
        PO_EDGES.add_at(i, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Touches every family once, so hard-to-trigger ones (order-log
    /// rejects) are pinned too.
    #[test]
    fn metric_catalog_is_pinned() {
        CHUNKS.inc_at(TerminationReason::Syscall.code() as usize);
        CHUNK_SIZE.observe(1);
        LOG_BYTES.add_at(Encoding::Raw.tag() as usize, 1);
        order_derived(&DeriveStats::default());
        ORDER_REJECTS.inc();
        ORDER_LOG_BYTES.set(1);
        let text = qr_obs::global().render();
        assert_eq!(
            qr_obs::catalog(&text, &["qr_recorder_", "qr_core_"]),
            include_str!("obs_catalog.txt")
        );
    }
}
