//! Store metrics, declared as [`qr_obs::Metric`] statics: block codec
//! latency, compression byte traffic (the ratio falls out of the two
//! counters), and salvage outcomes. Observational only — see the
//! determinism rule in `qr-obs`.

use std::time::Instant;

use qr_obs::{Counter, Histogram, Metric, LATENCY_US};

static ENCODE_LATENCY: Metric<Histogram> = Metric::histogram(
    "qr_store_encode_latency_us",
    "Block-container compression latency per call",
    LATENCY_US,
);

pub(crate) static DECODE_LATENCY: Metric<Histogram> = Metric::histogram(
    "qr_store_decode_latency_us",
    "Block-container decompression latency per call",
    LATENCY_US,
);

static BYTES: Metric<Counter, 2> = Metric::counters(
    "qr_store_bytes_total",
    "Bytes through the block codec (compression ratio = compressed / raw)",
    "direction",
    || ["raw", "compressed"],
);

static SALVAGES: Metric<Counter, 2> = Metric::counters(
    "qr_store_salvage_total",
    "Tolerant block-container reads, by outcome",
    "outcome",
    || ["clean", "faulted"],
);

static SALVAGE_BLOCKS_LOST: Metric<Counter> = Metric::counter(
    "qr_store_salvage_blocks_lost_total",
    "Blocks the index promised that salvage could not recover",
);

/// Accounts one whole-container compression started at `start` (a
/// [`qr_obs::clock`] reading).
pub(crate) fn encoded(start: Option<Instant>, raw_len: usize, compressed_len: usize) {
    if start.is_some() {
        ENCODE_LATENCY.observe_since(start);
        BYTES.add_at(0, raw_len as u64);
        BYTES.add_at(1, compressed_len as u64);
    }
}

/// Accounts one salvage pass.
pub(crate) fn salvaged(faulted: bool, blocks_recovered: usize, blocks_total: usize) {
    SALVAGES.inc_at(usize::from(faulted));
    SALVAGE_BLOCKS_LOST.add(blocks_total.saturating_sub(blocks_recovered) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Touches every family once, so hard-to-trigger ones (salvage
    /// faults) are pinned too.
    #[test]
    fn metric_catalog_is_pinned() {
        encoded(qr_obs::clock(), 1, 1);
        DECODE_LATENCY.observe_since(qr_obs::clock());
        salvaged(true, 0, 1);
        let text = qr_obs::global().render();
        assert_eq!(qr_obs::catalog(&text, &["qr_store_"]), include_str!("obs_catalog.txt"));
    }
}
