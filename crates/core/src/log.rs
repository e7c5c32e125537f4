//! The assembled chunk log (memory log) of one recording.

use crate::chunk::ChunkPacket;
use crate::encoding::{Encoding, SalvagedPackets};
use qr_common::{QrError, Result, ThreadId};
use std::collections::BTreeMap;

/// All chunk packets of one recording, in drain order.
///
/// The replayer consumes them sorted by timestamp; analysis tooling uses
/// the per-thread and distribution views.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkLog {
    packets: Vec<ChunkPacket>,
}

impl ChunkLog {
    /// Creates an empty log.
    pub fn new() -> ChunkLog {
        ChunkLog::default()
    }

    /// Appends drained packets.
    pub fn extend(&mut self, packets: impl IntoIterator<Item = ChunkPacket>) {
        self.packets.extend(packets);
    }

    /// All packets, in drain order.
    pub fn packets(&self) -> &[ChunkPacket] {
        &self.packets
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Packets sorted by timestamp — the replay schedule.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::LogDecode`] if two packets share a timestamp
    /// (the recorder's clock is strictly monotonic, so duplicates mean a
    /// corrupt log).
    pub fn replay_schedule(&self) -> Result<Vec<ChunkPacket>> {
        let mut sorted = self.packets.clone();
        sorted.sort_by_key(|p| p.timestamp);
        for pair in sorted.windows(2) {
            if pair[0].timestamp == pair[1].timestamp {
                return Err(QrError::LogDecode(format!(
                    "duplicate chunk timestamp {}",
                    pair[0].timestamp.0
                )));
            }
        }
        Ok(sorted)
    }

    /// Packets grouped per thread, each group in timestamp order.
    pub fn per_thread(&self) -> BTreeMap<ThreadId, Vec<ChunkPacket>> {
        let mut map: BTreeMap<ThreadId, Vec<ChunkPacket>> = BTreeMap::new();
        for p in &self.packets {
            map.entry(p.tid).or_default().push(*p);
        }
        for group in map.values_mut() {
            group.sort_by_key(|p| p.timestamp);
        }
        map
    }

    /// Total user instructions covered.
    pub fn total_instructions(&self) -> u64 {
        self.packets.iter().map(|p| p.icount).sum()
    }

    /// Chunk sizes (instruction counts) sorted ascending — input for the
    /// distribution experiment E2.
    pub fn chunk_sizes_sorted(&self) -> Vec<u64> {
        let mut sizes: Vec<u64> = self.packets.iter().map(|p| p.icount).collect();
        sizes.sort_unstable();
        sizes
    }

    /// Percentile of the chunk-size distribution (`p` in 0..=100).
    ///
    /// # Panics
    ///
    /// Panics if the log is empty or `p > 100`.
    pub fn chunk_size_percentile(&self, p: u32) -> u64 {
        assert!(p <= 100, "percentile must be 0..=100");
        let sizes = self.chunk_sizes_sorted();
        assert!(!sizes.is_empty(), "percentile of an empty log");
        let idx = ((p as usize) * (sizes.len() - 1)) / 100;
        sizes[idx]
    }

    /// Serializes the log with the given encoding, in the crash-consistent
    /// framed container format (see [`qr_common::frame`]).
    pub fn to_bytes(&self, encoding: Encoding) -> Vec<u8> {
        let bytes = encoding.encode_framed_stream(&self.packets);
        crate::obs::LOG_BYTES.add_at(encoding.tag() as usize, bytes.len() as u64);
        bytes
    }

    /// Deserializes a log produced by [`ChunkLog::to_bytes`] (framed) or
    /// by a pre-framing recorder (legacy unframed, detected by its
    /// leading encoding tag — the framed magic's first byte never
    /// aliases one, even under single-bit flips).
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] with byte-offset context on
    /// malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<ChunkLog> {
        if matches!(bytes.first(), Some(0..=2)) {
            return ChunkLog::from_legacy_bytes(bytes);
        }
        Ok(ChunkLog { packets: Encoding::decode_framed_stream(bytes)? })
    }

    /// Deserializes a **legacy** (unframed, checksum-free) log. Explicit
    /// compatibility path for logs written before the framed container
    /// existed.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on malformed input.
    pub fn from_legacy_bytes(bytes: &[u8]) -> Result<ChunkLog> {
        Ok(ChunkLog { packets: Encoding::decode_stream(bytes)? })
    }

    /// Tolerantly deserializes a log, recovering the longest complete,
    /// cleanly-decodable packet prefix of a torn or corrupted file.
    /// Framed logs salvage at checksum-verified group granularity (see
    /// [`Encoding::salvage_framed_stream`]); legacy unframed logs (same
    /// leading-tag detection as [`ChunkLog::from_bytes`]) salvage at
    /// packet granularity via [`Encoding::salvage_stream`].
    pub fn salvage_from_bytes(bytes: &[u8]) -> (ChunkLog, SalvagedPackets) {
        let mut salvaged = if matches!(bytes.first(), Some(0..=2)) {
            Encoding::salvage_stream(bytes)
        } else {
            Encoding::salvage_framed_stream(bytes)
        };
        let log = ChunkLog { packets: std::mem::take(&mut salvaged.packets) };
        (log, salvaged)
    }
}

impl FromIterator<ChunkPacket> for ChunkLog {
    fn from_iter<I: IntoIterator<Item = ChunkPacket>>(iter: I) -> ChunkLog {
        ChunkLog { packets: iter.into_iter().collect() }
    }
}

impl Extend<ChunkPacket> for ChunkLog {
    fn extend<I: IntoIterator<Item = ChunkPacket>>(&mut self, iter: I) {
        self.packets.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::TerminationReason;
    use qr_common::{CoreId, Cycle};

    fn packet(tid: u32, ts: u64, icount: u64) -> ChunkPacket {
        ChunkPacket {
            tid: ThreadId(tid),
            core: CoreId(0),
            icount,
            timestamp: Cycle(ts),
            rsw: 0,
            reason: TerminationReason::Syscall,
        }
    }

    fn log() -> ChunkLog {
        [packet(1, 5, 10), packet(0, 2, 30), packet(1, 9, 20), packet(0, 7, 40)]
            .into_iter()
            .collect()
    }

    #[test]
    fn replay_schedule_is_timestamp_sorted() {
        let ts: Vec<u64> = log().replay_schedule().unwrap().iter().map(|p| p.timestamp.0).collect();
        assert_eq!(ts, vec![2, 5, 7, 9]);
    }

    #[test]
    fn duplicate_timestamps_are_rejected() {
        let l: ChunkLog = [packet(0, 3, 1), packet(1, 3, 1)].into_iter().collect();
        assert!(l.replay_schedule().is_err());
    }

    #[test]
    fn per_thread_groups_are_ordered() {
        let groups = log().per_thread();
        assert_eq!(groups.len(), 2);
        let t0: Vec<u64> = groups[&ThreadId(0)].iter().map(|p| p.timestamp.0).collect();
        assert_eq!(t0, vec![2, 7]);
    }

    #[test]
    fn percentiles_and_totals() {
        let l = log();
        assert_eq!(l.total_instructions(), 100);
        assert_eq!(l.chunk_size_percentile(0), 10);
        assert_eq!(l.chunk_size_percentile(100), 40);
        assert_eq!(l.chunk_size_percentile(50), 20);
    }

    #[test]
    fn serialization_round_trips_through_all_encodings() {
        let l = log();
        for enc in Encoding::ALL {
            let bytes = l.to_bytes(enc);
            assert!(qr_common::frame::is_framed(&bytes), "{enc:?} log not framed");
            assert_eq!(ChunkLog::from_bytes(&bytes).unwrap(), l);
        }
    }

    #[test]
    fn legacy_unframed_logs_still_load() {
        let l = log();
        for enc in Encoding::ALL {
            let legacy = enc.encode_stream(l.packets());
            assert_eq!(ChunkLog::from_legacy_bytes(&legacy).unwrap(), l, "{enc:?}");
            // And the auto-detecting path routes them correctly too.
            assert_eq!(ChunkLog::from_bytes(&legacy).unwrap(), l, "{enc:?}");
        }
    }

    #[test]
    fn salvage_recovers_prefix_of_torn_log() {
        let l = log();
        let bytes = l.to_bytes(Encoding::Delta);
        let (whole, report) = ChunkLog::salvage_from_bytes(&bytes);
        assert_eq!(whole, l);
        assert!(report.corruption.is_none());
        let (torn, report) = ChunkLog::salvage_from_bytes(&bytes[..bytes.len() - 1]);
        assert!(report.corruption.is_some());
        assert_eq!(torn.packets(), &l.packets()[..torn.len()]);
    }

    #[test]
    fn salvage_recovers_prefix_of_truncated_legacy_log() {
        // Satellite coverage: the legacy-unframed compatibility path under
        // salvage. A truncated legacy stream must yield the longest clean
        // packet prefix with an honest report — and never panic.
        let l = log();
        for enc in Encoding::ALL {
            let legacy = enc.encode_stream(l.packets());
            // Intact stream salvages fully.
            let (whole, report) = ChunkLog::salvage_from_bytes(&legacy);
            assert_eq!(whole, l, "{enc:?}");
            assert!(report.corruption.is_none(), "{enc:?}");
            assert_eq!(report.expected, Some(l.len() as u64));
            // Every truncation yields a clean prefix and a report.
            for cut in 0..legacy.len() {
                let (torn, report) = ChunkLog::salvage_from_bytes(&legacy[..cut]);
                assert!(report.corruption.is_some(), "{enc:?} cut {cut}");
                assert_eq!(
                    torn.packets(),
                    &l.packets()[..torn.len()],
                    "{enc:?} cut {cut} salvaged a non-prefix"
                );
            }
        }
    }

    #[test]
    fn empty_log_is_fine_everywhere() {
        let l = ChunkLog::new();
        assert!(l.is_empty());
        assert!(l.replay_schedule().unwrap().is_empty());
        assert!(l.per_thread().is_empty());
        assert_eq!(l.total_instructions(), 0);
    }
}
