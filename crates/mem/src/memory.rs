//! Sparse paged flat memory.
//!
//! Holds the architectural memory contents of one address space. Pages are
//! allocated lazily but only inside regions the kernel has explicitly
//! mapped, so wild accesses fault like they would on hardware with paging.

use qr_common::{QrError, Result, VirtAddr};
use std::collections::BTreeMap;

/// Size of one backing page (simulator granularity, not the guest ABI).
pub const PAGE_BYTES: u32 = 64 * 1024;

/// Granularity of a memory delta ([`PagedMemory::save_delta`]). Between
/// two checkpoints a workload dirties most of its pages but only a few
/// runs of each, so whole-page deltas would save almost nothing.
pub const DELTA_RUN_BYTES: usize = 256;

const RUNS_PER_PAGE: usize = PAGE_BYTES as usize / DELTA_RUN_BYTES;

/// Sparse flat memory with explicit region mapping.
#[derive(Debug, Clone, Default)]
pub struct PagedMemory {
    /// Backing pages, keyed by page number, allocated on first touch.
    pages: BTreeMap<u32, Box<[u8]>>,
    /// Mapped half-open ranges `[start, end)`, coalesced on insert.
    regions: Vec<(u32, u32)>,
}

impl PagedMemory {
    /// Creates an empty memory with no mapped regions.
    pub fn new() -> PagedMemory {
        PagedMemory::default()
    }

    /// Maps `[base, base + len)`, making it readable and writable.
    /// Overlapping or adjacent regions are merged.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] if the range wraps the address
    /// space.
    pub fn map_region(&mut self, base: VirtAddr, len: u32) -> Result<()> {
        let end = base.0.checked_add(len).ok_or_else(|| {
            QrError::InvalidConfig(format!("region {base} + {len:#x} wraps the address space"))
        })?;
        if len == 0 {
            return Ok(());
        }
        self.regions.push((base.0, end));
        self.regions.sort_unstable();
        // Coalesce overlapping/adjacent ranges.
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.regions.len());
        for &(s, e) in &self.regions {
            match merged.last_mut() {
                Some((_, last_end)) if s <= *last_end => *last_end = (*last_end).max(e),
                _ => merged.push((s, e)),
            }
        }
        self.regions = merged;
        Ok(())
    }

    /// Whether the whole access `[addr, addr + len)` is mapped.
    pub fn is_mapped(&self, addr: VirtAddr, len: u32) -> bool {
        if len == 0 {
            return true;
        }
        let end = match addr.0.checked_add(len) {
            Some(e) => e,
            None => return false,
        };
        self.regions.iter().any(|&(s, e)| s <= addr.0 && end <= e)
    }

    fn check(&self, addr: VirtAddr, len: u32, what: &str) -> Result<()> {
        if self.is_mapped(addr, len) {
            Ok(())
        } else {
            Err(QrError::MemoryFault {
                addr: addr.0,
                detail: format!("{what} of {len} bytes touches unmapped memory"),
            })
        }
    }

    fn page(&mut self, page_num: u32) -> &mut [u8] {
        self.pages
            .entry(page_num)
            .or_insert_with(|| vec![0u8; PAGE_BYTES as usize].into_boxed_slice())
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped.
    pub fn read_bytes(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<()> {
        self.check(addr, buf.len() as u32, "read")?;
        for (i, slot) in buf.iter_mut().enumerate() {
            let a = addr.0.wrapping_add(i as u32);
            let page_num = a / PAGE_BYTES;
            let off = (a % PAGE_BYTES) as usize;
            *slot = self.pages.get(&page_num).map_or(0, |p| p[off]);
        }
        Ok(())
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped.
    pub fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<()> {
        self.check(addr, data.len() as u32, "write")?;
        for (i, &byte) in data.iter().enumerate() {
            let a = addr.0.wrapping_add(i as u32);
            let page_num = a / PAGE_BYTES;
            let off = (a % PAGE_BYTES) as usize;
            self.page(page_num)[off] = byte;
        }
        Ok(())
    }

    /// Reads a little-endian value of `width` bytes (1, 2 or 4).
    ///
    /// # Errors
    ///
    /// Faults if unmapped.
    pub fn read_uint(&self, addr: VirtAddr, width: u32) -> Result<u32> {
        debug_assert!(matches!(width, 1 | 2 | 4));
        let mut buf = [0u8; 4];
        self.read_bytes(addr, &mut buf[..width as usize])?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Writes the low `width` bytes of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Faults if unmapped.
    pub fn write_uint(&mut self, addr: VirtAddr, width: u32, value: u32) -> Result<()> {
        debug_assert!(matches!(width, 1 | 2 | 4));
        let bytes = value.to_le_bytes();
        self.write_bytes(addr, &bytes[..width as usize])
    }

    /// Iterates over mapped regions (for fingerprinting), in address order.
    pub fn regions(&self) -> impl Iterator<Item = (VirtAddr, u32)> + '_ {
        self.regions.iter().map(|&(s, e)| (VirtAddr(s), e - s))
    }

    /// Serializes regions and allocated pages (checkpoint snapshots).
    /// Page order is the `BTreeMap` key order, so the bytes are a
    /// deterministic function of the architectural state.
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        self.save_regions(out);
        qr_common::varint::write_u64(out, self.pages.len() as u64);
        for (&num, page) in &self.pages {
            out.extend_from_slice(&num.to_le_bytes());
            out.extend_from_slice(page);
        }
    }

    /// Inverse of [`PagedMemory::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on truncated or implausible bytes.
    pub(crate) fn load_state(r: &mut qr_common::cursor::ByteReader<'_>) -> Result<PagedMemory> {
        let mut mem = PagedMemory { regions: Self::load_regions(r)?, ..PagedMemory::default() };
        let pages = r.count(1 << 20)?;
        for _ in 0..pages {
            let num = r.u32()?;
            let bytes = r.bytes(PAGE_BYTES as usize)?;
            mem.pages.insert(num, bytes.to_vec().into_boxed_slice());
        }
        Ok(mem)
    }

    /// Serializes this memory as a delta against `base`, an earlier
    /// state of the same address space: regions in full, then every
    /// allocated page with only the [`DELTA_RUN_BYTES`]-aligned runs
    /// that differ from `base` (a page `base` lacks is diffed against
    /// zeros). Apply with [`PagedMemory::apply_delta`] onto `base`.
    pub fn save_delta(&self, base: &PagedMemory, out: &mut Vec<u8>) {
        const ZERO: [u8; DELTA_RUN_BYTES] = [0; DELTA_RUN_BYTES];
        self.save_regions(out);
        qr_common::varint::write_u64(out, self.pages.len() as u64);
        let mut runs = Vec::new();
        for (&num, page) in &self.pages {
            out.extend_from_slice(&num.to_le_bytes());
            let old = base.pages.get(&num);
            let changed = |run: usize| {
                let span = run * DELTA_RUN_BYTES..(run + 1) * DELTA_RUN_BYTES;
                let before = old.map_or(&ZERO[..], |o| &o[span.clone()]);
                page[span] != *before
            };
            // Maximal stretches of changed runs, as (first run, count).
            runs.clear();
            for run in (0..RUNS_PER_PAGE).filter(|&run| changed(run)) {
                match runs.last_mut() {
                    Some((first, count)) if *first + *count == run => *count += 1,
                    _ => runs.push((run, 1)),
                }
            }
            qr_common::varint::write_u64(out, runs.len() as u64);
            for &(first, count) in &runs {
                qr_common::varint::write_u64(out, first as u64);
                qr_common::varint::write_u64(out, count as u64);
                let span = first * DELTA_RUN_BYTES..(first + count) * DELTA_RUN_BYTES;
                out.extend_from_slice(&page[span]);
            }
        }
    }

    /// Inverse of [`PagedMemory::save_delta`]: patches `self` (the delta's
    /// base state) in place. Pages the delta does not list are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::Corrupt`] on truncated bytes, page numbers out
    /// of order or outside the delta's regions, or runs that overlap or
    /// leave the page; `self` may be
    /// partially patched on error and must be discarded.
    pub fn apply_delta(&mut self, r: &mut qr_common::cursor::ByteReader<'_>) -> Result<()> {
        let corrupt = |offset: usize, detail: String| QrError::Corrupt {
            what: "memory delta".into(),
            offset: offset as u64,
            detail,
        };
        self.regions = Self::load_regions(r)?;
        let count = r.count(1 << 20)?;
        let mut pages = BTreeMap::new();
        for _ in 0..count {
            let num = r.u32()?;
            if pages.last_key_value().is_some_and(|(&prev, _)| num <= prev) {
                return Err(corrupt(r.pos(), format!("page {num:#x} out of order")));
            }
            // Pages are only ever allocated by writes to mapped memory, so
            // a page outside every region is corrupt. Checking before the
            // allocation keeps five bytes of input from zero-filling a page.
            if !self.maps_page(num) {
                return Err(corrupt(r.pos(), format!("page {num:#x} lies outside every region")));
            }
            let mut page = self
                .pages
                .remove(&num)
                .unwrap_or_else(|| vec![0u8; PAGE_BYTES as usize].into_boxed_slice());
            let runs = r.count(RUNS_PER_PAGE as u64)?;
            let mut next = 0u64;
            for _ in 0..runs {
                let first = r.varint()?;
                let count = r.varint()?;
                let end = first
                    .checked_add(count)
                    .filter(|&end| first >= next && count > 0 && end <= RUNS_PER_PAGE as u64)
                    .ok_or_else(|| {
                        let detail = format!("runs {first}+{count} of page {num:#x}");
                        corrupt(r.pos(), format!("{detail} overlap or leave the page"))
                    })?;
                let span = first as usize * DELTA_RUN_BYTES..end as usize * DELTA_RUN_BYTES;
                page[span.clone()].copy_from_slice(r.bytes(span.len())?);
                next = end;
            }
            pages.insert(num, page);
        }
        self.pages = pages;
        Ok(())
    }

    /// Whether any mapped region overlaps page `num` (never true for a
    /// page number beyond the 32-bit address space).
    fn maps_page(&self, num: u32) -> bool {
        let start = u64::from(num) * u64::from(PAGE_BYTES);
        let end = start + u64::from(PAGE_BYTES);
        self.regions.iter().any(|&(s, e)| u64::from(s) < end && start < u64::from(e))
    }

    fn save_regions(&self, out: &mut Vec<u8>) {
        qr_common::varint::write_u64(out, self.regions.len() as u64);
        for &(s, e) in &self.regions {
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&e.to_le_bytes());
        }
    }

    fn load_regions(r: &mut qr_common::cursor::ByteReader<'_>) -> Result<Vec<(u32, u32)>> {
        let count = r.count(1 << 20)?;
        (0..count).map(|_| Ok((r.u32()?, r.u32()?))).collect()
    }

    /// Hashes the contents of all mapped regions into a fingerprint field.
    pub fn fingerprint_into(&self, fp: &mut qr_common::Fingerprint) {
        for (base, len) in self.regions.iter().map(|&(s, e)| (s, e - s)) {
            fp.u32(base);
            fp.u32(len);
            // Hash page-by-page, using the zero page for untouched pages.
            let mut remaining = len;
            let mut addr = base;
            let zero = [0u8; PAGE_BYTES as usize];
            while remaining > 0 {
                let page_num = addr / PAGE_BYTES;
                let off = (addr % PAGE_BYTES) as usize;
                let take = ((PAGE_BYTES - addr % PAGE_BYTES) as usize).min(remaining as usize);
                match self.pages.get(&page_num) {
                    Some(p) => fp.bytes(&p[off..off + take]),
                    None => fp.bytes(&zero[..take]),
                };
                addr = addr.wrapping_add(take as u32);
                remaining -= take as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapped() -> PagedMemory {
        let mut m = PagedMemory::new();
        m.map_region(VirtAddr(0x1000), 0x1000).unwrap();
        m
    }

    #[test]
    fn unmapped_access_faults() {
        let m = mapped();
        let mut b = [0u8; 4];
        assert!(m.read_bytes(VirtAddr(0x0), &mut b).is_err());
        assert!(m.read_bytes(VirtAddr(0x2000), &mut b).is_err(), "one past the region");
        assert!(m.read_bytes(VirtAddr(0x1ffd), &mut b).is_err(), "straddles the end");
        assert!(m.read_bytes(VirtAddr(0x1ffc), &mut b).is_ok(), "last word is fine");
    }

    #[test]
    fn zero_length_access_never_faults() {
        let m = PagedMemory::new();
        assert!(m.read_bytes(VirtAddr(0xdead_0000), &mut []).is_ok());
        assert!(m.is_mapped(VirtAddr(0), 0));
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = mapped();
        m.write_uint(VirtAddr(0x1004), 4, 0xdead_beef).unwrap();
        assert_eq!(m.read_uint(VirtAddr(0x1004), 4).unwrap(), 0xdead_beef);
        assert_eq!(m.read_uint(VirtAddr(0x1004), 1).unwrap(), 0xef, "little endian");
        assert_eq!(m.read_uint(VirtAddr(0x1006), 2).unwrap(), 0xdead);
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let m = mapped();
        assert_eq!(m.read_uint(VirtAddr(0x1800), 4).unwrap(), 0);
    }

    #[test]
    fn regions_coalesce() {
        let mut m = PagedMemory::new();
        m.map_region(VirtAddr(0x1000), 0x1000).unwrap();
        m.map_region(VirtAddr(0x2000), 0x1000).unwrap(); // adjacent
        m.map_region(VirtAddr(0x1800), 0x100).unwrap(); // contained
        let regions: Vec<_> = m.regions().collect();
        assert_eq!(regions, vec![(VirtAddr(0x1000), 0x2000)]);
        assert!(m.is_mapped(VirtAddr(0x1fff), 2), "access across former boundary");
    }

    #[test]
    fn cross_page_access_works() {
        let mut m = PagedMemory::new();
        m.map_region(VirtAddr(PAGE_BYTES - 8), 16).unwrap();
        let addr = VirtAddr(PAGE_BYTES - 2);
        m.write_uint(addr, 4, 0x1122_3344).unwrap();
        assert_eq!(m.read_uint(addr, 4).unwrap(), 0x1122_3344);
    }

    #[test]
    fn wrap_around_mapping_is_rejected() {
        let mut m = PagedMemory::new();
        assert!(m.map_region(VirtAddr(0xffff_fff0), 0x20).is_err());
        assert!(!m.is_mapped(VirtAddr(0xffff_fff0), 0x20));
    }

    fn state_bytes(m: &PagedMemory) -> Vec<u8> {
        let mut out = Vec::new();
        m.save_state(&mut out);
        out
    }

    #[test]
    fn delta_rebuilds_the_exact_state_from_its_base() {
        let mut base = PagedMemory::new();
        base.map_region(VirtAddr(0), 3 * PAGE_BYTES).unwrap();
        base.write_uint(VirtAddr(0x10), 4, 1).unwrap();
        base.write_uint(VirtAddr(PAGE_BYTES + 0x300), 4, 2).unwrap();
        base.write_uint(VirtAddr(2 * PAGE_BYTES), 4, 3).unwrap();
        let mut next = base.clone();
        next.map_region(VirtAddr(5 * PAGE_BYTES), 0x100).unwrap();
        // A run boundary straddle, a new page, a zeroed word.
        next.write_uint(VirtAddr(0xfe), 4, 0xaabb_ccdd).unwrap();
        next.write_uint(VirtAddr(PAGE_BYTES + 0x300), 4, 0).unwrap();
        next.write_uint(VirtAddr(5 * PAGE_BYTES), 1, 9).unwrap();
        // A page the later state no longer holds.
        next.pages.remove(&2);

        let mut delta = Vec::new();
        next.save_delta(&base, &mut delta);
        assert!(delta.len() < 8 * DELTA_RUN_BYTES, "only changed runs: {} bytes", delta.len());
        let mut patched = base.clone();
        let mut r = qr_common::cursor::ByteReader::new(&delta, "delta");
        patched.apply_delta(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(state_bytes(&patched), state_bytes(&next));
    }

    #[test]
    fn malformed_deltas_are_structured_errors() {
        let mut m = mapped();
        m.write_uint(VirtAddr(0x1000), 4, 5).unwrap();
        let encode_pages = |pages: &[u32], runs: &[(u64, u64)]| {
            let mut out = Vec::new();
            m.save_regions(&mut out);
            qr_common::varint::write_u64(&mut out, pages.len() as u64);
            for &page in pages {
                out.extend_from_slice(&page.to_le_bytes());
                qr_common::varint::write_u64(&mut out, runs.len() as u64);
                for &(first, count) in runs {
                    qr_common::varint::write_u64(&mut out, first);
                    qr_common::varint::write_u64(&mut out, count);
                    let len = count.min(4) as usize * DELTA_RUN_BYTES;
                    out.extend(std::iter::repeat_n(0u8, len));
                }
            }
            out
        };
        let encode = |page: u32, runs: &[(u64, u64)]| encode_pages(&[page], runs);
        let unmapped = m.regions.last().unwrap().1.div_ceil(PAGE_BYTES);
        let cases = [
            // Pages no region reaches, inside and beyond the 32-bit
            // address space: refused before anything is allocated.
            encode(unmapped, &[]),
            encode(u32::MAX / PAGE_BYTES, &[]),
            encode(u32::MAX / PAGE_BYTES + 1, &[]),
            encode(u32::MAX, &[]),
            encode_pages(&[0, unmapped], &[]),
            encode(0, &[(RUNS_PER_PAGE as u64, 1)]),
            encode(0, &[(RUNS_PER_PAGE as u64 - 1, 2)]),
            encode(0, &[(u64::MAX, 2)]),
            encode(0, &[(0, 0)]),
            encode(0, &[(4, 1), (2, 1)]),
        ];
        for (i, bytes) in cases.iter().enumerate() {
            let mut target = m.clone();
            let mut r = qr_common::cursor::ByteReader::new(bytes, "delta");
            let err = target.apply_delta(&mut r).unwrap_err();
            assert!(matches!(err, QrError::Corrupt { .. }), "case {i}: {err:?}");
        }
        let good = encode(0, &[(1, 1)]);
        for cut in [0, 1, good.len() / 2, good.len() - 1] {
            let mut r = qr_common::cursor::ByteReader::new(&good[..cut], "delta");
            assert!(m.clone().apply_delta(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn fingerprint_detects_changes_and_ignores_page_allocation() {
        let mut a = mapped();
        let mut b = mapped();
        // Touching a page with a zero write must not change the digest.
        b.write_uint(VirtAddr(0x1100), 4, 0).unwrap();
        let digest = |m: &PagedMemory| {
            let mut fp = qr_common::Fingerprint::new();
            m.fingerprint_into(&mut fp);
            fp.digest()
        };
        assert_eq!(digest(&a), digest(&b));
        a.write_uint(VirtAddr(0x1100), 4, 7).unwrap();
        assert_ne!(digest(&a), digest(&b));
    }
}
