//! Assignment of pages to broadcast disks.
//!
//! The server knows the aggregate client access pattern (the Virtual
//! Client's ranking) and partitions the hottest pages onto the fastest
//! disks. Two transforms modify the naive partition:
//!
//! * **Offset** — hot pages end up cached at every steady-state client, so
//!   broadcasting them frequently is wasted bandwidth. The offset transform
//!   moves the `cache_size` hottest pages to the *slowest* disk and shifts
//!   every colder page one disk "faster".
//! * **Chop** — Experiment 3 of the paper removes pages from the broadcast
//!   altogether (they become pull-only), emptying the slowest disk first.

use crate::PageId;
use bpp_json::{Json, ToJson};

/// Shape of a multi-disk broadcast: per-disk sizes and relative spin speeds.
///
/// Disk 0 is the fastest; frequencies are relative to the slowest disk
/// (which conventionally has `rel_freq = 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskSpec {
    /// Number of pages on each disk, fastest disk first.
    pub sizes: Vec<usize>,
    /// Relative broadcast frequency of each disk (same length as `sizes`).
    pub rel_freqs: Vec<u32>,
}

impl ToJson for DiskSpec {
    fn to_json(&self) -> Json {
        let DiskSpec { sizes, rel_freqs } = self;
        Json::object([
            ("sizes", sizes.to_json()),
            ("rel_freqs", rel_freqs.to_json()),
        ])
    }
}

impl DiskSpec {
    /// Create and validate a spec.
    ///
    /// # Panics
    /// If lengths differ, the spec is empty, any frequency is zero, or the
    /// frequencies are not non-increasing (faster disks must come first).
    pub fn new(sizes: Vec<usize>, rel_freqs: Vec<u32>) -> Self {
        assert_eq!(sizes.len(), rel_freqs.len(), "sizes/freqs length mismatch");
        assert!(!sizes.is_empty(), "need at least one disk");
        assert!(
            rel_freqs.iter().all(|&f| f > 0),
            "frequencies must be positive"
        );
        assert!(
            rel_freqs.windows(2).all(|w| w[0] >= w[1]),
            "disks must be ordered fastest to slowest"
        );
        DiskSpec { sizes, rel_freqs }
    }

    /// The paper's base configuration: three disks of 100/400/500 pages at
    /// relative speeds 3:2:1.
    pub fn paper_default() -> Self {
        DiskSpec::new(vec![100, 400, 500], vec![3, 2, 1])
    }

    /// Single flat disk holding `n` pages (the Datacycle/BCIS layout).
    pub fn flat(n: usize) -> Self {
        DiskSpec::new(vec![n], vec![1])
    }

    /// Total number of pages across all disks.
    pub fn total_pages(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Number of disks.
    pub fn num_disks(&self) -> usize {
        self.sizes.len()
    }
}

/// A concrete assignment: the list of pages on each disk plus the pages that
/// were removed from the broadcast (pull-only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    disks: Vec<Vec<PageId>>,
    rel_freqs: Vec<u32>,
    non_broadcast: Vec<PageId>,
}

impl Assignment {
    /// Assign `ranked` pages (hottest first) to disks in rank order: the
    /// `sizes[0]` hottest pages to the fastest disk, and so on.
    ///
    /// # Panics
    /// If the ranking does not contain exactly `spec.total_pages()` pages.
    pub fn from_ranking(ranked: &[PageId], spec: &DiskSpec) -> Self {
        assert_eq!(
            ranked.len(),
            spec.total_pages(),
            "ranking must cover exactly the spec's pages"
        );
        let mut disks = Vec::with_capacity(spec.num_disks());
        let mut cursor = 0usize;
        for &size in &spec.sizes {
            disks.push(ranked[cursor..cursor + size].to_vec());
            cursor += size;
        }
        Assignment {
            disks,
            rel_freqs: spec.rel_freqs.clone(),
            non_broadcast: Vec::new(),
        }
    }

    /// Assign with the *Offset* transform: the `cache_size` hottest pages go
    /// to the slowest disk; every colder page shifts toward faster disks.
    ///
    /// Within every disk, pages are stored hottest-first; on the slowest
    /// disk the (universally cached) hot block comes first, then the cold
    /// pages. A subsequent [`chop`](Assignment::chop) therefore removes
    /// genuinely cold pages before it ever touches the hot ones.
    ///
    /// # Panics
    /// If `cache_size` exceeds the slowest disk's size or the ranking does
    /// not match the spec.
    pub fn with_offset(ranked: &[PageId], spec: &DiskSpec, cache_size: usize) -> Self {
        assert_eq!(ranked.len(), spec.total_pages());
        let slowest = spec.num_disks() - 1;
        assert!(
            cache_size <= spec.sizes[slowest],
            "offset ({cache_size}) larger than slowest disk ({})",
            spec.sizes[slowest]
        );
        let (hot, cold) = ranked.split_at(cache_size);
        let mut disks = Vec::with_capacity(spec.num_disks());
        let mut cursor = 0usize;
        for (i, &size) in spec.sizes.iter().enumerate() {
            let take = if i == slowest {
                size - cache_size
            } else {
                size
            };
            let mut disk = Vec::with_capacity(size);
            if i == slowest {
                disk.extend_from_slice(hot);
            }
            disk.extend_from_slice(&cold[cursor..cursor + take]);
            cursor += take;
            disks.push(disk);
        }
        Assignment {
            disks,
            rel_freqs: spec.rel_freqs.clone(),
            non_broadcast: Vec::new(),
        }
    }

    /// Remove `n` pages from the broadcast: slowest disk first, and within a
    /// disk the coldest pages first (disks store pages hottest-first, so
    /// removal pops from the back). Removed pages become pull-only.
    ///
    /// Returns the removed pages, coldest first. Removing more pages than
    /// exist on the broadcast removes everything.
    pub fn chop(&mut self, mut n: usize) -> Vec<PageId> {
        let mut removed = Vec::new();
        for disk in self.disks.iter_mut().rev() {
            if n == 0 {
                break;
            }
            let take = n.min(disk.len());
            removed.extend(disk.drain(disk.len() - take..).rev());
            n -= take;
        }
        self.non_broadcast.extend_from_slice(&removed);
        removed
    }

    /// Pages per disk, fastest first.
    pub fn disks(&self) -> &[Vec<PageId>] {
        &self.disks
    }

    /// Relative frequencies, fastest first.
    pub fn rel_freqs(&self) -> &[u32] {
        &self.rel_freqs
    }

    /// Pages removed from the broadcast (pull-only).
    pub fn non_broadcast(&self) -> &[PageId] {
        &self.non_broadcast
    }

    /// Number of pages still on the broadcast.
    pub fn broadcast_pages(&self) -> usize {
        self.disks.iter().map(Vec::len).sum()
    }
}

/// Convenience: the identity ranking `0..n` as `PageId`s (the Virtual
/// Client's pattern ranks page `r` at position `r`).
pub fn identity_ranking(n: usize) -> Vec<PageId> {
    (0..n as u32).map(PageId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(n: usize) -> Vec<PageId> {
        identity_ranking(n)
    }

    #[test]
    fn paper_spec_shape() {
        let s = DiskSpec::paper_default();
        assert_eq!(s.total_pages(), 1000);
        assert_eq!(s.num_disks(), 3);
    }

    #[test]
    fn from_ranking_fills_fastest_first() {
        let spec = DiskSpec::new(vec![2, 3], vec![2, 1]);
        let a = Assignment::from_ranking(&ranked(5), &spec);
        assert_eq!(a.disks()[0], vec![PageId(0), PageId(1)]);
        assert_eq!(a.disks()[1], vec![PageId(2), PageId(3), PageId(4)]);
        assert!(a.non_broadcast().is_empty());
    }

    #[test]
    fn offset_moves_hot_pages_to_slowest_disk() {
        let spec = DiskSpec::paper_default();
        let a = Assignment::with_offset(&ranked(1000), &spec, 100);
        // Fastest disk: ranks 100..200.
        assert_eq!(a.disks()[0][0], PageId(100));
        assert_eq!(a.disks()[0][99], PageId(199));
        // Middle disk: ranks 200..600.
        assert_eq!(a.disks()[1][0], PageId(200));
        assert_eq!(a.disks()[1][399], PageId(599));
        // Slowest disk: hot ranks 0..100 then cold ranks 600..1000.
        assert_eq!(a.disks()[2][0], PageId(0));
        assert_eq!(a.disks()[2][99], PageId(99));
        assert_eq!(a.disks()[2][100], PageId(600));
        assert_eq!(a.disks()[2][499], PageId(999));
    }

    #[test]
    fn offset_zero_equals_plain_ranking() {
        let spec = DiskSpec::new(vec![2, 2], vec![2, 1]);
        let a = Assignment::with_offset(&ranked(4), &spec, 0);
        let b = Assignment::from_ranking(&ranked(4), &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn every_page_lands_on_exactly_one_disk() {
        let spec = DiskSpec::paper_default();
        let a = Assignment::with_offset(&ranked(1000), &spec, 100);
        let mut seen = vec![false; 1000];
        for disk in a.disks() {
            for p in disk {
                assert!(!seen[p.index()], "{p} assigned twice");
                seen[p.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chop_removes_coldest_from_slowest_disk_first() {
        let spec = DiskSpec::paper_default();
        let mut a = Assignment::with_offset(&ranked(1000), &spec, 100);
        let removed = a.chop(200);
        assert_eq!(removed.len(), 200);
        // Chopped pages come off coldest-first (ranks 999 down to 800).
        assert_eq!(removed[0], PageId(999));
        assert_eq!(removed[199], PageId(800));
        assert_eq!(a.broadcast_pages(), 800);
        assert_eq!(a.non_broadcast().len(), 200);
    }

    #[test]
    fn chop_through_a_whole_disk_spills_into_the_next() {
        let spec = DiskSpec::paper_default();
        let mut a = Assignment::with_offset(&ranked(1000), &spec, 100);
        let removed = a.chop(700);
        assert_eq!(removed.len(), 700);
        // Disk 3 (500 pages: ranks 0..100 + 600..1000) fully gone,
        // then 200 pages from the cold end of disk 2 (ranks 400..600).
        assert!(a.disks()[2].is_empty());
        assert_eq!(a.disks()[1].len(), 200);
        assert_eq!(a.broadcast_pages(), 300);
        assert_eq!(removed[500], PageId(599));
        assert_eq!(removed[699], PageId(400));
    }

    #[test]
    fn chop_more_than_everything_empties_the_broadcast() {
        let spec = DiskSpec::new(vec![2, 2], vec![2, 1]);
        let mut a = Assignment::from_ranking(&ranked(4), &spec);
        let removed = a.chop(100);
        assert_eq!(removed.len(), 4);
        assert_eq!(a.broadcast_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "fastest to slowest")]
    fn increasing_frequencies_panic() {
        DiskSpec::new(vec![1, 1], vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "larger than slowest disk")]
    fn oversized_offset_panics() {
        let spec = DiskSpec::new(vec![4, 2], vec![2, 1]);
        Assignment::with_offset(&ranked(6), &spec, 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_spec_panics() {
        DiskSpec::new(vec![1, 2], vec![1]);
    }
}
