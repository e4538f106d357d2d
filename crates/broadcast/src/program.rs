//! Broadcast program generation and schedule queries.
//!
//! The generator implements the \[Acha95a\] interleaving algorithm. For the
//! paper's base configuration (disks 100/400/500 at 3:2:1) it produces a
//! major cycle of 1608 slots: `max_chunks = lcm(3,2,1) = 6` minor cycles of
//! `50 + 134 + 84` slots, 8 of which are padding.

use crate::{Assignment, PageId};

/// One slot of the broadcast schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Broadcast of a page.
    Page(PageId),
    /// Padding — the disk's pages did not divide evenly into chunks.
    Empty,
}

/// A generated periodic broadcast program.
///
/// The program is a flat sequence of [`Slot`]s (the *major cycle*) plus a
/// per-page occurrence index for O(log f) next-arrival queries.
#[derive(Debug, Clone)]
pub struct BroadcastProgram {
    slots: Vec<Slot>,
    /// occurrences[p] = sorted slot indexes of page p within the major
    /// cycle; empty for pages not on the broadcast. Indexed by PageId.
    occurrences: Vec<Vec<u32>>,
    /// disk_of[i] = original disk index (into the assignment's disk list)
    /// whose chunk produced slot `i` — padding slots included, since they
    /// are bandwidth charged to that disk.
    disk_of: Vec<u32>,
    minor_cycle: usize,
    num_minor_cycles: usize,
    db_size: usize,
}

impl BroadcastProgram {
    /// Generate the program for an [`Assignment`].
    ///
    /// `db_size` is the total number of pages in the database (broadcast or
    /// not); it sizes the occurrence index so that queries about pull-only
    /// pages are valid and answer "never".
    ///
    /// An assignment whose disks are all empty yields an empty program
    /// (Pure-Pull uses this degenerate case).
    pub fn generate(assignment: &Assignment, db_size: usize) -> Self {
        let live: Vec<(usize, &Vec<PageId>)> = assignment
            .disks()
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_empty())
            .collect();
        if live.is_empty() {
            return BroadcastProgram {
                slots: Vec::new(),
                occurrences: vec![Vec::new(); db_size],
                disk_of: Vec::new(),
                minor_cycle: 0,
                num_minor_cycles: 0,
                db_size,
            };
        }

        let freqs: Vec<u64> = live
            .iter()
            .map(|&(i, _)| u64::from(assignment.rel_freqs()[i]))
            .collect();
        let max_chunks = freqs.iter().copied().fold(1u64, lcm) as usize;
        // Per live disk: number of chunks and chunk size (ceil division).
        let num_chunks: Vec<usize> = freqs.iter().map(|&f| max_chunks / f as usize).collect();
        let chunk_sizes: Vec<usize> = live
            .iter()
            .zip(&num_chunks)
            .map(|(&(_, d), &nc)| d.len().div_ceil(nc))
            .collect();

        let minor_cycle: usize = chunk_sizes.iter().sum();
        let major = minor_cycle * max_chunks;
        let mut slots = Vec::with_capacity(major);
        let mut disk_of = Vec::with_capacity(major);
        for minor in 0..max_chunks {
            for (k, &(orig, disk)) in live.iter().enumerate() {
                let chunk = minor % num_chunks[k];
                let base = chunk * chunk_sizes[k];
                for j in 0..chunk_sizes[k] {
                    let idx = base + j;
                    slots.push(if idx < disk.len() {
                        Slot::Page(disk[idx])
                    } else {
                        Slot::Empty
                    });
                    disk_of.push(orig as u32);
                }
            }
        }
        debug_assert_eq!(slots.len(), major);

        let mut occurrences = vec![Vec::new(); db_size];
        for (i, slot) in slots.iter().enumerate() {
            if let Slot::Page(p) = slot {
                occurrences[p.index()].push(i as u32);
            }
        }
        BroadcastProgram {
            slots,
            occurrences,
            disk_of,
            minor_cycle,
            num_minor_cycles: max_chunks,
            db_size,
        }
    }

    /// Build a program directly from a slot sequence.
    ///
    /// This is the entry point for tools that construct (or deliberately
    /// corrupt) schedules outside [`generate`](Self::generate) — notably the
    /// `bpp-verify` mutation harness. The occurrence index is rebuilt from
    /// `slots`; `disk_of` maps each slot to the disk it is bandwidth-charged
    /// to and must be the same length as `slots`.
    ///
    /// # Panics
    ///
    /// Panics when `disk_of` and `slots` disagree in length, when the slot
    /// count is not `minor_cycle * num_minor_cycles`, or when a slot names a
    /// page outside `0..db_size`.
    pub fn from_slots(
        slots: Vec<Slot>,
        disk_of: Vec<u32>,
        minor_cycle: usize,
        num_minor_cycles: usize,
        db_size: usize,
    ) -> Self {
        assert_eq!(slots.len(), disk_of.len(), "one disk charge per slot");
        assert_eq!(
            slots.len(),
            minor_cycle * num_minor_cycles,
            "slot count must tile into minor cycles"
        );
        let mut occurrences = vec![Vec::new(); db_size];
        for (i, slot) in slots.iter().enumerate() {
            if let Slot::Page(p) = slot {
                assert!(p.index() < db_size, "{p} outside the {db_size}-page db");
                occurrences[p.index()].push(i as u32);
            }
        }
        BroadcastProgram {
            slots,
            occurrences,
            disk_of,
            minor_cycle,
            num_minor_cycles,
            db_size,
        }
    }

    /// Length of the major cycle in slots (push period). Zero for the empty
    /// (Pure-Pull) program.
    pub fn major_cycle(&self) -> usize {
        self.slots.len()
    }

    /// Length of one minor cycle in slots.
    pub fn minor_cycle(&self) -> usize {
        self.minor_cycle
    }

    /// Number of minor cycles per major cycle (`max_chunks`).
    pub fn num_minor_cycles(&self) -> usize {
        self.num_minor_cycles
    }

    /// Total number of database pages this program was generated for.
    pub fn db_size(&self) -> usize {
        self.db_size
    }

    /// Number of padding slots per major cycle.
    pub fn empty_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Empty))
            .count()
    }

    /// The slot at schedule position `idx` (must be `< major_cycle`).
    pub fn slot(&self, idx: usize) -> Slot {
        self.slots[idx]
    }

    /// All slots of the major cycle.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Original disk index (into the generating assignment's disk list) that
    /// produced slot `idx`. Padding slots are charged to the disk whose
    /// chunk they pad.
    pub fn disk_of_slot(&self, idx: usize) -> usize {
        self.disk_of[idx] as usize
    }

    /// Per-slot disk charge map (parallel to [`slots`](Self::slots)).
    pub fn disk_map(&self) -> &[u32] {
        &self.disk_of
    }

    /// True when `page` appears somewhere in the program.
    pub fn contains(&self, page: PageId) -> bool {
        !self.occurrences[page.index()].is_empty()
    }

    /// Broadcast frequency: occurrences of `page` per major cycle. This is
    /// the `x` of the PIX cache policy. Zero for pull-only pages.
    pub fn frequency(&self, page: PageId) -> usize {
        self.occurrences[page.index()].len()
    }

    /// Number of schedule slots from `cursor` (the next position the server
    /// will broadcast) until `page` appears, inclusive of the slot that
    /// carries the page. `None` when the page is not on the broadcast.
    ///
    /// A result of 1 means the very next push slot carries the page.
    pub fn slots_until(&self, page: PageId, cursor: usize) -> Option<usize> {
        let occ = &self.occurrences[page.index()];
        if occ.is_empty() {
            return None;
        }
        let m = self.slots.len();
        let cursor = cursor % m;
        let c = cursor as u32;
        // First occurrence >= cursor, else wrap to the first in the cycle.
        let dist = match occ.binary_search(&c) {
            Ok(_) => 0,
            Err(i) => {
                if i < occ.len() {
                    (occ[i] - c) as usize
                } else {
                    m - cursor + occ[0] as usize
                }
            }
        };
        Some(dist + 1)
    }

    /// [`slots_until`](Self::slots_until) for pages known to be on the
    /// broadcast. The coverage invariant — every page an assignment places
    /// on a disk appears in the generated program — is what bpp-verify rule
    /// V0 checks statically; callers that already hold a broadcast page
    /// (e.g. iterating [`slots`](Self::slots) or an assignment's disks) use
    /// this infallible form instead of unwrapping at each site.
    ///
    /// # Panics
    ///
    /// Panics when `page` is not on the broadcast (a V0 violation upstream).
    #[expect(
        clippy::expect_used,
        reason = "membership is the V0-verified coverage invariant"
    )]
    pub fn slots_until_present(&self, page: PageId, cursor: usize) -> usize {
        self.slots_until(page, cursor)
            .expect("page is not on the broadcast (a bpp-verify V0 coverage violation)")
    }

    /// Expected number of push slots (inclusive) a client arriving at a
    /// uniformly random cursor position waits for `page`. `None` for
    /// pull-only pages.
    pub fn expected_slots(&self, page: PageId) -> Option<f64> {
        let occ = &self.occurrences[page.index()];
        if occ.is_empty() {
            return None;
        }
        let m = self.slots.len() as f64;
        // Sum over inter-occurrence gaps g of g*(g+1)/2, averaged over M
        // possible arrival positions.
        let mut total = 0.0f64;
        for (i, &o) in occ.iter().enumerate() {
            let next = if i + 1 < occ.len() {
                occ[i + 1] as usize
            } else {
                occ[0] as usize + self.slots.len()
            };
            let g = (next - o as usize) as f64;
            total += g * (g + 1.0) / 2.0;
        }
        Some(total / m)
    }

    /// Pages on the broadcast (deduplicated count).
    pub fn distinct_pages(&self) -> usize {
        self.occurrences.iter().filter(|o| !o.is_empty()).count()
    }
}

pub(crate) fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple, reporting overflow instead of silently wrapping.
/// `None` means the true LCM does not fit in a `u64`.
pub(crate) fn checked_lcm(a: u64, b: u64) -> Option<u64> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    (a / gcd(a, b)).checked_mul(b)
}

#[expect(
    clippy::expect_used,
    reason = "chunk-count folds over disk frequencies are tiny; overflow here means a nonsensical spec and must not wrap silently"
)]
pub(crate) fn lcm(a: u64, b: u64) -> u64 {
    checked_lcm(a, b).expect("lcm overflows u64")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{identity_ranking, Assignment, DiskSpec};

    fn paper_program() -> BroadcastProgram {
        let spec = DiskSpec::paper_default();
        let a = Assignment::with_offset(&identity_ranking(1000), &spec, 100);
        BroadcastProgram::generate(&a, 1000)
    }

    /// Figure 1 of the paper: pages a..g on three disks at speeds 4:2:1.
    fn fig1_program() -> BroadcastProgram {
        let spec = DiskSpec::new(vec![1, 2, 4], vec![4, 2, 1]);
        let ranked = identity_ranking(7); // a=0, b=1, ..., g=6
        let a = Assignment::from_ranking(&ranked, &spec);
        BroadcastProgram::generate(&a, 7)
    }

    #[test]
    fn fig1_major_cycle_is_12_pages() {
        let p = fig1_program();
        assert_eq!(p.major_cycle(), 12);
        assert_eq!(p.empty_slots(), 0);
        assert_eq!(p.num_minor_cycles(), 4);
        assert_eq!(p.minor_cycle(), 3);
    }

    #[test]
    fn fig1_frequencies_match_disk_speeds() {
        let p = fig1_program();
        assert_eq!(p.frequency(PageId(0)), 4); // a: fastest disk
        assert_eq!(p.frequency(PageId(1)), 2); // b
        assert_eq!(p.frequency(PageId(2)), 2); // c
        for g in 3..7 {
            assert_eq!(p.frequency(PageId(g)), 1); // d,e,f,g
        }
    }

    #[test]
    fn fig1_exact_layout() {
        // Minor cycles: (a, b, d) (a, c, e) (a, b, f) (a, c, g) — page a
        // every third slot, b/c alternating, d..g once each.
        let p = fig1_program();
        let expect = [0, 1, 3, 0, 2, 4, 0, 1, 5, 0, 2, 6];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(p.slot(i), Slot::Page(PageId(e)), "slot {i}");
        }
    }

    #[test]
    fn paper_configuration_dimensions() {
        let p = paper_program();
        // lcm(3,2,1)=6 minor cycles of 50+134+84 slots.
        assert_eq!(p.num_minor_cycles(), 6);
        assert_eq!(p.minor_cycle(), 50 + 134 + 84);
        assert_eq!(p.major_cycle(), 1608);
        assert_eq!(p.empty_slots(), 8);
        assert_eq!(p.distinct_pages(), 1000);
    }

    #[test]
    fn frequencies_match_relative_speeds() {
        let p = paper_program();
        // Fast disk holds ranks 100..200 under offset.
        assert_eq!(p.frequency(PageId(150)), 3);
        // Middle disk: ranks 200..600.
        assert_eq!(p.frequency(PageId(400)), 2);
        // Slow disk: hot block + ranks 600..1000.
        assert_eq!(p.frequency(PageId(0)), 1);
        assert_eq!(p.frequency(PageId(900)), 1);
    }

    #[test]
    fn every_page_broadcast_its_frequency_times() {
        let p = paper_program();
        let mut counts = vec![0usize; 1000];
        for s in p.slots() {
            if let Slot::Page(pg) = s {
                counts[pg.index()] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(c, p.frequency(PageId(i as u32)), "page {i}");
        }
    }

    #[test]
    fn slots_until_is_exact_and_wraps() {
        let p = fig1_program();
        // Layout: a b d a c e a b f a c g
        assert_eq!(p.slots_until(PageId(0), 0), Some(1)); // a at slot 0
        assert_eq!(p.slots_until(PageId(0), 1), Some(3)); // next a at slot 3
        assert_eq!(p.slots_until(PageId(3), 0), Some(3)); // d at slot 2
        assert_eq!(p.slots_until(PageId(3), 3), Some(12)); // wraps to slot 2
        assert_eq!(p.slots_until(PageId(6), 11), Some(1)); // g at slot 11
        assert_eq!(p.slots_until(PageId(6), 12), Some(12)); // cursor wraps
    }

    #[test]
    fn slots_until_none_for_pull_only_pages() {
        let spec = DiskSpec::new(vec![2, 2], vec![2, 1]);
        let mut a = Assignment::from_ranking(&identity_ranking(4), &spec);
        a.chop(2);
        let p = BroadcastProgram::generate(&a, 4);
        assert_eq!(p.slots_until(PageId(3), 0), None);
        assert!(!p.contains(PageId(3)));
        assert!(p.contains(PageId(0)));
    }

    #[test]
    fn empty_assignment_yields_empty_program() {
        let spec = DiskSpec::new(vec![2], vec![1]);
        let mut a = Assignment::from_ranking(&identity_ranking(2), &spec);
        a.chop(2);
        let p = BroadcastProgram::generate(&a, 2);
        assert_eq!(p.major_cycle(), 0);
        assert_eq!(p.slots_until(PageId(0), 0), None);
        assert_eq!(p.distinct_pages(), 0);
    }

    #[test]
    fn expected_slots_for_evenly_spaced_page() {
        let p = fig1_program();
        // Page a appears every 3 slots: waits 1,2,3 equally likely -> 2.0.
        let e = p.expected_slots(PageId(0)).unwrap();
        assert!((e - 2.0).abs() < 1e-12);
        // Slow-disk pages appear once per 12: mean of 1..=12 = 6.5.
        let e = p.expected_slots(PageId(4)).unwrap();
        assert!((e - 6.5).abs() < 1e-12);
        assert_eq!(p.expected_slots(PageId(0)).map(|_| ()), Some(()));
    }

    #[test]
    fn expected_slots_consistent_with_brute_force() {
        let p = paper_program();
        for &pid in &[PageId(150), PageId(400), PageId(900), PageId(0)] {
            let m = p.major_cycle();
            let brute: f64 = (0..m)
                .map(|c| p.slots_until(pid, c).unwrap() as f64)
                .sum::<f64>()
                / m as f64;
            let fast = p.expected_slots(pid).unwrap();
            assert!((brute - fast).abs() < 1e-9, "{pid}: {brute} vs {fast}");
        }
    }

    #[test]
    fn faster_disk_pages_arrive_sooner_on_average() {
        let p = paper_program();
        let fast = p.expected_slots(PageId(150)).unwrap();
        let mid = p.expected_slots(PageId(400)).unwrap();
        let slow = p.expected_slots(PageId(900)).unwrap();
        assert!(fast < mid && mid < slow, "{fast} {mid} {slow}");
        // Roughly major/2f for even spacing.
        assert!((fast - 1608.0 / 6.0).abs() < 60.0, "fast {fast}");
        assert!((slow - 1608.0 / 2.0).abs() < 60.0, "slow {slow}");
    }

    #[test]
    fn single_flat_disk_round_robins() {
        let spec = DiskSpec::flat(5);
        let a = Assignment::from_ranking(&identity_ranking(5), &spec);
        let p = BroadcastProgram::generate(&a, 5);
        assert_eq!(p.major_cycle(), 5);
        assert_eq!(p.empty_slots(), 0);
        for i in 0..5 {
            assert_eq!(p.slot(i), Slot::Page(PageId(i as u32)));
            assert_eq!(p.frequency(PageId(i as u32)), 1);
        }
    }

    #[test]
    fn disk_map_charges_every_slot_to_its_disk() {
        let p = fig1_program();
        // Minor cycle = one chunk per disk: disk 0 (a), disk 1 (b/c), disk 2.
        let expect = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2];
        for (i, &d) in expect.iter().enumerate() {
            assert_eq!(p.disk_of_slot(i), d, "slot {i}");
        }
        assert_eq!(p.disk_map().len(), p.major_cycle());

        // Paper config: padding slots are charged to a disk too.
        let p = paper_program();
        let mut per_disk = [0usize; 3];
        for i in 0..p.major_cycle() {
            per_disk[p.disk_of_slot(i)] += 1;
        }
        // Disk k gets chunk_size[k] * 6 slots: 50*6 + 134*6 + 84*6 = 1608.
        assert_eq!(per_disk, [300, 804, 504]);
    }

    #[test]
    fn from_slots_round_trips_generate() {
        let p = fig1_program();
        let q = BroadcastProgram::from_slots(
            p.slots().to_vec(),
            p.disk_map().to_vec(),
            p.minor_cycle(),
            p.num_minor_cycles(),
            p.db_size(),
        );
        assert_eq!(q.major_cycle(), p.major_cycle());
        for pg in 0..7 {
            let pid = PageId(pg);
            assert_eq!(q.frequency(pid), p.frequency(pid));
            assert_eq!(q.slots_until(pid, 5), p.slots_until(pid, 5));
        }
    }

    #[test]
    fn slots_until_present_matches_fallible_form() {
        let p = fig1_program();
        for cursor in 0..=12 {
            for pg in 0..7 {
                let pid = PageId(pg);
                assert_eq!(
                    p.slots_until_present(pid, cursor),
                    p.slots_until(pid, cursor).unwrap()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not on the broadcast")]
    fn slots_until_present_panics_for_pull_only_pages() {
        let spec = DiskSpec::new(vec![2, 2], vec![2, 1]);
        let mut a = Assignment::from_ranking(&identity_ranking(4), &spec);
        a.chop(2);
        let p = BroadcastProgram::generate(&a, 4);
        p.slots_until_present(PageId(3), 0);
    }

    #[test]
    fn lcm_gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(lcm(3, 2), 6);
        assert_eq!(lcm(1, 1), 1);
        assert_eq!([4u64, 2, 1].iter().copied().fold(1, lcm), 4);
    }

    #[test]
    fn checked_lcm_reports_overflow() {
        assert_eq!(checked_lcm(3, 2), Some(6));
        assert_eq!(checked_lcm(0, 5), Some(0));
        // Consecutive integers are coprime, so the true LCM is their
        // product — far past u64::MAX.
        assert_eq!(checked_lcm(u64::MAX, u64::MAX - 1), None);
    }

    #[test]
    #[should_panic(expected = "lcm overflows u64")]
    fn unchecked_lcm_panics_on_overflow() {
        lcm(u64::MAX, u64::MAX - 1);
    }
}
