//! K-channel broadcast view and conflict-freedom precheck.
//!
//! Multi-channel broadcast scheduling (Kenyon/Schabanel/Young's PTAS, and
//! the conflict-avoidance line of Lai et al.) spreads the push schedule
//! across `K` parallel channels. A mobile client tunes to **one** channel
//! per slot, so a placement is only usable when no client ever *needs* two
//! pages that fly simultaneously on different channels — the
//! *conflict-freedom* precondition both papers assume.
//!
//! [`MultiChannelProgram`] is the minimal view of such a placement: one
//! [`BroadcastProgram`] per channel over a common page universe, with slot
//! `t` of every channel on air at the same instant (channels shorter than
//! the aligned cycle repeat). [`MultiChannelProgram::conflicts`] is the
//! static precheck consumed by bpp-verify rule V6; given the client access
//! sets, it reports every pair of same-slot different-channel pages a
//! single set needs.
//!
//! [`MultiChannelProgram::generate`] is the K-channel generator: it
//! partitions a ranked [`Assignment`] across channels so that every access
//! set lands wholly on one channel — which makes the placement
//! conflict-free *by construction* (no cross-channel page pair within a
//! set can exist). The generator still routes through
//! [`MultiChannelProgram::from_channels_checked`] as defense in depth, so
//! a future placement bug fails loudly rather than shipping a schedule a
//! single-tuner client cannot follow.

use crate::assignment::{Assignment, DiskSpec};
use crate::program::{checked_lcm, BroadcastProgram, Slot};
use crate::PageId;
use std::collections::BTreeSet;

/// A set of per-channel broadcast programs aired in lock-step.
#[derive(Debug, Clone)]
pub struct MultiChannelProgram {
    channels: Vec<BroadcastProgram>,
    db_size: usize,
}

/// One violation of conflict freedom: two pages of one access set on air
/// in the same aligned slot on different channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelConflict {
    /// Index of the offending access set.
    pub set: usize,
    /// Aligned slot at which both pages fly.
    pub slot: usize,
    /// `(channel, page)` of the first colliding page.
    pub first: (usize, PageId),
    /// `(channel, page)` of the second colliding page.
    pub second: (usize, PageId),
}

impl MultiChannelProgram {
    /// Assemble a view from per-channel programs.
    ///
    /// # Panics
    ///
    /// Panics when `channels` is empty or the programs disagree on the
    /// database size (the page universe must be shared).
    pub fn from_channels(channels: Vec<BroadcastProgram>) -> Self {
        assert!(!channels.is_empty(), "at least one channel");
        let db_size = channels[0].db_size();
        assert!(
            channels.iter().all(|c| c.db_size() == db_size),
            "all channels must share one page universe"
        );
        MultiChannelProgram { channels, db_size }
    }

    /// The single-channel (K = 1) view of an ordinary program.
    pub fn single(program: BroadcastProgram) -> Self {
        Self::from_channels(vec![program])
    }

    /// [`from_channels`](Self::from_channels) plus the conflict-freedom
    /// precheck: the placement is rejected (first conflict returned) when
    /// any access set needs two distinct pages that share an aligned slot
    /// on different channels. This is the gate every placement must pass
    /// before it reaches clients — [`generate`](Self::generate) routes
    /// through it, and the mutation tests feed it deliberately conflicting
    /// hand-built placements.
    ///
    /// # Panics
    ///
    /// Panics as [`from_channels`](Self::from_channels) and
    /// [`conflicts`](Self::conflicts) do (empty channel list, mismatched
    /// universes, out-of-universe access-set pages, aligned overflow).
    pub fn from_channels_checked(
        channels: Vec<BroadcastProgram>,
        access_sets: &[Vec<PageId>],
    ) -> Result<Self, ChannelConflict> {
        let mc = Self::from_channels(channels);
        match mc.conflicts(access_sets).into_iter().next() {
            None => Ok(mc),
            Some(c) => Err(c),
        }
    }

    /// Generate a conflict-free K-channel placement from a ranked
    /// [`Assignment`].
    ///
    /// Pages that an access set names together are confined to one channel
    /// (transitively: access sets sharing a page merge into one component),
    /// so no access set can ever straddle channels — conflict freedom holds
    /// by construction, and a single-tuner client finds everything it needs
    /// on the channel it tunes to. Components are placed greedily on the
    /// least-loaded channel (by page count, lowest index on ties) in rank
    /// order, so hot components spread across channels first. Each channel
    /// keeps the assignment's disk structure: its share of disk `d` stays
    /// on a disk with relative frequency `rel_freqs[d]`, preserving the
    /// square-root frequency design per channel. Chopped (pull-only) pages
    /// stay off every channel; channels left without pages air the empty
    /// program.
    ///
    /// `num_channels == 1` reduces exactly to
    /// [`single`](Self::single)`(`[`BroadcastProgram::generate`]`)`.
    ///
    /// # Panics
    ///
    /// Panics when `num_channels` is zero or an access set names a page
    /// outside `0..db_size`.
    #[expect(
        clippy::expect_used,
        reason = "defense in depth — reaching this is a generator bug, not a runtime condition"
    )]
    pub fn generate(
        assignment: &Assignment,
        db_size: usize,
        num_channels: usize,
        access_sets: &[Vec<PageId>],
    ) -> Self {
        assert!(num_channels > 0, "at least one channel");
        for (si, set) in access_sets.iter().enumerate() {
            for p in set {
                assert!(
                    p.index() < db_size,
                    "access set {si} page {p} outside the {db_size}-page universe"
                );
            }
        }
        if num_channels == 1 {
            return Self::single(BroadcastProgram::generate(assignment, db_size));
        }

        // Union-find over the page universe: pages named by one access set
        // collapse into a component that must share a channel.
        let mut parent: Vec<u32> = (0..db_size as u32).collect();
        for set in access_sets {
            for w in set.windows(2) {
                let (a, b) = (find(&mut parent, w[0].0), find(&mut parent, w[1].0));
                if a != b {
                    parent[a as usize] = b;
                }
            }
        }

        // Greedy placement in rank order (disks fastest-first, each disk
        // hottest-first): the first page of an unplaced component binds the
        // whole component to the currently least-loaded channel.
        let num_disks = assignment.disks().len();
        let mut channel_of_root: Vec<Option<u32>> = vec![None; db_size];
        let mut load = vec![0usize; num_channels];
        let mut placed: Vec<Vec<Vec<PageId>>> = vec![vec![Vec::new(); num_disks]; num_channels];
        for (d, disk) in assignment.disks().iter().enumerate() {
            for &p in disk {
                let root = find(&mut parent, p.0) as usize;
                let k = match channel_of_root[root] {
                    Some(k) => k as usize,
                    None => {
                        let k = load
                            .iter()
                            .enumerate()
                            .min_by_key(|&(_, &l)| l)
                            .map(|(i, _)| i)
                            .unwrap_or(0);
                        channel_of_root[root] = Some(k as u32);
                        k
                    }
                };
                placed[k][d].push(p);
                load[k] += 1;
            }
        }

        let channels: Vec<BroadcastProgram> = placed
            .into_iter()
            .map(|disks| {
                let sizes: Vec<usize> = disks.iter().map(Vec::len).collect();
                let ranking: Vec<PageId> = disks.concat();
                let spec = DiskSpec::new(sizes, assignment.rel_freqs().to_vec());
                let shard = Assignment::from_ranking(&ranking, &spec);
                BroadcastProgram::generate(&shard, db_size)
            })
            .collect();
        Self::from_channels_checked(channels, access_sets)
            .expect("component-confined placement is conflict-free by construction")
    }

    /// Number of channels, including empty (pull-only) ones.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// The program aired on channel `k`.
    pub fn channel(&self, k: usize) -> &BroadcastProgram {
        &self.channels[k]
    }

    /// Total number of database pages across the shared universe.
    pub fn db_size(&self) -> usize {
        self.db_size
    }

    /// Lowest channel broadcasting `page`, or `None` when the page is
    /// pull-only on every channel.
    pub fn channel_of(&self, page: PageId) -> Option<usize> {
        self.channels.iter().position(|c| c.contains(page))
    }

    /// Length of the aligned super-cycle: the LCM of the non-empty channel
    /// cycles (zero when every channel is empty). Conflict detection scans
    /// this many slots, so wildly coprime channel cycles are expensive to
    /// check — by design, since they are also expensive to tune to.
    ///
    /// # Panics
    ///
    /// Panics when the super-cycle does not fit the machine word (see
    /// [`checked_aligned_cycle`](Self::checked_aligned_cycle) for the
    /// fallible form). Such a placement cannot be scanned for conflicts —
    /// and no client could tune to it either.
    #[expect(
        clippy::expect_used,
        reason = "documented panic; checked_aligned_cycle is the recoverable form"
    )]
    pub fn aligned_cycle(&self) -> usize {
        self.checked_aligned_cycle().expect(
            "aligned super-cycle overflows usize — coprime channel cycles this long are untunable",
        )
    }

    /// [`aligned_cycle`](Self::aligned_cycle) without the overflow panic:
    /// `None` when the LCM of the live channel cycles exceeds `u64` (or
    /// the machine word), which previously wrapped silently and made
    /// [`conflicts`](Self::conflicts) scan a garbage-length window.
    pub fn checked_aligned_cycle(&self) -> Option<usize> {
        let mut acc: u64 = 1;
        let mut any = false;
        for m in self
            .channels
            .iter()
            .map(BroadcastProgram::major_cycle)
            .filter(|&m| m > 0)
        {
            any = true;
            acc = checked_lcm(acc, m as u64)?;
        }
        if !any {
            return Some(0);
        }
        usize::try_from(acc).ok()
    }

    /// Scan the aligned cycle for conflict-freedom violations.
    ///
    /// For each access set, every unordered pair of distinct pages the set
    /// needs that ever share an aligned slot on different channels is
    /// reported once (at its first colliding slot, channels in ascending
    /// order). The same page duplicated across channels is *not* a
    /// conflict — an extra copy only helps. Results are deterministic:
    /// ordered by access set, then slot, then channel pair.
    ///
    /// # Panics
    ///
    /// Panics when an access set names a page outside the shared universe
    /// (`index() >= db_size`) — silently skipping such pages would let a
    /// malformed input pass the precheck clean — or when the aligned
    /// super-cycle overflows (see [`aligned_cycle`](Self::aligned_cycle)).
    pub fn conflicts(&self, access_sets: &[Vec<PageId>]) -> Vec<ChannelConflict> {
        for (si, set) in access_sets.iter().enumerate() {
            for p in set {
                assert!(
                    p.index() < self.db_size,
                    "access set {si} page {p} outside the {}-page universe",
                    self.db_size
                );
            }
        }
        let live: Vec<(usize, &BroadcastProgram)> = self
            .channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.major_cycle() > 0)
            .collect();
        let mut out = Vec::new();
        if live.len() < 2 {
            return out;
        }
        let aligned = self.aligned_cycle();
        for (si, set) in access_sets.iter().enumerate() {
            let mut member = vec![false; self.db_size];
            for p in set {
                member[p.index()] = true;
            }
            let mut reported: BTreeSet<(PageId, PageId)> = BTreeSet::new();
            let mut flying: Vec<(usize, PageId)> = Vec::new();
            for t in 0..aligned {
                flying.clear();
                for &(ci, prog) in &live {
                    if let Slot::Page(p) = prog.slot(t % prog.major_cycle()) {
                        if member[p.index()] {
                            flying.push((ci, p));
                        }
                    }
                }
                for i in 0..flying.len() {
                    for j in (i + 1)..flying.len() {
                        let (ca, pa) = flying[i];
                        let (cb, pb) = flying[j];
                        if pa == pb {
                            continue;
                        }
                        if reported.insert((pa.min(pb), pa.max(pb))) {
                            out.push(ChannelConflict {
                                set: si,
                                slot: t,
                                first: (ca, pa),
                                second: (cb, pb),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// Union-find `find` with path halving.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

/// The default client access sets used by the V6 precheck and the
/// K-channel generator: the hottest eight uncached broadcast pages as one
/// set (empty when nothing qualifies). Pages are ranked by access weight
/// descending, index ascending on ties — deterministic, so the simulator
/// and bpp-verify derive identical sets from identical inputs and every
/// placement the simulator airs is the placement the verifier checks.
pub fn hot_access_sets(
    program: &BroadcastProgram,
    weights: &[f64],
    cached: &[PageId],
) -> Vec<Vec<PageId>> {
    let mut is_cached = vec![false; program.db_size()];
    for p in cached {
        is_cached[p.index()] = true;
    }
    let mut hot: Vec<PageId> = (0..program.db_size() as u32)
        .map(PageId)
        .filter(|&p| program.contains(p) && !is_cached[p.index()])
        .collect();
    hot.sort_by(|a, b| {
        weights[b.index()]
            .partial_cmp(&weights[a.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    hot.truncate(8);
    if hot.is_empty() {
        Vec::new()
    } else {
        vec![hot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{identity_ranking, Assignment, DiskSpec};

    /// A flat round-robin program over pages `lo..hi` of a `db` universe.
    fn band_program(db: usize, lo: u32, hi: u32) -> BroadcastProgram {
        let pages: Vec<PageId> = (lo..hi).map(PageId).collect();
        let spec = DiskSpec::flat(pages.len());
        let a = Assignment::from_ranking(&pages, &spec);
        BroadcastProgram::generate(&a, db)
    }

    #[test]
    fn single_channel_is_always_conflict_free() {
        let p = band_program(10, 0, 10);
        let mc = MultiChannelProgram::single(p);
        let sets = vec![(0..10).map(PageId).collect::<Vec<_>>()];
        assert!(mc.conflicts(&sets).is_empty());
        assert_eq!(mc.num_channels(), 1);
        assert_eq!(mc.aligned_cycle(), 10);
    }

    #[test]
    fn per_channel_access_sets_do_not_conflict() {
        let mc = MultiChannelProgram::from_channels(vec![
            band_program(10, 0, 5),
            band_program(10, 5, 10),
        ]);
        // Each client only needs pages from one channel.
        let sets = vec![
            (0..5).map(PageId).collect::<Vec<_>>(),
            (5..10).map(PageId).collect::<Vec<_>>(),
        ];
        assert!(mc.conflicts(&sets).is_empty());
        assert_eq!(mc.channel_of(PageId(7)), Some(1));
        assert_eq!(mc.channel_of(PageId(2)), Some(0));
    }

    #[test]
    fn cross_channel_same_slot_need_is_a_conflict() {
        // Channel 0 airs p0..p5, channel 1 airs p5..p10, both period 5:
        // slot t carries p{t} and p{5+t} simultaneously.
        let mc = MultiChannelProgram::from_channels(vec![
            band_program(10, 0, 5),
            band_program(10, 5, 10),
        ]);
        let sets = vec![vec![PageId(2), PageId(7)]];
        let c = mc.conflicts(&sets);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].set, 0);
        assert_eq!(c[0].slot, 2);
        assert_eq!(c[0].first, (0, PageId(2)));
        assert_eq!(c[0].second, (1, PageId(7)));
        // Offset pages never collide: p2 flies at slot 2, p8 at slot 3.
        let sets = vec![vec![PageId(2), PageId(8)]];
        assert!(mc.conflicts(&sets).is_empty());
    }

    #[test]
    fn duplicated_page_across_channels_is_not_a_conflict() {
        let mc = MultiChannelProgram::from_channels(vec![
            band_program(10, 0, 5),
            band_program(10, 0, 5),
        ]);
        let sets = vec![(0..5).map(PageId).collect::<Vec<_>>()];
        assert!(mc.conflicts(&sets).is_empty());
    }

    #[test]
    fn aligned_cycle_is_the_lcm_of_live_channels() {
        let mc = MultiChannelProgram::from_channels(vec![
            band_program(20, 0, 4),  // cycle 4
            band_program(20, 4, 10), // cycle 6
        ]);
        assert_eq!(mc.aligned_cycle(), 12);
        // A conflict pair that only collides in the second repetition of
        // the shorter channel is still found.
        // Channel 0 slot pattern: p0 p1 p2 p3 (period 4); channel 1:
        // p4..p9 (period 6). p1 and p9 share aligned slot 5 (1 mod 4 = 5?
        // no: slot 5 -> ch0 p1, ch1 p9). Check the scan finds it.
        let sets = vec![vec![PageId(1), PageId(9)]];
        let c = mc.conflicts(&sets);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].slot, 5);
    }

    #[test]
    fn empty_channels_are_ignored() {
        let spec = DiskSpec::flat(3);
        let mut a = Assignment::from_ranking(&identity_ranking(3), &spec);
        a.chop(3);
        let empty = BroadcastProgram::generate(&a, 10);
        let mc = MultiChannelProgram::from_channels(vec![empty, band_program(10, 0, 5)]);
        assert_eq!(mc.aligned_cycle(), 5);
        let sets = vec![(0..5).map(PageId).collect::<Vec<_>>()];
        assert!(mc.conflicts(&sets).is_empty());
    }

    /// Five coprime prime cycles whose product (~3.7e19) exceeds u64::MAX:
    /// the old unchecked fold wrapped silently and `conflicts` scanned a
    /// garbage-length window.
    fn overflowing_mc() -> MultiChannelProgram {
        let primes: [u32; 5] = [8191, 8209, 8219, 8221, 8231];
        let db: u32 = primes.iter().sum();
        let mut lo = 0u32;
        let mut chans = Vec::new();
        for p in primes {
            chans.push(band_program(db as usize, lo, lo + p));
            lo += p;
        }
        MultiChannelProgram::from_channels(chans)
    }

    #[test]
    fn checked_aligned_cycle_reports_overflow() {
        assert_eq!(overflowing_mc().checked_aligned_cycle(), None);
        // And agrees with the panicking form on sane inputs.
        let mc = MultiChannelProgram::from_channels(vec![
            band_program(20, 0, 4),
            band_program(20, 4, 10),
        ]);
        assert_eq!(mc.checked_aligned_cycle(), Some(mc.aligned_cycle()));
        let all_empty = {
            let spec = DiskSpec::flat(3);
            let mut a = Assignment::from_ranking(&identity_ranking(3), &spec);
            a.chop(3);
            MultiChannelProgram::single(BroadcastProgram::generate(&a, 3))
        };
        assert_eq!(all_empty.checked_aligned_cycle(), Some(0));
    }

    #[test]
    #[should_panic(expected = "aligned super-cycle overflows usize")]
    fn aligned_cycle_panics_on_overflow() {
        overflowing_mc().aligned_cycle();
    }

    #[test]
    #[should_panic(expected = "outside the 10-page universe")]
    fn out_of_universe_access_set_page_panics() {
        let mc = MultiChannelProgram::from_channels(vec![
            band_program(10, 0, 5),
            band_program(10, 5, 10),
        ]);
        mc.conflicts(&[vec![PageId(2), PageId(10)]]);
    }

    #[test]
    #[should_panic(expected = "outside the 10-page universe")]
    fn single_channel_views_also_reject_malformed_sets() {
        // Validation must run before the <2-live-channels early return,
        // or every single-channel verify target would skip it.
        let mc = MultiChannelProgram::single(band_program(10, 0, 10));
        mc.conflicts(&[vec![PageId(11)]]);
    }

    #[test]
    fn generate_with_one_channel_matches_the_single_view() {
        let spec = DiskSpec::new(vec![2, 4, 6], vec![3, 2, 1]);
        let a = Assignment::from_ranking(&identity_ranking(12), &spec);
        let sets = vec![vec![PageId(0), PageId(1), PageId(2)]];
        let mc = MultiChannelProgram::generate(&a, 12, 1, &sets);
        let single = MultiChannelProgram::single(BroadcastProgram::generate(&a, 12));
        assert_eq!(mc.num_channels(), 1);
        assert_eq!(mc.channel(0).slots(), single.channel(0).slots());
    }

    #[test]
    fn generate_partitions_broadcast_pages_across_channels() {
        let spec = DiskSpec::new(vec![4, 8, 12], vec![3, 2, 1]);
        let mut a = Assignment::from_ranking(&identity_ranking(24), &spec);
        a.chop(6); // the 6 coldest pages become pull-only
        let sets = vec![vec![PageId(0), PageId(5)], vec![PageId(1), PageId(9)]];
        let mc = MultiChannelProgram::generate(&a, 24, 3, &sets);
        assert_eq!(mc.num_channels(), 3);
        // Every broadcast page appears on exactly one channel; chopped
        // pages on none.
        let mut owners = [0usize; 24];
        for k in 0..3 {
            for p in 0..24u32 {
                if mc.channel(k).contains(PageId(p)) {
                    owners[p as usize] += 1;
                }
            }
        }
        for d in a.disks() {
            for p in d {
                assert_eq!(owners[p.index()], 1, "{p} must live on exactly one channel");
            }
        }
        for p in a.non_broadcast() {
            assert_eq!(owners[p.index()], 0, "{p} is pull-only");
        }
        // Access sets are confined: all pages of a set share a channel.
        for set in &sets {
            let k = mc.channel_of(set[0]).unwrap();
            for &p in set {
                assert_eq!(mc.channel_of(p), Some(k), "{p} strayed off channel {k}");
            }
        }
        assert!(mc.conflicts(&sets).is_empty());
    }

    #[test]
    fn generate_balances_load_and_keeps_disk_frequencies() {
        let spec = DiskSpec::paper_default();
        let a = Assignment::with_offset(&identity_ranking(1000), &spec, 100);
        let sets = vec![(100..108).map(PageId).collect::<Vec<_>>()];
        let mc = MultiChannelProgram::generate(&a, 1000, 4, &sets);
        let loads: Vec<usize> = (0..4).map(|k| mc.channel(k).distinct_pages()).collect();
        assert_eq!(loads.iter().sum::<usize>(), 1000);
        let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
        // Greedy least-loaded placement: no channel dominates (the hot
        // 8-page component is the largest indivisible unit).
        assert!(max - min <= 8, "loads {loads:?}");
        // Fast-disk pages stay fast on their shard: rank-150 pages sit on
        // the 3x disk of whichever channel owns them.
        let owner = mc.channel_of(PageId(150)).unwrap();
        assert_eq!(mc.channel(owner).frequency(PageId(150)) % 3, 0);
        assert!(mc.conflicts(&sets).is_empty());
    }

    #[test]
    fn generate_survives_more_channels_than_components() {
        // One giant access set glues everything into a single component:
        // channels 1..K air the empty program.
        let spec = DiskSpec::flat(6);
        let a = Assignment::from_ranking(&identity_ranking(6), &spec);
        let sets = vec![(0..6).map(PageId).collect::<Vec<_>>()];
        let mc = MultiChannelProgram::generate(&a, 6, 3, &sets);
        assert_eq!(mc.num_channels(), 3);
        assert_eq!(mc.channel(0).distinct_pages(), 6);
        assert_eq!(mc.channel(1).major_cycle(), 0);
        assert_eq!(mc.channel(2).major_cycle(), 0);
        assert!(mc.conflicts(&sets).is_empty());
    }

    #[test]
    fn generated_placements_are_conflict_free_over_a_grid() {
        for k in [2usize, 3, 4, 8] {
            for chop in [0usize, 100, 400] {
                let spec = DiskSpec::paper_default();
                let mut a = Assignment::with_offset(&identity_ranking(1000), &spec, 100);
                a.chop(chop);
                let weights: Vec<f64> = (0..1000).map(|i| 1.0 / (i + 1) as f64).collect();
                let prog = BroadcastProgram::generate(&a, 1000);
                let sets = hot_access_sets(&prog, &weights, &[]);
                let mc = MultiChannelProgram::generate(&a, 1000, k, &sets);
                assert!(
                    mc.conflicts(&sets).is_empty(),
                    "k={k} chop={chop} placement conflicts"
                );
            }
        }
    }

    #[test]
    fn checked_constructor_rejects_a_conflicting_placement() {
        // Deliberately conflicting hand-built placement: p2 on channel 0
        // and p7 on channel 1 fly in the same aligned slot, and one set
        // needs both. The generator path must reject it — not only V6.
        let err = MultiChannelProgram::from_channels_checked(
            vec![band_program(10, 0, 5), band_program(10, 5, 10)],
            &[vec![PageId(2), PageId(7)]],
        )
        .unwrap_err();
        assert_eq!(err.set, 0);
        assert_eq!(err.slot, 2);
        assert_eq!(err.first, (0, PageId(2)));
        assert_eq!(err.second, (1, PageId(7)));
        // The same channels with confined sets are accepted.
        let ok = MultiChannelProgram::from_channels_checked(
            vec![band_program(10, 0, 5), band_program(10, 5, 10)],
            &[vec![PageId(2), PageId(4)], vec![PageId(7), PageId(9)]],
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn hot_access_sets_picks_the_heaviest_uncached_pages() {
        let p = band_program(12, 0, 12);
        let mut weights = vec![0.0f64; 12];
        for (i, w) in weights.iter_mut().enumerate() {
            *w = 12.0 - i as f64;
        }
        let sets = hot_access_sets(&p, &weights, &[PageId(0), PageId(1)]);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0], (2..10).map(PageId).collect::<Vec<_>>());
        // Nothing qualifies -> no sets at all.
        let all: Vec<PageId> = (0..12).map(PageId).collect();
        assert!(hot_access_sets(&p, &weights, &all).is_empty());
    }
}
