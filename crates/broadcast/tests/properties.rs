//! Property tests for broadcast program construction, driven by
//! deterministic generator loops: case `i` derives its inputs from
//! `stream_rng_raw(SEED, i)`, so every run (and every failure) is
//! reproducible from the case index alone.

#![expect(
    clippy::disallowed_methods,
    reason = "property cases derive one RNG stream per case index"
)]

use bpp_broadcast::{
    assignment::identity_ranking, Assignment, BroadcastProgram, DiskSpec, PageId, Slot,
};
use bpp_sim::rng::{stream_rng_raw, Rng};

const SEED: u64 = 0x5EED_B0DC;
const CASES: u64 = 96;

/// Generator: a small random multi-disk spec with non-increasing
/// frequencies (mirrors the paper's fastest-to-slowest ordering).
fn gen_spec<R: Rng + ?Sized>(rng: &mut R) -> DiskSpec {
    let ndisks = 1 + rng.random_range(0..4);
    let sizes: Vec<usize> = (0..ndisks).map(|_| 1 + rng.random_range(0..59)).collect();
    let mut freqs: Vec<u32> = (0..ndisks)
        .map(|_| 1 + rng.random_range(0..6) as u32)
        .collect();
    freqs.sort_unstable_by(|a, b| b.cmp(a));
    DiskSpec::new(sizes, freqs)
}

#[test]
fn every_page_appears_exactly_rel_freq_per_rel_times() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let spec = gen_spec(&mut rng);
        let n = spec.total_pages();
        let a = Assignment::from_ranking(&identity_ranking(n), &spec);
        let p = BroadcastProgram::generate(&a, n);
        // Count appearances per page and compare with the spec frequency.
        let mut counts = vec![0usize; n];
        for s in p.slots() {
            if let Slot::Page(pg) = s {
                counts[pg.index()] += 1;
            }
        }
        let mut cursor = 0usize;
        for (d, &size) in spec.sizes.iter().enumerate() {
            for (i, &count) in counts.iter().enumerate().skip(cursor).take(size) {
                assert_eq!(
                    count, spec.rel_freqs[d] as usize,
                    "case {case}: page {i} on disk {d}"
                );
            }
            cursor += size;
        }
    }
}

#[test]
fn major_cycle_is_minor_times_chunks() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let spec = gen_spec(&mut rng);
        let n = spec.total_pages();
        let a = Assignment::from_ranking(&identity_ranking(n), &spec);
        let p = BroadcastProgram::generate(&a, n);
        assert_eq!(p.major_cycle(), p.minor_cycle() * p.num_minor_cycles());
        // Padding is bounded by one chunk per disk per minor cycle.
        assert!(p.empty_slots() < p.major_cycle().max(1), "case {case}");
    }
}

#[test]
fn slots_until_finds_a_real_occurrence() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let spec = gen_spec(&mut rng);
        let cursor = rng.random_range(0..10_000);
        let n = spec.total_pages();
        let a = Assignment::from_ranking(&identity_ranking(n), &spec);
        let p = BroadcastProgram::generate(&a, n);
        let m = p.major_cycle();
        for i in (0..n).step_by(7.max(n / 13)) {
            let pid = PageId(i as u32);
            let d = p.slots_until_present(pid, cursor);
            assert!(d >= 1 && d <= m, "case {case}");
            assert_eq!(p.slot((cursor + d - 1) % m), Slot::Page(pid), "case {case}");
            // No earlier occurrence.
            for k in 0..d - 1 {
                assert_ne!(p.slot((cursor + k) % m), Slot::Page(pid), "case {case}");
            }
        }
    }
}

#[test]
fn chopping_never_loses_pages() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let spec = gen_spec(&mut rng);
        let chop_frac = rng.random::<f64>() * 1.2;
        let n = spec.total_pages();
        let mut a = Assignment::from_ranking(&identity_ranking(n), &spec);
        let chop = ((n as f64) * chop_frac) as usize;
        let removed = a.chop(chop);
        assert_eq!(removed.len(), chop.min(n), "case {case}");
        assert_eq!(a.broadcast_pages() + removed.len(), n, "case {case}");
        // Broadcast + non-broadcast partitions the database.
        let p = BroadcastProgram::generate(&a, n);
        for pid in removed {
            assert!(!p.contains(pid), "case {case}: {pid} still broadcast");
        }
        assert_eq!(p.distinct_pages(), n - chop.min(n), "case {case}");
    }
}

#[test]
fn expected_slots_within_cycle_bounds() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let spec = gen_spec(&mut rng);
        let n = spec.total_pages();
        let a = Assignment::from_ranking(&identity_ranking(n), &spec);
        let p = BroadcastProgram::generate(&a, n);
        for i in 0..n {
            let e = p.expected_slots(PageId(i as u32)).unwrap();
            assert!(e >= 0.5 && e <= p.major_cycle() as f64, "case {case}");
        }
    }
}

#[test]
fn offset_preserves_page_set() {
    for case in 0..CASES {
        let mut rng = stream_rng_raw(SEED, case);
        let cache = rng.random_range(0..100);
        let spec = DiskSpec::paper_default();
        let a = Assignment::with_offset(&identity_ranking(1000), &spec, cache);
        let mut seen = vec![false; 1000];
        for d in a.disks() {
            for p in d {
                assert!(!seen[p.index()], "case {case}: {p} assigned twice");
                seen[p.index()] = true;
            }
        }
        assert!(seen.iter().all(|&x| x), "case {case}: page missing");
    }
}
