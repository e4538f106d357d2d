//! (1, m) indexing on air — the power-conservation extension.
//!
//! The paper's footnote on predictability points at \[Imie94b\] ("Energy
//! Efficient Indexing on Air"): a mobile client that must *listen* to every
//! slot until its page arrives burns its battery in receive mode. If the
//! server interleaves `m` copies of an index into each broadcast cycle,
//! clients can doze, wake for the next index, learn exactly when their page
//! will fly by, and doze again — trading a slightly longer cycle (the index
//! slots are overhead) for a drastically shorter *tuning time*.
//!
//! The protocol modelled here is the classic (1, m) scheme:
//!
//! 1. tune in at a random instant; listen to one slot (every slot carries a
//!    pointer to the next index segment);
//! 2. doze until the next index segment; listen to all `index_size` slots;
//! 3. doze until the announced slot of the wanted page; listen to it.
//!
//! *Access time* is wall-clock slots from arrival to delivery; *tuning
//! time* is the number of slots spent listening (1 + index + 1). The
//! optimal replication factor balances index overhead against the wait for
//! the next index: `m* = √(data/index)`.

use crate::program::{BroadcastProgram, Slot};
use crate::PageId;
use bpp_sim::approx::exactly_zero;

/// A broadcast cycle with `m` interleaved index segments.
#[derive(Debug, Clone)]
pub struct IndexedProgram {
    /// The full cycle: data slots with index segments spliced in.
    slots: Vec<IndexedSlot>,
    /// Starting offset of every index segment within the cycle.
    index_starts: Vec<usize>,
    index_size: usize,
    m: usize,
    db_size: usize,
}

/// One slot of an indexed cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexedSlot {
    /// A data (or padding) slot of the underlying program.
    Data(Slot),
    /// One slot of an index segment.
    Index,
}

impl IndexedProgram {
    /// Interleave `m ≥ 1` index segments of `index_size ≥ 1` slots into the
    /// data program, one at the start of each of `m` equal data chunks.
    ///
    /// # Panics
    /// If the program is empty or the parameters are zero.
    pub fn new(program: &BroadcastProgram, index_size: usize, m: usize) -> Self {
        assert!(program.major_cycle() > 0, "cannot index an empty program");
        assert!(index_size >= 1 && m >= 1, "index_size and m must be >= 1");
        let data = program.major_cycle();
        let chunk = data.div_ceil(m);
        let mut slots = Vec::with_capacity(data + m * index_size);
        let mut index_starts = Vec::with_capacity(m);
        let mut emitted = 0usize;
        while emitted < data {
            index_starts.push(slots.len());
            slots.extend(std::iter::repeat_n(IndexedSlot::Index, index_size));
            let take = chunk.min(data - emitted);
            for i in emitted..emitted + take {
                slots.push(IndexedSlot::Data(program.slot(i)));
            }
            emitted += take;
        }
        IndexedProgram {
            slots,
            index_starts,
            index_size,
            m,
            db_size: program.db_size(),
        }
    }

    /// Total cycle length including index overhead.
    pub fn total_cycle(&self) -> usize {
        self.slots.len()
    }

    /// The replication factor actually used (≤ the requested `m` when the
    /// data cycle is shorter than `m` chunks).
    pub fn m(&self) -> usize {
        self.index_starts.len().min(self.m)
    }

    /// Slots of index overhead per cycle.
    pub fn index_overhead(&self) -> usize {
        self.index_starts.len() * self.index_size
    }

    /// The slot at position `i` of the cycle.
    pub fn slot(&self, i: usize) -> IndexedSlot {
        self.slots[i]
    }

    /// All slots of the indexed cycle in order.
    pub fn slots(&self) -> &[IndexedSlot] {
        &self.slots
    }

    /// Starting offsets of the index segments within the cycle, in
    /// ascending order. This is the offset table bpp-verify rule V3 audits
    /// for index coherence.
    pub fn index_starts(&self) -> &[usize] {
        &self.index_starts
    }

    /// Length of each index segment in slots.
    pub fn index_size(&self) -> usize {
        self.index_size
    }

    /// Expected access and tuning times (in slots) for the (1, m) probe
    /// protocol, averaged over a uniformly random arrival instant, for a
    /// client whose page interest follows `probs` (one weight per page;
    /// pages not in the cycle are skipped and their mass ignored).
    ///
    /// Returns `(access_time, tuning_time)`.
    pub fn expected_times(&self, probs: &[f64]) -> (f64, f64) {
        assert_eq!(probs.len(), self.db_size, "one probability per page");
        let c = self.slots.len();
        // next_index[i] = distance from slot i to the start of the next
        // index segment (0 when i is inside/starting one... we want the
        // next segment *start* at or after i).
        let mut next_index = vec![0usize; c];
        {
            let mut starts = self.index_starts.clone();
            starts.push(self.index_starts[0] + c);
            let mut k = 0usize;
            for (i, ni) in next_index.iter_mut().enumerate() {
                while starts[k] < i {
                    k += 1;
                }
                *ni = starts[k] - i;
            }
        }
        // Occurrences of each page in the indexed cycle.
        let mut occurrences: Vec<Vec<usize>> = vec![Vec::new(); self.db_size];
        for (i, s) in self.slots.iter().enumerate() {
            if let IndexedSlot::Data(Slot::Page(p)) = s {
                occurrences[p.index()].push(i);
            }
        }

        let mut total_mass = 0.0f64;
        let mut access = 0.0f64;
        let cycle = c as f64;
        for (page, occ) in occurrences.iter().enumerate() {
            let w = probs[page];
            if occ.is_empty() || exactly_zero(w) {
                continue;
            }
            total_mass += w;
            // Average over arrival slots: probe slot a (1 slot), doze to
            // next index start, read index, then wait for the first
            // occurrence of the page after the index ends.
            let mut sum = 0.0f64;
            for a in 0..c {
                let probe_end = a + 1;
                let idx_start = probe_end + next_index[probe_end % c];
                let idx_end = idx_start + self.index_size;
                #[expect(
                    clippy::expect_used,
                    reason = "guarded by the occ.is_empty() continue above"
                )]
                let target = occ
                    .iter()
                    .map(|&o| {
                        let mut t = o;
                        while t < idx_end {
                            t += c;
                        }
                        t
                    })
                    .min()
                    .expect("non-empty occurrences");
                sum += (target + 1 - a) as f64;
            }
            access += w * sum / cycle;
        }
        assert!(total_mass > 0.0, "no broadcast page has positive weight");
        let tuning = 1.0 + self.index_size as f64 + 1.0;
        (access / total_mass, tuning)
    }

    /// Expected times for the *unindexed* baseline: the client listens
    /// continuously, so tuning time equals access time.
    pub fn baseline_times(program: &BroadcastProgram, probs: &[f64]) -> (f64, f64) {
        assert_eq!(probs.len(), program.db_size());
        let mut total = 0.0;
        let mut mass = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            if exactly_zero(p) {
                continue;
            }
            if let Some(d) = program.expected_slots(PageId(i as u32)) {
                total += p * d;
                mass += p;
            }
        }
        let t = total / mass;
        (t, t)
    }
}

/// The square-root rule for the optimal replication factor:
/// `m* = √(data_cycle / index_size)`, clamped to at least 1.
pub fn optimal_m(data_cycle: usize, index_size: usize) -> usize {
    assert!(data_cycle >= 1 && index_size >= 1);
    ((data_cycle as f64 / index_size as f64).sqrt().round() as usize).max(1)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use crate::assignment::{identity_ranking, Assignment, DiskSpec};

    fn flat_program(n: usize) -> BroadcastProgram {
        let spec = DiskSpec::flat(n);
        BroadcastProgram::generate(&Assignment::from_ranking(&identity_ranking(n), &spec), n)
    }

    fn uniform(n: usize) -> Vec<f64> {
        vec![1.0 / n as f64; n]
    }

    #[test]
    fn cycle_length_includes_index_overhead() {
        let p = flat_program(100);
        let ip = IndexedProgram::new(&p, 5, 4);
        assert_eq!(ip.total_cycle(), 100 + 4 * 5);
        assert_eq!(ip.index_overhead(), 20);
        assert_eq!(ip.m(), 4);
    }

    #[test]
    fn all_data_slots_survive_interleaving() {
        let p = flat_program(60);
        let ip = IndexedProgram::new(&p, 3, 5);
        let data: Vec<IndexedSlot> = (0..ip.total_cycle())
            .map(|i| ip.slot(i))
            .filter(|s| matches!(s, IndexedSlot::Data(_)))
            .collect();
        assert_eq!(data.len(), 60);
    }

    #[test]
    fn tuning_time_is_tiny_compared_to_access() {
        let p = flat_program(500);
        let probs = uniform(500);
        let ip = IndexedProgram::new(&p, 10, optimal_m(500, 10));
        let (access, tuning) = ip.expected_times(&probs);
        assert!(tuning < 15.0, "tuning {tuning}");
        assert!(access > 200.0, "access {access}");
        // The unindexed client listens the whole wait.
        let (b_access, b_tuning) = IndexedProgram::baseline_times(&p, &probs);
        assert_eq!(b_access, b_tuning);
        assert!(tuning < b_tuning / 10.0);
    }

    #[test]
    fn indexing_costs_bounded_access_time_overhead() {
        // Access time grows by the index overhead share, not more.
        let p = flat_program(400);
        let probs = uniform(400);
        let (base_access, _) = IndexedProgram::baseline_times(&p, &probs);
        let ip = IndexedProgram::new(&p, 8, optimal_m(400, 8));
        let (access, _) = ip.expected_times(&probs);
        let overhead = ip.index_overhead() as f64 / 400.0;
        assert!(
            access < base_access * (1.0 + overhead) + ip.total_cycle() as f64 / ip.m() as f64,
            "access {access} vs base {base_access}"
        );
    }

    #[test]
    fn sqrt_rule_is_near_the_empirical_optimum() {
        let p = flat_program(300);
        let probs = uniform(300);
        let index = 12usize;
        let best_m = (1..=12)
            .min_by(|&a, &b| {
                let fa = IndexedProgram::new(&p, index, a).expected_times(&probs).0;
                let fb = IndexedProgram::new(&p, index, b).expected_times(&probs).0;
                fa.partial_cmp(&fb).unwrap()
            })
            .unwrap();
        let rule = optimal_m(300, 12); // 5
        assert!(
            (best_m as i64 - rule as i64).abs() <= 1,
            "empirical {best_m} vs rule {rule}"
        );
    }

    #[test]
    fn multi_disk_program_can_be_indexed() {
        let spec = DiskSpec::new(vec![10, 40, 50], vec![3, 2, 1]);
        let prog = BroadcastProgram::generate(
            &Assignment::from_ranking(&identity_ranking(100), &spec),
            100,
        );
        let ip = IndexedProgram::new(&prog, 6, 8);
        let probs = uniform(100);
        let (access, tuning) = ip.expected_times(&probs);
        assert!(access.is_finite() && access > 0.0);
        assert!(tuning == 8.0);
    }

    #[test]
    fn m_larger_than_cycle_is_clamped() {
        let p = flat_program(4);
        let ip = IndexedProgram::new(&p, 1, 100);
        // One chunk per data slot at most.
        assert!(ip.m() <= 4);
        assert_eq!(ip.total_cycle(), 4 + ip.index_overhead());
    }

    #[test]
    #[should_panic(expected = "empty program")]
    fn empty_program_cannot_be_indexed() {
        let spec = DiskSpec::flat(2);
        let mut a = Assignment::from_ranking(&identity_ranking(2), &spec);
        a.chop(2);
        let p = BroadcastProgram::generate(&a, 2);
        IndexedProgram::new(&p, 1, 1);
    }
}
