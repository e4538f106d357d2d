//! The client-side threshold filter.
//!
//! "The client sends a pull request for page p only if the number of slots
//! before p is scheduled to appear in the periodic broadcast is greater
//! than the threshold parameter... expressed as a percentage of the major
//! cycle length."
//!
//! Pages that are not on the push schedule at all ("chopped" pages) have no
//! scheduled appearance and always pass the filter — with a restricted push
//! schedule, "all non-broadcast pages pass the threshold filter and the
//! effect is to reserve more of the backchannel capability for those pages".

/// Threshold filter with a precomputed slot bound.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdFilter {
    thres_slots: usize,
}

impl ThresholdFilter {
    /// Build from `thres_perc` (fraction of the major cycle, in `[0, 1]`).
    ///
    /// With `thres_perc = 0` every miss is requested; with `thres_perc = 1`
    /// (and the whole database broadcast) no page can be farther away than
    /// a full cycle, so nothing is requested.
    pub fn from_percentage(thres_perc: f64, major_cycle: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&thres_perc),
            "ThresPerc must be in [0,1], got {thres_perc}"
        );
        ThresholdFilter {
            thres_slots: (thres_perc * major_cycle as f64).round() as usize,
        }
    }

    /// A filter that passes everything (ThresPerc = 0, or Pure-Pull where
    /// thresholds are not meaningful).
    pub fn pass_all() -> Self {
        ThresholdFilter { thres_slots: 0 }
    }

    /// The bound in schedule slots.
    pub fn slots(&self) -> usize {
        self.thres_slots
    }

    /// Should a miss be requested over the backchannel, given how many
    /// schedule slots away the page's next push appearance is
    /// ([`BroadcastProgram::slots_until`] from the server's cursor)?
    ///
    /// [`BroadcastProgram::slots_until`]: bpp_broadcast::BroadcastProgram::slots_until
    pub fn should_request(&self, slots_until: Option<usize>) -> bool {
        match slots_until {
            None => true, // not on the broadcast: the backchannel is the only way
            Some(dist) => dist > self.thres_slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpp_broadcast::{
        assignment::identity_ranking, Assignment, BroadcastProgram, DiskSpec, PageId,
    };

    fn requests(f: &ThresholdFilter, p: &BroadcastProgram, page: u32, cursor: usize) -> bool {
        f.should_request(p.slots_until(PageId(page), cursor))
    }

    fn program() -> BroadcastProgram {
        // Fig. 1 layout: a b d a c e a b f a c g (major cycle 12).
        let spec = DiskSpec::new(vec![1, 2, 4], vec![4, 2, 1]);
        let a = Assignment::from_ranking(&identity_ranking(7), &spec);
        BroadcastProgram::generate(&a, 7)
    }

    #[test]
    fn zero_threshold_requests_everything() {
        let p = program();
        let f = ThresholdFilter::from_percentage(0.0, p.major_cycle());
        for i in 0..7 {
            assert!(requests(&f, &p, i, 0));
        }
    }

    #[test]
    fn full_threshold_requests_nothing_broadcast() {
        let p = program();
        let f = ThresholdFilter::from_percentage(1.0, p.major_cycle());
        for i in 0..7 {
            for cursor in 0..12 {
                assert!(!requests(&f, &p, i, cursor));
            }
        }
    }

    #[test]
    fn quarter_threshold_filters_near_pages() {
        let p = program();
        // Major cycle 12, ThresPerc 25% -> 3 slots.
        let f = ThresholdFilter::from_percentage(0.25, p.major_cycle());
        assert_eq!(f.slots(), 3);
        // At cursor 0: a is 1 slot away (<=3, filtered), g is 12 away.
        assert!(!requests(&f, &p, 0, 0));
        assert!(requests(&f, &p, 6, 0));
        // e sits at slot 5: distance 6 from cursor 0 -> requested.
        assert!(requests(&f, &p, 4, 0));
        // From cursor 5 e is 1 slot away -> filtered.
        assert!(!requests(&f, &p, 4, 5));
    }

    #[test]
    fn chopped_pages_always_pass() {
        let spec = DiskSpec::new(vec![2, 2], vec![2, 1]);
        let mut a = Assignment::from_ranking(&identity_ranking(4), &spec);
        a.chop(2);
        let p = BroadcastProgram::generate(&a, 4);
        let f = ThresholdFilter::from_percentage(1.0, p.major_cycle());
        assert!(requests(&f, &p, 3, 0));
        assert!(!requests(&f, &p, 0, 0));
    }

    #[test]
    fn pass_all_is_zero_slots() {
        let f = ThresholdFilter::pass_all();
        assert_eq!(f.slots(), 0);
    }
}
