//! Channel-tuning policy for K-channel broadcast.
//!
//! A mobile client listens to **one** channel at a time. When an access
//! misses the cache, the client picks the channel that minimizes its
//! expected wait for the missed page and stays tuned there until the page
//! arrives (or a retry forces a re-tune). Because the K-channel generator
//! confines every access set to one channel, the tuned channel always
//! carries everything the client needs next — the conflict-freedom
//! property bpp-verify rule V6 checks statically.

use crate::threshold::ThresholdFilter;
use bpp_broadcast::{MultiChannelProgram, PageId};

/// Where a client's miss goes: the channel it listens on while blocked
/// (which is also the pull shard its request joins) and whether the
/// threshold filter lets a pull request through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The tuned channel.
    pub channel: usize,
    /// The threshold filter's verdict on that channel.
    pub send_request: bool,
}

/// Route a miss on `page`: tune to [`best_channel`] (else the page's
/// [`fallback_channel`]) and judge the threshold with that channel's
/// filter on the winning distance, so the schedule is searched once per
/// channel. A page no channel airs always requests. With one channel this
/// is the paper's single-channel filter on the one broadcast.
#[inline]
pub fn route(
    channels: &MultiChannelProgram,
    cursors: &[usize],
    filters: &[ThresholdFilter],
    page: PageId,
) -> Route {
    let (channel, until) = match best_channel(channels, cursors, page) {
        Some((k, until)) => (k, Some(until)),
        None => (fallback_channel(page, channels.num_channels()), None),
    };
    Route {
        channel,
        send_request: filters[channel].should_request(until),
    }
}

/// The channel a single-tuner client should listen to while waiting for
/// `page`, with its distance: among the channels airing the page, the one
/// whose next occurrence is soonest from its cursor
/// ([`BroadcastProgram::slots_until`] with per-channel `cursors`). Exact
/// distance ties break by smaller long-run expected wait
/// ([`BroadcastProgram::expected_slots`], computed only on a tie) and then
/// by lowest channel index. Returns `None` when no channel airs the page
/// (pull-only everywhere); callers then fall back to
/// [`fallback_channel`].
///
/// [`BroadcastProgram::slots_until`]: bpp_broadcast::BroadcastProgram::slots_until
/// [`BroadcastProgram::expected_slots`]: bpp_broadcast::BroadcastProgram::expected_slots
#[inline]
pub fn best_channel(
    channels: &MultiChannelProgram,
    cursors: &[usize],
    page: PageId,
) -> Option<(usize, usize)> {
    let expected = |k: usize| {
        channels
            .channel(k)
            .expected_slots(page)
            .unwrap_or(f64::INFINITY)
    };
    // (channel, distance, expected wait once a tie has forced it)
    let mut best: Option<(usize, usize, Option<f64>)> = None;
    for (k, &cursor) in cursors.iter().enumerate().take(channels.num_channels()) {
        let Some(until) = channels.channel(k).slots_until(page, cursor) else {
            continue;
        };
        match &mut best {
            Some((_, b_until, _)) if until > *b_until => {}
            Some((b, b_until, b_expected)) if until == *b_until => {
                let b_expected = *b_expected.get_or_insert_with(|| expected(*b));
                let k_expected = expected(k);
                if k_expected < b_expected {
                    best = Some((k, until, Some(k_expected)));
                }
            }
            _ => best = Some((k, until, None)),
        }
    }
    best.map(|(k, until, _)| (k, until))
}

/// Deterministic shard for pages no channel airs (pull-only): every
/// requester of one page must agree on a channel, so the single pull
/// response slot reaches all of the page's waiters.
pub fn fallback_channel(page: PageId, num_channels: usize) -> usize {
    page.index() % num_channels
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpp_broadcast::{Assignment, BroadcastProgram, DiskSpec};

    fn tuned(mc: &MultiChannelProgram, cursors: &[usize], page: PageId) -> Option<usize> {
        best_channel(mc, cursors, page).map(|(k, _)| k)
    }

    fn band(db: usize, lo: u32, hi: u32) -> BroadcastProgram {
        let pages: Vec<PageId> = (lo..hi).map(PageId).collect();
        let spec = DiskSpec::flat(pages.len());
        let a = Assignment::from_ranking(&pages, &spec);
        BroadcastProgram::generate(&a, db)
    }

    #[test]
    fn tunes_to_the_only_channel_airing_the_page() {
        let mc = MultiChannelProgram::from_channels(vec![band(10, 0, 5), band(10, 5, 10)]);
        assert_eq!(tuned(&mc, &[0, 0], PageId(7)), Some(1));
        assert_eq!(tuned(&mc, &[0, 0], PageId(2)), Some(0));
    }

    #[test]
    fn prefers_the_sooner_copy_of_a_duplicated_page() {
        // Both channels air page 3 (period 5); cursors decide which copy
        // comes up first.
        let mc = MultiChannelProgram::from_channels(vec![band(10, 0, 5), band(10, 0, 5)]);
        // Channel 0 is at slot 3 (page 3 next), channel 1 just passed it.
        assert_eq!(tuned(&mc, &[3, 4], PageId(3)), Some(0));
        assert_eq!(tuned(&mc, &[4, 3], PageId(3)), Some(1));
        // Exact tie: lowest channel wins (equal expected waits).
        assert_eq!(tuned(&mc, &[0, 0], PageId(3)), Some(0));
    }

    #[test]
    fn tie_on_distance_breaks_by_expected_wait() {
        // Page 0 on a fast cycle (period 2) on channel 0 and a slow cycle
        // (period 4) on channel 1: same distance from aligned cursors, but
        // channel 0's long-run expected wait is smaller.
        let fast = {
            let pages = vec![PageId(0), PageId(1)];
            let a = Assignment::from_ranking(&pages, &DiskSpec::flat(2));
            BroadcastProgram::generate(&a, 4)
        };
        let slow = {
            let pages = vec![PageId(0), PageId(2), PageId(3), PageId(1)];
            let a = Assignment::from_ranking(&pages, &DiskSpec::flat(4));
            BroadcastProgram::generate(&a, 4)
        };
        assert_eq!(tuned(&mc2(fast, slow), &[0, 0], PageId(0)), Some(0));
    }

    fn mc2(a: BroadcastProgram, b: BroadcastProgram) -> MultiChannelProgram {
        MultiChannelProgram::from_channels(vec![a, b])
    }

    #[test]
    fn pull_only_pages_have_no_channel_and_a_stable_fallback() {
        let mc = MultiChannelProgram::from_channels(vec![band(10, 0, 4), band(10, 4, 8)]);
        assert_eq!(tuned(&mc, &[0, 0], PageId(9)), None);
        assert_eq!(fallback_channel(PageId(9), 2), 1);
        assert_eq!(fallback_channel(PageId(8), 2), 0);
    }
}
