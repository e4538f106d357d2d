//! Qualitative reproduction checks: the orderings, crossovers and
//! saturation effects reported in the paper's evaluation must hold in this
//! implementation. Absolute numbers differ from the paper's (unpublished
//! workload-generator details; see EXPERIMENTS.md) — these tests lock the
//! *shape* of every major claim at the full 1000-page scale.
//!
//! Runs use the quick protocol; each assertion compares means whose gaps
//! are far larger than the measurement noise.

#![expect(clippy::float_cmp, reason = "tests pin exact values")]

use bpp_core::{run_steady_state, run_warmup, Algorithm, MeasurementProtocol, SystemConfig};

fn paper(algo: Algorithm, ttr: f64) -> SystemConfig {
    let mut c = SystemConfig::paper_default();
    c.algorithm = algo;
    c.think_time_ratio = ttr;
    c.pull_bw = 0.5;
    c.thres_perc = 0.0;
    c
}

fn proto() -> MeasurementProtocol {
    MeasurementProtocol::quick()
}

#[test]
fn light_load_pull_beats_push_by_orders_of_magnitude() {
    // §4.1: "At the extreme left ... the pull-based approaches perform
    // similarly and several orders of magnitude better than Pure-Push."
    let pull = run_steady_state(&paper(Algorithm::PurePull, 10.0), &proto());
    let push = run_steady_state(&paper(Algorithm::PurePush, 10.0), &proto());
    assert!(
        pull.mean_response * 20.0 < push.mean_response,
        "pull {} vs push {}",
        pull.mean_response,
        push.mean_response
    );
}

#[test]
fn heavy_load_push_beats_pull() {
    // §4.1: beyond saturation Pure-Pull performs worse than Pure-Push.
    let pull = run_steady_state(&paper(Algorithm::PurePull, 250.0), &proto());
    let push = run_steady_state(&paper(Algorithm::PurePush, 250.0), &proto());
    assert!(
        push.mean_response < pull.mean_response,
        "push {} vs pull {}",
        push.mean_response,
        pull.mean_response
    );
}

#[test]
fn heavy_load_ipp_beats_pure_pull() {
    // §4.1: "IPP ... levels out to a better response time than Pure-Pull
    // when the contention at the server is high" — the safety net.
    let ipp = run_steady_state(&paper(Algorithm::Ipp, 250.0), &proto());
    let pull = run_steady_state(&paper(Algorithm::PurePull, 250.0), &proto());
    assert!(
        ipp.mean_response < pull.mean_response,
        "ipp {} vs pull {}",
        ipp.mean_response,
        pull.mean_response
    );
}

#[test]
fn moderate_load_ipp_loses_to_pure_pull() {
    // §4.2: "IPP loses to Pure-Pull under moderate loads because it sends
    // the same number of requests ... but has less bandwidth".
    let ipp = run_steady_state(&paper(Algorithm::Ipp, 25.0), &proto());
    let pull = run_steady_state(&paper(Algorithm::PurePull, 25.0), &proto());
    assert!(
        pull.mean_response < ipp.mean_response,
        "pull {} vs ipp {}",
        pull.mean_response,
        ipp.mean_response
    );
}

#[test]
fn drop_rate_grows_with_load() {
    let lo = run_steady_state(&paper(Algorithm::PurePull, 10.0), &proto());
    let hi = run_steady_state(&paper(Algorithm::PurePull, 250.0), &proto());
    assert!(
        lo.ignore_rate < 0.10,
        "light load ignores {}",
        lo.ignore_rate
    );
    assert!(hi.drop_rate > 0.30, "heavy load drops {}", hi.drop_rate);
}

#[test]
fn ipp_saturates_earlier_than_pure_pull() {
    // §4.2: at the same load, IPP's server drops more requests than
    // Pure-Pull's (paper: 68.8% vs 39.9% at TTR=50).
    let ipp = run_steady_state(&paper(Algorithm::Ipp, 50.0), &proto());
    let pull = run_steady_state(&paper(Algorithm::PurePull, 50.0), &proto());
    assert!(
        ipp.ignore_rate > pull.ignore_rate,
        "ipp {} vs pull {}",
        ipp.ignore_rate,
        pull.ignore_rate
    );
}

#[test]
fn threshold_extends_ipp_scalability() {
    // §4.2 / Figure 6: at a moderate-heavy load, a 25% threshold must beat
    // the unthresholded IPP by unloading the server.
    let mut with = paper(Algorithm::Ipp, 75.0);
    with.thres_perc = 0.25;
    let without = paper(Algorithm::Ipp, 75.0);
    let rw = run_steady_state(&with, &proto());
    let ro = run_steady_state(&without, &proto());
    assert!(
        rw.mean_response < ro.mean_response,
        "thres 25% {} vs 0% {}",
        rw.mean_response,
        ro.mean_response
    );
    assert!(rw.drop_rate <= ro.drop_rate + 0.02);
}

#[test]
fn threshold_hurts_at_very_light_load() {
    // §4.2: "Under low loads, threshold hurts performance by unnecessarily
    // constraining clients."
    let mut with = paper(Algorithm::Ipp, 10.0);
    with.thres_perc = 0.35;
    let without = paper(Algorithm::Ipp, 10.0);
    let rw = run_steady_state(&with, &proto());
    let ro = run_steady_state(&without, &proto());
    assert!(
        ro.mean_response < rw.mean_response,
        "no-thres {} vs thres {}",
        ro.mean_response,
        rw.mean_response
    );
}

#[test]
fn noise_hurts_pull_only_under_load() {
    // §4.1.4 / Figure 5(a): Pure-Pull is Noise-insensitive at light load
    // and heavily penalised at high load.
    let mk = |noise: f64, ttr: f64| {
        let mut c = paper(Algorithm::PurePull, ttr);
        c.noise = noise;
        c
    };
    let light_zero = run_steady_state(&mk(0.0, 10.0), &proto());
    let light_noisy = run_steady_state(&mk(0.35, 10.0), &proto());
    assert!(
        (light_noisy.mean_response - light_zero.mean_response).abs()
            < light_zero.mean_response.max(1.0) * 1.5,
        "light load should be noise-insensitive: {} vs {}",
        light_noisy.mean_response,
        light_zero.mean_response
    );
    let heavy_zero = run_steady_state(&mk(0.0, 250.0), &proto());
    let heavy_noisy = run_steady_state(&mk(0.35, 250.0), &proto());
    assert!(
        heavy_noisy.mean_response > heavy_zero.mean_response * 1.08,
        "heavy load must punish noise: {} vs {}",
        heavy_noisy.mean_response,
        heavy_zero.mean_response
    );
}

#[test]
fn warmup_pull_fastest_when_light_push_best_when_heavy() {
    // §4.1.3 / Figure 4: warm-up order inverts with load.
    let p = proto();
    let t95 = |r: &bpp_core::WarmupResult| r.times.last().copied().flatten().unwrap_or(f64::MAX);
    let pull_light = t95(&run_warmup(&paper(Algorithm::PurePull, 25.0), &p));
    let push_light = t95(&run_warmup(&paper(Algorithm::PurePush, 25.0), &p));
    assert!(
        pull_light < push_light,
        "light: pull {pull_light} vs push {push_light}"
    );
    let pull_heavy = t95(&run_warmup(&paper(Algorithm::PurePull, 250.0), &p));
    let push_heavy = t95(&run_warmup(&paper(Algorithm::PurePush, 250.0), &p));
    assert!(
        push_heavy < pull_heavy,
        "heavy: push {push_heavy} vs pull {pull_heavy}"
    );
}

#[test]
fn restricted_push_needs_adequate_pull_bandwidth() {
    // §4.3 / Figure 7(b): with a threshold, chopping helps at PullBW 50%
    // but a starved PullBW 10% cannot absorb the chopped pages.
    let mk = |bw: f64, chop: usize| {
        let mut c = paper(Algorithm::Ipp, 25.0);
        c.pull_bw = bw;
        c.thres_perc = 0.35;
        c.chop = chop;
        c
    };
    let p = proto();
    let rich_full = run_steady_state(&mk(0.5, 0), &p);
    let rich_chop = run_steady_state(&mk(0.5, 500), &p);
    assert!(
        rich_chop.mean_response < rich_full.mean_response,
        "PullBW 50%: chop {} vs full {}",
        rich_chop.mean_response,
        rich_full.mean_response
    );
    let poor_chop = run_steady_state(&mk(0.1, 700), &p);
    assert!(
        poor_chop.mean_response > rich_chop.mean_response * 2.0,
        "PullBW 10% chopped {} should collapse vs 50% {}",
        poor_chop.mean_response,
        rich_chop.mean_response
    );
}

#[test]
fn pure_push_line_is_flat_across_load() {
    // Figure 3(a)'s flat line, at full scale.
    let a = run_steady_state(&paper(Algorithm::PurePush, 10.0), &proto());
    let b = run_steady_state(&paper(Algorithm::PurePush, 250.0), &proto());
    assert_eq!(a.mean_response, b.mean_response);
}
