//! Crash–recovery and chaos-harness integration tests: the acceptance
//! criteria of the crash-domain PR.
//!
//! * a disabled crash domain is *invisible* — no `crash` or `admission`
//!   JSON members anywhere, results byte-identical run to run;
//! * a 10⁴-client restart herd recovers even when the admission layer is
//!   bouncing most of the reconnect burst — rejections feed retry-after
//!   backoff instead of losing requests;
//! * the conservation auditor actually bites: a tampered ledger reports
//!   violations and `assert_clean` panics.

#![expect(clippy::float_cmp, reason = "tests pin exact values")]

use bpp_client::RetryPolicy;
use bpp_core::{
    run_chaos, run_steady_state, AdmissionConfig, Algorithm, ClientPopulation, CrashConfig,
    FaultConfig, FaultPhase, FaultSchedule, MeasurementProtocol, SystemConfig,
};
use bpp_json::ToJson;

fn ipp_small() -> SystemConfig {
    let mut c = SystemConfig::small();
    c.algorithm = Algorithm::Ipp;
    c.pull_bw = 0.5;
    c.thres_perc = 0.0;
    c.steady_state_perc = 0.95;
    c
}

#[test]
fn crash_disabled_runs_are_byte_identical_and_crash_invisible() {
    // The fault model is on (so a FaultReport is emitted) but the crash
    // domain and admission layer are not: neither may leave a trace.
    let mut cfg = ipp_small();
    cfg.fault = FaultConfig::lossy(0.05);
    assert!(!cfg.fault.crash.enabled());
    assert!(!cfg.fault.admission.enabled());
    let proto = MeasurementProtocol::quick();
    let a = run_steady_state(&cfg, &proto);
    let f = a.fault.expect("fault model enabled");
    assert!(f.crash.is_none());
    let text = bpp_json::to_string(&a.to_json());
    assert!(
        !text.contains("\"crash\"") && !text.contains("\"admission\""),
        "disabled crash domain must not appear in serialized results"
    );
    let cfg_text = bpp_json::to_string(&cfg.to_json());
    assert!(!cfg_text.contains("\"crash\"") && !cfg_text.contains("\"admission\""));
    // Byte-identity: same config, same serialization — the crash plumbing
    // (audit counters, outcome enums) costs nothing when disabled.
    let b = run_steady_state(&cfg, &proto);
    assert_eq!(text, bpp_json::to_string(&b.to_json()));
}

#[test]
fn restart_herd_of_ten_thousand_recovers_under_heavy_rejection() {
    let mut cfg = ipp_small();
    cfg.think_time_ratio = 25.0;
    cfg.server_queue_size = 1_000;
    cfg.population = ClientPopulation::fleet(10_000);
    cfg.fault.retry = RetryPolicy {
        max_retries: 6,
        base_timeout: 8.0,
        backoff_factor: 2.0,
        max_backoff: 64.0,
        jitter: 0.0,
    };
    cfg.fault.crash = CrashConfig {
        downtime: 100.0,
        schedule: vec![5_000.0],
        reconnect_jitter: 0.5,
        recovery_epsilon: 0.5,
    };
    // A bucket far below the fleet's reconnect burst: most of the herd is
    // bounced with a retry-after hint at restart.
    cfg.fault.admission = AdmissionConfig {
        rate: 2.0,
        burst: 2.0,
        retry_after: 32.0,
    };
    cfg.seed = 4242;
    let mut proto = MeasurementProtocol::quick();
    proto.max_accesses = 2_000;
    proto.skip_accesses = 100;
    let r = run_steady_state(&cfg, &proto);
    assert!(r.error.is_none());
    let c = r
        .fault
        .as_ref()
        .and_then(|f| f.crash)
        .expect("crash section present");
    assert_eq!(c.crashes, 1);
    assert_eq!(c.first_crash_at, Some(5_000.0));
    assert!(c.down_slots > 0);
    assert!(
        c.admission_rejected > 0,
        "the bucket must actually bounce part of the herd"
    );
    assert!(c.herd_peak_depth > 0);
    assert!(
        c.recoveries >= 1,
        "the fleet must re-converge despite heavy rejection \
         (rejected {} of {} admitted)",
        c.admission_rejected,
        c.admitted
    );
    assert!(r.mean_response.is_finite() && r.mean_response > 0.0);
}

#[test]
fn channel_brownouts_push_tuned_clients_through_retry_and_stay_conserved() {
    // K-channel failover under chaos: a brownout phase blacks out each
    // pull shard in turn (the per-channel phase shifts stagger the window,
    // so one brownout never takes every shard down at once). Tuned fleet
    // clients whose shard is browned out must ride the retry path, the
    // conservation ledger must still balance every request, and the obs
    // layer must expose one `fault.ch<k>.state` timeline per channel.
    let mut cfg = ipp_small();
    cfg.num_channels = 4;
    cfg.think_time_ratio = 10.0;
    cfg.population = ClientPopulation::fleet(300);
    cfg.fault.retry = RetryPolicy {
        max_retries: 4,
        base_timeout: 8.0,
        backoff_factor: 2.0,
        max_backoff: 64.0,
        jitter: 0.0,
    };
    cfg.obs.enabled = true;
    cfg.seed = 31;
    let schedule = FaultSchedule {
        phases: vec![
            FaultPhase::calm(500.0),
            FaultPhase {
                duration: 2_000.0,
                brownout_period: 200.0,
                brownout_duration: 80.0,
                ..FaultPhase::calm(500.0)
            },
            FaultPhase::calm(500.0),
        ],
    };
    let mut proto = MeasurementProtocol::quick();
    proto.max_accesses = 2_000;
    proto.skip_accesses = 100;
    let r = run_chaos(&cfg, &proto, &schedule);

    // run_chaos audits internally; double-check the ledger balances and
    // actually carried traffic through the storm.
    assert!(r.ledger.violations().is_empty());
    assert_eq!(r.ledger.sent, r.ledger.accounted());
    assert!(r.ledger.sent > 0 && r.ledger.served > 0);

    let f = r.result.fault.as_ref().expect("fault model enabled");
    assert!(
        f.channel.requests_browned_out > 0,
        "the brownout windows must discard part of the shard traffic"
    );
    assert!(
        f.retries > 0,
        "browned-out shards must force tuned clients through the retry path"
    );

    // Per-channel brownout-state timelines: one per channel, and the
    // staggered windows must actually register on at least one shard.
    let obs = r.result.obs.as_ref().expect("obs layer enabled");
    let mut peak = 0.0_f64;
    for k in 0..cfg.num_channels {
        let name = format!("fault.ch{k}.state");
        let (_, tl) = obs
            .timelines
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} timeline missing"));
        for (_, _, max) in tl.points() {
            peak = peak.max(max);
        }
    }
    assert_eq!(peak, 1.0, "some channel must sample as browned out");
}

#[test]
fn a_tampered_ledger_fails_the_audit() {
    let mut cfg = ipp_small();
    cfg.fault.crash.downtime = 20.0;
    cfg.seed = 11;
    let schedule = FaultSchedule {
        phases: vec![
            FaultPhase::calm(500.0),
            FaultPhase {
                duration: 500.0,
                request_loss: 0.1,
                crash_offset: Some(100.0),
                ..FaultPhase::calm(500.0)
            },
        ],
    };
    // run_chaos audits internally; reaching here means the real ledger is
    // clean.
    let r = run_chaos(&cfg, &MeasurementProtocol::quick(), &schedule);
    assert!(r.ledger.violations().is_empty());
    assert_eq!(r.ledger.sent, r.ledger.accounted());

    // Seeded mutations: each invariant must trip on its own.
    let mut lost = r.ledger;
    lost.served += 1;
    let v = lost.violations();
    assert!(v
        .iter()
        .any(|m| m.contains("request conservation violated")));

    let mut deep = r.ledger;
    deep.peak_queue_depth = deep.queue_capacity + 1;
    let v = deep.violations();
    assert!(v.iter().any(|m| m.contains("queue bound violated")));

    let mut warped = r.ledger;
    warped.time_regressions = 1;
    let v = warped.violations();
    assert!(v.iter().any(|m| m.contains("monotone time violated")));

    let result = std::panic::catch_unwind(move || lost.assert_clean());
    assert!(result.is_err(), "assert_clean must panic on a dirty ledger");
}
