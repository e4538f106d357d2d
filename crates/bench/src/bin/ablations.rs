//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Cache policy** (Pure-Push): PIX vs. P vs. LRU vs. LFU — reproduces
//!    the \[Acha95a\] claim that probability-only and recency policies lose
//!    to cost-based PIX on a multi-disk broadcast.
//! 2. **Offset** (Pure-Push): offset on vs. off — why the server shifts the
//!    client-cached hot pages to the slowest disk.
//! 3. **Queue discipline** (IPP under load): FIFO vs. most-requested-first.
//! 4. **Adaptive IPP** (extension): static knobs vs. the drop-rate-driven
//!    controller across the load sweep.
//!
//! `--smoke` instead runs a fixed set of single-channel cells — the
//! adaptive controller (plain and across scheduled crashes), saturation
//! degrade, most-requested-first, updates with prefetch, Pure-Pull, a
//! chopped program with the per-disk obs timelines, two Figure-4 warm-up
//! worlds, Pure-Push under the LRU and LFU caches, and retries fed back by
//! refused and admission-rejected sends (the MC alone and with a fleet) —
//! at seed 42 on the quick protocol, and prints their results as one JSON
//! object;
//! `scripts/ci.sh` compares the output byte-for-byte against
//! `results/k1_parity_smoke.json`.

use bpp_bench::{smoke_cell, Opts};
use bpp_core::adaptive::{run_adaptive, DEFAULT_INTERVAL};
use bpp_core::experiments::{par_run, TTR_GRID};
use bpp_core::report::{fmt_units, Table};
use bpp_core::{
    run_steady_state, run_warmup, AdmissionConfig, Algorithm, CachePolicy, ClientPopulation,
    CrashConfig, FaultConfig, MeasurementProtocol, QueueDiscipline, RetryPolicy, SaturationPolicy,
    SystemConfig,
};
use bpp_json::{Json, ToJson};

fn smoke() {
    let proto = MeasurementProtocol::quick();
    let base = {
        let mut c = SystemConfig::small();
        c.algorithm = Algorithm::Ipp;
        c.pull_bw = 0.5;
        c.thres_perc = 0.1;
        c.think_time_ratio = 50.0;
        c.seed = 42;
        c
    };
    let with = |edit: &dyn Fn(&mut SystemConfig)| {
        let mut c = base.clone();
        edit(&mut c);
        c
    };
    // A fast controller: ten times as many decisions as the default.
    let fast_controller = 200;
    // Retries after refused (crashed server) and admission-rejected sends,
    // on top of loss: the feedback branches of `reconnect_delay`.
    let retry_feedback = SystemConfig {
        think_time_ratio: 25.0,
        fault: FaultConfig {
            retry: RetryPolicy {
                max_retries: 3,
                base_timeout: 8.0,
                backoff_factor: 2.0,
                max_backoff: 64.0,
                jitter: 0.5,
            },
            crash: CrashConfig {
                downtime: 60.0,
                schedule: vec![1_500.0, 4_000.0, 9_000.0],
                reconnect_jitter: 0.5,
                recovery_epsilon: 0.25,
            },
            admission: AdmissionConfig {
                rate: 1.0,
                burst: 4.0,
                retry_after: 16.0,
            },
            brownout_period: 700.0,
            brownout_duration: 50.0,
            ..FaultConfig::lossy(0.1)
        },
        ..smoke_cell()
    };
    let cells: Vec<(&str, Json)> = vec![
        (
            "adaptive",
            run_adaptive(&base, &proto, fast_controller).to_json(),
        ),
        (
            "adaptive_crash",
            run_adaptive(
                &with(&|c| {
                    c.fault.crash = CrashConfig {
                        downtime: 40.0,
                        schedule: vec![1_500.0, 4_000.0],
                        recovery_epsilon: 0.2,
                        ..CrashConfig::none()
                    };
                }),
                &proto,
                fast_controller,
            )
            .to_json(),
        ),
        (
            "degrade",
            run_steady_state(
                &with(&|c| {
                    c.think_time_ratio = 16.0;
                    c.fault.degrade = SaturationPolicy {
                        on_occupancy: 0.5,
                        off_occupancy: 0.2,
                        shed_to: 0.6,
                        smoothing: 0.05,
                    };
                    c.obs.enabled = true;
                    c.obs.timeline_stride = 2_000.0;
                }),
                &proto,
            )
            .to_json(),
        ),
        (
            "most_requested",
            run_steady_state(
                &with(&|c| {
                    c.think_time_ratio = 250.0;
                    c.queue_discipline = QueueDiscipline::MostRequested;
                }),
                &proto,
            )
            .to_json(),
        ),
        (
            "updates_prefetch",
            run_steady_state(
                &with(&|c| {
                    c.update_rate = 0.05;
                    c.mc_prefetch = true;
                }),
                &proto,
            )
            .to_json(),
        ),
        (
            "pure_pull",
            run_steady_state(&with(&|c| c.algorithm = Algorithm::PurePull), &proto).to_json(),
        ),
        (
            "chop",
            run_steady_state(
                &with(&|c| {
                    c.chop = 50;
                    c.obs.enabled = true;
                    c.obs.timeline_stride = 2_000.0;
                    c.obs.disk_share = true;
                }),
                &proto,
            )
            .to_json(),
        ),
        ("warmup_ipp", run_warmup(&base, &proto).to_json()),
        (
            "warmup_push_prefetch",
            run_warmup(
                &with(&|c| {
                    c.algorithm = Algorithm::PurePush;
                    c.mc_prefetch = true;
                }),
                &proto,
            )
            .to_json(),
        ),
        (
            "push_lru",
            run_steady_state(
                &with(&|c| {
                    c.algorithm = Algorithm::PurePush;
                    c.mc_cache_policy = Some(CachePolicy::Lru);
                }),
                &proto,
            )
            .to_json(),
        ),
        (
            "push_lfu",
            run_steady_state(
                &with(&|c| {
                    c.algorithm = Algorithm::PurePush;
                    c.mc_cache_policy = Some(CachePolicy::Lfu);
                }),
                &proto,
            )
            .to_json(),
        ),
        (
            "retry_feedback",
            run_steady_state(&retry_feedback, &proto).to_json(),
        ),
        (
            "fleet_retry_feedback",
            run_steady_state(
                &SystemConfig {
                    population: ClientPopulation::fleet(300),
                    ..retry_feedback.clone()
                },
                &proto,
            )
            .to_json(),
        ),
    ];
    println!("{}", bpp_json::to_string_pretty(&Json::object(cells)));
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let opts = Opts::parse();
    let base = opts.base();
    let proto = opts.protocol();

    // --- 1. Cache policy under Pure-Push. ---
    let mut t = Table::new(
        "Ablation 1 — MC cache policy under Pure-Push",
        &["policy", "response (bu)", "hit rate"],
    );
    for (name, policy) in [
        ("PIX (paper)", CachePolicy::Pix),
        ("P", CachePolicy::P),
        ("LRU", CachePolicy::Lru),
        ("LFU", CachePolicy::Lfu),
    ] {
        let mut c = base.clone();
        c.algorithm = Algorithm::PurePush;
        c.mc_cache_policy = Some(policy);
        let r = run_steady_state(&c, &proto);
        t.push_row(vec![
            name.into(),
            fmt_units(r.mean_response),
            format!("{:.1}%", r.mc_hit_rate * 100.0),
        ]);
    }
    println!("{}", t.render());

    // --- 2. Offset on/off under Pure-Push. ---
    let mut t = Table::new(
        "Ablation 2 — Offset transform under Pure-Push",
        &["offset", "response (bu)", "hit rate"],
    );
    for on in [true, false] {
        let mut c = base.clone();
        c.algorithm = Algorithm::PurePush;
        c.offset = on;
        let r = run_steady_state(&c, &proto);
        t.push_row(vec![
            on.to_string(),
            fmt_units(r.mean_response),
            format!("{:.1}%", r.mc_hit_rate * 100.0),
        ]);
    }
    println!("{}", t.render());

    // --- 3. Queue discipline under loaded IPP. ---
    let mut t = Table::new(
        "Ablation 3 — server queue discipline, IPP PullBW=50%",
        &["TTR", "FIFO (paper)", "MostRequested"],
    );
    // Both disciplines in one pool call: FIFO cells first, then MRF.
    let mut configs: Vec<SystemConfig> = Vec::new();
    for disc in [QueueDiscipline::Fifo, QueueDiscipline::MostRequested] {
        for &ttr in &TTR_GRID {
            let mut c = base.clone();
            c.algorithm = Algorithm::Ipp;
            c.pull_bw = 0.5;
            c.think_time_ratio = ttr;
            c.queue_discipline = disc;
            configs.push(c);
        }
    }
    let results = par_run(&configs, &proto);
    let (fifo, mrf) = results.split_at(TTR_GRID.len());
    for ((ttr, f), m) in TTR_GRID.iter().zip(fifo).zip(mrf) {
        t.push_row(vec![
            fmt_units(*ttr),
            fmt_units(f.mean_response),
            fmt_units(m.mean_response),
        ]);
    }
    println!("{}", t.render());

    // --- 3b. Opportunistic prefetching (extension, [Acha96a]). ---
    let mut t = Table::new(
        "Ablation 3b — demand caching vs opportunistic prefetch (Pure-Push)",
        &["metric", "demand (paper)", "prefetch"],
    );
    {
        let mk = |prefetch: bool| {
            let mut c = base.clone();
            c.algorithm = Algorithm::PurePush;
            c.mc_prefetch = prefetch;
            c
        };
        let rd = run_steady_state(&mk(false), &proto);
        let rp = run_steady_state(&mk(true), &proto);
        t.push_row(vec![
            "steady-state response (bu)".into(),
            fmt_units(rd.mean_response),
            fmt_units(rp.mean_response),
        ]);
        let wd = bpp_core::run_warmup(&mk(false), &proto);
        let wp = bpp_core::run_warmup(&mk(true), &proto);
        let last = |w: &bpp_core::WarmupResult| {
            w.times
                .last()
                .copied()
                .flatten()
                .map_or("> cap".to_string(), fmt_units)
        };
        t.push_row(vec!["95% warm-up time (bu)".into(), last(&wd), last(&wp)]);
    }
    println!("{}", t.render());

    // --- 4. Static vs adaptive IPP. ---
    let mut t = Table::new(
        "Ablation 4 — static IPP (PullBW=50%, Thres=0) vs adaptive IPP",
        &["TTR", "static", "adaptive", "final PullBW", "final Thres"],
    );
    for &ttr in &TTR_GRID {
        let mut c = base.clone();
        c.algorithm = Algorithm::Ipp;
        c.pull_bw = 0.5;
        c.thres_perc = 0.0;
        c.think_time_ratio = ttr;
        let stat = run_steady_state(&c, &proto);
        let adpt = run_adaptive(&c, &proto, DEFAULT_INTERVAL);
        t.push_row(vec![
            fmt_units(ttr),
            fmt_units(stat.mean_response),
            fmt_units(adpt.steady.mean_response),
            format!("{:.0}%", adpt.final_pull_bw * 100.0),
            format!("{:.0}%", adpt.final_thres_perc * 100.0),
        ]);
    }
    println!("{}", t.render());
}
