//! Parameter grids regenerating every figure of the paper's evaluation.
//!
//! Each `figN*` function returns a [`Figure`]: labelled series of (x, y)
//! points matching the corresponding plot in the paper. The `bpp-bench`
//! binaries render these as tables/CSV. All functions take a *base*
//! configuration (usually [`SystemConfig::paper_default`]) so tests can run
//! the same grids on a scaled-down system.
//!
//! Runs within a figure are independent. Each figure queues all of its
//! cells up front — flat reference lines, warm-ups and every sweep — and
//! runs them as one batch on a thread pool ([`par_run`]), so no core idles
//! at a series boundary. Every run derives its seed deterministically from
//! the base seed, so figures are reproducible end to end.

use crate::config::{
    Algorithm, ClientPopulation, CrashConfig, FaultConfig, MeasurementProtocol, SystemConfig,
};
use crate::fault::CrashReport;
use crate::runner::{run_steady_state, run_warmup, SteadyStateResult};
use bpp_client::RetryPolicy;
use bpp_server::AdmissionConfig;
use bpp_sim::approx::exactly_zero;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The ThinkTimeRatio sweep of Figures 3, 5 and 8.
pub const TTR_GRID: [f64; 5] = [10.0, 25.0, 50.0, 100.0, 250.0];

/// The finer sweep of Figure 6.
pub const TTR_GRID_FINE: [f64; 7] = [10.0, 25.0, 35.0, 50.0, 75.0, 100.0, 250.0];

/// The truncation sweep of Figure 7 (pages removed from the push schedule).
pub const CHOP_GRID: [usize; 8] = [0, 100, 200, 300, 400, 500, 600, 700];

/// Channel loss rates swept by the robustness scenario ([`loss_sweep`]).
pub const LOSS_GRID: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// Population sizes swept by the million-client scenario ([`fleet_sweep`]):
/// the arena fleet must converge to the aggregate Virtual Client as the
/// population grows (per-client think times scale with the population, so
/// the offered aggregate rate is constant along the sweep).
pub const FLEET_GRID: [usize; 5] = [10, 50, 200, 1_000, 5_000];

/// ThinkTimeRatio grid for the robustness scenario — denser at the loaded
/// end (TTR=1 is the acceptance point for bounded degradation under loss).
pub const LOSS_TTR_GRID: [f64; 5] = [1.0, 10.0, 25.0, 50.0, 100.0];

/// Population sizes swept by the crash–recovery scenario ([`crash_sweep`]):
/// the restart herd scales with the number of clients blocked during the
/// outage, so the admission layer's value shows at the large end.
pub const CRASH_GRID: [usize; 3] = [100, 1_000, 10_000];

/// Channel counts swept by the K-channel scenario ([`channel_sweep`]): K
/// lock-step channels carry K-fold aggregate bandwidth, so response time
/// must fall with K at any fixed load.
pub const CHANNEL_GRID: [usize; 4] = [1, 2, 4, 8];

/// ThinkTimeRatio points at which [`channel_sweep`] draws its curves — one
/// series per load level, lightest first (VC intensity grows with TTR).
pub const CHANNEL_TTR_GRID: [f64; 3] = [10.0, 50.0, 250.0];

/// One labelled curve.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (matches the paper's curve names).
    pub label: String,
    /// (x, y) points.
    pub points: Vec<(f64, f64)>,
    /// Companion per-point results (same order), for drop rates etc.
    pub results: Vec<SteadyStateResult>,
}

/// One reproduced figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier, e.g. "3a".
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

/// Extract a human-readable message from a payload caught by
/// `catch_unwind`.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Apply `f` to every item on `available_parallelism` worker threads,
/// preserving order. Workers take the next unclaimed index, so dispatch is
/// in input order. Each call runs under `catch_unwind`: a panicking item
/// yields its payload as `Err` and the rest of the batch completes.
#[expect(
    clippy::expect_used,
    reason = "lock poisoning is impossible: worker closures catch_unwind around the only \
              panic source; thread::scope joins every worker before returning, so the Mutex \
              is free; the work-stealing loop covers every index exactly once"
)]
fn par_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<std::thread::Result<R>> {
    let n = items.len();
    let results: Mutex<Vec<Option<std::thread::Result<R>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            #[expect(
                clippy::disallowed_methods,
                reason = "deterministic fan-out over independent seeded cells; results are \
                          joined in input order"
            )]
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&items[i])));
                results.lock().expect("no panics hold the lock")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("scope joined all workers")
        .into_iter()
        .map(|r| r.expect("every index was filled"))
        .collect()
}

/// Run `configs` on `available_parallelism` worker threads, preserving
/// order. Deterministic: each config carries its own seed.
///
/// Panic-safe: a cell that panics (e.g. an invalid configuration slipping
/// into a sweep, or a dirty conservation ledger) yields
/// [`SteadyStateResult::failed`] with the panic message in its `error`
/// field, and the rest of the sweep completes normally.
pub fn par_run(configs: &[SystemConfig], proto: &MeasurementProtocol) -> Vec<SteadyStateResult> {
    par_map(configs, |c| run_steady_state(c, proto))
        .into_iter()
        .zip(configs)
        .map(|(r, c)| {
            r.unwrap_or_else(|payload| {
                SteadyStateResult::failed(panic_message(payload.as_ref()), c)
            })
        })
        .collect()
}

/// Derive a per-run seed so that every point of every figure is an
/// independent but reproducible sample.
///
/// The mix is the splitmix64 finalizer (full avalanche). The previous
/// `base ^ tag·K` mix was linear in `tag`, so the tag families used by
/// different figures (`tag * 1000 + i` for sweeps vs. small literals like
/// `50 + tag`) could collide and hand two distinct cells the same RNG
/// streams. The finalizer is a bijection on `u64`, hence injective in
/// `tag` for any fixed `base`.
///
/// Public so that a single figure cell can be reproduced outside its
/// figure: the cell's config is the base with its tweaks and
/// `seed = derive_seed(base.seed, tag)`.
pub fn derive_seed(base: u64, tag: u64) -> u64 {
    let mut z = base.wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One figure's steady-state cells, queued up front and run in a single
/// [`par_run`] call so no core idles at a series boundary. Each queued
/// series records its label, x values and the index of the result behind
/// every point; [`Batch::run`] rebuilds the series from those indices.
struct Batch<'a> {
    base: &'a SystemConfig,
    configs: Vec<SystemConfig>,
    series: Vec<(String, Vec<f64>, Vec<usize>)>,
}

impl<'a> Batch<'a> {
    fn new(base: &'a SystemConfig) -> Self {
        Batch {
            base,
            configs: Vec::new(),
            series: Vec::new(),
        }
    }

    /// A series whose `i`-th point is the run of `configs[i]` at `xs[i]`.
    fn points(&mut self, label: &str, xs: &[f64], configs: Vec<SystemConfig>) {
        let first = self.configs.len();
        self.configs.extend(configs);
        self.series.push((
            label.to_string(),
            xs.to_vec(),
            (first..self.configs.len()).collect(),
        ));
    }

    /// A flat reference line: one run of `config` replicated across `xs`.
    fn flat(&mut self, label: &str, xs: &[f64], config: SystemConfig) {
        let i = self.configs.len();
        self.configs.push(config);
        self.series
            .push((label.to_string(), xs.to_vec(), vec![i; xs.len()]));
    }

    /// Sweep the ThinkTimeRatio over `grid`, point `i` seeded from
    /// `tag * 1000 + i`.
    fn sweep_ttr(
        &mut self,
        grid: &[f64],
        label: &str,
        tag: u64,
        tweak: impl Fn(&mut SystemConfig),
    ) {
        let configs = grid
            .iter()
            .enumerate()
            .map(|(i, &ttr)| {
                let mut c = self.base.clone();
                c.think_time_ratio = ttr;
                c.seed = derive_seed(self.base.seed, tag * 1000 + i as u64);
                tweak(&mut c);
                c
            })
            .collect();
        self.points(label, grid, configs);
    }

    /// Pure-Push is independent of the client population; run it once and
    /// replicate the value across the grid (exactly how the paper plots its
    /// flat line).
    fn push_flat(
        &mut self,
        grid: &[f64],
        label: &str,
        tag: u64,
        tweak: impl Fn(&mut SystemConfig),
    ) {
        let mut c = self.base.clone();
        c.algorithm = Algorithm::PurePush;
        c.seed = derive_seed(self.base.seed, tag);
        tweak(&mut c);
        self.flat(label, grid, c);
    }

    /// Run every queued cell in one pool call and rebuild the series, in
    /// queueing order, with each point's y the cell's mean response.
    fn run(self, proto: &MeasurementProtocol) -> Vec<Series> {
        let results = par_run(&self.configs, proto);
        self.series
            .into_iter()
            .map(|(label, xs, idx)| Series {
                label,
                points: xs
                    .iter()
                    .zip(&idx)
                    .map(|(&x, &i)| (x, results[i].mean_response))
                    .collect(),
                results: idx.iter().map(|&i| results[i].clone()).collect(),
            })
            .collect()
    }
}

/// Figure 3(a): steady-state response time vs. ThinkTimeRatio for
/// Pure-Push, Pure-Pull and IPP (PullBW 50%), at SteadyStatePerc 0% / 95%.
pub fn fig3a(base: &SystemConfig, proto: &MeasurementProtocol) -> Figure {
    let mut batch = Batch::new(base);
    batch.push_flat(&TTR_GRID, "Push", 30, |_| {});
    for (k, ssp) in [0.0, 0.95].into_iter().enumerate() {
        batch.sweep_ttr(
            &TTR_GRID,
            &format!("Pull {:.0}%", ssp * 100.0),
            31 + k as u64,
            move |c| {
                c.algorithm = Algorithm::PurePull;
                c.steady_state_perc = ssp;
            },
        );
    }
    for (k, ssp) in [0.0, 0.95].into_iter().enumerate() {
        batch.sweep_ttr(
            &TTR_GRID,
            &format!("IPP {:.0}%", ssp * 100.0),
            33 + k as u64,
            move |c| {
                c.algorithm = Algorithm::Ipp;
                c.pull_bw = 0.5;
                c.thres_perc = 0.0;
                c.steady_state_perc = ssp;
            },
        );
    }
    Figure {
        id: "3a".into(),
        title: "Steady state client performance, IPP PullBW=50%, SteadyStatePerc varied".into(),
        x_label: "Think Time Ratio".into(),
        y_label: "Response Time (Broadcast Units)".into(),
        series: batch.run(proto),
    }
}

/// Figure 3(b): IPP PullBW ∈ {10, 30, 50}%, SteadyStatePerc 95%.
pub fn fig3b(base: &SystemConfig, proto: &MeasurementProtocol) -> Figure {
    let mut batch = Batch::new(base);
    batch.push_flat(&TTR_GRID, "Push", 40, |_| {});
    batch.sweep_ttr(&TTR_GRID, "Pull", 41, |c| {
        c.algorithm = Algorithm::PurePull;
        c.steady_state_perc = 0.95;
    });
    for (k, bw) in [0.5, 0.3, 0.1].into_iter().enumerate() {
        batch.sweep_ttr(
            &TTR_GRID,
            &format!("IPP PullBW {:.0}%", bw * 100.0),
            42 + k as u64,
            move |c| {
                c.algorithm = Algorithm::Ipp;
                c.pull_bw = bw;
                c.thres_perc = 0.0;
                c.steady_state_perc = 0.95;
            },
        );
    }
    Figure {
        id: "3b".into(),
        title: "Steady state client performance, IPP PullBW varied, SteadyStatePerc=95%".into(),
        x_label: "Think Time Ratio".into(),
        y_label: "Response Time (Broadcast Units)".into(),
        series: batch.run(proto),
    }
}

/// Figures 4(a)/4(b): cache warm-up time vs. fraction of the ideal cache
/// acquired, at the given ThinkTimeRatio (25 = light, 250 = heavy),
/// IPP PullBW 50%.
///
/// The five warm-up runs share one pool call. A warm-up result has no
/// `error` field, so a panicking run is re-raised once the pool has joined.
pub fn fig4(base: &SystemConfig, proto: &MeasurementProtocol, ttr: f64) -> Figure {
    let mut cells: Vec<(String, SystemConfig)> = Vec::new();
    let mut mk = |label: String, tag: u64, tweak: &dyn Fn(&mut SystemConfig)| {
        let mut c = base.clone();
        c.think_time_ratio = ttr;
        c.seed = derive_seed(base.seed, 50 + tag);
        tweak(&mut c);
        cells.push((label, c));
    };
    mk("Push".into(), 0, &|c: &mut SystemConfig| {
        c.algorithm = Algorithm::PurePush;
    });
    for (k, ssp) in [0.0, 0.95].into_iter().enumerate() {
        mk(
            format!("Pull {:.0}%", ssp * 100.0),
            1 + k as u64,
            &move |c: &mut SystemConfig| {
                c.algorithm = Algorithm::PurePull;
                c.steady_state_perc = ssp;
            },
        );
    }
    for (k, ssp) in [0.0, 0.95].into_iter().enumerate() {
        mk(
            format!("IPP {:.0}%", ssp * 100.0),
            3 + k as u64,
            &move |c: &mut SystemConfig| {
                c.algorithm = Algorithm::Ipp;
                c.pull_bw = 0.5;
                c.thres_perc = 0.0;
                c.steady_state_perc = ssp;
            },
        );
    }
    let runs = par_map(&cells, |(_, c)| run_warmup(c, proto));
    let series = cells
        .into_iter()
        .zip(runs)
        .map(|((label, _), r)| {
            let r = r.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            Series {
                label,
                points: r
                    .fractions
                    .iter()
                    .zip(&r.times)
                    .map(|(&f, t)| (f * 100.0, t.unwrap_or(f64::INFINITY)))
                    .collect(),
                results: Vec::new(),
            }
        })
        .collect();
    Figure {
        id: if ttr <= 100.0 { "4a" } else { "4b" }.into(),
        title: format!("Client cache warm-up time, ThinkTimeRatio={ttr}, IPP PullBW=50%"),
        x_label: "Cache Warm Up %".into(),
        y_label: "Time (Broadcast Units)".into(),
        series,
    }
}

/// Figure 5(a): Noise sensitivity of Pure-Pull vs. Pure-Push.
pub fn fig5a(base: &SystemConfig, proto: &MeasurementProtocol) -> Figure {
    noise_figure(base, proto, Algorithm::PurePull, "5a", "Pull")
}

/// Figure 5(b): Noise sensitivity of IPP (PullBW 50%) vs. Pure-Push.
pub fn fig5b(base: &SystemConfig, proto: &MeasurementProtocol) -> Figure {
    noise_figure(base, proto, Algorithm::Ipp, "5b", "IPP")
}

fn noise_figure(
    base: &SystemConfig,
    proto: &MeasurementProtocol,
    algo: Algorithm,
    id: &str,
    name: &str,
) -> Figure {
    let mut batch = Batch::new(base);
    for (k, noise) in [0.0, 0.15, 0.35].into_iter().enumerate() {
        batch.push_flat(
            &TTR_GRID,
            &format!("Push Noise {:.0}%", noise * 100.0),
            60 + k as u64,
            move |c| c.noise = noise,
        );
    }
    for (k, noise) in [0.0, 0.15, 0.35].into_iter().enumerate() {
        batch.sweep_ttr(
            &TTR_GRID,
            &format!("{name} Noise {:.0}%", noise * 100.0),
            63 + k as u64,
            move |c| {
                c.algorithm = algo;
                c.noise = noise;
                c.pull_bw = 0.5;
                c.thres_perc = 0.0;
                c.steady_state_perc = 0.95;
            },
        );
    }
    Figure {
        id: id.into(),
        title: format!("Noise sensitivity, {name} vs Push, IPP PullBW=50%"),
        x_label: "Think Time Ratio".into(),
        y_label: "Response Time (Broadcast Units)".into(),
        series: batch.run(proto),
    }
}

/// Figures 6(a)/6(b): influence of the threshold on response time at the
/// given PullBW (50% for 6a, 30% for 6b).
pub fn fig6(base: &SystemConfig, proto: &MeasurementProtocol, pull_bw: f64) -> Figure {
    let mut batch = Batch::new(base);
    batch.push_flat(&TTR_GRID_FINE, "Push", 70, |_| {});
    batch.sweep_ttr(&TTR_GRID_FINE, "Pull", 71, |c| {
        c.algorithm = Algorithm::PurePull;
        c.steady_state_perc = 0.95;
    });
    for (k, thres) in [0.35, 0.25, 0.10, 0.0].into_iter().enumerate() {
        batch.sweep_ttr(
            &TTR_GRID_FINE,
            &format!("IPP ThresPerc {:.0}%", thres * 100.0),
            72 + k as u64,
            move |c| {
                c.algorithm = Algorithm::Ipp;
                c.pull_bw = pull_bw;
                c.thres_perc = thres;
                c.steady_state_perc = 0.95;
            },
        );
    }
    Figure {
        id: if (pull_bw - 0.5).abs() < 1e-9 {
            "6a"
        } else {
            "6b"
        }
        .into(),
        title: format!(
            "Influence of threshold on response time, PullBW = {:.0}%",
            pull_bw * 100.0
        ),
        x_label: "Think Time Ratio".into(),
        y_label: "Response Time (Broadcast Units)".into(),
        series: batch.run(proto),
    }
}

/// Figures 7(a)/7(b): restricting the push schedule at ThinkTimeRatio 25,
/// with the given threshold (0% for 7a, 35% for 7b). X axis: pages removed
/// from the broadcast.
pub fn fig7(base: &SystemConfig, proto: &MeasurementProtocol, thres: f64) -> Figure {
    let ttr = 25.0;
    let chop_grid: Vec<usize> = CHOP_GRID
        .iter()
        .copied()
        .filter(|&c| c <= base.db_size.saturating_sub(base.disk_sizes[0]))
        .collect();
    let xs: Vec<f64> = chop_grid.iter().map(|&c| c as f64).collect();
    let mut batch = Batch::new(base);
    batch.push_flat(&xs, "Push", 80, |c| {
        c.think_time_ratio = ttr;
    });
    // Pure-Pull ignores the push schedule: one run, flat.
    let mut pull = base.clone();
    pull.algorithm = Algorithm::PurePull;
    pull.steady_state_perc = 0.95;
    pull.think_time_ratio = ttr;
    pull.seed = derive_seed(base.seed, 81);
    batch.flat("Pull", &xs, pull);
    for (k, bw) in [0.1, 0.3, 0.5].into_iter().enumerate() {
        let configs = chop_grid
            .iter()
            .enumerate()
            .map(|(i, &chop)| {
                let mut c = base.clone();
                c.algorithm = Algorithm::Ipp;
                c.pull_bw = bw;
                c.thres_perc = thres;
                c.steady_state_perc = 0.95;
                c.think_time_ratio = ttr;
                c.chop = chop;
                c.seed = derive_seed(base.seed, (82 + k as u64) * 1000 + i as u64);
                c
            })
            .collect();
        batch.points(&format!("IPP PullBW {:.0}%", bw * 100.0), &xs, configs);
    }
    Figure {
        id: if exactly_zero(thres) { "7a" } else { "7b" }.into(),
        title: format!(
            "Restricting push contents, ThinkTimeRatio=25, ThresPerc={:.0}%",
            thres * 100.0
        ),
        x_label: "Number of Non-Broadcast Pages".into(),
        y_label: "Response Time (Broadcast Units)".into(),
        series: batch.run(proto),
    }
}

/// Figure 8: server-load sensitivity of the restricted push schedule
/// (IPP PullBW 30%, ThresPerc 35%, chop ∈ {0, 200, 300, 500, 700}).
pub fn fig8(base: &SystemConfig, proto: &MeasurementProtocol) -> Figure {
    let mut batch = Batch::new(base);
    batch.push_flat(&TTR_GRID, "Push", 90, |_| {});
    batch.sweep_ttr(&TTR_GRID, "Pull", 91, |c| {
        c.algorithm = Algorithm::PurePull;
        c.steady_state_perc = 0.95;
    });
    let max_chop = base.db_size.saturating_sub(base.disk_sizes[0]);
    for (k, chop) in [0usize, 200, 300, 500, 700]
        .into_iter()
        .filter(|&c| c <= max_chop)
        .enumerate()
    {
        let label = if chop == 0 {
            "IPP Full DB".to_string()
        } else {
            format!("IPP -{chop}")
        };
        batch.sweep_ttr(&TTR_GRID, &label, 92 + k as u64, move |c| {
            c.algorithm = Algorithm::Ipp;
            c.pull_bw = 0.3;
            c.thres_perc = 0.35;
            c.steady_state_perc = 0.95;
            c.chop = chop;
        });
    }
    Figure {
        id: "8".into(),
        title: "Server load sensitivity for restricted push, PullBW=30%, ThresPerc=35%".into(),
        x_label: "Think Time Ratio".into(),
        y_label: "Response Time (Broadcast Units)".into(),
        series: batch.run(proto),
    }
}

/// Robustness scenario: IPP (PullBW 50%) under channel loss. One curve per
/// loss rate in [`LOSS_GRID`], swept over [`LOSS_TTR_GRID`]. The zero-loss
/// curve runs with the fault model fully disabled and anchors the family at
/// exact paper behavior; lossy curves enable the full fault stack
/// ([`FaultConfig::lossy`]: symmetric channel loss, standard client retry
/// policy, standard server degradation policy).
pub fn loss_sweep(base: &SystemConfig, proto: &MeasurementProtocol) -> Figure {
    let mut batch = Batch::new(base);
    for (k, loss) in LOSS_GRID.into_iter().enumerate() {
        batch.sweep_ttr(
            &LOSS_TTR_GRID,
            &format!("IPP loss {:.0}%", loss * 100.0),
            100 + k as u64,
            move |c| {
                c.algorithm = Algorithm::Ipp;
                c.pull_bw = 0.5;
                c.thres_perc = 0.0;
                c.steady_state_perc = 0.95;
                c.fault = if loss > 0.0 {
                    FaultConfig::lossy(loss)
                } else {
                    FaultConfig::none()
                };
            },
        );
    }
    Figure {
        id: "L1".into(),
        title: "Response time under channel loss, IPP PullBW=50%, retries+degradation on".into(),
        x_label: "Think Time Ratio".into(),
        y_label: "Response Time (Broadcast Units)".into(),
        series: batch.run(proto),
    }
}

/// Million-client scenario: replace the open-loop aggregate Virtual Client
/// with an arena fleet of real closed-loop clients and sweep the population
/// size ([`FLEET_GRID`]). Four curves over one set of runs:
///
/// * **VC aggregate** — the Measured Client's response time under the
///   open-loop VC (flat reference line; the convergence target);
/// * **Fleet MC response** — the MC's response time with the fleet standing
///   in for the VC (must approach the reference as the population grows);
/// * **Fleet mean flow** — mean per-request flow time across fleet clients
///   (= mean stretch, pages being unit-sized);
/// * **Fleet max stretch** — the worst per-request stretch observed.
///
/// Operating point: IPP, PullBW 50%, no threshold, SteadyStatePerc 95%,
/// ThinkTimeRatio 25 (mid-load, where closed-loop damping is visible).
pub fn fleet_sweep(base: &SystemConfig, proto: &MeasurementProtocol) -> Figure {
    fn operating_point(c: &mut SystemConfig) {
        c.algorithm = Algorithm::Ipp;
        c.pull_bw = 0.5;
        c.thres_perc = 0.0;
        c.steady_state_perc = 0.95;
        c.think_time_ratio = 25.0;
    }
    let xs: Vec<f64> = FLEET_GRID.iter().map(|&n| n as f64).collect();
    let mut batch = Batch::new(base);
    // Reference cell: the aggregate VC at the same operating point.
    let mut vc = base.clone();
    operating_point(&mut vc);
    vc.seed = derive_seed(base.seed, 104);
    batch.flat("VC aggregate", &xs, vc);
    let configs = FLEET_GRID
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut c = base.clone();
            operating_point(&mut c);
            c.population = ClientPopulation::fleet(n);
            c.seed = derive_seed(base.seed, 105 * 1000 + i as u64);
            c
        })
        .collect();
    batch.points("Fleet MC response", &xs, configs);
    let mut series = batch.run(proto);

    let fleet_series = |label: &str, pick: fn(&crate::runner::FleetResult) -> f64| {
        let mc = &series[1];
        Series {
            label: label.to_string(),
            points: mc
                .points
                .iter()
                .zip(&mc.results)
                .map(|(&(x, _), r)| (x, r.fleet.as_ref().map_or(f64::NAN, pick)))
                .collect(),
            results: mc.results.clone(),
        }
    };
    let flow = fleet_series("Fleet mean flow", |f| f.mean_flow);
    let stretch = fleet_series("Fleet max stretch", |f| f.max_stretch);
    series.extend([flow, stretch]);
    Figure {
        id: "P1".into(),
        title: "Population sweep: arena fleet vs aggregate VC, IPP PullBW=50%, TTR=25".into(),
        x_label: "Fleet Clients".into(),
        y_label: "Broadcast Units".into(),
        series,
    }
}

/// Crash–recovery scenario: one deterministic mid-run server crash over a
/// fleet-population sweep ([`CRASH_GRID`]), with the admission layer off
/// vs. on. Four curves over two sets of runs:
///
/// * **MTTR off/on** — mean time-to-recover (response EWMA back within
///   `recovery_epsilon` of its pre-crash level) without and with
///   admission control;
/// * **Herd peak off/on** — the largest request-grain queue depth during
///   recovery, the thundering-herd signature.
///
/// Operating point: IPP, PullBW 50%, no threshold, TTR 25, a roomy server
/// queue (the paper-faithful bound would clip the herd signal), a fast
/// retry policy so blocked clients re-pull promptly after the restart,
/// and a crash at t=5000 with a 100-slot outage. The admission bucket is
/// tuned to the operating point: the fleet offers ~1.4 requests/slot in
/// steady state, so `rate` 2.0 keeps the bucket transparent outside the
/// herd, while the small `burst` rejects the restart spike into a
/// 32-slot retry-after spread. Both arms share reconnect jitter, so the
/// delta isolates the server-side pacing.
pub fn crash_sweep(base: &SystemConfig, proto: &MeasurementProtocol) -> Figure {
    fn operating_point(c: &mut SystemConfig) {
        c.algorithm = Algorithm::Ipp;
        c.pull_bw = 0.5;
        c.thres_perc = 0.0;
        c.steady_state_perc = 0.95;
        c.think_time_ratio = 25.0;
        c.server_queue_size = 1_000;
        c.fault.retry = RetryPolicy {
            max_retries: 6,
            base_timeout: 8.0,
            backoff_factor: 2.0,
            max_backoff: 64.0,
            jitter: 0.0,
        };
        // Three spaced crashes: MTTR is a mean over the recoveries the run
        // reaches, which damps the sample noise of a single crossing.
        c.fault.crash = CrashConfig {
            downtime: 100.0,
            schedule: vec![5_000.0, 12_000.0, 19_000.0],
            reconnect_jitter: 0.5,
            recovery_epsilon: 0.5,
        };
    }
    let arms = [
        AdmissionConfig::disabled(),
        AdmissionConfig {
            rate: 2.0,
            burst: 2.0,
            retry_after: 32.0,
        },
    ];
    let configs: Vec<SystemConfig> = arms
        .iter()
        .enumerate()
        .flat_map(|(k, &admission)| {
            CRASH_GRID
                .iter()
                .enumerate()
                .map(move |(i, &n)| (k, i, n, admission))
        })
        .map(|(k, i, n, admission)| {
            let mut c = base.clone();
            operating_point(&mut c);
            c.population = ClientPopulation::fleet(n);
            c.fault.admission = admission;
            c.seed = derive_seed(base.seed, (107 + k as u64) * 1000 + i as u64);
            c
        })
        .collect();
    let results = par_run(&configs, proto);
    let (off, on) = results.split_at(CRASH_GRID.len());

    let xs: Vec<f64> = CRASH_GRID.iter().map(|&n| n as f64).collect();
    let crash_series =
        |label: &str, rs: &[SteadyStateResult], pick: fn(&CrashReport) -> f64| Series {
            label: label.to_string(),
            points: xs
                .iter()
                .zip(rs)
                .map(|(&x, r)| {
                    let y = r
                        .fault
                        .as_ref()
                        .and_then(|f| f.crash)
                        .map_or(f64::NAN, |c| pick(&c));
                    (x, y)
                })
                .collect(),
            results: rs.to_vec(),
        };
    let series = vec![
        crash_series("MTTR, admission off", off, |c| c.mean_time_to_recover),
        crash_series("MTTR, admission on", on, |c| c.mean_time_to_recover),
        crash_series("Herd peak, admission off", off, |c| {
            c.herd_peak_depth as f64
        }),
        crash_series("Herd peak, admission on", on, |c| c.herd_peak_depth as f64),
    ];
    Figure {
        id: "C1".into(),
        title:
            "Restart herd vs population: 3 crashes from t=5000, 100-slot outages, admission off/on"
                .into(),
        x_label: "Fleet Clients".into(),
        y_label: "Broadcast Units / Pending Requests".into(),
        series,
    }
}

/// K-channel scenario: sweep the channel count ([`CHANNEL_GRID`]) at a few
/// load levels ([`CHANNEL_TTR_GRID`]), one curve per ThinkTimeRatio. Each
/// channel carries one slot per broadcast unit, so K channels are K-fold
/// aggregate bandwidth: the conflict-free generator splits the push
/// schedule across channels, clients tune to the channel minimising their
/// expected wait, and the pull service shards per channel. Mean response
/// must fall (or stay flat once the system is idle) as K grows.
///
/// Operating point: IPP, PullBW 50%, no threshold, SteadyStatePerc 95% —
/// the same cell as the robustness scenarios, so the K=1 column is
/// directly comparable to the single-channel figures.
pub fn channel_sweep(base: &SystemConfig, proto: &MeasurementProtocol) -> Figure {
    let xs: Vec<f64> = CHANNEL_GRID.iter().map(|&k| k as f64).collect();
    let mut batch = Batch::new(base);
    for (s, &ttr) in CHANNEL_TTR_GRID.iter().enumerate() {
        let configs = CHANNEL_GRID
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let mut c = base.clone();
                c.algorithm = Algorithm::Ipp;
                c.pull_bw = 0.5;
                c.thres_perc = 0.0;
                c.steady_state_perc = 0.95;
                c.think_time_ratio = ttr;
                c.num_channels = k;
                c.seed = derive_seed(base.seed, (110 + s as u64) * 1000 + i as u64);
                c
            })
            .collect();
        batch.points(&format!("IPP-50 TTR={ttr:.0}"), &xs, configs);
    }
    Figure {
        id: "K1".into(),
        title: "Channel-count sweep: conflict-free K-channel broadcast, IPP PullBW=50%".into(),
        x_label: "Broadcast Channels".into(),
        y_label: "Response Time (Broadcast Units)".into(),
        series: batch.run(proto),
    }
}

/// Every broadcast-program-bearing configuration shape the figure grids
/// run, labelled `fig<id>/<series>` — the target list of the `bpp-verify`
/// static gate (`scripts/ci.sh` runs `verify --deny` over it).
///
/// Parameters that influence neither the generated program, the bandwidth
/// split, nor the analytic cross-check (think-time ratio, steady-state
/// warmth, loss rate, population size) are collapsed to one representative
/// per figure series, so each entry is a distinct
/// (algorithm, PullBW, ThresPerc, Noise, chop) cell of its figure. Kept in
/// sync with the `fig*`/`*_sweep` functions above by
/// `verify_targets_cover_every_figure`.
pub fn verify_targets(base: &SystemConfig) -> Vec<(String, SystemConfig)> {
    let mut out: Vec<(String, SystemConfig)> = Vec::new();
    let mut push = |label: String, tweak: &dyn Fn(&mut SystemConfig)| {
        let mut c = base.clone();
        tweak(&mut c);
        out.push((label, c));
    };
    let ipp = |c: &mut SystemConfig, bw: f64, thres: f64| {
        c.algorithm = Algorithm::Ipp;
        c.pull_bw = bw;
        c.thres_perc = thres;
        c.steady_state_perc = 0.95;
    };

    // Figure 3: the three algorithms; 3b varies the IPP bandwidth split.
    push("fig3a/Push".into(), &|c| c.algorithm = Algorithm::PurePush);
    push("fig3a/Pull".into(), &|c| {
        c.algorithm = Algorithm::PurePull;
        c.steady_state_perc = 0.95;
    });
    push("fig3a/IPP-50".into(), &|c| ipp(c, 0.5, 0.0));
    for bw in [0.1, 0.3, 0.5] {
        push(format!("fig3b/IPP-{:.0}", bw * 100.0), &|c| ipp(c, bw, 0.0));
    }
    // Figure 4: warm-up runs of the same three algorithms at TTR 25 / 250.
    for (id, ttr) in [("4a", 25.0), ("4b", 250.0)] {
        push(format!("fig{id}/Push"), &|c| {
            c.algorithm = Algorithm::PurePush;
            c.think_time_ratio = ttr;
        });
        push(format!("fig{id}/IPP-50"), &|c| {
            ipp(c, 0.5, 0.0);
            c.think_time_ratio = ttr;
        });
    }
    // Figure 5: noise sensitivity (program and cross-check are Noise-0
    // ranked, but each published cell is still verified as configured).
    for noise in [0.0, 0.15, 0.35] {
        push(format!("fig5a/Pull-noise{:.0}", noise * 100.0), &|c| {
            c.algorithm = Algorithm::PurePull;
            c.steady_state_perc = 0.95;
            c.noise = noise;
        });
        push(format!("fig5b/IPP-noise{:.0}", noise * 100.0), &|c| {
            ipp(c, 0.5, 0.0);
            c.noise = noise;
        });
    }
    // Figure 6: threshold sweep at PullBW 50% (6a) and 30% (6b).
    for (id, bw) in [("6a", 0.5), ("6b", 0.3)] {
        for thres in [0.35, 0.25, 0.10, 0.0] {
            push(format!("fig{id}/IPP-thres{:.0}", thres * 100.0), &|c| {
                ipp(c, bw, thres)
            });
        }
    }
    // Figures 7 and 8: chopped programs (the cap mirrors fig7/fig8).
    let max_chop = base.db_size.saturating_sub(base.disk_sizes[0]);
    for (id, thres) in [("7a", 0.0), ("7b", 0.35)] {
        for bw in [0.1, 0.3, 0.5] {
            for chop in CHOP_GRID.into_iter().filter(|&ch| ch <= max_chop) {
                push(format!("fig{id}/IPP-{:.0}-chop{chop}", bw * 100.0), &|c| {
                    ipp(c, bw, thres);
                    c.think_time_ratio = 25.0;
                    c.chop = chop;
                });
            }
        }
    }
    for chop in [0usize, 200, 300, 500, 700]
        .into_iter()
        .filter(|&ch| ch <= max_chop)
    {
        push(format!("fig8/IPP-chop{chop}"), &|c| {
            ipp(c, 0.3, 0.35);
            c.chop = chop;
        });
    }
    // Robustness / population / crash scenarios all run the IPP-50
    // operating point; loss, fleet size and crash schedule do not touch
    // the program, so one representative each.
    push("L1/IPP-loss10".into(), &|c| {
        ipp(c, 0.5, 0.0);
        c.fault = FaultConfig::lossy(0.10);
    });
    push("P1/IPP-fleet".into(), &|c| {
        ipp(c, 0.5, 0.0);
        c.think_time_ratio = 25.0;
        c.population = ClientPopulation::fleet(1_000);
    });
    push("C1/IPP-crash".into(), &|c| {
        ipp(c, 0.5, 0.0);
        c.think_time_ratio = 25.0;
        c.server_queue_size = 1_000;
    });
    // K-channel scenario: every multi-channel count the sweep runs gets a
    // verify target, so the static gate checks each generated K-channel
    // placement (conflict rule V6 included) before the figures ship.
    for k in CHANNEL_GRID.into_iter().filter(|&k| k > 1) {
        push(format!("K1/IPP-ch{k}"), &|c| {
            ipp(c, 0.5, 0.0);
            c.num_channels = k;
        });
    }
    out
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn verify_targets_cover_every_figure() {
        let targets = verify_targets(&SystemConfig::paper_default());
        for fig in [
            "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7a",
            "fig7b", "fig8", "L1", "P1", "C1", "K1",
        ] {
            assert!(
                targets.iter().any(|(l, _)| l.starts_with(fig)),
                "{fig} has no verify target"
            );
        }
        for (label, cfg) in &targets {
            assert!(cfg.validate().is_ok(), "{label} is not a valid config");
        }
        let mut labels: Vec<&str> = targets.iter().map(|(l, _)| l.as_str()).collect();
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n, "verify target labels must be unique");
        // The paper grid caps no chop cells (700 <= 900), so every figure-7
        // bandwidth series carries the full CHOP_GRID.
        assert!(n > 60, "expected the full grid, got {n} targets");
    }

    #[test]
    fn verify_targets_respect_small_system_chop_cap() {
        // small(): db 100, fastest disk 10 -> only chop 0 survives the cap.
        let targets = verify_targets(&SystemConfig::small());
        assert!(targets
            .iter()
            .all(|(_, c)| c.chop <= 100usize.saturating_sub(10)));
        for (label, cfg) in &targets {
            assert!(cfg.validate().is_ok(), "{label} invalid for small()");
        }
    }

    fn small_base() -> SystemConfig {
        SystemConfig::small()
    }

    #[test]
    fn derive_seed_is_injective_over_every_experiment_tag() {
        // Tag families in use: bare literals (30, 40, 60..66, 70, 80, 81,
        // 90, 104), `50 + tag` (fig4), `tag * 1000 + i` (every
        // `Batch::sweep_ttr` call, tags up to 103, plus 105 for
        // fleet_sweep), `(82 + k) * 1000 + i` (fig7), `(107 + k) * 1000 + i`
        // (crash_sweep), and
        // `(110 + s) * 1000 + i` (channel_sweep). The range below is a
        // superset of all of them; the old linear mix collided inside it
        // (e.g. families `tag*1000 + i` vs. small literals).
        let mut seen = std::collections::BTreeSet::new();
        for tag in 0..=120_000u64 {
            assert!(
                seen.insert(derive_seed(0xB99_5EED, tag)),
                "derive_seed collision at tag {tag}"
            );
        }
    }

    #[test]
    fn derive_seed_decorrelates_across_bases_too() {
        // Distinct bases must not collide over the tag family either (the
        // calibrated and quick protocols run from different base seeds).
        let mut seen = std::collections::BTreeSet::new();
        for base in [7u64, 42, 0xB99_5EED] {
            for tag in 0..=2_000u64 {
                assert!(
                    seen.insert(derive_seed(base, tag)),
                    "collision at base {base}, tag {tag}"
                );
            }
        }
    }

    #[test]
    fn par_run_survives_a_panicking_cell() {
        let base = small_base();
        let mut bad = base.clone();
        bad.db_size = 0; // assert_valid() panics inside World::build
        let mut good = base.clone();
        good.algorithm = Algorithm::Ipp;
        let configs = vec![good.clone(), bad, good];
        let proto = MeasurementProtocol::quick();
        let results = par_run(&configs, &proto);
        assert_eq!(results.len(), 3);
        assert!(results[0].error.is_none());
        assert!(results[2].error.is_none());
        let failed = &results[1];
        let err = failed.error.as_ref().unwrap();
        assert!(err.message.contains("invalid SystemConfig"));
        // The structured error pins the failed cell: seed and a config
        // snapshot that reproduces it (db_size = 0 was the poison).
        assert_eq!(err.seed, configs[1].seed);
        assert_eq!(err.config.db_size, 0);
        let json = bpp_json::to_string(failed);
        assert!(json.contains("\"error\""));
        assert!(json.contains("\"config\""));
        assert!(failed.mean_response.is_nan());
        // The healthy cells are unaffected by their crashed neighbour.
        assert_eq!(results[0].mean_response, results[2].mean_response);
    }

    #[test]
    fn loss_sweep_zero_loss_curve_matches_paper_behavior() {
        let fig = loss_sweep(&small_base(), &MeasurementProtocol::quick());
        assert_eq!(fig.series.len(), LOSS_GRID.len());
        let zero = &fig.series[0];
        // The zero-loss curve runs with the fault model off: no report.
        assert!(zero.results.iter().all(|r| r.fault.is_none()));
        // Lossy curves carry one, and actually lost something.
        for s in &fig.series[1..] {
            assert!(s.results.iter().all(|r| r.fault.is_some()));
            assert!(s
                .results
                .iter()
                .any(|r| r.fault.as_ref().unwrap().channel.pages_lost > 0));
        }
        // Every cell completed with a finite response time: degradation is
        // bounded even at 20% loss.
        for s in &fig.series {
            assert!(s.points.iter().all(|&(_, y)| y.is_finite() && y > 0.0));
        }
    }

    #[test]
    fn par_run_preserves_order_and_determinism() {
        let base = small_base();
        let configs: Vec<SystemConfig> = (0..6)
            .map(|i| {
                let mut c = base.clone();
                c.algorithm = Algorithm::Ipp;
                c.seed = 100 + i;
                c
            })
            .collect();
        let proto = MeasurementProtocol::quick();
        let a = par_run(&configs, &proto);
        let b = par_run(&configs, &proto);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean_response, y.mean_response);
        }
        // Sequential reference for index 3.
        let seq = run_steady_state(&configs[3], &proto);
        assert_eq!(a[3].mean_response, seq.mean_response);
    }

    #[test]
    fn fig3a_smoke_on_small_system() {
        let fig = fig3a(&small_base(), &MeasurementProtocol::quick());
        assert_eq!(fig.series.len(), 5);
        for s in &fig.series {
            assert_eq!(s.points.len(), TTR_GRID.len());
            assert!(s.points.iter().all(|&(_, y)| y.is_finite() && y >= 0.0));
        }
        // Push is flat by construction.
        let push = &fig.series[0];
        assert!(push.points.windows(2).all(|w| w[0].1 == w[1].1));
    }

    #[test]
    fn fig3a_reference_cells_are_panic_safe() {
        // Every cell of the figure, the flat Push reference included, runs
        // inside the pool: a poisoned base yields a figure of failed cells
        // instead of aborting it.
        let mut base = small_base();
        base.db_size = 0;
        let fig = fig3a(&base, &MeasurementProtocol::quick());
        assert_eq!(fig.series.len(), 5);
        for s in &fig.series {
            assert_eq!(s.results.len(), TTR_GRID.len());
            for r in &s.results {
                let err = r.error.as_ref().expect("every cell failed");
                assert!(err.message.contains("invalid SystemConfig"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid SystemConfig")]
    fn fig4_reraises_a_panicking_warmup() {
        // Warm-up results have no `error` field: the pool re-raises.
        let mut base = small_base();
        base.db_size = 0;
        fig4(&base, &MeasurementProtocol::quick(), 25.0);
    }

    /// The config behind one figure cell: `base` with `tweak` applied and
    /// the seed derived from `tag`.
    fn cell(base: &SystemConfig, tag: u64, tweak: impl Fn(&mut SystemConfig)) -> SystemConfig {
        let mut c = base.clone();
        c.seed = derive_seed(base.seed, tag);
        tweak(&mut c);
        c
    }

    /// Assert every result of `series` serializes exactly as a sequential
    /// run of the config `expected(point index)` gives for it.
    fn assert_series_matches(
        series: &Series,
        proto: &MeasurementProtocol,
        expected: impl Fn(usize) -> SystemConfig,
    ) {
        for (i, r) in series.results.iter().enumerate() {
            let seq = run_steady_state(&expected(i), proto);
            assert_eq!(
                bpp_json::to_string(r),
                bpp_json::to_string(&seq),
                "`{}` point {i} differs from its sequential run",
                series.label
            );
        }
    }

    fn pull95(c: &mut SystemConfig) {
        c.algorithm = Algorithm::PurePull;
        c.steady_state_perc = 0.95;
    }

    fn ipp(c: &mut SystemConfig, bw: f64, thres: f64, ssp: f64) {
        c.algorithm = Algorithm::Ipp;
        c.pull_bw = bw;
        c.thres_perc = thres;
        c.steady_state_perc = ssp;
    }

    #[test]
    fn fig3a_batch_matches_sequential_runs() {
        let base = small_base();
        let proto = MeasurementProtocol::quick();
        let fig = fig3a(&base, &proto);
        let ttr = |i: usize| TTR_GRID[i];
        assert_series_matches(&fig.series[0], &proto, |_| {
            cell(&base, 30, |c| c.algorithm = Algorithm::PurePush)
        });
        for (k, ssp) in [0.0, 0.95].into_iter().enumerate() {
            assert_series_matches(&fig.series[1 + k], &proto, |i| {
                cell(&base, (31 + k as u64) * 1000 + i as u64, |c| {
                    c.think_time_ratio = ttr(i);
                    c.algorithm = Algorithm::PurePull;
                    c.steady_state_perc = ssp;
                })
            });
            assert_series_matches(&fig.series[3 + k], &proto, |i| {
                cell(&base, (33 + k as u64) * 1000 + i as u64, |c| {
                    c.think_time_ratio = ttr(i);
                    ipp(c, 0.5, 0.0, ssp);
                })
            });
        }
    }

    #[test]
    fn fig7_batch_matches_sequential_runs() {
        // small(): the chop cap leaves one column, chop 0.
        let base = small_base();
        let proto = MeasurementProtocol::quick();
        let fig = fig7(&base, &proto, 0.35);
        assert_eq!(fig.series.len(), 5);
        assert_series_matches(&fig.series[0], &proto, |_| {
            cell(&base, 80, |c| {
                c.algorithm = Algorithm::PurePush;
                c.think_time_ratio = 25.0;
            })
        });
        assert_series_matches(&fig.series[1], &proto, |_| {
            cell(&base, 81, |c| {
                pull95(c);
                c.think_time_ratio = 25.0;
            })
        });
        for (k, bw) in [0.1, 0.3, 0.5].into_iter().enumerate() {
            assert_series_matches(&fig.series[2 + k], &proto, |i| {
                cell(&base, (82 + k as u64) * 1000 + i as u64, |c| {
                    ipp(c, bw, 0.35, 0.95);
                    c.think_time_ratio = 25.0;
                    c.chop = CHOP_GRID[i];
                })
            });
        }
    }

    #[test]
    fn fig8_batch_matches_sequential_runs() {
        // small(): the chop cap leaves one IPP series, the full database.
        let base = small_base();
        let proto = MeasurementProtocol::quick();
        let fig = fig8(&base, &proto);
        assert_eq!(fig.series.len(), 3);
        assert_series_matches(&fig.series[0], &proto, |_| {
            cell(&base, 90, |c| c.algorithm = Algorithm::PurePush)
        });
        assert_series_matches(&fig.series[1], &proto, |i| {
            cell(&base, 91 * 1000 + i as u64, |c| {
                c.think_time_ratio = TTR_GRID[i];
                pull95(c);
            })
        });
        assert_series_matches(&fig.series[2], &proto, |i| {
            cell(&base, 92 * 1000 + i as u64, |c| {
                c.think_time_ratio = TTR_GRID[i];
                ipp(c, 0.3, 0.35, 0.95);
            })
        });
    }

    #[test]
    fn fleet_sweep_produces_fleet_metrics_and_a_flat_vc_reference() {
        let base = small_base();
        let mut proto = MeasurementProtocol::quick();
        proto.max_accesses = 2_000;
        proto.skip_accesses = 100;
        let fig = fleet_sweep(&base, &proto);
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            assert_eq!(s.points.len(), FLEET_GRID.len());
        }
        // The reference line is flat: one VC run replicated across the grid.
        let vc = &fig.series[0];
        assert!(vc.points.windows(2).all(|w| w[0].1 == w[1].1));
        assert!(vc.results.iter().all(|r| r.fleet.is_none()));
        // Every fleet cell carries a fleet section with sane flow metrics
        // (flow = stretch for unit pages, and a page is never delivered
        // sooner than the end of the slot after the request).
        for r in &fig.series[1].results {
            let f = r.fleet.as_ref().expect("fleet section present");
            assert!(f.mean_flow.is_finite() && f.mean_flow >= 1.0);
            assert!(f.max_stretch >= f.mean_flow);
            assert!(f.completed > 0);
        }
    }

    #[test]
    fn crash_sweep_admission_tames_the_restart_herd() {
        let base = small_base();
        let mut proto = MeasurementProtocol::quick();
        proto.max_accesses = 2_000;
        proto.skip_accesses = 100;
        let fig = crash_sweep(&base, &proto);
        assert_eq!(fig.series.len(), 4);
        // Every cell crashed exactly once, at the scheduled time, and
        // recovered afterwards.
        for s in &fig.series {
            for r in &s.results {
                assert!(r.error.is_none());
                let c = r
                    .fault
                    .as_ref()
                    .and_then(|f| f.crash)
                    .expect("crash section present");
                assert!(c.crashes >= 1);
                assert_eq!(c.first_crash_at, Some(5_000.0));
                assert!(c.recoveries >= 1, "recovered after restart: {c:?}");
                assert!(c.orphaned + c.down_slots > 0);
            }
        }
        // Acceptance: at fleet sizes >= 1e3 the admission layer strictly
        // reduces both the restart-herd peak and the time-to-recover.
        let (mttr_off, mttr_on) = (&fig.series[0], &fig.series[1]);
        let (herd_off, herd_on) = (&fig.series[2], &fig.series[3]);
        for (i, &n) in CRASH_GRID.iter().enumerate() {
            if n < 1_000 {
                continue;
            }
            assert!(
                herd_on.points[i].1 < herd_off.points[i].1,
                "admission must shrink the herd at n={n}: on={} off={}",
                herd_on.points[i].1,
                herd_off.points[i].1
            );
            assert!(
                mttr_on.points[i].1 < mttr_off.points[i].1,
                "admission must shorten MTTR at n={n}: on={} off={}",
                mttr_on.points[i].1,
                mttr_off.points[i].1
            );
        }
    }

    #[test]
    fn channel_sweep_more_channels_never_hurt_under_load() {
        let fig = channel_sweep(&small_base(), &MeasurementProtocol::quick());
        assert_eq!(fig.series.len(), CHANNEL_TTR_GRID.len());
        for s in &fig.series {
            assert_eq!(s.points.len(), CHANNEL_GRID.len());
            assert!(s.points.iter().all(|&(_, y)| y.is_finite() && y > 0.0));
        }
        // At the loaded end (the last series — VC intensity grows with
        // TTR) more channels must strictly help: K-fold bandwidth shortens
        // both the push cycle and the pull queue.
        let loaded = fig.series.last().unwrap();
        let (k1, k8) = (loaded.points[0].1, loaded.points.last().unwrap().1);
        assert!(
            k8 < k1,
            "8 channels must beat 1 at TTR=250: k1={k1} k8={k8}"
        );
    }

    #[test]
    fn fig7_chop_grid_respects_small_database() {
        let fig = fig7(&small_base(), &MeasurementProtocol::quick(), 0.35);
        // Small config: db 100, fastest disk 10 -> chop capped at 90.
        let ipp = fig.series.iter().find(|s| s.label.contains("50%")).unwrap();
        assert!(ipp.points.iter().all(|&(x, _)| x <= 90.0));
    }
}
