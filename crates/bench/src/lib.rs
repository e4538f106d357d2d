//! # bpp-bench — harness utilities shared by the figure binaries
//!
//! Each `fig*` binary regenerates one figure of the paper. Common flags:
//!
//! * `--quick`   loose convergence targets (seconds instead of minutes);
//! * `--full`    the paper-faithful measurement protocol (default);
//! * `--csv`     emit CSV instead of aligned tables;
//! * `--drops`   additionally print the server drop/ignore-rate tables;
//! * `--seed N`  override the root seed;
//! * `--small`   run on the scaled-down test system (100 pages) instead of
//!   the paper's 1000-page configuration.

#![expect(clippy::disallowed_types, reason = "benchmarks need a wall clock")]

pub mod micro;

use bpp_core::experiments::Figure;
use bpp_core::report::{fmt_pct, fmt_units, Table};
use bpp_core::{Algorithm, MeasurementProtocol, SystemConfig};

pub use micro::{BenchStats, Group};

/// Parsed command-line options.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Use the quick measurement protocol.
    pub quick: bool,
    /// Emit CSV instead of tables.
    pub csv: bool,
    /// Also print drop/ignore-rate tables.
    pub drops: bool,
    /// Root seed override.
    pub seed: Option<u64>,
    /// Use the scaled-down system.
    pub small: bool,
    /// Use the paper-calibrated Zipf skew (θ = 0.72) instead of the quoted
    /// θ = 0.95; reproduces the paper's absolute response-time levels.
    pub calibrated: bool,
    /// Also render each figure as a terminal chart.
    pub chart: bool,
}

impl Opts {
    /// Parse from `std::env::args`, exiting with usage on unknown flags.
    pub fn parse() -> Opts {
        let mut o = Opts {
            quick: false,
            csv: false,
            drops: false,
            seed: None,
            small: false,
            calibrated: false,
            chart: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => o.quick = true,
                "--full" => o.quick = false,
                "--csv" => o.csv = true,
                "--drops" => o.drops = true,
                "--small" => o.small = true,
                "--calibrated" => o.calibrated = true,
                "--chart" => o.chart = true,
                "--seed" => {
                    let v = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                    o.seed = Some(v.parse().unwrap_or_else(|_| usage("--seed must be a u64")));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        o
    }

    /// The measurement protocol selected by the flags.
    pub fn protocol(&self) -> MeasurementProtocol {
        if self.quick {
            MeasurementProtocol::quick()
        } else {
            MeasurementProtocol::paper()
        }
    }

    /// The base system configuration selected by the flags.
    pub fn base(&self) -> SystemConfig {
        let mut cfg = if self.small {
            SystemConfig::small()
        } else if self.calibrated {
            SystemConfig::paper_calibrated()
        } else {
            SystemConfig::paper_default()
        };
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        cfg
    }
}

/// The fixed cell behind the `--smoke` goldens of `faults`, `fleet`,
/// `obs`, `chaos` and `channels` and the retry cells of `ablations`: the
/// small system, IPP with PullBW 50%, ThresPerc 0 and SteadyStatePerc 95%,
/// ThinkTimeRatio 1, seed 42. Each binary sets only what its golden adds
/// on top.
pub fn smoke_cell() -> SystemConfig {
    SystemConfig {
        algorithm: Algorithm::Ipp,
        pull_bw: 0.5,
        thres_perc: 0.0,
        steady_state_perc: 0.95,
        think_time_ratio: 1.0,
        seed: 42,
        ..SystemConfig::small()
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: fig* [--quick|--full] [--csv] [--drops] [--chart] [--small] [--calibrated] [--seed N]\n\
         Regenerates the corresponding figure of 'Balancing Push and Pull for\n\
         Data Broadcast' (SIGMOD 1997). --full is the paper protocol;\n\
         --calibrated uses the Zipf skew matching the paper's absolute levels."
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 })
}

/// Render a figure as a response-time table: one row per x value, one
/// column per series.
pub fn response_table(fig: &Figure) -> Table {
    let mut cols: Vec<&str> = vec![fig.x_label.as_str()];
    cols.extend(fig.series.iter().map(|s| s.label.as_str()));
    let mut t = Table::new(format!("Figure {} — {}", fig.id, fig.title), &cols);
    let xs: Vec<f64> = fig.series[0].points.iter().map(|&(x, _)| x).collect();
    for (i, &x) in xs.iter().enumerate() {
        let mut row = vec![fmt_units(x)];
        for s in &fig.series {
            row.push(s.points.get(i).map_or("-".into(), |&(_, y)| fmt_units(y)));
        }
        t.push_row(row);
    }
    t
}

/// Render the server drop-rate (full-queue discards) and ignore-rate
/// (drops + coalesced) companion tables for a figure whose series carry
/// per-point results.
pub fn drops_table(fig: &Figure) -> Option<Table> {
    if fig.series.iter().all(|s| s.results.is_empty()) {
        return None;
    }
    let mut cols: Vec<String> = vec![fig.x_label.clone()];
    for s in &fig.series {
        if !s.results.is_empty() {
            cols.push(format!("{} drop", s.label));
            cols.push(format!("{} ignore", s.label));
        }
    }
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!("Figure {} — server drop / ignore rates", fig.id),
        &col_refs,
    );
    let xs: Vec<f64> = fig.series[0].points.iter().map(|&(x, _)| x).collect();
    for (i, &x) in xs.iter().enumerate() {
        let mut row = vec![fmt_units(x)];
        for s in &fig.series {
            if s.results.is_empty() {
                continue;
            }
            match s.results.get(i) {
                Some(r) => {
                    row.push(fmt_pct(r.drop_rate));
                    row.push(fmt_pct(r.ignore_rate));
                }
                None => {
                    row.push("-".into());
                    row.push("-".into());
                }
            }
        }
        t.push_row(row);
    }
    Some(t)
}

/// Print a figure according to the options.
pub fn emit(fig: &Figure, opts: &Opts) {
    let t = response_table(fig);
    if opts.csv {
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
    }
    if opts.chart && !opts.csv {
        let series: Vec<(String, Vec<(f64, f64)>)> = fig
            .series
            .iter()
            .map(|s| (s.label.clone(), s.points.clone()))
            .collect();
        println!(
            "{}",
            bpp_core::report::ascii_chart(&format!("Figure {}", fig.id), &series, 20)
        );
    }
    if opts.drops {
        if let Some(d) = drops_table(fig) {
            if opts.csv {
                print!("{}", d.to_csv());
            } else {
                println!("{}", d.render());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpp_core::experiments::Series;
    use bpp_core::runner::SteadyStateResult;
    use bpp_core::SlotAccounting;

    fn dummy_result(drop: f64) -> SteadyStateResult {
        SteadyStateResult {
            mean_response: 1.0,
            ci_half_width: 0.1,
            measured_accesses: 10,
            converged: true,
            mc_hit_rate: 0.5,
            drop_rate: drop,
            ignore_rate: drop + 0.1,
            requests_received: 100,
            p50_response: Some(1.0),
            p90_response: Some(2.0),
            p99_response: Some(3.0),
            max_response: 4.0,
            slots: SlotAccounting {
                push_pages: 1,
                pull_pages: 1,
                empty: 0,
                idle: 0,
            },
            sim_time: 100.0,
            fault: None,
            obs: None,
            fleet: None,
            error: None,
        }
    }

    fn dummy_fig(with_results: bool) -> Figure {
        Figure {
            id: "t".into(),
            title: "test".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series {
                label: "A".into(),
                points: vec![(1.0, 10.0), (2.0, 20.0)],
                results: if with_results {
                    vec![dummy_result(0.1), dummy_result(0.2)]
                } else {
                    Vec::new()
                },
            }],
        }
    }

    #[test]
    fn response_table_shape() {
        let t = response_table(&dummy_fig(false));
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("Figure t"));
    }

    #[test]
    fn drops_table_requires_results() {
        assert!(drops_table(&dummy_fig(false)).is_none());
        let t = drops_table(&dummy_fig(true)).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("10.0%"));
    }
}
