//! Regenerates Figure 6: the influence of the client threshold.
//!
//! * 6(a): PullBW 50%, ThresPerc ∈ {0, 10, 25, 35}%.
//! * 6(b): PullBW 30% (the server saturates earlier; larger thresholds win).
//!
//! With `--drops`, prints the drop-rate tables and the §4.2 checkpoint:
//! at ThinkTimeRatio 50 the paper measured 68.8% of requests dropped under
//! IPP (threshold 0) vs. 39.9% under Pure-Pull.

use bpp_bench::{drops_table, emit, Opts};
use bpp_core::experiments::{fig6, TTR_GRID_FINE};
use bpp_sim::approx::exactly;

fn main() {
    let opts = Opts::parse();
    let base = opts.base();
    let proto = opts.protocol();

    let a = fig6(&base, &proto, 0.5);
    emit(&a, &opts);
    let b = fig6(&base, &proto, 0.3);
    emit(&b, &opts);

    // §4.2 checkpoint: drops at TTR=50 for IPP thres 0% vs Pure-Pull.
    let idx = TTR_GRID_FINE.iter().position(|&t| exactly(t, 50.0));
    if let Some(i) = idx {
        let ipp = a
            .series
            .iter()
            .find(|s| s.label.contains("ThresPerc 0%"))
            .and_then(|s| s.results.get(i));
        let pull = a
            .series
            .iter()
            .find(|s| s.label == "Pull")
            .and_then(|s| s.results.get(i));
        if let (Some(ipp), Some(pull)) = (ipp, pull) {
            println!(
                "checkpoint S3 (paper: 68.8% IPP vs 39.9% Pull dropped at TTR=50): \
                 measured IPP drop {:.1}% / ignore {:.1}%, Pull drop {:.1}% / ignore {:.1}%",
                ipp.drop_rate * 100.0,
                ipp.ignore_rate * 100.0,
                pull.drop_rate * 100.0,
                pull.ignore_rate * 100.0
            );
        }
    }
    let _ = drops_table(&b);
}
