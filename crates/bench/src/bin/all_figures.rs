//! Runs every figure of the evaluation in sequence and writes both the
//! aligned tables (stdout) and CSV files under `results/`.
//!
//! This is the one-command full reproduction:
//!
//! ```text
//! cargo run --release -p bpp-bench --bin all_figures            # paper protocol
//! cargo run --release -p bpp-bench --bin all_figures -- --quick # smoke run
//! ```

#![expect(clippy::disallowed_types, reason = "times the figure run")]
#![expect(clippy::expect_used, reason = "abort when output is unwritable")]

use bpp_bench::{drops_table, response_table, Opts};
use bpp_core::experiments::{fig3a, fig3b, fig4, fig5a, fig5b, fig6, fig7, fig8, Figure};
use std::fs;
use std::path::Path;
use std::time::Instant;

fn main() {
    let opts = Opts::parse();
    let base = opts.base();
    let proto = opts.protocol();
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results dir");

    type FigureThunk<'a> = Box<dyn Fn() -> Figure + 'a>;
    let figures: Vec<(&str, FigureThunk)> = vec![
        ("fig3a", Box::new(|| fig3a(&base, &proto))),
        ("fig3b", Box::new(|| fig3b(&base, &proto))),
        ("fig4a", Box::new(|| fig4(&base, &proto, 25.0))),
        ("fig4b", Box::new(|| fig4(&base, &proto, 250.0))),
        ("fig5a", Box::new(|| fig5a(&base, &proto))),
        ("fig5b", Box::new(|| fig5b(&base, &proto))),
        ("fig6a", Box::new(|| fig6(&base, &proto, 0.5))),
        ("fig6b", Box::new(|| fig6(&base, &proto, 0.3))),
        ("fig7a", Box::new(|| fig7(&base, &proto, 0.0))),
        ("fig7b", Box::new(|| fig7(&base, &proto, 0.35))),
        ("fig8", Box::new(|| fig8(&base, &proto))),
    ];

    for (name, run) in figures {
        let t0 = Instant::now();
        let fig = run();
        let table = response_table(&fig);
        println!("{}", table.render());
        fs::write(out_dir.join(format!("{name}.csv")), table.to_csv()).expect("write figure csv");
        if let Some(d) = drops_table(&fig) {
            fs::write(out_dir.join(format!("{name}_drops.csv")), d.to_csv())
                .expect("write drops csv");
        }
        eprintln!("[{name}] done in {:.1?}", t0.elapsed());
    }
    eprintln!("CSV files written to {}", out_dir.display());
}
