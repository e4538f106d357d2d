//! Microbenchmarks for the cache policies under a Zipf trace.

#![allow(missing_docs, reason = "bench harness binaries have no public API")]

use bpp_bench::Group;
use bpp_cache::{LfuCache, LruCache, ReplacementPolicy, StaticScoreCache};
use bpp_sim::rng::Xoshiro256pp;
use bpp_workload::{AliasTable, Zipf};

const DB: usize = 1000;
const CAP: usize = 100;
const TRACE: usize = 10_000;

fn zipf_trace() -> Vec<usize> {
    let z = Zipf::new(DB, 0.95);
    let t = AliasTable::new(z.probs());
    let mut rng = Xoshiro256pp::seed_from_u64(42);
    (0..TRACE).map(|_| t.sample(&mut rng)).collect()
}

fn run_trace<P: ReplacementPolicy>(cache: &mut P, trace: &[usize]) -> u64 {
    let mut hits = 0u64;
    for &item in trace {
        if cache.lookup(item) {
            hits += 1;
        } else {
            cache.insert(item);
        }
    }
    hits
}

fn main() {
    let trace = zipf_trace();
    let z = Zipf::new(DB, 0.95);
    let freqs: Vec<usize> = (0..DB)
        .map(|i| {
            if i < 100 {
                3
            } else if i < 500 {
                2
            } else {
                1
            }
        })
        .collect();
    let mut g = Group::new("cache_trace_10k");
    g.bench("pix", || {
        let mut cache = StaticScoreCache::pix(CAP, z.probs(), &freqs);
        run_trace(&mut cache, &trace)
    });
    g.bench("p", || {
        let mut cache = StaticScoreCache::p(CAP, z.probs());
        run_trace(&mut cache, &trace)
    });
    g.bench("lru", || {
        let mut cache = LruCache::new(CAP);
        run_trace(&mut cache, &trace)
    });
    g.bench("lfu", || {
        let mut cache = LfuCache::new(CAP);
        run_trace(&mut cache, &trace)
    });
    g.finish();
}
