//! Microbenchmarks for the server request queue.

#![allow(missing_docs, reason = "bench harness binaries have no public API")]

use bpp_bench::Group;
use bpp_broadcast::PageId;
use bpp_server::{Discipline, RequestQueue};
use bpp_sim::rng::Xoshiro256pp;
use bpp_workload::{AliasTable, Zipf};
use std::hint::black_box;

fn request_trace(n: usize) -> Vec<PageId> {
    let z = Zipf::new(1000, 0.95);
    let t = AliasTable::new(z.probs());
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    (0..n).map(|_| PageId(t.sample(&mut rng) as u32)).collect()
}

fn main() {
    let trace = request_trace(10_000);
    let mut g = Group::new("queue_10k_requests");
    for (name, disc) in [
        ("fifo", Discipline::Fifo),
        ("most_requested", Discipline::MostRequested),
    ] {
        g.bench(name, || {
            let mut q = RequestQueue::with_discipline(100, disc);
            // Interleave 4 submissions per pop, like an overloaded server.
            for chunk in trace.chunks(4) {
                for &p in chunk {
                    q.submit(p);
                }
                black_box(q.pop());
            }
            q.stats().received
        });
    }
    g.finish();
}
