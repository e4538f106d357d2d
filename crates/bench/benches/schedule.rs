//! Microbenchmarks for broadcast-program construction and schedule queries
//! (the per-slot hot path of the simulator).

#![allow(missing_docs, reason = "bench harness binaries have no public API")]

use bpp_bench::Group;
use bpp_broadcast::{assignment::identity_ranking, Assignment, BroadcastProgram, DiskSpec, PageId};
use std::hint::black_box;

fn paper_assignment() -> Assignment {
    Assignment::with_offset(&identity_ranking(1000), &DiskSpec::paper_default(), 100)
}

fn main() {
    let mut gen = Group::new("program_generation");
    {
        let a = paper_assignment();
        gen.bench("paper_1000_pages", || {
            BroadcastProgram::generate(black_box(&a), 1000)
        });
    }
    {
        let spec = DiskSpec::new(vec![1000, 4000, 5000], vec![3, 2, 1]);
        let a = Assignment::with_offset(&identity_ranking(10_000), &spec, 1000);
        gen.bench("large_10000_pages", || {
            BroadcastProgram::generate(black_box(&a), 10_000)
        });
    }
    gen.finish();

    let program = BroadcastProgram::generate(&paper_assignment(), 1000);
    let mut q = Group::new("schedule_queries");
    {
        let mut cursor = 0usize;
        let mut page = 0u32;
        q.bench("slots_until", || {
            cursor = (cursor + 97) % program.major_cycle();
            page = (page + 13) % 1000;
            program.slots_until(PageId(page), cursor)
        });
    }
    {
        let mut cursor = 0usize;
        let mut page = 0u32;
        q.bench("slots_until_present", || {
            cursor = (cursor + 97) % program.major_cycle();
            page = (page + 13) % 1000;
            program.slots_until_present(PageId(page), cursor)
        });
    }
    {
        let mut page = 0u32;
        q.bench("expected_slots", || {
            page = (page + 13) % 1000;
            program.expected_slots(PageId(page))
        });
    }
    {
        let mut page = 0u32;
        q.bench("frequency", || {
            page = (page + 13) % 1000;
            program.frequency(PageId(page))
        });
    }
    q.finish();
}
