//! Fixture workload component: the second consumer the shared handle in
//! `core/src/flows.rs` leaks into (D7).

pub fn draw_page(rng: &mut Rng) -> u64 {
    rng.next_u64()
}
