//! Fixture server component: consumer of a wandering RNG handle (D7).
//! Its exact float comparison (D4) is suppressed file-wide via the root
//! `lint_allow.txt`, demonstrating the allowlist path.

pub fn serve_slot(rng: &mut Rng) -> u64 {
    rng.next_u64()
}

pub fn is_idle(load: f64) -> bool {
    load == 0.0
}
