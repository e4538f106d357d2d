//! D7 fixtures: a stream handle shared across components, and a registry
//! stream with two construction sites.

pub fn shared_handle(seed: u64) -> u64 {
    // D7: this handle flows into both the server and workload components.
    let mut rng = stream_rng(seed, Stream::Mux);
    let a = serve_slot(&mut rng);
    let b = draw_page(&mut rng);
    a + b
}

pub fn first_site(seed: u64) -> Xoshiro256pp {
    stream_rng(seed, Stream::Mc)
}

pub fn second_site(seed: u64) -> Xoshiro256pp {
    // D7: Stream::Mc is already constructed in first_site above.
    stream_rng(seed, Stream::Mc)
}
