//! Deterministic random-number plumbing — fully in-tree.
//!
//! Every stochastic component of the simulation (Zipf draws, think times,
//! the PullBW and SteadyStatePerc coins, noise permutation, ...) gets its
//! own independent generator derived from a single experiment seed and a
//! stable *stream* label. Two properties follow:
//!
//! 1. a whole experiment is reproducible from one `u64` seed, and
//! 2. changing how often one component draws (e.g. adding a VC coin flip)
//!    does not perturb the variates seen by any other component — the
//!    classic "common random numbers" discipline for variance reduction
//!    when comparing algorithms.
//!
//! The generator itself is **xoshiro256++** (Blackman & Vigna), implemented
//! here rather than pulled from a crate so that the variate streams — and
//! with them every published number of the reproduction — can never change
//! underneath us with a dependency upgrade. Seeding goes through SplitMix64
//! exactly as the reference implementation recommends, and the
//! `rng_streams_are_pinned_forever` golden test pins the first draws of
//! several `(seed, stream)` pairs so any accidental change to the stream
//! discipline fails loudly.

/// SplitMix64 output mix (finalizer without the increment).
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 finalizer; the standard way to decorrelate nearby seeds.
fn splitmix64(z: u64) -> u64 {
    splitmix64_mix(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// The subset of uniform draws the simulator actually uses.
///
/// Implemented by [`Xoshiro256pp`]; generic consumers (alias tables, think
/// times, the MUX coin) bound on `R: Rng + ?Sized` so tests can substitute
/// counting or constant generators.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform sample of `T`: full range for integers, `[0, 1)` for
    /// `f64`, a fair coin for `bool`.
    fn random<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform integer in `[range.start, range.end)`, bias-free
    /// (Lemire's multiply-shift rejection).
    ///
    /// # Panics
    /// If the range is empty.
    fn random_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "cannot sample an empty range");
        let span = (range.end - range.start) as u64;
        let mut m = u128::from(self.next_u64()) * u128::from(span);
        if (m as u64) < span {
            // Rejection threshold: 2^64 mod span.
            let t = span.wrapping_neg() % span;
            while (m as u64) < t {
                m = u128::from(self.next_u64()) * u128::from(span);
            }
        }
        range.start + (m >> 64) as usize
    }

    /// A coin that lands heads with probability `p` (clamped to `[0, 1]`).
    /// Always consumes exactly one variate, so CRN streams stay aligned
    /// whatever `p` is.
    fn random_bool(&mut self, p: f64) -> bool {
        let u: f64 = self.random();
        u < p
    }
}

/// Types drawable uniformly from an [`Rng`].
pub trait Sample {
    /// Draw one uniform value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for f64 {
    /// 53-bit mantissa convention: uniform on `[0, 1)` with 2⁻⁵³ spacing.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// xoshiro256++ — the workspace's one and only generator.
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush; the `++` scrambler
/// makes all 64 output bits usable. Public-domain algorithm by David
/// Blackman and Sebastiano Vigna (2019), re-implemented from the reference
/// description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed the full 256-bit state from one `u64` via consecutive
    /// SplitMix64 outputs (the seeding procedure the xoshiro authors
    /// recommend; it also guarantees a non-zero state in practice).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *w = splitmix64_mix(sm);
        }
        if s == [0; 4] {
            // The all-zero state is the one fixed point of the transition;
            // unreachable from SplitMix64 in practice, but cheap to guard.
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256pp { s }
    }
}

impl Rng for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// The RNG stream registry: one variant per stochastic component.
///
/// Every stochastic component draws from `stream_rng(seed, Stream::X)`.
/// The ids are stable across versions, because changing one component's
/// draw count must never perturb the variates any other component sees
/// (the common-random-numbers discipline behind all published figures).
/// The compiler keeps the registry honest: a magic integer id does not
/// type-check, a duplicate id is E0081, and an undocumented variant fails
/// `missing_docs`.
///
/// | id | variant     | owner                               | drawn when            |
/// |----|-------------|-------------------------------------|-----------------------|
/// | 0  | `Mux`       | `bpp_server::BandwidthMux`          | every slot boundary   |
/// | 1  | `Mc`        | Measured Client think/access        | every MC access       |
/// | 2  | `Vc`        | Virtual Client population           | every VC access       |
/// | 3  | `Noise`     | `bpp_workload::NoisePermutation`    | once at build         |
/// | 4  | `Update`    | server-side update process          | per update tick       |
/// | 5  | `FaultLoss` | fault model, frontchannel           | `broadcast_loss > 0`  |
/// | 6  | `FaultReq`  | fault model, backchannel            | `request_loss > 0`    |
/// | 7  | `Retry`     | `bpp_client::retry` jitter          | `jitter > 0`          |
/// | 8  | `Fleet`     | `bpp_client::arena` client fleet    | `population` = fleet  |
///
/// Streams 0–4 are golden-pinned from the base system; 5–7 belong to the
/// fault model and are seeded only when the corresponding knob is enabled;
/// 8 belongs to the million-client extension and is drawn only when
/// `population` selects a real fleet. The crash–recovery domain draws
/// nothing: its crash times are an explicit schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Stream {
    /// 0 — server bandwidth MUX coin (`bpp_server::BandwidthMux`), one
    /// draw per slot boundary.
    Mux = 0,
    /// 1 — Measured Client think times and access draws.
    Mc = 1,
    /// 2 — Virtual Client population think times and access draws.
    Vc = 2,
    /// 3 — noise permutation of the access pattern
    /// (`bpp_workload::NoisePermutation`), drawn once at world build.
    Noise = 3,
    /// 4 — server-side update process (page staleness experiments).
    Update = 4,
    /// 5 — fault model: frontchannel page-loss coins, one per
    /// page-carrying slot, drawn only when `broadcast_loss > 0`.
    FaultLoss = 5,
    /// 6 — fault model: backchannel request-transit coins, one per send
    /// (position depends only on the send count, never on server state).
    FaultReq = 6,
    /// 7 — retry backoff jitter (`bpp_client::retry`), drawn only when
    /// `jitter > 0`.
    Retry = 7,
    /// 8 — the arena client fleet (`bpp_client::arena`): think times,
    /// access draws and retry jitter of every fleet client, drawn only
    /// when `population` selects a real fleet (`fleet_clients > 0`).
    Fleet = 8,
}

/// Derive the independent generator of registry stream `stream` under
/// `seed`.
///
/// The same pair always yields the same generator; distinct streams under
/// the same seed are decorrelated by two SplitMix64 rounds.
///
/// ```
/// use bpp_sim::{stream_rng, Stream};
/// assert_eq!(stream_rng(42, Stream::Retry), stream_rng(42, Stream::Retry));
/// ```
///
/// Only a [`Stream`] names a stream, so a magic id does not compile:
///
/// ```compile_fail,E0308
/// let rng = bpp_sim::stream_rng(42, 7);
/// ```
#[expect(
    clippy::disallowed_methods,
    reason = "the typed entry point is the raw mixer's one library caller"
)]
pub fn stream_rng(seed: u64, stream: Stream) -> Xoshiro256pp {
    stream_rng_raw(seed, stream as u64)
}

/// The raw mixer behind [`stream_rng`], keyed by any `u64`.
///
/// Banned by `clippy.toml` (`disallowed-methods`): simulator components
/// name a [`Stream`]. [`stream_rng`] and the property tests that derive
/// one generator per case index expect the lint.
pub fn stream_rng_raw(seed: u64, stream: u64) -> Xoshiro256pp {
    let mixed =
        splitmix64(splitmix64(seed) ^ splitmix64(stream.wrapping_mul(0xA24B_AED4_963E_E407)));
    Xoshiro256pp::seed_from_u64(mixed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_is_reproducible() {
        let mut a = stream_rng(42, Stream::Retry);
        let mut b = stream_rng(42, Stream::Retry);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = stream_rng(42, Stream::Mux);
        let mut b = stream_rng(42, Stream::Mc);
        let same = (0..64)
            .filter(|_| a.random::<u64>() == b.random::<u64>())
            .count();
        assert_eq!(same, 0, "adjacent streams must not collide");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = stream_rng(1, Stream::Mux);
        let mut b = stream_rng(2, Stream::Mux);
        let same = (0..64)
            .filter(|_| a.random::<u64>() == b.random::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn splitmix_distributes_low_entropy_seeds() {
        // Seeds 0..16 must produce well-spread first outputs (sanity check
        // against accidentally feeding raw counters to the generator).
        let firsts: Vec<u64> = (0..16)
            .map(|s| stream_rng(s, Stream::Mux).random::<u64>())
            .collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), firsts.len());
    }

    #[test]
    fn f64_samples_are_unit_interval() {
        let mut rng = stream_rng(1, Stream::Mc);
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for _ in 0..100_000 {
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
            min = min.min(u);
            max = max.max(u);
        }
        assert!(min < 0.001, "min {min}");
        assert!(max > 0.999, "max {max}");
    }

    #[test]
    fn random_range_is_unbiased_and_in_bounds() {
        let mut rng = stream_rng(2, Stream::Vc);
        let mut counts = [0u32; 7];
        let n = 140_000;
        for _ in 0..n {
            let v = rng.random_range(3..10);
            assert!((3..10).contains(&v));
            counts[v - 3] += 1;
        }
        let expect = n as f64 / 7.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(dev < 0.03, "bucket {i}: count {c}, expected {expect}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        stream_rng(0, Stream::Mux).random_range(5..5);
    }

    #[test]
    fn random_bool_tracks_probability_and_stream_alignment() {
        let mut rng = stream_rng(3, Stream::Noise);
        let n = 100_000;
        let heads = (0..n).filter(|_| rng.random_bool(0.3)).count();
        let frac = heads as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
        // Degenerate probabilities still consume exactly one variate each,
        // so downstream draws stay aligned across configurations.
        let mut a = stream_rng(4, Stream::Update);
        let mut b = stream_rng(4, Stream::Update);
        assert!(!a.random_bool(0.0));
        assert!(b.random_bool(1.0));
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }

    /// Golden values: the first 8 draws of three (seed, stream) pairs.
    ///
    /// These constants pin the common-random-numbers contract. If this test
    /// fails, a change has silently re-randomised every experiment in the
    /// repo — do NOT update the constants without bumping the experiment
    /// provenance notes in EXPERIMENTS.md.
    #[test]
    fn rng_streams_are_pinned_forever() {
        // Filled in from the first run of this implementation; verified
        // stable across rebuilds and platforms (pure integer arithmetic).
        let golden: [(u64, Stream, [u64; 8]); 3] = [
            (0, Stream::Mux, GOLDEN_0_0),
            (42, Stream::Retry, GOLDEN_42_7),
            (0x5EED_B0DC, Stream::Update, GOLDEN_5EEDB0DC_4),
        ];
        for (seed, stream, want) in golden {
            let mut rng = stream_rng(seed, stream);
            let got: Vec<u64> = (0..8).map(|_| rng.random::<u64>()).collect();
            assert_eq!(got, want, "stream_rng({seed}, {stream:?}) drifted");
        }
    }

    const GOLDEN_0_0: [u64; 8] = [
        0x84f0_9bf3_07c1_073a,
        0xc82f_fb59_7cee_e51b,
        0xadf9_6905_c5df_4417,
        0xe9d9_a848_9d04_2c93,
        0xad67_db02_49c4_1e0a,
        0xff32_6c7e_de4e_f54b,
        0x7e20_b38f_8e28_a54c,
        0x51fd_ab71_c49a_c2be,
    ];
    const GOLDEN_42_7: [u64; 8] = [
        0xcbb3_5849_8fd5_e720,
        0x3663_cbcf_6c2e_a945,
        0xabb6_1169_a8ff_36db,
        0xde98_4963_5e13_f25a,
        0xe0dc_f5f4_edb4_210e,
        0x5f49_5da3_169c_d8c6,
        0xb23c_c0ad_6e31_91de,
        0xe526_fa17_cde4_2077,
    ];
    const GOLDEN_5EEDB0DC_4: [u64; 8] = [
        0x068b_66a6_eaf9_5a67,
        0x38ea_ec58_eab0_7d6e,
        0x3f1a_53b2_7215_eb5f,
        0xd93d_3032_2344_11ea,
        0x4693_20c1_f2a0_c80a,
        0x3929_2a52_f54e_2a27,
        0xf9ed_a129_f7f4_3a27,
        0x1011_fe11_a746_33e7,
    ];
}
