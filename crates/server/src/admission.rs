//! Token-bucket admission control for the backchannel.
//!
//! After a server crash every blocked client's retry timer fires at
//! roughly the same time and the restart sees a thundering herd: a burst
//! of re-issued pulls that floods the (cold, empty) request queue and
//! starves the push schedule. The classic mitigation pair is client-side
//! reconnect jitter plus server-side admission control; this module is the
//! server half.
//!
//! The [`Admission`] layer is a standard token bucket: it refills at
//! `rate` tokens per broadcast unit up to a `burst` ceiling, and each
//! admitted request spends one token. A request arriving at an empty
//! bucket is *rejected with feedback* — unlike a silent queue drop, the
//! rejection carries a `retry_after` hint that the client folds into its
//! backoff, spreading the herd over time instead of letting it hammer a
//! cold server. On restart the bucket is deliberately reset to *empty*
//! ([`Admission::restart_cold`]), so the first `burst`-worth of reconnects
//! is paced at the refill rate rather than admitted at once.
//!
//! The bucket draws no randomness: given the same arrival times it makes
//! the same decisions, preserving bitwise reproducibility.

use bpp_json::{Json, ToJson};

/// Token-bucket parameters for the backchannel admission layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Token refill rate in requests per broadcast unit. `0` disables the
    /// layer entirely (no bucket is constructed, every request passes).
    pub rate: f64,
    /// Bucket capacity: the largest burst admitted from a full bucket.
    pub burst: f64,
    /// Retry-after hint (broadcast units) returned with every rejection;
    /// clients take the max of this and their own backoff delay.
    pub retry_after: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::disabled()
    }
}

impl AdmissionConfig {
    /// The disabled layer: no bucket, no rejections, no JSON emitted.
    pub fn disabled() -> Self {
        AdmissionConfig {
            rate: 0.0,
            burst: 0.0,
            retry_after: 0.0,
        }
    }

    /// A reasonable default for crash experiments: admit one request per
    /// broadcast unit, bursts of up to 8, and ask rejected clients to come
    /// back after 32 units.
    pub fn standard() -> Self {
        AdmissionConfig {
            rate: 1.0,
            burst: 8.0,
            retry_after: 32.0,
        }
    }

    /// Whether the layer gates requests at all.
    pub fn enabled(&self) -> bool {
        self.rate > 0.0
    }

    /// Check the parameters, returning a human-readable description of the
    /// first problem found. A disabled config is always valid.
    pub fn validate(&self) -> Result<(), String> {
        let AdmissionConfig {
            rate,
            burst,
            retry_after,
        } = *self;
        if !rate.is_finite() || rate < 0.0 {
            return Err(format!(
                "admission rate must be finite and >= 0, got {rate}"
            ));
        }
        if !self.enabled() {
            return Ok(());
        }
        if !burst.is_finite() || burst < 1.0 {
            return Err(format!(
                "admission burst must be finite and >= 1 when enabled, got {burst}"
            ));
        }
        if !retry_after.is_finite() || retry_after < 0.0 {
            return Err(format!(
                "admission retry_after must be finite and >= 0, got {retry_after}"
            ));
        }
        Ok(())
    }
}

impl ToJson for AdmissionConfig {
    fn to_json(&self) -> Json {
        let AdmissionConfig {
            rate,
            burst,
            retry_after,
        } = self;
        Json::object([
            ("rate", rate.to_json()),
            ("burst", burst.to_json()),
            ("retry_after", retry_after.to_json()),
        ])
    }
}

/// Admission accounting for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests that spent a token and went on to the queue.
    pub admitted: u64,
    /// Requests bounced with a retry-after hint.
    pub rejected: u64,
}

/// The runtime token bucket (see the module docs for the model).
#[derive(Debug, Clone)]
pub struct Admission {
    cfg: AdmissionConfig,
    tokens: f64,
    refilled_at: f64,
    stats: AdmissionStats,
}

impl Admission {
    /// A bucket starting *full* at time zero (steady-state operation; the
    /// cold-restart path uses [`Admission::restart_cold`]).
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission {
            tokens: cfg.burst,
            cfg,
            refilled_at: 0.0,
            stats: AdmissionStats::default(),
        }
    }

    /// Decide one request arriving at `now`: `true` admits (one token
    /// spent), `false` rejects. Time must not run backwards between calls.
    pub fn admit(&mut self, now: f64) -> bool {
        let elapsed = (now - self.refilled_at).max(0.0);
        self.tokens = (self.tokens + elapsed * self.cfg.rate).min(self.cfg.burst);
        self.refilled_at = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.stats.admitted += 1;
            true
        } else {
            self.stats.rejected += 1;
            false
        }
    }

    /// Cold restart after a crash: the bucket comes back *empty*, so the
    /// reconnect herd is paced at the refill rate from the first request.
    pub fn restart_cold(&mut self, now: f64) {
        // No `..`: a new field does not compile until it is wiped here or
        // kept on purpose (`field: _`).
        let Self {
            // Configuration: the restarted bucket keeps its rate and burst.
            cfg: _,
            tokens,
            refilled_at,
            // Cumulative run accounting: the conservation ledger needs it
            // across crashes.
            stats: _,
        } = self;
        *tokens = 0.0;
        *refilled_at = now;
    }

    /// The retry-after hint attached to rejections.
    pub fn retry_after(&self) -> f64 {
        self.cfg.retry_after
    }

    /// Accumulated admission counters.
    pub fn stats(&self) -> &AdmissionStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            rate: 1.0,
            burst: 4.0,
            retry_after: 16.0,
        }
    }

    #[test]
    fn full_bucket_admits_a_burst_then_rejects() {
        let mut a = Admission::new(cfg());
        for _ in 0..4 {
            assert!(a.admit(0.0));
        }
        assert!(!a.admit(0.0), "fifth request at t=0 exceeds the burst");
        assert_eq!(a.stats().admitted, 4);
        assert_eq!(a.stats().rejected, 1);
    }

    #[test]
    fn tokens_refill_at_the_configured_rate() {
        let mut a = Admission::new(cfg());
        for _ in 0..4 {
            assert!(a.admit(0.0));
        }
        assert!(!a.admit(0.5), "half a token is not enough");
        assert!(a.admit(1.5), "1.5 units refill past one token");
        assert!(!a.admit(1.5));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut a = Admission::new(cfg());
        // A long quiet period must not bank more than `burst` tokens.
        for _ in 0..4 {
            assert!(a.admit(1000.0));
        }
        assert!(!a.admit(1000.0));
    }

    #[test]
    fn cold_restart_paces_the_herd() {
        let mut a = Admission::new(cfg());
        a.restart_cold(100.0);
        assert!(!a.admit(100.0), "the bucket restarts empty");
        assert!(a.admit(101.0), "one unit later one token has dripped in");
        assert!(!a.admit(101.0), "the herd is paced, not batched");
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut a = Admission::new(cfg());
            a.restart_cold(10.0);
            (0..40)
                .map(|i| a.admit(10.0 + 0.25 * i as f64))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn validate_flags_bad_parameters() {
        assert!(AdmissionConfig::disabled().validate().is_ok());
        assert!(AdmissionConfig::standard().validate().is_ok());
        let bad_rate = AdmissionConfig {
            rate: f64::NAN,
            ..AdmissionConfig::standard()
        };
        assert!(bad_rate.validate().unwrap_err().contains("rate"));
        let bad_burst = AdmissionConfig {
            burst: 0.5,
            ..AdmissionConfig::standard()
        };
        assert!(bad_burst.validate().unwrap_err().contains("burst"));
        let bad_hint = AdmissionConfig {
            retry_after: -1.0,
            ..AdmissionConfig::standard()
        };
        assert!(bad_hint.validate().unwrap_err().contains("retry_after"));
    }

    #[test]
    fn json_round_trip() {
        assert_eq!(
            bpp_json::to_string(&AdmissionConfig::standard()),
            r#"{"rate":1.0,"burst":8.0,"retry_after":32.0}"#
        );
    }
}
