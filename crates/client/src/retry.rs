//! Retry state machine for pull requests over a lossy backchannel.
//!
//! The paper assumes the backchannel never drops a request; under the fault
//! model a request can vanish (random loss or a server brownout window), and
//! the Measured Client would then wait forever for a pull that was never
//! queued. The fix is the classic one: arm a timeout when the request is
//! sent, and on expiry resend with **capped exponential backoff plus
//! jitter**. When the retry budget is exhausted the client stops resending
//! and falls back to catching the page on the push schedule — the broadcast
//! is the reliability floor that a pure unicast system does not have.
//!
//! All delays are measured in broadcast units (the time to push one page),
//! like every other duration in the simulator. Jitter draws come from a
//! dedicated RNG stream owned by the caller, so enabling retries never
//! perturbs the workload/mux streams and disabled retries draw nothing.

use bpp_json::{Json, ToJson};
use bpp_sim::rng::Rng;

/// Timeout/backoff parameters for pull-request retries.
///
/// The schedule for attempt `i` (0-based; attempt 0 is the timeout armed for
/// the *initial* request) is
///
/// ```text
/// delay(i) = min(base_timeout · backoff_factor^i, cap) · (1 + jitter · u)
/// ```
///
/// where `u ~ U[0,1)` is drawn only when `jitter > 0`, and `cap` is
/// `max_backoff` when positive, otherwise unbounded. A policy with
/// `base_timeout == 0` is *disabled*: no timers are armed and no RNG is
/// consumed, making the fault layer a strict no-op when unconfigured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Resend budget after the initial request (`0` = time out once, then
    /// fall back to the broadcast without ever resending).
    pub max_retries: u32,
    /// Timeout armed for the initial request, in broadcast units. `0`
    /// disables the whole state machine.
    pub base_timeout: f64,
    /// Multiplier applied to the timeout after each expiry (`>= 1`).
    pub backoff_factor: f64,
    /// Upper bound on the un-jittered delay; `0` means uncapped.
    pub max_backoff: f64,
    /// Jitter fraction in `[0, 1]`: each delay is stretched by a uniform
    /// factor in `[1, 1 + jitter)` to decorrelate resends.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::disabled()
    }
}

impl RetryPolicy {
    /// The disabled policy: no timeouts, no resends, no RNG draws.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_timeout: 0.0,
            backoff_factor: 2.0,
            max_backoff: 0.0,
            jitter: 0.0,
        }
    }

    /// A reasonable default for lossy-channel experiments: time out after
    /// 64 broadcast units, double up to a 1024-unit cap, retry four times,
    /// with 50% jitter.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_timeout: 64.0,
            backoff_factor: 2.0,
            max_backoff: 1024.0,
            jitter: 0.5,
        }
    }

    /// Whether the state machine arms timers at all.
    pub fn enabled(&self) -> bool {
        self.base_timeout > 0.0
    }

    /// Check the parameters, returning a human-readable description of the
    /// first problem found (the core config layer folds this into its own
    /// error enum).
    pub fn validate(&self) -> Result<(), String> {
        let RetryPolicy {
            max_retries,
            base_timeout,
            backoff_factor,
            max_backoff,
            jitter,
        } = *self;
        if !base_timeout.is_finite() || base_timeout < 0.0 {
            return Err(format!(
                "retry base_timeout must be finite and >= 0, got {base_timeout}"
            ));
        }
        if !backoff_factor.is_finite() || backoff_factor < 1.0 {
            return Err(format!(
                "retry backoff_factor must be finite and >= 1, got {backoff_factor}"
            ));
        }
        if !max_backoff.is_finite() || max_backoff < 0.0 {
            return Err(format!(
                "retry max_backoff must be finite and >= 0, got {max_backoff}"
            ));
        }
        if !jitter.is_finite() || !(0.0..=1.0).contains(&jitter) {
            return Err(format!("retry jitter must be in [0,1], got {jitter}"));
        }
        // A run that arms five-digit retry budgets per request is a
        // misconfiguration, not an experiment: each retry costs at least
        // `base_timeout` simulated units, so 10k retries exceeds any
        // `max_sim_time` the protocol allows.
        if max_retries > 10_000 {
            return Err(format!(
                "retry max_retries must be <= 10000, got {max_retries}"
            ));
        }
        Ok(())
    }
}

impl ToJson for RetryPolicy {
    fn to_json(&self) -> Json {
        let RetryPolicy {
            max_retries,
            base_timeout,
            backoff_factor,
            max_backoff,
            jitter,
        } = self;
        Json::object([
            ("max_retries", max_retries.to_json()),
            ("base_timeout", base_timeout.to_json()),
            ("backoff_factor", backoff_factor.to_json()),
            ("max_backoff", max_backoff.to_json()),
            ("jitter", jitter.to_json()),
        ])
    }
}

/// Per-outstanding-request retry progress.
///
/// One lives in the simulation `World` for the Measured Client's single
/// outstanding pull request; `arm` it when a request is first sent, ask
/// [`RetryState::next_delay`] for each successive timeout, and drop it when
/// the page arrives.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryState {
    attempt: u32,
}

impl RetryState {
    /// Fresh state for a newly sent request (attempt counter at zero).
    pub fn arm() -> Self {
        RetryState { attempt: 0 }
    }

    /// Number of `next_delay` calls answered so far (attempt 0 is the
    /// initial request's timeout; every later one is a resend).
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The delay to the next timeout, or `None` when the budget is spent
    /// (or the policy is disabled) and the client should fall back to the
    /// broadcast.
    ///
    /// Yields exactly `max_retries + 1` delays for an enabled policy. The
    /// jitter variate is drawn only when `jitter > 0`, so zero-jitter
    /// schedules consume no randomness.
    pub fn next_delay<R: Rng>(&mut self, policy: &RetryPolicy, rng: &mut R) -> Option<f64> {
        if !policy.enabled() || self.attempt > policy.max_retries {
            return None;
        }
        let mut delay = policy.base_timeout * policy.backoff_factor.powi(self.attempt as i32);
        if policy.max_backoff > 0.0 {
            delay = delay.min(policy.max_backoff);
        }
        if policy.jitter > 0.0 {
            let u: f64 = rng.random();
            delay *= 1.0 + policy.jitter * u;
        }
        self.attempt += 1;
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams;
    use bpp_sim::rng::stream_rng;

    fn drain(policy: &RetryPolicy, seed: u64) -> Vec<f64> {
        let mut rng = stream_rng(seed, streams::RETRY);
        let mut st = RetryState::arm();
        let mut out = Vec::new();
        while let Some(d) = st.next_delay(policy, &mut rng) {
            out.push(d);
        }
        out
    }

    #[test]
    fn disabled_policy_never_arms() {
        let mut rng = stream_rng(1, streams::RETRY);
        let mut st = RetryState::arm();
        assert_eq!(st.next_delay(&RetryPolicy::disabled(), &mut rng), None);
        assert_eq!(st.attempts(), 0);
    }

    #[test]
    fn schedule_doubles_then_caps_without_jitter() {
        let policy = RetryPolicy {
            max_retries: 5,
            base_timeout: 10.0,
            backoff_factor: 2.0,
            max_backoff: 50.0,
            jitter: 0.0,
        };
        assert_eq!(drain(&policy, 42), vec![10.0, 20.0, 40.0, 50.0, 50.0, 50.0]);
    }

    #[test]
    fn yields_exactly_max_retries_plus_one_delays() {
        let policy = RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::standard()
        };
        assert_eq!(drain(&policy, 9).len(), 4);
    }

    #[test]
    fn zero_max_backoff_means_uncapped() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_timeout: 1.0,
            backoff_factor: 10.0,
            max_backoff: 0.0,
            jitter: 0.0,
        };
        assert_eq!(drain(&policy, 3), vec![1.0, 10.0, 100.0, 1000.0]);
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let policy = RetryPolicy {
            max_retries: 20,
            base_timeout: 8.0,
            backoff_factor: 1.5,
            max_backoff: 100.0,
            jitter: 0.25,
        };
        let delays = drain(&policy, 1234);
        assert_eq!(delays.len(), 21);
        for (i, &d) in delays.iter().enumerate() {
            let base = (8.0 * 1.5f64.powi(i as i32)).min(100.0);
            assert!(d >= base, "attempt {i}: {d} < un-jittered {base}");
            assert!(d < base * 1.25, "attempt {i}: {d} >= jitter ceiling");
        }
        // Same stream, same schedule — bitwise.
        assert_eq!(delays, drain(&policy, 1234));
        // A different seed moves the jitter.
        assert_ne!(delays, drain(&policy, 1235));
    }

    #[test]
    fn zero_jitter_draws_no_randomness() {
        let policy = RetryPolicy {
            max_retries: 2,
            base_timeout: 5.0,
            backoff_factor: 2.0,
            max_backoff: 0.0,
            jitter: 0.0,
        };
        let mut rng = stream_rng(77, streams::RETRY);
        let before = rng.next_u64();
        let mut rng = stream_rng(77, streams::RETRY);
        let mut st = RetryState::arm();
        while st.next_delay(&policy, &mut rng).is_some() {}
        assert_eq!(rng.next_u64(), before, "schedule consumed RNG variates");
    }

    #[test]
    fn validate_flags_bad_parameters() {
        assert!(RetryPolicy::standard().validate().is_ok());
        assert!(RetryPolicy::disabled().validate().is_ok());
        let bad_factor = RetryPolicy {
            backoff_factor: 0.5,
            ..RetryPolicy::standard()
        };
        assert!(bad_factor
            .validate()
            .unwrap_err()
            .contains("backoff_factor"));
        let bad_jitter = RetryPolicy {
            jitter: 1.5,
            ..RetryPolicy::standard()
        };
        assert!(bad_jitter.validate().unwrap_err().contains("jitter"));
        let bad_timeout = RetryPolicy {
            base_timeout: f64::NAN,
            ..RetryPolicy::standard()
        };
        assert!(bad_timeout.validate().unwrap_err().contains("base_timeout"));
        let bad_budget = RetryPolicy {
            max_retries: 10_001,
            ..RetryPolicy::standard()
        };
        assert!(bad_budget.validate().unwrap_err().contains("max_retries"));
        let max_budget = RetryPolicy {
            max_retries: 10_000,
            ..RetryPolicy::standard()
        };
        assert!(max_budget.validate().is_ok());
    }

    #[test]
    fn json_round_trip() {
        assert_eq!(
            bpp_json::to_string(&RetryPolicy::standard()),
            r#"{"max_retries":4,"base_timeout":64.0,"backoff_factor":2.0,"max_backoff":1024.0,"jitter":0.5}"#
        );
    }
}
