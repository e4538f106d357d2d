//! Runtime fault injection: the lossy channels and brownout windows of
//! [`FaultConfig`], plus the per-run [`FaultReport`] that makes degradation
//! observable in experiment output.
//!
//! The injection points are deliberately few and all deterministic:
//!
//! * **frontchannel** — one coin per page-carrying slot on the
//!   `FAULT_LOSS` RNG stream decides whether every listener misses the
//!   page ([`FaultLayer::page_lost`]);
//! * **backchannel** — one coin per sent request on the `FAULT_REQ` stream
//!   ([`FaultLayer::deliver`]), then a clock check against the brownout
//!   window (no randomness), then the ordinary queue admission path;
//! * **client retries** and **server degradation** live in `bpp-client` /
//!   `bpp-server`; their counters are folded into the same report.
//!
//! The crash–recovery domain adds two more artifacts here: the per-run
//! [`CrashReport`] (embedded in the fault report when crashes are
//! configured) and the [`ConservationLedger`], the auditor's view of where
//! every sent request ended up. The ledger is the hard-failure backstop
//! for chaos runs: requests may be lost, browned out, orphaned, rejected,
//! dropped, served, or still in flight — but they may never simply
//! disappear from the accounting.
//!
//! When the fault model is disabled the simulation holds no [`FaultLayer`]
//! at all — no streams are seeded, no coins flipped, no report emitted —
//! so a disabled-fault run is bitwise identical to one predating the
//! subsystem.

use crate::config::FaultConfig;
use bpp_broadcast::PageId;
use bpp_json::{Json, ToJson};
use bpp_server::RequestQueue;
use bpp_sim::{Rng, Xoshiro256pp};

/// Channel-level loss counters accumulated by a [`FaultLayer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Page-carrying slots lost on the frontchannel.
    pub pages_lost: u64,
    /// Requests lost in transit on the backchannel.
    pub requests_lost: u64,
    /// Requests that arrived during a server brownout window and were
    /// discarded.
    pub requests_browned_out: u64,
}

/// The in-simulation fault machinery: the fault configuration plus its two
/// dedicated RNG streams and loss accounting.
#[derive(Debug, Clone)]
pub struct FaultLayer {
    cfg: FaultConfig,
    rng_loss: Xoshiro256pp,
    rng_req: Xoshiro256pp,
    counters: FaultCounters,
}

impl FaultLayer {
    /// Assemble the layer from its config and pre-seeded streams (the
    /// `World` builder owns stream assignment).
    pub fn new(cfg: FaultConfig, rng_loss: Xoshiro256pp, rng_req: Xoshiro256pp) -> Self {
        FaultLayer {
            cfg,
            rng_loss,
            rng_req,
            counters: FaultCounters::default(),
        }
    }

    /// Flip the frontchannel coin for one page-carrying slot. A lost slot
    /// still consumes broadcast bandwidth; no listener hears the page.
    /// Draws nothing when `broadcast_loss` is zero.
    pub fn page_lost(&mut self) -> bool {
        if self.cfg.broadcast_loss <= 0.0 {
            return false;
        }
        let lost = self.rng_loss.random_bool(self.cfg.broadcast_loss);
        if lost {
            self.counters.pages_lost += 1;
        }
        lost
    }

    /// Flip the transit coin for one backchannel send. The coin is flipped
    /// on *every* send — including sends into a brownout or at a crashed
    /// server — so the `FAULT_REQ` stream position depends only on the
    /// number of sends, not on server-side state.
    pub fn transit_lost(&mut self) -> bool {
        let lost = self.cfg.request_loss > 0.0 && self.rng_req.random_bool(self.cfg.request_loss);
        if lost {
            self.counters.requests_lost += 1;
        }
        lost
    }

    /// Whether a brownout window covers `now` — the pure query behind
    /// [`FaultLayer::brownout_discard`], counting nothing. The K-channel
    /// world samples it per channel (with each channel's phase shift) for
    /// the `fault.ch<k>.state` observability timelines.
    pub fn in_brownout(&self, now: f64) -> bool {
        self.cfg.in_brownout(now)
    }

    /// Clock check against the brownout window (no randomness); counts and
    /// returns `true` when the server discards the request.
    pub fn brownout_discard(&mut self, now: f64) -> bool {
        let browned = self.cfg.in_brownout(now);
        if browned {
            self.counters.requests_browned_out += 1;
        }
        browned
    }

    /// Carry one request over the backchannel toward `queue`: it may be
    /// lost in transit (`request_loss` coin), discarded by a browned-out
    /// server, or admitted through the ordinary (bounded, coalescing)
    /// queue path. Returns whether the request reached the queue.
    ///
    /// This is the no-crash composition of [`FaultLayer::transit_lost`]
    /// and [`FaultLayer::brownout_discard`]; the `World` splices its
    /// server-down and admission checks between the two.
    pub fn deliver(&mut self, queue: &mut RequestQueue, now: f64, page: PageId) -> bool {
        if self.transit_lost() {
            return false;
        }
        if self.brownout_discard(now) {
            return false;
        }
        queue.submit_at(page, now);
        true
    }

    /// Re-point the channel loss rates mid-run (chaos-phase transitions).
    /// Stream positions are unaffected: the loss coins keep drawing from
    /// wherever they were.
    pub fn set_channel_loss(&mut self, broadcast_loss: f64, request_loss: f64) {
        self.cfg.broadcast_loss = broadcast_loss;
        self.cfg.request_loss = request_loss;
    }

    /// Re-point the brownout window mid-run (chaos-phase transitions).
    /// Brownouts are a clock check, so this perturbs no RNG stream either.
    pub fn set_brownout(&mut self, period: f64, duration: f64) {
        self.cfg.brownout_period = period;
        self.cfg.brownout_duration = duration;
    }

    /// The loss counters so far.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }
}

/// Everything the crash–recovery domain did to one run, embedded in the
/// [`FaultReport`] (and its JSON) only when crashes are configured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CrashReport {
    /// Server crashes that occurred during the run.
    pub crashes: u64,
    /// Requests that reached the server but were never served because of a
    /// crash: pending queue entries drained at crash time (riders counted
    /// at request grain) plus requests refused while the server was down.
    pub orphaned: u64,
    /// Broadcast slots that elapsed while the server was down (silent
    /// channel).
    pub down_slots: u64,
    /// Largest request-grain queue depth observed between a restart and
    /// the corresponding recovery — the thundering-herd signature.
    pub herd_peak_depth: u64,
    /// Crashes whose recovery completed within the run (the response EWMA
    /// returned to within `recovery_epsilon` of its pre-crash level).
    pub recoveries: u64,
    /// Mean time-to-recover over completed recoveries (broadcast units;
    /// `0` when none completed).
    pub mean_time_to_recover: f64,
    /// Worst time-to-recover over completed recoveries.
    pub max_time_to_recover: f64,
    /// When the first crash struck, if any did (pins the exponential
    /// schedule in determinism tests).
    pub first_crash_at: Option<f64>,
    /// Requests admitted by the token bucket (when admission is enabled).
    pub admitted: u64,
    /// Requests bounced by the token bucket with a retry-after hint.
    pub admission_rejected: u64,
}

impl ToJson for CrashReport {
    fn to_json(&self) -> Json {
        let CrashReport {
            crashes,
            orphaned,
            down_slots,
            herd_peak_depth,
            recoveries,
            mean_time_to_recover,
            max_time_to_recover,
            first_crash_at,
            admitted,
            admission_rejected,
        } = *self;
        let mut members = vec![
            ("crashes", crashes.to_json()),
            ("orphaned", orphaned.to_json()),
            ("down_slots", down_slots.to_json()),
            ("herd_peak_depth", herd_peak_depth.to_json()),
            ("recoveries", recoveries.to_json()),
            ("mean_time_to_recover", mean_time_to_recover.to_json()),
            ("max_time_to_recover", max_time_to_recover.to_json()),
            ("admitted", admitted.to_json()),
            ("admission_rejected", admission_rejected.to_json()),
        ];
        if let Some(t) = first_crash_at {
            members.push(("first_crash_at", t.to_json()));
        }
        Json::object(members)
    }
}

/// Everything the fault model did to one run, serialized alongside the
/// steady-state result (only when the fault model is enabled).
///
/// The channel-loss counters are carried verbatim from the
/// [`FaultLayer`]'s [`FaultCounters`] — one conversion point, no
/// field-by-field copying — but the JSON stays flat (the same ten keys as
/// before the embed) so pinned goldens and downstream parsers are
/// untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultReport {
    /// Channel-level losses straight from the fault layer.
    pub channel: FaultCounters,
    /// Requests discarded at a full queue (whole run).
    pub dropped_full: u64,
    /// Queue entries evicted under the `DropOldest` overflow policy.
    pub dropped_evicted: u64,
    /// Measured-Client request resends after timeouts.
    pub retries: u64,
    /// Times the retry budget ran out and the client fell back to waiting
    /// for the broadcast.
    pub retries_exhausted: u64,
    /// Saturation transitions that shed pull bandwidth.
    pub degradations: u64,
    /// Saturation recoveries that restored it.
    pub recoveries: u64,
    /// Slots spent in the degraded (saturated) state.
    pub saturated_slots: u64,
    /// The crash–recovery section, present only when crashes are
    /// configured (its JSON key is omitted otherwise).
    pub crash: Option<CrashReport>,
}

impl FaultReport {
    /// Total requests the fault model prevented from being served
    /// (in-transit losses, brownout discards, and queue drops/evictions).
    pub fn requests_denied(&self) -> u64 {
        self.channel.requests_lost
            + self.channel.requests_browned_out
            + self.dropped_full
            + self.dropped_evicted
    }
}

impl ToJson for FaultReport {
    fn to_json(&self) -> Json {
        let FaultReport {
            channel:
                FaultCounters {
                    pages_lost,
                    requests_lost,
                    requests_browned_out,
                },
            dropped_full,
            dropped_evicted,
            retries,
            retries_exhausted,
            degradations,
            recoveries,
            saturated_slots,
            crash,
        } = self;
        let mut members = vec![
            ("pages_lost", pages_lost.to_json()),
            ("requests_lost", requests_lost.to_json()),
            ("requests_browned_out", requests_browned_out.to_json()),
            ("dropped_full", dropped_full.to_json()),
            ("dropped_evicted", dropped_evicted.to_json()),
            ("retries", retries.to_json()),
            ("retries_exhausted", retries_exhausted.to_json()),
            ("degradations", degradations.to_json()),
            ("recoveries", recoveries.to_json()),
            ("saturated_slots", saturated_slots.to_json()),
        ];
        if let Some(crash) = crash {
            members.push(("crash", crash.to_json()));
        }
        Json::object(members)
    }
}

/// The auditor's account of every backchannel request in one faulted run.
///
/// Conservation says a sent request ends in exactly one bucket:
///
/// ```text
/// sent == lost_in_transit + browned_out + orphaned + admission_rejected
///       + dropped_full + evicted + served + in_flight_at_end
/// ```
///
/// [`ConservationLedger::violations`] also checks the queue bound
/// (request-grain depth never exceeded what the capacity allows) and
/// monotone simulation time. Chaos runs call
/// [`ConservationLedger::assert_clean`] after every phase schedule —
/// a violation is a simulator bug, never survivable data.
///
/// Serialized (one way) into the chaos harness output; never parsed back.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConservationLedger {
    /// Requests sent by clients (Measured Client and fleet alike).
    pub sent: u64,
    /// Lost to the `request_loss` transit coin.
    pub lost_in_transit: u64,
    /// Discarded inside brownout windows.
    pub browned_out: u64,
    /// Lost to a crash: drained from the queue or refused while down.
    pub orphaned: u64,
    /// Bounced by the admission token bucket.
    pub admission_rejected: u64,
    /// Dropped at a full queue (request grain: riders included).
    pub dropped_full: u64,
    /// Evicted under `DropOldest` (request grain: riders included).
    pub evicted: u64,
    /// Served by a pull slot (request grain: riders included).
    pub served: u64,
    /// Still pending in the queue when the run ended (request grain).
    pub in_flight_at_end: u64,
    /// Largest entry-grain queue depth ever observed.
    pub peak_queue_depth: u64,
    /// The configured queue capacity the peak is checked against.
    pub queue_capacity: u64,
    /// Times the event clock ran backwards (must be zero).
    pub time_regressions: u64,
}

impl ConservationLedger {
    /// The sum of all terminal buckets (the right-hand side of the
    /// conservation equation).
    pub fn accounted(&self) -> u64 {
        self.lost_in_transit
            + self.browned_out
            + self.orphaned
            + self.admission_rejected
            + self.dropped_full
            + self.evicted
            + self.served
            + self.in_flight_at_end
    }

    /// Every invariant this ledger violates, as human-readable findings.
    /// Empty means the run conserved requests, respected the queue bound,
    /// and never moved time backwards.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let accounted = self.accounted();
        if self.sent != accounted {
            v.push(format!(
                "request conservation violated: sent {} != accounted {} \
                 (lost {} + browned {} + orphaned {} + rejected {} + dropped {} \
                 + evicted {} + served {} + in-flight {})",
                self.sent,
                accounted,
                self.lost_in_transit,
                self.browned_out,
                self.orphaned,
                self.admission_rejected,
                self.dropped_full,
                self.evicted,
                self.served,
                self.in_flight_at_end,
            ));
        }
        if self.peak_queue_depth > self.queue_capacity {
            v.push(format!(
                "queue bound violated: peak depth {} exceeds capacity {}",
                self.peak_queue_depth, self.queue_capacity
            ));
        }
        if self.time_regressions > 0 {
            v.push(format!(
                "monotone time violated: the clock ran backwards {} time(s)",
                self.time_regressions
            ));
        }
        v
    }

    /// Hard-fail on any violation: the chaos harness treats a dirty ledger
    /// as a simulator bug, not a reportable result.
    ///
    /// # Panics
    ///
    /// Panics with every violation listed when the ledger is dirty.
    pub fn assert_clean(&self) {
        let violations = self.violations();
        assert!(
            violations.is_empty(),
            "conservation audit failed:\n  {}",
            violations.join("\n  ")
        );
    }
}

impl ToJson for ConservationLedger {
    fn to_json(&self) -> Json {
        Json::object([
            ("sent", self.sent.to_json()),
            ("lost_in_transit", self.lost_in_transit.to_json()),
            ("browned_out", self.browned_out.to_json()),
            ("orphaned", self.orphaned.to_json()),
            ("admission_rejected", self.admission_rejected.to_json()),
            ("dropped_full", self.dropped_full.to_json()),
            ("evicted", self.evicted.to_json()),
            ("served", self.served.to_json()),
            ("in_flight_at_end", self.in_flight_at_end.to_json()),
            ("peak_queue_depth", self.peak_queue_depth.to_json()),
            ("queue_capacity", self.queue_capacity.to_json()),
            ("time_regressions", self.time_regressions.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpp_sim::stream_rng;

    fn layer(cfg: FaultConfig) -> FaultLayer {
        use crate::simulation::streams;
        FaultLayer::new(
            cfg,
            stream_rng(1, streams::FAULT_LOSS),
            stream_rng(1, streams::FAULT_REQ),
        )
    }

    #[test]
    fn zero_loss_flips_no_coins_and_loses_nothing() {
        let mut f = layer(FaultConfig::none());
        for _ in 0..100 {
            assert!(!f.page_lost());
        }
        let mut q = RequestQueue::new(10);
        assert!(f.deliver(&mut q, 0.0, PageId(1)));
        assert_eq!(q.len(), 1);
        assert_eq!(*f.counters(), FaultCounters::default());
    }

    #[test]
    fn certain_loss_loses_everything() {
        let mut f = layer(FaultConfig {
            broadcast_loss: 1.0,
            request_loss: 1.0,
            ..FaultConfig::none()
        });
        let mut q = RequestQueue::new(10);
        for _ in 0..50 {
            assert!(f.page_lost());
            assert!(!f.deliver(&mut q, 0.0, PageId(1)));
        }
        assert!(q.is_empty());
        assert_eq!(f.counters().pages_lost, 50);
        assert_eq!(f.counters().requests_lost, 50);
    }

    #[test]
    fn partial_loss_rate_is_roughly_honored_and_deterministic() {
        let run = || {
            let mut f = layer(FaultConfig {
                broadcast_loss: 0.3,
                ..FaultConfig::none()
            });
            (0..10_000).filter(|_| f.page_lost()).count()
        };
        let lost = run();
        let frac = lost as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "observed loss {frac}");
        assert_eq!(lost, run(), "same seed, same losses");
    }

    #[test]
    fn brownout_discards_without_randomness() {
        let mut f = layer(FaultConfig {
            brownout_period: 100.0,
            brownout_duration: 10.0,
            ..FaultConfig::none()
        });
        let mut q = RequestQueue::new(10);
        assert!(!f.deliver(&mut q, 5.0, PageId(1)), "inside the window");
        assert!(f.deliver(&mut q, 50.0, PageId(2)), "outside the window");
        assert!(!f.deliver(&mut q, 105.0, PageId(3)), "next cycle's window");
        assert_eq!(f.counters().requests_browned_out, 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = FaultReport {
            channel: FaultCounters {
                pages_lost: 1,
                requests_lost: 2,
                requests_browned_out: 3,
            },
            dropped_full: 4,
            dropped_evicted: 5,
            retries: 6,
            retries_exhausted: 7,
            degradations: 8,
            recoveries: 9,
            saturated_slots: 10,
            crash: None,
        };
        // Channel counters stay flat in the JSON (backward-compatible keys),
        // and the crash key is absent when None.
        assert_eq!(
            bpp_json::to_string(&r),
            concat!(
                r#"{"pages_lost":1,"requests_lost":2,"requests_browned_out":3,"#,
                r#""dropped_full":4,"dropped_evicted":5,"retries":6,"retries_exhausted":7,"#,
                r#""degradations":8,"recoveries":9,"saturated_slots":10}"#
            )
        );
        assert_eq!(r.requests_denied(), 2 + 3 + 4 + 5);
    }

    #[test]
    fn crash_section_round_trips_when_present() {
        let r = FaultReport {
            crash: Some(CrashReport {
                crashes: 2,
                orphaned: 11,
                down_slots: 128,
                herd_peak_depth: 40,
                recoveries: 2,
                mean_time_to_recover: 75.5,
                max_time_to_recover: 90.0,
                first_crash_at: Some(512.0),
                admitted: 100,
                admission_rejected: 17,
            }),
            ..FaultReport::default()
        };
        let crash = r.to_json().get("crash").map(Json::dump).unwrap_or_default();
        assert_eq!(
            crash,
            concat!(
                r#"{"crashes":2,"orphaned":11,"down_slots":128,"herd_peak_depth":40,"recoveries":2,"#,
                r#""mean_time_to_recover":75.5,"max_time_to_recover":90.0,"admitted":100,"#,
                r#""admission_rejected":17,"first_crash_at":512.0}"#
            )
        );
        // A crash report with no crash yet omits `first_crash_at` entirely.
        let quiet = FaultReport {
            crash: Some(CrashReport::default()),
            ..FaultReport::default()
        };
        let text = bpp_json::to_string(&quiet);
        assert!(text.contains("\"crash\""));
        assert!(!text.contains("first_crash_at"));
    }

    #[test]
    fn ledger_balance_is_clean_only_when_every_request_is_accounted() {
        let ledger = ConservationLedger {
            sent: 100,
            lost_in_transit: 10,
            browned_out: 5,
            orphaned: 7,
            admission_rejected: 8,
            dropped_full: 20,
            evicted: 4,
            served: 40,
            in_flight_at_end: 6,
            peak_queue_depth: 9,
            queue_capacity: 10,
            time_regressions: 0,
        };
        assert_eq!(ledger.accounted(), 100);
        assert!(ledger.violations().is_empty());
        ledger.assert_clean();
        // Dropping a single orphan from the books trips conservation.
        let mut cooked = ledger;
        cooked.orphaned -= 1;
        let v = cooked.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("conservation"));
    }

    #[test]
    fn ledger_flags_queue_bound_and_time_regressions() {
        let ledger = ConservationLedger {
            sent: 1,
            served: 1,
            peak_queue_depth: 11,
            queue_capacity: 10,
            time_regressions: 2,
            ..ConservationLedger::default()
        };
        let v = ledger.violations();
        assert_eq!(v.len(), 2);
        assert!(v[0].contains("queue bound"));
        assert!(v[1].contains("monotone time"));
    }

    #[test]
    #[should_panic(expected = "conservation audit failed")]
    fn dirty_ledger_hard_fails() {
        ConservationLedger {
            sent: 3,
            ..ConservationLedger::default()
        }
        .assert_clean();
    }
}
