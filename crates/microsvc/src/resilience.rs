//! Client-side resilience: per-call timeouts, bounded retry with
//! exponential backoff + jitter, and per-instance circuit breakers.
//!
//! All three mechanisms live on the *caller* side of an RPC, mirroring what a
//! service mesh sidecar or a resilience library (Hystrix, resilience4j,
//! Polly) would do in a real deployment:
//!
//! * **Timeout** — every call (client → entry service and service →
//!   service) is armed with a deadline; when it fires the caller abandons
//!   the call and the late reply, if it ever arrives, is discarded.
//! * **Retry** — an abandoned call is retried up to
//!   [`RetryPolicy::max_retries`] times, after an equal-jitter exponential
//!   backoff delay ([`backoff_delay`]). Each retry re-picks an instance, so
//!   retries naturally route around an ejected or crashed replica.
//! * **Circuit breaker** — one [`CircuitBreaker`] per *instance* counts
//!   consecutive call failures; at [`BreakerPolicy::failure_threshold`] it
//!   opens and the load balancer stops routing to that instance. After
//!   [`BreakerPolicy::open_for`] it half-opens and admits up to
//!   [`BreakerPolicy::half_open_probes`] probe calls; one success closes it,
//!   one failure re-opens it.
//!
//! Everything here is pure state-machine code driven by simulated time and
//! the engine's dedicated `resilience` random stream — no wall clock, no
//! global state — so runs remain deterministic and replayable.

use crate::ids::ServiceId;
use simcore::{Rng, SimDuration, SimTime};

/// Bounded retry with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 disables retries).
    pub max_retries: u8,
    /// Backoff before the first retry; doubles per subsequent attempt.
    pub base: SimDuration,
    /// Upper bound on the nominal (pre-jitter) backoff.
    pub cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base: SimDuration::from_millis(1),
            cap: SimDuration::from_millis(50),
        }
    }
}

/// Equal-jitter exponential backoff delay before retry number `attempt`
/// (1-based: the first retry is attempt 1).
///
/// The nominal delay is `base << (attempt - 1)` clamped to `cap`; the
/// returned delay is uniformly drawn from `[nominal/2, nominal]`. Equal
/// jitter keeps a meaningful minimum spacing (unlike full jitter) while
/// still de-synchronizing retry storms across callers.
pub fn backoff_delay(policy: &RetryPolicy, attempt: u32, rng: &mut Rng) -> SimDuration {
    debug_assert!(attempt >= 1, "backoff attempts are 1-based");
    // Clamp the shift: past 2^20 the cap has certainly taken over, and an
    // unchecked shift would overflow for absurd attempt numbers.
    let exp = (attempt - 1).min(20);
    let nominal = policy.base.mul_f64((1u64 << exp) as f64).min(policy.cap);
    let half = nominal.mul_f64(0.5);
    half + nominal.saturating_sub(half).mul_f64(rng.next_f64())
}

/// Per-instance circuit breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before half-opening.
    pub open_for: SimDuration,
    /// Concurrent probe calls admitted while half-open.
    pub half_open_probes: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 5,
            open_for: SimDuration::from_millis(10),
            half_open_probes: 1,
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow, consecutive failures are counted.
    Closed,
    /// Tripped: the instance is ejected from load balancing.
    Open,
    /// Probing: a limited number of trial calls are admitted.
    HalfOpen,
}

/// What a breaker notification caused, for metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// No state change.
    None,
    /// The breaker tripped open (Closed or HalfOpen → Open).
    Opened,
    /// The breaker recovered (HalfOpen → Closed).
    Closed,
}

/// Circuit breaker for a single instance.
///
/// Time-driven transitions (Open → HalfOpen) happen lazily inside
/// [`allows`](CircuitBreaker::allows) rather than via scheduled events, so
/// an idle breaker costs nothing.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: SimTime,
    probes_in_flight: u32,
}

impl CircuitBreaker {
    /// A closed (healthy) breaker with the given policy.
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: SimTime::ZERO,
            probes_in_flight: 0,
        }
    }

    /// Current state, after applying any due Open → HalfOpen transition.
    pub fn state(&mut self, now: SimTime) -> BreakerState {
        self.poll(now);
        self.state
    }

    /// Whether the instance may receive a call at `now`.
    pub fn allows(&mut self, now: SimTime) -> bool {
        self.poll(now);
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => self.probes_in_flight < self.policy.half_open_probes,
        }
    }

    /// Notes that a call was actually dispatched to the instance.
    pub fn on_dispatch(&mut self, now: SimTime) {
        self.poll(now);
        if self.state == BreakerState::HalfOpen {
            self.probes_in_flight += 1;
        }
    }

    /// Notes a successful call outcome.
    pub fn on_success(&mut self, now: SimTime) -> Transition {
        self.poll(now);
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = 0;
                Transition::None
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                self.consecutive_failures = 0;
                self.probes_in_flight = 0;
                Transition::Closed
            }
            // A success racing the trip (reply already in flight when the
            // breaker opened) does not resurrect the instance early.
            BreakerState::Open => Transition::None,
        }
    }

    /// Notes a failed call outcome (timeout, dropped reply, crash).
    pub fn on_failure(&mut self, now: SimTime) -> Transition {
        self.poll(now);
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.policy.failure_threshold {
                    self.trip(now);
                    Transition::Opened
                } else {
                    Transition::None
                }
            }
            BreakerState::HalfOpen => {
                self.trip(now);
                Transition::Opened
            }
            BreakerState::Open => Transition::None,
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.open_until = now + self.policy.open_for;
        self.probes_in_flight = 0;
        self.consecutive_failures = 0;
    }

    fn poll(&mut self, now: SimTime) {
        if self.state == BreakerState::Open && now >= self.open_until {
            self.state = BreakerState::HalfOpen;
            self.probes_in_flight = 0;
        }
    }

    /// Serializes the state machine (the policy is configuration, rebuilt
    /// from params on restore).
    pub(crate) fn snap_save(&self, w: &mut SnapWriter) {
        let Self {
            policy: _, // config, rebuilt from params
            state,
            consecutive_failures,
            open_until,
            probes_in_flight,
        } = self;
        w.u8(match state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        });
        w.u32(*consecutive_failures);
        open_until.save(w);
        w.u32(*probes_in_flight);
    }

    pub(crate) fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let new_state = match r.u8()? {
            0 => BreakerState::Closed,
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            other => {
                return Err(SnapError::Corrupt(format!(
                    "unknown BreakerState tag {other}"
                )))
            }
        };
        let failures = r.u32()?;
        let until = SimTime::load(r)?;
        let probes = r.u32()?;
        let Self {
            policy,
            state,
            consecutive_failures,
            open_until,
            probes_in_flight,
        } = self;
        if probes > policy.half_open_probes {
            return Err(SnapError::Corrupt(format!(
                "{probes} probes in flight, policy admits {}",
                policy.half_open_probes
            )));
        }
        *state = new_state;
        *consecutive_failures = failures;
        *open_until = until;
        *probes_in_flight = probes;
        Ok(())
    }
}

use simcore::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Caller-side resilience configuration for the whole engine.
///
/// Attach via [`EngineParams::resilience`](crate::EngineParams). `None`
/// (the default) means the legacy behavior: no timeouts, no retries, no
/// breakers, and a bit-identical event schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceParams {
    /// Default per-call timeout for every callee service.
    pub timeout: SimDuration,
    /// Per-service overrides of [`timeout`](Self::timeout).
    pub timeout_overrides: Vec<(ServiceId, SimDuration)>,
    /// Retry policy shared by all callers.
    pub retry: RetryPolicy,
    /// Per-instance circuit breaking; `None` disables breakers while
    /// keeping timeouts and retries.
    pub breaker: Option<BreakerPolicy>,
}

impl Default for ResilienceParams {
    fn default() -> Self {
        ResilienceParams {
            timeout: SimDuration::from_millis(20),
            timeout_overrides: Vec::new(),
            retry: RetryPolicy::default(),
            breaker: Some(BreakerPolicy::default()),
        }
    }
}

impl ResilienceParams {
    /// Sets the default per-call timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Overrides the timeout for calls into one service.
    pub fn with_service_timeout(mut self, service: ServiceId, timeout: SimDuration) -> Self {
        self.timeout_overrides.push((service, timeout));
        self
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces (or with `None`, disables) circuit breaking.
    pub fn with_breaker(mut self, breaker: Option<BreakerPolicy>) -> Self {
        self.breaker = breaker;
        self
    }

    /// The timeout that applies to calls into `service`.
    pub fn timeout_for(&self, service: ServiceId) -> SimDuration {
        self.timeout_overrides
            .iter()
            .find(|(s, _)| *s == service)
            .map(|(_, t)| *t)
            .unwrap_or(self.timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::RngFactory;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_retries: 10,
            base: ms(1),
            cap: ms(8),
        };
        let mut rng = RngFactory::new(42).stream("backoff-test");
        // Nominal: 1, 2, 4, 8, 8, 8 ms — the sample lies in [nominal/2, nominal].
        for (attempt, nominal_ms) in [(1u32, 1u64), (2, 2), (3, 4), (4, 8), (5, 8), (9, 8)] {
            let nominal = ms(nominal_ms);
            for _ in 0..32 {
                let d = backoff_delay(&policy, attempt, &mut rng);
                assert!(
                    d >= nominal.mul_f64(0.5) && d <= nominal,
                    "attempt {attempt}: {d} outside [{}/2, {}]",
                    nominal,
                    nominal
                );
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_per_stream() {
        let policy = RetryPolicy::default();
        let mut a = RngFactory::new(7).stream("x");
        let mut b = RngFactory::new(7).stream("x");
        for attempt in 1..6 {
            assert_eq!(
                backoff_delay(&policy, attempt, &mut a),
                backoff_delay(&policy, attempt, &mut b)
            );
        }
    }

    #[test]
    fn backoff_survives_huge_attempt_numbers() {
        let policy = RetryPolicy {
            max_retries: 255,
            base: ms(1),
            cap: ms(50),
        };
        let mut rng = RngFactory::new(1).stream("big");
        let d = backoff_delay(&policy, 200, &mut rng);
        assert!(d <= ms(50));
    }

    fn breaker(threshold: u32) -> CircuitBreaker {
        CircuitBreaker::new(BreakerPolicy {
            failure_threshold: threshold,
            open_for: ms(10),
            half_open_probes: 1,
        })
    }

    #[test]
    fn breaker_opens_at_threshold() {
        let mut b = breaker(3);
        assert_eq!(b.on_failure(at(1)), Transition::None);
        assert_eq!(b.on_failure(at(2)), Transition::None);
        assert!(b.allows(at(2)));
        assert_eq!(b.on_failure(at(3)), Transition::Opened);
        assert_eq!(b.state(at(3)), BreakerState::Open);
        assert!(!b.allows(at(4)));
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut b = breaker(3);
        b.on_failure(at(1));
        b.on_failure(at(2));
        assert_eq!(b.on_success(at(3)), Transition::None);
        // The streak restarted: two more failures do not trip it...
        b.on_failure(at(4));
        b.on_failure(at(5));
        assert_eq!(b.state(at(5)), BreakerState::Closed);
        // ...but the third does.
        assert_eq!(b.on_failure(at(6)), Transition::Opened);
    }

    #[test]
    fn breaker_half_opens_after_cooldown() {
        let mut b = breaker(1);
        assert_eq!(b.on_failure(at(0)), Transition::Opened);
        assert!(!b.allows(at(9)));
        // open_for = 10ms: at t=10 the breaker half-opens.
        assert_eq!(b.state(at(10)), BreakerState::HalfOpen);
        assert!(b.allows(at(10)));
    }

    #[test]
    fn half_open_admits_limited_probes() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            open_for: ms(10),
            half_open_probes: 2,
        });
        b.on_failure(at(0));
        assert!(b.allows(at(10)));
        b.on_dispatch(at(10));
        assert!(b.allows(at(10)));
        b.on_dispatch(at(10));
        // Both probe slots in flight: no third call.
        assert!(!b.allows(at(10)));
    }

    #[test]
    fn probe_success_closes_breaker() {
        let mut b = breaker(1);
        b.on_failure(at(0));
        b.on_dispatch(at(10));
        assert_eq!(b.on_success(at(11)), Transition::Closed);
        assert_eq!(b.state(at(11)), BreakerState::Closed);
        assert!(b.allows(at(11)));
    }

    #[test]
    fn probe_failure_reopens_breaker() {
        let mut b = breaker(1);
        b.on_failure(at(0));
        b.on_dispatch(at(10));
        assert_eq!(b.on_failure(at(11)), Transition::Opened);
        assert!(!b.allows(at(12)));
        // The cooldown restarted from the re-open.
        assert_eq!(b.state(at(21)), BreakerState::HalfOpen);
    }

    #[test]
    fn reopened_breaker_serves_a_full_fresh_cooldown() {
        let mut b = breaker(1);
        b.on_failure(at(0));
        // Half-open at t=10; the probe goes out late and fails at t=15.
        b.on_dispatch(at(12));
        assert_eq!(b.on_failure(at(15)), Transition::Opened);
        // The cooldown is measured from the re-open (t=15), not from the
        // original trip: t=20 (old deadline + 10) is still inside it.
        assert!(!b.allows(at(20)));
        assert!(!b.allows(at(24)));
        assert_eq!(b.state(at(25)), BreakerState::HalfOpen);
    }

    #[test]
    fn probe_allowance_replenishes_after_each_reopen_cycle() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            open_for: ms(10),
            half_open_probes: 2,
        });
        b.on_failure(at(0));
        // First half-open window: both slots go out, one probe fails and
        // re-trips while the other is still in flight.
        b.on_dispatch(at(10));
        b.on_dispatch(at(10));
        assert!(!b.allows(at(10)));
        assert_eq!(b.on_failure(at(11)), Transition::Opened);
        // The straggler probe's success arrives while open: ignored.
        assert_eq!(b.on_success(at(12)), Transition::None);
        assert_eq!(b.state(at(12)), BreakerState::Open);
        // Next half-open window (t=21): the full allowance is back — the
        // slots consumed last cycle must not leak into this one.
        assert!(b.allows(at(21)));
        b.on_dispatch(at(21));
        assert!(b.allows(at(21)));
        b.on_dispatch(at(21));
        assert!(!b.allows(at(21)));
    }

    #[test]
    fn late_success_while_open_is_ignored() {
        let mut b = breaker(1);
        b.on_failure(at(0));
        assert_eq!(b.on_success(at(1)), Transition::None);
        assert_eq!(b.state(at(1)), BreakerState::Open);
    }

    #[test]
    fn timeout_overrides_resolve_per_service() {
        let params = ResilienceParams::default()
            .with_timeout(ms(20))
            .with_service_timeout(ServiceId(2), ms(5));
        assert_eq!(params.timeout_for(ServiceId(0)), ms(20));
        assert_eq!(params.timeout_for(ServiceId(2)), ms(5));
    }
}
