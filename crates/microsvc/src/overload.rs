//! Overload control: admission policies, retry budgets, adaptive concurrency
//! limits, and priority shedding.
//!
//! The resilience layer (timeouts, retries, breakers) protects *callers* from
//! slow or dead instances. This module protects *instances* from callers: it
//! decides, at enqueue and dequeue time, which work a saturated replica should
//! refuse so the work it does accept finishes within a useful deadline. Four
//! independent mechanisms compose, each off by default:
//!
//! 1. **Admission control** ([`AdmissionPolicy`]) — a bound on the per-instance
//!    pending queue. `RejectNew` sheds the arriving request when the queue is
//!    full; `DropOldest` sheds the head of the queue instead (fresher work is
//!    likelier to still have a live client). A separate CoDel-style
//!    [`queue_deadline`](OverloadParams::queue_deadline) sheds jobs at
//!    *dequeue* time when they have already waited longer than the deadline —
//!    keyed on the job's `enqueued_at`, so a standing queue drains in one burst
//!    of cheap rejections instead of being served stale.
//! 2. **Retry budgets** ([`RetryBudgetPolicy`]) — a per-service token bucket
//!    refilled by a fraction of successful replies (10% in the classic
//!    formulation) and debited by every retry. When the bucket is empty the engine's
//!    `RetryPolicy` path fails fast instead of retrying, which is what breaks
//!    retry storms: a storm is exactly the regime where successes (refills)
//!    stop while retries (debits) explode.
//! 3. **Adaptive concurrency limits** ([`LimiterPolicy`]) — an AIMD limit on
//!    per-instance in-flight work (running + queued), driven by observed job
//!    sojourn time against a no-load baseline. Latency within
//!    `tolerance`×baseline grows the limit additively; latency beyond it cuts
//!    the limit multiplicatively. Arrivals above the limit are shed or
//!    deferred to the queue per [`LimitAction`].
//! 4. **Priority shedding** ([`PriorityPolicy`]) — request classes map to
//!    strict priorities with per-priority queue-depth limits, so when the
//!    queue builds, low-priority work (browse) is refused at a shallow depth
//!    while high-priority work (checkout) still finds room.
//!
//! [`OverloadParams::default`] disables all four; an engine built with the
//! default params draws no extra randomness and schedules no extra events, so
//! reports stay byte-identical with the feature compiled in but unused.

use serde::{Deserialize, Serialize};
use simcore::SimDuration;

/// Why a policy refused a request. Carried on shed events, trace spans, and
/// the failure cause delivered to the client, so experiments can attribute
/// every lost request to the mechanism that dropped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShedReason {
    /// Admission control: the pending queue was at its bound.
    QueueFull,
    /// CoDel-style shedding: the job waited past the queue deadline.
    QueueDeadline,
    /// The adaptive concurrency limiter refused the arrival.
    Concurrency,
    /// Priority shedding: the queue was too deep for this class's priority.
    Priority,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::QueueDeadline => "queue-deadline",
            ShedReason::Concurrency => "concurrency-limit",
            ShedReason::Priority => "priority",
        })
    }
}

/// Bound (or not) on a per-instance pending queue, and what to do when an
/// arrival finds it full.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum AdmissionPolicy {
    /// No bound — the pre-overload behaviour.
    #[default]
    Unbounded,
    /// Shed the *arriving* request when `bound` jobs are already queued.
    RejectNew { bound: usize },
    /// Shed the *oldest queued* request to make room for the arrival.
    /// Under sustained overload this serves fresher work, whose clients are
    /// likelier to still be waiting.
    DropOldest { bound: usize },
}

impl AdmissionPolicy {
    /// The queue bound, if any.
    pub fn bound(&self) -> Option<usize> {
        match self {
            AdmissionPolicy::Unbounded => None,
            AdmissionPolicy::RejectNew { bound } | AdmissionPolicy::DropOldest { bound } => {
                Some(*bound)
            }
        }
    }
}

/// Token-bucket retry budget, one bucket per service.
///
/// Every successful reply from the service deposits `refill_per_success`
/// tokens (capped at `cap`); every retry the engine wants to dispatch spends
/// one token. `refill_per_success = 0.1` is the classic "retries may add at
/// most 10% load" budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryBudgetPolicy {
    /// Tokens deposited per successful reply.
    pub refill_per_success: f64,
    /// Maximum tokens the bucket can hold.
    pub cap: f64,
    /// Tokens in the bucket at engine start.
    pub initial: f64,
}

impl Default for RetryBudgetPolicy {
    fn default() -> Self {
        RetryBudgetPolicy {
            refill_per_success: 0.1,
            cap: 100.0,
            initial: 100.0,
        }
    }
}

impl RetryBudgetPolicy {
    pub fn validate(&self) {
        assert!(
            self.refill_per_success >= 0.0 && self.cap > 0.0 && self.initial >= 0.0,
            "retry budget parameters must be non-negative with a positive cap"
        );
    }
}

/// Runtime state of one service's retry budget.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    policy: RetryBudgetPolicy,
    tokens: f64,
}

impl RetryBudget {
    pub fn new(policy: RetryBudgetPolicy) -> Self {
        policy.validate();
        RetryBudget {
            tokens: policy.initial.min(policy.cap),
            policy,
        }
    }

    /// Spend one token for a retry. Returns `false` (and spends nothing) when
    /// the bucket holds less than a whole token.
    pub fn try_spend(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Deposit the per-success refill.
    pub fn on_success(&mut self) {
        self.tokens = (self.tokens + self.policy.refill_per_success).min(self.policy.cap);
    }

    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// What the concurrency limiter does with an arrival above the limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LimitAction {
    /// Refuse it outright (fast 503 back to the caller).
    #[default]
    Shed,
    /// Park it in the pending queue instead of starting it, even if a worker
    /// is idle. Queue policies still apply, so deferral composes with
    /// admission bounds and the queue deadline.
    Defer,
}

/// AIMD concurrency-limit parameters, per instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LimiterPolicy {
    /// Starting limit.
    pub initial: f64,
    /// Floor; never below 1 (the instance must keep making progress).
    pub min: f64,
    /// Ceiling.
    pub max: f64,
    /// Sojourn times up to `tolerance × baseline` count as "fast".
    pub tolerance: f64,
    /// Multiplicative-decrease factor applied on a slow sample (e.g. 0.9).
    pub decrease: f64,
    /// What to do with arrivals above the limit.
    pub action: LimitAction,
    /// Fixed no-load baseline sojourn. `None` learns the baseline as the
    /// minimum sojourn observed so far.
    pub baseline: Option<SimDuration>,
}

impl Default for LimiterPolicy {
    fn default() -> Self {
        LimiterPolicy {
            initial: 16.0,
            min: 1.0,
            max: 1024.0,
            tolerance: 2.0,
            decrease: 0.9,
            action: LimitAction::Shed,
            baseline: None,
        }
    }
}

impl LimiterPolicy {
    pub fn validate(&self) {
        assert!(
            self.min >= 1.0
                && self.max >= self.min
                && (self.min..=self.max).contains(&self.initial),
            "limiter requires 1 <= min <= initial <= max"
        );
        assert!(
            self.tolerance >= 1.0 && self.decrease > 0.0 && self.decrease < 1.0,
            "limiter requires tolerance >= 1 and decrease in (0, 1)"
        );
    }
}

/// Per-instance AIMD limiter state.
#[derive(Debug, Clone)]
pub struct AimdLimiter {
    policy: LimiterPolicy,
    limit: f64,
    /// Learned no-load baseline (minimum sojourn seen), in nanoseconds.
    learned_baseline_ns: f64,
}

impl AimdLimiter {
    pub fn new(policy: LimiterPolicy) -> Self {
        policy.validate();
        AimdLimiter {
            limit: policy.initial,
            learned_baseline_ns: f64::INFINITY,
            policy,
        }
    }

    /// Current integral limit (≥ 1).
    pub fn limit(&self) -> usize {
        (self.limit as usize).max(1)
    }

    /// Would the limiter admit an arrival given `inflight` jobs already
    /// running or queued on the instance?
    pub fn admits(&self, inflight: usize) -> bool {
        inflight < self.limit()
    }

    /// Feed one completed job's sojourn (enqueue → finish) into the control
    /// loop: additive increase while latency holds near baseline,
    /// multiplicative decrease once it degrades past tolerance.
    pub fn observe(&mut self, sojourn: SimDuration) {
        let ns = sojourn.as_nanos() as f64;
        self.learned_baseline_ns = self.learned_baseline_ns.min(ns.max(1.0));
        let baseline = self
            .policy
            .baseline
            .map(|d| (d.as_nanos() as f64).max(1.0))
            .unwrap_or(self.learned_baseline_ns);
        if ns <= baseline * self.policy.tolerance {
            self.limit = (self.limit + 1.0 / self.limit.max(1.0)).min(self.policy.max);
        } else {
            self.limit = (self.limit * self.policy.decrease).max(self.policy.min);
        }
    }
}

/// Strict-priority shedding: classes map to priorities, and each priority has
/// its own admission depth on the shared per-instance queue.
///
/// Priority 0 is the most important. An arrival of priority `p` is refused
/// when the queue already holds `depth_limits[p]` jobs — like WRED thresholds,
/// low-priority work stops being admitted while the queue is still shallow
/// enough for high-priority work to ride out the brownout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct PriorityPolicy {
    /// Priority per request class, indexed by `RequestClassId`. Classes past
    /// the end default to priority 0.
    pub class_priority: Vec<u8>,
    /// Queue-depth admission threshold per priority level. Priorities past
    /// the end use the last entry; an empty vector means "no limit".
    pub depth_limits: Vec<usize>,
}

impl PriorityPolicy {
    pub fn new(class_priority: Vec<u8>, depth_limits: Vec<usize>) -> Self {
        PriorityPolicy {
            class_priority,
            depth_limits,
        }
    }

    /// Priority of a request class (0 = highest importance).
    pub fn priority_of(&self, class: usize) -> u8 {
        self.class_priority.get(class).copied().unwrap_or(0)
    }

    /// Queue-depth threshold for a priority level.
    pub fn depth_limit(&self, priority: u8) -> usize {
        match self.depth_limits.len() {
            0 => usize::MAX,
            n => self.depth_limits[(priority as usize).min(n - 1)],
        }
    }
}

/// The full overload-control configuration for an engine. Everything defaults
/// to off: unbounded queues, no deadline, no budget, no limiter, no
/// priorities. With the default, the engine's behaviour — every event, every
/// RNG draw, every counter — is identical to an engine without the field set,
/// which is what keeps the E1–E19 golden hashes stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct OverloadParams {
    /// Per-instance queue bound and full-queue policy.
    pub admission: AdmissionPolicy,
    /// CoDel-style sojourn deadline: jobs that waited longer are shed at
    /// dequeue time rather than served stale.
    pub queue_deadline: Option<SimDuration>,
    /// Per-service retry token bucket; `None` leaves retries unbudgeted.
    pub retry_budget: Option<RetryBudgetPolicy>,
    /// Per-instance AIMD concurrency limiter; `None` disables it.
    pub limiter: Option<LimiterPolicy>,
    /// Class-priority shedding; `None` treats all classes alike.
    pub priority: Option<PriorityPolicy>,
}

impl OverloadParams {
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    pub fn with_queue_deadline(mut self, deadline: SimDuration) -> Self {
        self.queue_deadline = Some(deadline);
        self
    }

    pub fn with_retry_budget(mut self, budget: RetryBudgetPolicy) -> Self {
        self.retry_budget = Some(budget);
        self
    }

    pub fn with_limiter(mut self, limiter: LimiterPolicy) -> Self {
        self.limiter = Some(limiter);
        self
    }

    pub fn with_priority(mut self, priority: PriorityPolicy) -> Self {
        self.priority = Some(priority);
        self
    }

    /// True when every mechanism is disabled (the byte-identical default).
    pub fn is_inert(&self) -> bool {
        self.admission == AdmissionPolicy::Unbounded
            && self.queue_deadline.is_none()
            && self.retry_budget.is_none()
            && self.limiter.is_none()
            && self.priority.is_none()
    }
}

use simcore::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for ShedReason {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            ShedReason::QueueFull => 0,
            ShedReason::QueueDeadline => 1,
            ShedReason::Concurrency => 2,
            ShedReason::Priority => 3,
        });
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => ShedReason::QueueFull,
            1 => ShedReason::QueueDeadline,
            2 => ShedReason::Concurrency,
            3 => ShedReason::Priority,
            other => {
                return Err(SnapError::Corrupt(format!(
                    "unknown ShedReason tag {other}"
                )))
            }
        })
    }
}

impl RetryBudget {
    /// Serializes the bucket level (the policy is configuration, rebuilt from
    /// params on restore).
    pub(crate) fn snap_save(&self, w: &mut SnapWriter) {
        let Self {
            policy: _, // config, rebuilt from params
            tokens,
        } = self;
        w.f64(*tokens);
    }

    pub(crate) fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let level = r.f64()?;
        let Self { policy, tokens } = self;
        if !level.is_finite() || level < 0.0 || level > policy.cap {
            return Err(SnapError::Corrupt(format!(
                "retry-budget level {level} is outside [0, {}]",
                policy.cap
            )));
        }
        *tokens = level;
        Ok(())
    }
}

impl AimdLimiter {
    /// Serializes the control-loop state (the policy is configuration,
    /// rebuilt from params on restore).
    pub(crate) fn snap_save(&self, w: &mut SnapWriter) {
        let Self {
            policy: _, // config, rebuilt from params
            limit,
            learned_baseline_ns,
        } = self;
        w.f64(*limit);
        w.f64(*learned_baseline_ns);
    }

    pub(crate) fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let new_limit = r.f64()?;
        let learned = r.f64()?;
        let Self {
            policy,
            limit,
            learned_baseline_ns,
        } = self;
        if !new_limit.is_finite() || !(policy.min..=policy.max).contains(&new_limit) {
            return Err(SnapError::Corrupt(format!(
                "AIMD limit {new_limit} is outside [{}, {}]",
                policy.min, policy.max
            )));
        }
        if learned.is_nan() || learned < 0.0 {
            return Err(SnapError::Corrupt(format!(
                "learned baseline {learned}ns is not a valid sojourn"
            )));
        }
        *limit = new_limit;
        *learned_baseline_ns = learned;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn default_params_are_inert() {
        assert!(OverloadParams::default().is_inert());
        assert!(!OverloadParams::default()
            .with_retry_budget(RetryBudgetPolicy::default())
            .is_inert());
    }

    #[test]
    fn budget_spends_whole_tokens_and_refills_fractionally() {
        // 0.25 is exact in binary, so the refill arithmetic has no rounding.
        let mut b = RetryBudget::new(RetryBudgetPolicy {
            refill_per_success: 0.25,
            cap: 2.0,
            initial: 1.0,
        });
        assert!(b.try_spend());
        assert!(!b.try_spend(), "empty bucket must refuse");
        for _ in 0..3 {
            b.on_success();
        }
        assert!(!b.try_spend(), "0.75 tokens is not a whole token");
        b.on_success();
        assert!(b.try_spend());
        for _ in 0..100 {
            b.on_success();
        }
        assert!(b.tokens() <= 2.0, "refill must respect the cap");
    }

    #[test]
    fn budget_initial_is_capped() {
        let b = RetryBudget::new(RetryBudgetPolicy {
            refill_per_success: 0.1,
            cap: 5.0,
            initial: 50.0,
        });
        assert_eq!(b.tokens(), 5.0);
    }

    #[test]
    fn limiter_additive_increase_and_multiplicative_decrease() {
        let mut l = AimdLimiter::new(LimiterPolicy {
            initial: 4.0,
            min: 1.0,
            max: 8.0,
            tolerance: 2.0,
            decrease: 0.5,
            action: LimitAction::Shed,
            baseline: Some(ms(1)),
        });
        assert_eq!(l.limit(), 4);
        assert!(l.admits(3));
        assert!(!l.admits(4));
        l.observe(ms(1)); // fast: 4 + 1/4
        assert_eq!(l.limit(), 4);
        l.observe(ms(10)); // slow: 4.25 * 0.5
        assert_eq!(l.limit(), 2);
        for _ in 0..100 {
            l.observe(ms(10));
        }
        assert_eq!(l.limit(), 1, "decrease clamps at min");
        for _ in 0..1000 {
            l.observe(ms(1));
        }
        assert_eq!(l.limit(), 8, "increase clamps at max");
    }

    #[test]
    fn limiter_learns_baseline_from_minimum_sojourn() {
        let mut l = AimdLimiter::new(LimiterPolicy {
            baseline: None,
            tolerance: 2.0,
            decrease: 0.5,
            initial: 4.0,
            min: 1.0,
            max: 8.0,
            action: LimitAction::Shed,
        });
        // First sample defines the baseline, so it is "fast" by definition.
        l.observe(ms(10));
        assert_eq!(l.limit(), 4);
        // A faster sample lowers the baseline to 1ms; 10ms is now 10x.
        l.observe(ms(1));
        l.observe(ms(10));
        assert_eq!(l.limit(), 2);
    }

    #[test]
    fn priority_lookup_defaults_and_clamps() {
        let p = PriorityPolicy::new(vec![1, 0, 2], vec![100, 10]);
        assert_eq!(p.priority_of(0), 1);
        assert_eq!(p.priority_of(1), 0);
        assert_eq!(p.priority_of(9), 0, "unknown class gets top priority");
        assert_eq!(p.depth_limit(0), 100);
        assert_eq!(p.depth_limit(1), 10);
        assert_eq!(p.depth_limit(7), 10, "deep priorities clamp to last");
        assert_eq!(PriorityPolicy::default().depth_limit(3), usize::MAX);
    }

    #[test]
    fn admission_bounds() {
        assert_eq!(AdmissionPolicy::Unbounded.bound(), None);
        assert_eq!(AdmissionPolicy::RejectNew { bound: 7 }.bound(), Some(7));
        assert_eq!(AdmissionPolicy::DropOldest { bound: 3 }.bound(), Some(3));
    }

    #[test]
    fn shed_reason_display() {
        assert_eq!(ShedReason::QueueFull.to_string(), "queue-full");
        assert_eq!(ShedReason::QueueDeadline.to_string(), "queue-deadline");
        assert_eq!(ShedReason::Concurrency.to_string(), "concurrency-limit");
        assert_eq!(ShedReason::Priority.to_string(), "priority");
    }
}
