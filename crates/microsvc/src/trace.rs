//! Sampled distributed tracing: per-request span waterfalls.
//!
//! Scale-up analysis keeps asking *where a request's time goes*: thread-pool
//! wait vs. CPU vs. downstream fan-out vs. wire. The engine can record a
//! sampled subset of requests as [`RequestTrace`]s — one [`Span`] per
//! service invocation with enqueue/start/finish timestamps and accumulated
//! CPU time — exactly the data a Zipkin/Jaeger deployment would collect from
//! the real TeaStore.
//!
//! Enable by setting [`trace_sample_every`](crate::EngineParams) on the
//! engine parameters to `Some(n)`; every n-th request is traced (capped
//! at [`Tracer::MAX_TRACES`]). Retrieve with
//! [`Engine::traces`](crate::Engine::traces).

use crate::fault::FaultCause;
use crate::ids::{InstanceId, RequestClassId, RequestId, ServiceId};
use serde::{Deserialize, Serialize};
use simcore::{Rng, SimDuration, SimTime};

/// One service invocation within a traced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// The service invoked.
    pub service: ServiceId,
    /// The instance that served it.
    pub instance: InstanceId,
    /// Depth in the call tree (root = 0).
    pub depth: u8,
    /// Which delivery attempt of this call produced the span (0 = first
    /// try, 1 = first retry, ...).
    pub attempt: u8,
    /// Why the span went wrong, if it did (timed out at the caller,
    /// reply dropped, instance crashed).
    pub fault: Option<FaultCause>,
    /// When the job arrived at the instance.
    pub enqueued: SimTime,
    /// When a worker thread picked it up.
    pub started: SimTime,
    /// When the reply left the instance.
    pub finished: SimTime,
    /// Wall time the job actually occupied a CPU.
    pub cpu_time: SimDuration,
}

impl Span {
    /// Time waiting for a worker thread.
    pub fn queue_wait(&self) -> SimDuration {
        self.started.saturating_since(self.enqueued)
    }

    /// Residency: worker-held time (includes blocking on children).
    pub fn residency(&self) -> SimDuration {
        self.finished.saturating_since(self.started)
    }
}

/// A fully traced request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// The request.
    pub request: RequestId,
    /// Its class.
    pub class: RequestClassId,
    /// Submission instant at the client.
    pub submitted: SimTime,
    /// Response arrival at the client (set when complete).
    pub completed: Option<SimTime>,
    /// Set when the request failed instead of completing (timed out or
    /// shed); `completed` then records when the client learned of it.
    pub fault: Option<FaultCause>,
    /// Spans in creation order (root first).
    pub spans: Vec<Span>,
}

impl RequestTrace {
    /// End-to-end latency, if the request completed.
    pub fn latency(&self) -> Option<SimDuration> {
        self.completed.map(|c| c.saturating_since(self.submitted))
    }

    /// Aggregates `(queue_wait, cpu_time)` per service id into `out`
    /// (indexed by service).
    pub fn breakdown_into(&self, out: &mut [(SimDuration, SimDuration)]) {
        for span in &self.spans {
            let slot = &mut out[span.service.index()];
            slot.0 += span.queue_wait();
            slot.1 += span.cpu_time;
        }
    }

    /// Renders a text waterfall: one line per span, indented by call depth,
    /// with times relative to submission.
    ///
    /// `service_names` maps service ids to names (pass the app's services).
    pub fn waterfall(&self, service_names: &[&str]) -> String {
        let mut out = format!(
            "{} ({}): latency {}\n",
            self.request,
            self.class,
            self.latency()
                .map(|l| l.to_string())
                .unwrap_or_else(|| "incomplete".to_owned()),
        );
        let rel = |t: SimTime| t.saturating_since(self.submitted);
        for span in &self.spans {
            let name = service_names
                .get(span.service.index())
                .copied()
                .unwrap_or("?");
            out.push_str(&format!(
                "{:indent$}{:<14} [{} → {}] wait {} cpu {} ({})\n",
                "",
                name,
                rel(span.enqueued),
                rel(span.finished),
                span.queue_wait(),
                span.cpu_time,
                span.instance,
                indent = span.depth as usize * 2,
            ));
        }
        out
    }
}

/// Collects sampled request traces for the engine.
///
/// Two sampling modes:
///
/// * **Every-nth** ([`Tracer::new`]) — deterministic systematic sampling,
///   capped at [`Tracer::MAX_TRACES`]. Long runs keep only the head.
/// * **Reservoir** ([`Tracer::reservoir`]) — Algorithm R over the whole
///   request population: every request has equal probability of being
///   retained, and memory is O(capacity) regardless of run length. The
///   sample evolves as the run progresses (later requests evict earlier
///   ones uniformly), so a 100M-request run still costs a fixed few MiB.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    /// Sample every n-th request (None = nth-sampling off).
    sample_every: Option<u64>,
    /// Reservoir capacity and its private RNG (None = reservoir off).
    reservoir: Option<(usize, Rng)>,
    /// Requests considered so far (reservoir mode's population counter).
    seen: u64,
    /// In-flight and finished traces, keyed implicitly by insertion.
    traces: Vec<RequestTrace>,
    /// request id → trace index for in-flight requests. Deterministically
    /// hashed so capacity (and the reported footprint) never varies run to
    /// run.
    index: simcore::DetHashMap<u64, usize>,
}

impl Tracer {
    /// Upper bound on retained traces; sampling stops beyond it.
    pub const MAX_TRACES: usize = 1024;

    /// Creates a tracer sampling every `sample_every`-th request.
    pub fn new(sample_every: Option<u64>) -> Self {
        Tracer {
            sample_every,
            reservoir: None,
            seen: 0,
            traces: Vec::new(),
            index: simcore::DetHashMap::default(),
        }
    }

    /// Creates a reservoir tracer keeping a uniform sample of `capacity`
    /// requests over the whole run. `rng` must be a dedicated stream (the
    /// engine uses `"trace"`) so sampling never perturbs simulation
    /// randomness.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reservoir(capacity: usize, rng: Rng) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Tracer {
            sample_every: None,
            reservoir: Some((capacity, rng)),
            seen: 0,
            traces: Vec::with_capacity(capacity),
            index: simcore::DetHashMap::default(),
        }
    }

    /// Whether tracing is on at all — lets the engine skip span bookkeeping
    /// (including building span arguments) on the hot path entirely.
    pub fn enabled(&self) -> bool {
        self.sample_every.is_some() || self.reservoir.is_some()
    }

    /// Should this request (by ordinal) be traced? If so, opens the trace.
    pub fn maybe_open(
        &mut self,
        ordinal: u64,
        request: RequestId,
        class: RequestClassId,
        now: SimTime,
    ) -> bool {
        let slot = if let Some((capacity, rng)) = self.reservoir.as_mut() {
            // Algorithm R: item i (0-based) fills the reservoir while it has
            // room; afterwards it replaces a uniform slot with probability
            // capacity/(i+1), keeping the retained set a uniform sample.
            let i = self.seen;
            self.seen += 1;
            if self.traces.len() < *capacity {
                self.traces.len()
            } else {
                let j = rng.next_below(i + 1);
                if j as usize >= *capacity {
                    return false;
                }
                // Evict the old occupant: forget its in-flight index entry
                // so late span updates are dropped, like any untraced request.
                self.index.remove(&self.traces[j as usize].request.0);
                j as usize
            }
        } else {
            let Some(every) = self.sample_every else {
                return false;
            };
            if !ordinal.is_multiple_of(every) || self.traces.len() >= Self::MAX_TRACES {
                return false;
            }
            self.traces.len()
        };
        let trace = RequestTrace {
            request,
            class,
            submitted: now,
            completed: None,
            fault: None,
            spans: Vec::new(),
        };
        self.index.insert(request.0, slot);
        if slot == self.traces.len() {
            self.traces.push(trace);
        } else {
            self.traces[slot] = trace;
        }
        true
    }

    /// Heap bytes held by the tracer: trace slots, their span vectors, and
    /// the in-flight index (capacities, not lengths).
    pub fn footprint_bytes(&self) -> usize {
        self.traces.capacity() * std::mem::size_of::<RequestTrace>()
            + self
                .traces
                .iter()
                .map(|t| t.spans.capacity() * std::mem::size_of::<Span>())
                .sum::<usize>()
            + self.index.capacity() * std::mem::size_of::<(u64, usize)>()
    }

    /// Opens a span on a traced request, returning its span index.
    pub fn open_span(
        &mut self,
        request: RequestId,
        service: ServiceId,
        instance: InstanceId,
        depth: u8,
        attempt: u8,
        enqueued: SimTime,
    ) -> Option<u32> {
        let &trace_idx = self.index.get(&request.0)?;
        let spans = &mut self.traces[trace_idx].spans;
        spans.push(Span {
            service,
            instance,
            depth,
            attempt,
            fault: None,
            enqueued,
            started: enqueued,
            finished: enqueued,
            cpu_time: SimDuration::ZERO,
        });
        Some((spans.len() - 1) as u32)
    }

    fn span_mut(&mut self, request: RequestId, span: u32) -> Option<&mut Span> {
        let &trace_idx = self.index.get(&request.0)?;
        self.traces[trace_idx].spans.get_mut(span as usize)
    }

    /// Marks a span as started (worker acquired).
    pub fn span_started(&mut self, request: RequestId, span: u32, now: SimTime) {
        if let Some(s) = self.span_mut(request, span) {
            s.started = now;
        }
    }

    /// Adds CPU occupancy to a span.
    pub fn span_cpu(&mut self, request: RequestId, span: u32, cpu: SimDuration) {
        if let Some(s) = self.span_mut(request, span) {
            s.cpu_time += cpu;
        }
    }

    /// Marks a span finished (reply sent).
    pub fn span_finished(&mut self, request: RequestId, span: u32, now: SimTime) {
        if let Some(s) = self.span_mut(request, span) {
            s.finished = now;
        }
    }

    /// Annotates a span with the fault that disturbed it.
    pub fn span_fault(&mut self, request: RequestId, span: u32, cause: FaultCause) {
        if let Some(s) = self.span_mut(request, span) {
            s.fault = Some(cause);
        }
    }

    /// Completes a request's trace (response reached the client).
    pub fn complete(&mut self, request: RequestId, now: SimTime) {
        if let Some(&trace_idx) = self.index.get(&request.0) {
            self.traces[trace_idx].completed = Some(now);
            self.index.remove(&request.0);
        }
    }

    /// Closes a request's trace as failed: the client received an error
    /// (timeout or shed) instead of a response.
    pub fn fail(&mut self, request: RequestId, cause: FaultCause, now: SimTime) {
        if let Some(&trace_idx) = self.index.get(&request.0) {
            let trace = &mut self.traces[trace_idx];
            trace.completed = Some(now);
            trace.fault = Some(cause);
            self.index.remove(&request.0);
        }
    }

    /// All collected traces (completed ones have `completed = Some(..)`).
    pub fn traces(&self) -> &[RequestTrace] {
        &self.traces
    }

    /// Serializes the full sampling state: mode, reservoir RNG position,
    /// retained traces, and the in-flight index (sorted by request id for
    /// byte stability).
    pub(crate) fn snap_save(&self, w: &mut SnapWriter) {
        let Self {
            sample_every,
            reservoir,
            seen,
            traces,
            index,
        } = self;
        w.section("tracer");
        sample_every.save(w);
        match reservoir {
            None => w.u8(0),
            Some((capacity, rng)) => {
                w.u8(1);
                w.usize(*capacity);
                rng.save(w);
            }
        }
        w.u64(*seen);
        traces.save(w);
        let mut keys: Vec<&u64> = index.keys().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for k in keys {
            w.u64(*k);
            w.usize(index[k]);
        }
    }

    pub(crate) fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section("tracer")?;
        let sample_every = Option::<u64>::load(r)?;
        let reservoir = match r.u8()? {
            0 => None,
            1 => {
                let capacity = r.usize()?;
                if capacity == 0 {
                    return Err(SnapError::Corrupt("reservoir capacity is zero".to_owned()));
                }
                Some((capacity, Rng::load(r)?))
            }
            other => return Err(SnapError::Corrupt(format!("unknown reservoir tag {other}"))),
        };
        let seen = r.u64()?;
        let traces = Vec::<RequestTrace>::load(r)?;
        let nindex = r.usize()?;
        let mut index = simcore::DetHashMap::default();
        for _ in 0..nindex {
            let key = r.u64()?;
            let slot = r.usize()?;
            if slot >= traces.len() {
                return Err(SnapError::Corrupt(format!(
                    "trace index for request {key} points at slot {slot}, \
                     but only {} traces were captured",
                    traces.len()
                )));
            }
            index.insert(key, slot);
        }
        *self = Tracer {
            sample_every,
            reservoir,
            seen,
            traces,
            index,
        };
        Ok(())
    }
}

use simcore::snap::{Snap, SnapError, SnapReader, SnapWriter};

simcore::snap_fields!(Span {
    service,
    instance,
    depth,
    attempt,
    fault,
    enqueued,
    started,
    finished,
    cpu_time,
});
simcore::snap_fields!(RequestTrace {
    request,
    class,
    submitted,
    completed,
    fault,
    spans,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn disabled_tracer_samples_nothing() {
        let mut tracer = Tracer::new(None);
        assert!(!tracer.maybe_open(0, RequestId(0), RequestClassId(0), t(0)));
        assert!(tracer.traces().is_empty());
    }

    #[test]
    fn samples_every_nth() {
        let mut tracer = Tracer::new(Some(3));
        let opened: Vec<bool> = (0..7)
            .map(|i| tracer.maybe_open(i, RequestId(i), RequestClassId(0), t(i)))
            .collect();
        assert_eq!(opened, vec![true, false, false, true, false, false, true]);
        assert_eq!(tracer.traces().len(), 3);
    }

    #[test]
    fn span_lifecycle_and_breakdown() {
        let mut tracer = Tracer::new(Some(1));
        let req = RequestId(5);
        tracer.maybe_open(0, req, RequestClassId(1), t(0));
        let root = tracer
            .open_span(req, ServiceId(0), InstanceId(2), 0, 0, t(100))
            .expect("traced");
        tracer.span_started(req, root, t(150));
        tracer.span_cpu(req, root, SimDuration::from_micros(40));
        let child = tracer
            .open_span(req, ServiceId(1), InstanceId(7), 1, 0, t(200))
            .expect("traced");
        tracer.span_started(req, child, t(230));
        tracer.span_cpu(req, child, SimDuration::from_micros(20));
        tracer.span_finished(req, child, t(300));
        tracer.span_finished(req, root, t(400));
        tracer.complete(req, t(500));

        let trace = &tracer.traces()[0];
        assert_eq!(trace.latency(), Some(SimDuration::from_micros(500)));
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].queue_wait(), SimDuration::from_micros(50));
        assert_eq!(trace.spans[1].residency(), SimDuration::from_micros(70));

        let mut breakdown = vec![(SimDuration::ZERO, SimDuration::ZERO); 2];
        trace.breakdown_into(&mut breakdown);
        assert_eq!(breakdown[0].1, SimDuration::from_micros(40));
        assert_eq!(breakdown[1].0, SimDuration::from_micros(30));
    }

    #[test]
    fn waterfall_renders_indented() {
        let mut tracer = Tracer::new(Some(1));
        let req = RequestId(1);
        tracer.maybe_open(0, req, RequestClassId(0), t(0));
        let root = tracer
            .open_span(req, ServiceId(0), InstanceId(0), 0, 0, t(10))
            .expect("traced");
        let child = tracer
            .open_span(req, ServiceId(1), InstanceId(1), 1, 0, t(20))
            .expect("traced");
        tracer.span_finished(req, child, t(30));
        tracer.span_finished(req, root, t(40));
        tracer.complete(req, t(50));
        let text = tracer.traces()[0].waterfall(&["front", "back"]);
        assert!(text.contains("front"));
        assert!(text.contains("  back"), "child must be indented: {text}");
        assert!(text.contains("latency 50.00µs"));
    }

    #[test]
    fn fault_annotations_stick() {
        let mut tracer = Tracer::new(Some(1));
        let req = RequestId(3);
        tracer.maybe_open(0, req, RequestClassId(0), t(0));
        let span = tracer
            .open_span(req, ServiceId(0), InstanceId(0), 0, 1, t(10))
            .expect("traced");
        tracer.span_fault(req, span, FaultCause::TimedOut);
        tracer.fail(req, FaultCause::TimedOut, t(99));

        let trace = &tracer.traces()[0];
        assert_eq!(trace.spans[0].attempt, 1);
        assert_eq!(trace.spans[0].fault, Some(FaultCause::TimedOut));
        assert_eq!(trace.fault, Some(FaultCause::TimedOut));
        assert_eq!(trace.completed, Some(t(99)));
    }

    #[test]
    fn reservoir_keeps_exactly_capacity_traces() {
        let rng = simcore::RngFactory::new(42).stream("trace");
        let mut tracer = Tracer::reservoir(8, rng);
        for i in 0..10_000u64 {
            tracer.maybe_open(i, RequestId(i), RequestClassId(0), t(i));
        }
        assert_eq!(tracer.traces().len(), 8);
        // The retained sample must not just be the head of the run.
        assert!(
            tracer.traces().iter().any(|tr| tr.request.0 >= 8),
            "reservoir never replaced an early trace"
        );
    }

    #[test]
    fn reservoir_eviction_detaches_in_flight_traces() {
        let rng = simcore::RngFactory::new(1).stream("trace");
        let mut tracer = Tracer::reservoir(1, rng);
        tracer.maybe_open(0, RequestId(0), RequestClassId(0), t(0));
        // Feed candidates until request 0 is evicted by some later request.
        let mut i = 1u64;
        while tracer.traces()[0].request.0 == 0 {
            tracer.maybe_open(i, RequestId(i), RequestClassId(0), t(i));
            i += 1;
            assert!(i < 10_000, "eviction never happened");
        }
        // Span updates for the evicted request must now be no-ops.
        assert_eq!(
            tracer.open_span(RequestId(0), ServiceId(0), InstanceId(0), 0, 0, t(1)),
            None
        );
        let survivor = tracer.traces()[0].request;
        tracer.complete(RequestId(0), t(2));
        assert_eq!(tracer.traces()[0].completed, None);
        assert_eq!(tracer.traces()[0].request, survivor);
    }

    #[test]
    fn reservoir_is_deterministic_per_stream() {
        let sample = |seed: u64| {
            let mut tracer = Tracer::reservoir(4, simcore::RngFactory::new(seed).stream("trace"));
            for i in 0..1000u64 {
                tracer.maybe_open(i, RequestId(i), RequestClassId(0), t(i));
            }
            tracer
                .traces()
                .iter()
                .map(|tr| tr.request.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8), "different seeds, different samples");
    }

    #[test]
    fn snapshot_resumes_reservoir_sampling_identically() {
        use simcore::snap::{SnapReader, SnapWriter};
        let feed = |tracer: &mut Tracer, range: std::ops::Range<u64>| {
            for i in range {
                if tracer.maybe_open(i, RequestId(i), RequestClassId(0), t(i)) {
                    let span = tracer
                        .open_span(RequestId(i), ServiceId(0), InstanceId(0), 0, 0, t(i))
                        .expect("traced");
                    tracer.span_cpu(RequestId(i), span, SimDuration::from_micros(3));
                    if i % 2 == 0 {
                        tracer.complete(RequestId(i), t(i + 1));
                    }
                }
            }
        };
        let mut straight = Tracer::reservoir(8, simcore::RngFactory::new(9).stream("trace"));
        feed(&mut straight, 0..500);

        let mut first_half = Tracer::reservoir(8, simcore::RngFactory::new(9).stream("trace"));
        feed(&mut first_half, 0..250);
        let mut w = SnapWriter::new();
        first_half.snap_save(&mut w);
        let bytes = w.finish();
        // Restore into a differently-seeded tracer: every field must come
        // from the snapshot, including the RNG position.
        let mut resumed = Tracer::reservoir(8, simcore::RngFactory::new(1).stream("trace"));
        let mut r = SnapReader::new(&bytes).unwrap();
        resumed.snap_restore(&mut r).expect("restores");
        feed(&mut resumed, 250..500);

        assert_eq!(resumed.traces(), straight.traces());
        // Byte stability: snapshot of the restored tracer matches a fresh
        // snapshot of the straight run's first half.
        let mut reload = Tracer::new(None);
        let mut r2 = SnapReader::new(&bytes).unwrap();
        reload.snap_restore(&mut r2).expect("restores");
        let mut w2 = SnapWriter::new();
        reload.snap_save(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn snapshot_rejects_dangling_trace_index() {
        use simcore::snap::{SnapError, SnapReader, SnapWriter};
        let mut w = SnapWriter::new();
        w.section("tracer");
        Some(1u64).save(&mut w); // sample_every
        w.u8(0); // no reservoir
        w.u64(0); // seen
        Vec::<RequestTrace>::new().save(&mut w); // no traces …
        w.usize(1); // … but one index entry
        w.u64(7);
        w.usize(0);
        let bytes = w.finish();
        let mut tracer = Tracer::new(None);
        let mut r = SnapReader::new(&bytes).unwrap();
        match tracer.snap_restore(&mut r) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains("slot"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn updates_to_untraced_requests_are_ignored() {
        let mut tracer = Tracer::new(Some(2));
        tracer.maybe_open(1, RequestId(1), RequestClassId(0), t(0)); // not sampled
        assert_eq!(
            tracer.open_span(RequestId(1), ServiceId(0), InstanceId(0), 0, 0, t(1)),
            None
        );
        tracer.span_cpu(RequestId(1), 0, SimDuration::from_micros(1));
        tracer.complete(RequestId(1), t(2));
        assert!(tracer.traces().is_empty());
    }
}
