//! The one resubmission loop and the one fault classifier.
//!
//! The client's in-process and distributed calls and the jobserver's
//! dispatch round all run [`Resubmit::run`]: find a SeD, call it, and on
//! failure let [`classify`] decide between backing off, blaming and
//! excluding the SeD, or stopping. The DAG engine keeps its own per-node
//! loop (speculation and node state live there) but decides with the same
//! [`classify`]. DESIGN.md §7 tabulates the rule per caller.

use crate::client::{CallStats, RetryPolicy};
use crate::error::DietError;
use crate::profile::Profile;
use crate::sed::SedHandle;
use obs::{TraceCtx, Tracer};
use std::sync::Arc;
use std::time::Instant;

/// What a failed step means for the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// Back off and retry, blaming no one: `Busy` from admission control
    /// (the server is healthy, only loaded), or a cause the caller repaired.
    Backoff,
    /// The server was lost or stalled (`Transport`, `Timeout`): blame it,
    /// exclude it, resubmit elsewhere.
    Blame,
    /// Anything else would fail the same on any server: stop.
    Fatal,
}

/// The retry rule, written once.
pub(crate) fn classify(e: &DietError) -> Fault {
    match e {
        DietError::Busy => Fault::Backoff,
        DietError::Transport(_) | DietError::Timeout { .. } => Fault::Blame,
        _ => Fault::Fatal,
    }
}

/// A failed attempt and how the loop treats it: [`classify`]'s verdict,
/// unless the caller repaired the cause itself.
pub(crate) struct Failure {
    pub fault: Fault,
    pub error: DietError,
}

impl From<DietError> for Failure {
    fn from(error: DietError) -> Self {
        Failure {
            fault: classify(&error),
            error,
        }
    }
}

/// What a finding step returns: something that names its SeD.
pub(crate) trait Target {
    fn label(&self) -> &str;
}

impl Target for String {
    fn label(&self) -> &str {
        self
    }
}

impl Target for Arc<SedHandle> {
    fn label(&self) -> &str {
        &self.config.label
    }
}

/// One request's resubmission state.
pub(crate) struct Resubmit<'a> {
    pub policy: &'a RetryPolicy,
    /// Where the per-attempt `attempt`/`Finding`/`Submission` spans go.
    pub tracer: &'a Tracer,
    /// The trace the attempts join and the span they hang under.
    pub parent: TraceCtx,
    /// Resource name on the `attempt` spans.
    pub who: &'static str,
    /// Backoff jitter salt: one request always backs off the same way.
    pub salt: u64,
    /// Labels no attempt may use; may start non-empty.
    pub excluded: Vec<String>,
}

impl Resubmit<'_> {
    /// Run up to `policy.max_retries + 1` attempts of `service`.
    ///
    /// `find(try_no, excluded, ctx)` picks a SeD; `Ok(None)` means "no
    /// candidate now" and backs off. A fatal finding error is returned as
    /// is on the first try, as `RetriesExhausted` after a failed attempt.
    /// `attempt(target, ctx)` runs one bounded call and returns `(out,
    /// queue_wait, solve)`; `ctx` parents the remote phases under this
    /// attempt's span.
    pub fn run<T: Target>(
        mut self,
        service: &str,
        mut find: impl FnMut(u32, &[String], TraceCtx) -> Result<Option<T>, DietError>,
        mut attempt: impl FnMut(&T, TraceCtx) -> Result<(Profile, f64, f64), Failure>,
    ) -> Result<(T, Profile, CallStats), DietError> {
        let (tracer, trace_id) = (self.tracer, self.parent.trace_id);
        let issued = Instant::now();
        let mut finding = 0.0;
        let mut last: Option<DietError> = None;
        for try_no in 0..=self.policy.max_retries {
            if try_no > 0 {
                std::thread::sleep(self.policy.backoff_jittered(try_no - 1, self.salt));
            }
            let span = tracer.span(trace_id, self.parent.parent_span, "attempt", self.who);
            let (ctx, find_ns, t0) = (span.ctx(), tracer.now_ns(), Instant::now());
            let target = match find(try_no, &self.excluded, ctx) {
                Ok(Some(target)) => target,
                Ok(None) => {
                    last = Some(DietError::NoServerAvailable(service.to_string()));
                    continue;
                }
                Err(e) if classify(&e) != Fault::Fatal => {
                    last = Some(e);
                    continue;
                }
                Err(e) if last.is_none() => return Err(e),
                Err(_) => return Err(exhausted(service, try_no, last)),
            };
            finding += t0.elapsed().as_secs_f64();
            let window = |name, from_ns, to_ns| {
                tracer.record_window(trace_id, span.id(), name, target.label(), from_ns, to_ns)
            };
            tracer.record_window(
                trace_id,
                span.id(),
                "Finding",
                "agents",
                find_ns,
                tracer.now_ns(),
            );
            let (submit_ns, t1) = (tracer.now_ns(), Instant::now());
            let failure = match attempt(&target, ctx) {
                Ok((out, queue_wait, solve)) => {
                    // The data-shipping slice of the attempt: its wall time
                    // minus the server's queueing and execution.
                    let send = (t1.elapsed().as_secs_f64() - queue_wait - solve).max(0.0);
                    window("Submission", submit_ns, submit_ns + (send * 1e9) as u64);
                    let stats = CallStats {
                        finding,
                        send,
                        queue_wait,
                        solve,
                        total: issued.elapsed().as_secs_f64(),
                        retries: try_no,
                        trace_id,
                    };
                    return Ok((target, out, stats));
                }
                Err(failure) => failure,
            };
            match failure.fault {
                Fault::Backoff => {}
                Fault::Blame => {
                    // Time sunk shipping data to a SeD that never replied
                    // still shows in the trace.
                    window("Submission", submit_ns, tracer.now_ns());
                    self.excluded.push(target.label().to_string());
                }
                Fault::Fatal => return Err(failure.error),
            }
            last = Some(failure.error);
        }
        Err(exhausted(service, self.policy.max_retries + 1, last))
    }
}

fn exhausted(service: &str, attempts: u32, last: Option<DietError>) -> DietError {
    DietError::RetriesExhausted {
        service: service.to_string(),
        attempts,
        last: last.map(|e| e.to_string()).unwrap_or_default(),
    }
}
