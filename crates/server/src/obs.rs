//! `qr-obs` instrumentation for the daemon, declared as
//! [`qr_obs::Metric`] statics: request latency, queue depth, busy
//! rejections, connection/accept accounting, drain time.
//!
//! Every family touches only process-local atomics — nothing here feeds
//! back into job execution, responses, or the store, so recordings and
//! `repro` output are byte-identical with metrics on or off.

use crate::proto::Request;
use qr_obs::{Counter, Gauge, Histogram, Metric, LATENCY_US};
use std::time::Instant;

/// Wire-request kind labels, indexed by the kind [`request_key`]
/// returns. One label value per [`Request`] variant; trace spans use
/// them too.
pub(crate) const KINDS: [&str; 12] = [
    "ping",
    "submit_workload",
    "submit_program",
    "jobs",
    "stats",
    "fetch",
    "replay",
    "verify",
    "races",
    "shutdown",
    "metrics",
    "query",
];

/// The request's kind (an index into [`KINDS`]) and the session it
/// names, 0 when it names none. Computed before the handler consumes
/// the request.
pub(crate) fn request_key(request: &Request) -> (usize, u64) {
    match *request {
        Request::Ping => (0, 0),
        Request::SubmitWorkload { .. } => (1, 0),
        Request::SubmitProgram { .. } => (2, 0),
        Request::Jobs => (3, 0),
        Request::Stats => (4, 0),
        Request::Fetch { id } => (5, id),
        Request::Replay { id } => (6, id),
        Request::Verify { id } => (7, id),
        Request::Races { id } => (8, id),
        Request::Shutdown => (9, 0),
        Request::Metrics => (10, 0),
        Request::Query { id, .. } => (11, id),
    }
}

static REQUESTS: Metric<Counter, 12> = Metric::counters(
    "qr_server_requests_total",
    "Wire requests handled, by request kind.",
    "kind",
    || KINDS,
);

static REQUEST_LATENCY: Metric<Histogram, 12> = Metric::histograms(
    "qr_server_request_latency_us",
    "Wire request handling latency in microseconds, by request kind.",
    "kind",
    || KINDS,
    LATENCY_US,
);

pub(crate) static QUEUE_DEPTH: Metric<Gauge> = Metric::gauge(
    "qr_server_queue_depth",
    "Jobs currently waiting in the worker-pool queue.",
);

pub(crate) static BUSY_REJECTIONS: Metric<Counter> = Metric::counter(
    "qr_server_busy_rejections_total",
    "Submissions rejected because the worker queue was full.",
);

pub(crate) static CONNECTIONS: Metric<Counter> = Metric::counter(
    "qr_server_connections_total",
    "Connections accepted over the server's lifetime.",
);

/// Moved by +1 on adopt and -1 on close — a delta, not a set, so
/// several in-process servers sharing the global registry stay
/// additive.
pub(crate) static OPEN_CONNECTIONS: Metric<Gauge> = Metric::gauge(
    "qr_server_open_connections",
    "Connections currently owned by the event loop.",
);

pub(crate) static EVENT_WAKEUPS: Metric<Counter> = Metric::counter(
    "qr_server_event_loop_wakeups_total",
    "Event-worker poll returns (readiness or timeout).",
);

pub(crate) static EVENT_EVENTS: Metric<Counter> = Metric::counter(
    "qr_server_event_loop_events_total",
    "Connection readiness events handled by the event workers.",
);

pub(crate) static EVENT_ADOPTED: Metric<Counter> = Metric::counter(
    "qr_server_event_loop_conns_adopted_total",
    "Connections handed from the accept loop to an event worker.",
);

pub(crate) static ACCEPT_ERRORS: Metric<Counter> = Metric::counter(
    "qr_server_accept_errors_total",
    "Accept-loop errors (logged, backed off, and retried).",
);

pub(crate) static WORKER_PANICS: Metric<Counter> = Metric::counter(
    "qr_server_worker_panics_total",
    "Worker-pool tasks that panicked (contained; the worker survived).",
);

pub(crate) static DRAIN_LATENCY: Metric<Histogram> = Metric::histogram(
    "qr_server_drain_latency_us",
    "Shutdown drain time (connections + queued jobs) in microseconds.",
    LATENCY_US,
);

/// Series index of queries that re-executed.
pub(crate) const EXECUTED: usize = 0;
/// Series index of idempotence-cache hits that skipped re-execution.
pub(crate) const CACHED: usize = 1;

pub(crate) static QUERIES: Metric<Counter, 2> = Metric::counters(
    "qr_server_queries_total",
    "Time-travel queries answered, by outcome (executed vs idempotence-cache hit).",
    "outcome",
    || ["executed", "cached"],
);

/// Records one handled request of kind `kind` that started at `start`
/// (a [`qr_obs::clock`] reading): count + latency by kind.
pub(crate) fn request_handled(kind: usize, start: Option<Instant>) {
    if start.is_some() {
        REQUESTS.inc_at(kind);
        REQUEST_LATENCY.observe_since_at(kind, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Touches every family once, so hard-to-trigger ones (worker
    /// panics, accept errors) are pinned too.
    #[test]
    fn metric_catalog_is_pinned() {
        request_handled(0, qr_obs::clock());
        QUEUE_DEPTH.set(0);
        BUSY_REJECTIONS.inc();
        CONNECTIONS.inc();
        OPEN_CONNECTIONS.add(0);
        EVENT_WAKEUPS.inc();
        EVENT_EVENTS.add(1);
        EVENT_ADOPTED.inc();
        ACCEPT_ERRORS.inc();
        WORKER_PANICS.inc();
        DRAIN_LATENCY.observe_since(qr_obs::clock());
        QUERIES.inc_at(CACHED);
        let text = qr_obs::global().render();
        assert_eq!(qr_obs::catalog(&text, &["qr_server_"]), include_str!("obs_catalog.txt"));
    }
}
