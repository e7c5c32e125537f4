//! `qr-obs`: the unified observability layer for QuickRec-RS.
//!
//! QuickRec's headline result is an *overhead account* — hardware chunk
//! recording is nearly free while the Capo3 software stack costs ~13% —
//! so a reproduction needs first-class instrumentation to see where
//! time and bytes go. This crate provides, with no dependencies beyond
//! `qr-common`:
//!
//! - [`metrics`]: a registry of atomic counters, gauges, and
//!   fixed-bucket histograms (p50/p95/p99 readout), rendered as a
//!   Prometheus-style text exposition and validated by
//!   [`metrics::parse_exposition`].
//! - [`trace`]: a span journal (begin/end/instant events with dense
//!   thread ids and session ids) serialized through the
//!   `qr_common::frame` container, so traces are CRC-verified and
//!   salvageable like every other QuickRec log.
//!
//! # Declaring a metric
//!
//! Adding a metric is one declaration: a [`Metric`] `static` that names
//! the family, its help text, an optional label key with its fixed
//! values, and histogram bounds. Instrumented code then calls `inc`,
//! `add`, `set`, `observe` or `observe_since` on the static. The
//! registration policy lives in [`Metric`] alone:
//!
//! - **Lazy and enabled-only.** While metrics are disabled a handle
//!   registers nothing, records nothing, and [`clock`] reads no clock.
//! - **Whole family at once.** The first enabled use registers a series
//!   for every label value, so zero-valued siblings still appear in the
//!   exposition.
//! - **Lock-free afterwards.** Every later use is one relaxed load of
//!   the enabled flag, the `OnceLock` fast path and one relaxed atomic
//!   update: no registry lock, no map lookup.
//!
//! # The determinism rule
//!
//! Instrumentation is strictly *observational*. Recorder, replayer,
//! store, and server code may write metrics and spans, but nothing on a
//! deterministic path — recording fingerprints, replay outcomes, or
//! `repro` report bytes — may ever read them back. Wall-clock-derived
//! values (latencies, drain times, trace timestamps) therefore never
//! reach deterministic output, and flipping [`metrics::set_enabled`]
//! cannot change any fingerprint. The observability test battery
//! enforces this by recording with metrics on and off and comparing
//! bytes.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    catalog, clock, enabled, global, parse_exposition, set_enabled, Counter, Exposition, Gauge,
    Histogram, Metric, Registry, LATENCY_US, SIZE_BYTES,
};
pub use trace::{EventKind, Journal, Span, TraceEvent};
