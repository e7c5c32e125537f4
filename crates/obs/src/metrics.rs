//! The metrics registry: atomic counters, gauges, and fixed-bucket
//! histograms with quantile readout, rendered as a Prometheus-style
//! text exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s detached
//! from the registry. Instrumented crates declare each family once as a
//! [`Metric`] `static`, which resolves the handles on first enabled use
//! and then updates them lock-free. The registry itself is only locked
//! on registration and on render, never on the hot path.
//!
//! **Determinism rule** (enforced by the observability test battery):
//! metric values are *observations* — nothing in the deterministic
//! pipeline (recording fingerprints, replay outcomes, `repro` report
//! bytes) may read them back. Wall-clock-derived families (latency
//! histograms, drain times) therefore never leak into deterministic
//! output, and flipping [`set_enabled`] cannot change any fingerprint.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables metric mutation (rendering still works).
///
/// Disabling is the determinism-battery switch: recordings taken with
/// metrics on and off must be byte-identical.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether metric mutation is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default buckets for latency-in-microseconds histograms: 10 µs to 10 s.
pub const LATENCY_US: &[u64] =
    &[10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
        500_000, 1_000_000, 2_500_000, 10_000_000];

/// Default buckets for byte-size histograms: 64 B to 64 MiB.
pub const SIZE_BYTES: &[u64] = &[
    64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20,
];

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets are cumulative at render time (Prometheus `le` semantics);
/// internally each atomic slot counts one bucket, with a final implicit
/// `+Inf` slot. Quantiles are estimated by linear interpolation inside
/// the bucket where the rank falls.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1 slots; last is +Inf
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bucket bounds must strictly increase");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.record(v);
        }
    }

    fn record(&self, v: u64) {
        let slot = self.bounds.partition_point(|&b| b < v);
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimates quantile `q` in `[0, 1]` by linear interpolation inside
    /// the covering bucket (0 when empty). The top (`+Inf`) bucket
    /// reports its lower bound — the largest finite boundary.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let next = cumulative + c;
            if (next as f64) >= rank && c > 0 {
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let Some(&upper) = self.bounds.get(i) else {
                    return *self.bounds.last().expect("nonempty bounds") as f64;
                };
                let into = (rank - cumulative as f64) / c as f64;
                return lower as f64 + into * (upper - lower) as f64;
            }
            cumulative = next;
        }
        *self.bounds.last().expect("nonempty bounds") as f64
    }

    /// Cumulative `(le_bound, count)` pairs, ending with the `+Inf`
    /// bucket (`None` bound).
    fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut running = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, slot) in self.buckets.iter().enumerate() {
            running += slot.load(Ordering::Relaxed);
            out.push((self.bounds.get(i).copied(), running));
        }
        out
    }
}

/// Label pairs attached to one series, normalized and sorted by key.
type LabelSet = Vec<(String, String)>;

enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Series {
    fn kind(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    help: String,
    series: BTreeMap<LabelSet, Series>,
}

/// A named collection of metric families.
///
/// Most code uses the process-wide [`global`] registry; tests can build
/// private ones.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn normalize(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet =
        labels.iter().map(|(k, v)| (String::from(*k), String::from(*v))).collect();
    set.sort();
    set
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn series<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
        get: impl FnOnce(&Series) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = families
            .entry(name.to_string())
            .or_insert_with(|| Family { help: help.to_string(), series: BTreeMap::new() });
        let series = family.series.entry(normalize(labels)).or_insert_with(make);
        get(series).unwrap_or_else(|| {
            panic!("metric `{name}` already registered as a {}", series.kind())
        })
    }

    /// Registers (or finds) a counter series.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different type — a
    /// static naming bug, caught by any test touching the family.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.series(
            name,
            help,
            labels,
            || Series::Counter(Arc::new(Counter::default())),
            |s| match s {
                Series::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Registers (or finds) a gauge series.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different type.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.series(
            name,
            help,
            labels,
            || Series::Gauge(Arc::new(Gauge::default())),
            |s| match s {
                Series::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Registers (or finds) a histogram series with the given bucket
    /// bounds (bounds are fixed by the first registration).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different type, or
    /// if `bounds` is empty or not strictly increasing.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Arc<Histogram> {
        self.series(
            name,
            help,
            labels,
            || Series::Histogram(Arc::new(Histogram::new(bounds))),
            |s| match s {
                Series::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Flat `(name, labels, value)` snapshot of every counter and gauge,
    /// plus histogram `_count`/`_sum` totals — for tests and tools.
    pub fn snapshot(&self) -> Vec<(String, LabelSet, f64)> {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => out.push((name.clone(), labels.clone(), c.get() as f64)),
                    Series::Gauge(g) => out.push((name.clone(), labels.clone(), g.get() as f64)),
                    Series::Histogram(h) => {
                        out.push((format!("{name}_count"), labels.clone(), h.count() as f64));
                        out.push((format!("{name}_sum"), labels.clone(), h.sum() as f64));
                    }
                }
            }
        }
        out
    }

    /// Renders the Prometheus-style text exposition: `# HELP`/`# TYPE`
    /// per family, one sample line per series, and for histograms the
    /// cumulative `_bucket{le=...}` series, `_sum`, `_count`, and
    /// p50/p95/p99 quantile samples.
    ///
    /// Output ordering is deterministic (families and label sets are
    /// B-tree sorted); *values* of wall-clock families are not.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for (name, family) in families.iter() {
            let kind =
                family.series.values().next().map_or("counter", Series::kind);
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&sample(name, labels, &[], &format!("{}", c.get())));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&sample(name, labels, &[], &format!("{}", g.get())));
                    }
                    Series::Histogram(h) => {
                        for (bound, cum) in h.cumulative() {
                            let le = bound.map_or_else(|| "+Inf".to_string(), |b| b.to_string());
                            out.push_str(&sample(
                                &format!("{name}_bucket"),
                                labels,
                                &[("le", &le)],
                                &format!("{cum}"),
                            ));
                        }
                        out.push_str(&sample(&format!("{name}_sum"), labels, &[], &format!("{}", h.sum())));
                        out.push_str(&sample(&format!("{name}_count"), labels, &[], &format!("{}", h.count())));
                        for (q, tag) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                            out.push_str(&sample(
                                name,
                                labels,
                                &[("quantile", tag)],
                                &format!("{:.1}", h.quantile(q)),
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

fn sample(name: &str, labels: &LabelSet, extra: &[(&str, &str)], value: &str) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    pairs.extend(extra.iter().map(|(k, v)| format!("{k}=\"{v}\"")));
    if pairs.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{}}} {value}\n", pairs.join(","))
    }
}

/// The process-wide registry every instrumented crate reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A stopwatch reading for [`Metric::observe_since`]: `Some(now)` only
/// while metrics are enabled, so disabled paths never read the clock.
pub fn clock() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Registers one series of a [`Metric`] family: the per-type half of
/// its declaration.
type Register<T> = fn(&Registry, &str, &str, &[(&str, &str)], &[u64]) -> Arc<T>;

/// A metric family declared once, as a `static`, and registered into
/// the [`global`] registry on first use.
///
/// The declaration holds everything about the family (name, help, the
/// optional label key with its fixed values, histogram bounds), so
/// adding a metric is one `static`:
///
/// ```
/// use qr_obs::{Counter, Metric};
///
/// static RUNS: Metric<Counter, 2> =
///     Metric::counters("doc_runs_total", "Runs, by mode", "mode", || ["serial", "parallel"]);
///
/// RUNS.inc_at(1); // mode="parallel"
/// ```
///
/// Label values come from a function, so values derived from an enum
/// (`Enum::ALL.map(Enum::label)`) are computed once, at first use, in
/// the enum's index order: series `i` carries label value `i`. See the
/// crate docs for the registration policy.
pub struct Metric<T, const N: usize = 1> {
    name: &'static str,
    help: &'static str,
    key: &'static str,
    values: fn() -> [&'static str; N],
    bounds: &'static [u64],
    register: Register<T>,
    series: OnceLock<[Arc<T>; N]>,
}

impl<T, const N: usize> Metric<T, N> {
    /// Series `i`, registering the whole family on first use; `None`
    /// while metrics are disabled. Panics if `i >= N`, or if the name is
    /// already registered with another type.
    fn at(&self, i: usize) -> Option<&T> {
        if !enabled() {
            return None;
        }
        let series = self.series.get_or_init(|| {
            (self.values)().map(|value| {
                let pair = [(self.key, value)];
                let labels: &[(&str, &str)] = if self.key.is_empty() { &[] } else { &pair };
                (self.register)(global(), self.name, self.help, labels, self.bounds)
            })
        });
        Some(&series[i])
    }
}

impl<const N: usize> Metric<Counter, N> {
    /// A counter family with one series per `key` label value.
    pub const fn counters(
        name: &'static str,
        help: &'static str,
        key: &'static str,
        values: fn() -> [&'static str; N],
    ) -> Self {
        let register: Register<Counter> = |r, n, h, l, _| r.counter(n, h, l);
        Metric { name, help, key, values, bounds: &[], register, series: OnceLock::new() }
    }

    /// Adds 1 to series `i`.
    pub fn inc_at(&self, i: usize) {
        self.add_at(i, 1);
    }

    /// Adds `n` to series `i`.
    pub fn add_at(&self, i: usize, n: u64) {
        if let Some(c) = self.at(i) {
            c.value.fetch_add(n, Ordering::Relaxed);
        }
    }
}

impl Metric<Counter> {
    /// An unlabeled counter.
    pub const fn counter(name: &'static str, help: &'static str) -> Self {
        Metric::counters(name, help, "", || [""])
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add_at(0, 1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.add_at(0, n);
    }
}

impl Metric<Gauge> {
    /// An unlabeled gauge.
    pub const fn gauge(name: &'static str, help: &'static str) -> Self {
        let register: Register<Gauge> = |r, n, h, l, _| r.gauge(n, h, l);
        Metric { name, help, key: "", values: || [""], bounds: &[], register, series: OnceLock::new() }
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        if let Some(g) = self.at(0) {
            g.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        if let Some(g) = self.at(0) {
            g.value.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

impl<const N: usize> Metric<Histogram, N> {
    /// A histogram family with one series per `key` label value, all
    /// with the bucket `bounds`.
    pub const fn histograms(
        name: &'static str,
        help: &'static str,
        key: &'static str,
        values: fn() -> [&'static str; N],
        bounds: &'static [u64],
    ) -> Self {
        let register: Register<Histogram> = |r, n, h, l, b| r.histogram(n, h, l, b);
        Metric { name, help, key, values, bounds, register, series: OnceLock::new() }
    }

    /// Records into series `i` the microseconds elapsed since a
    /// [`clock`] reading; a `None` reading records nothing.
    pub fn observe_since_at(&self, i: usize, start: Option<Instant>) {
        if let (Some(start), Some(h)) = (start, self.at(i)) {
            h.record(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
    }
}

impl Metric<Histogram> {
    /// An unlabeled histogram with the bucket `bounds`.
    pub const fn histogram(name: &'static str, help: &'static str, bounds: &'static [u64]) -> Self {
        Metric::histograms(name, help, "", || [""], bounds)
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        if let Some(h) = self.at(0) {
            h.record(v);
        }
    }

    /// Records the microseconds elapsed since a [`clock`] reading.
    pub fn observe_since(&self, start: Option<Instant>) {
        self.observe_since_at(0, start);
    }
}

/// The identity of the families in exposition `text` whose names start
/// with one of `prefixes`: their `# HELP` and `# TYPE` lines, and each
/// sample's `name{labels}` without its value. Tests pin a crate's
/// metric catalog with it.
pub fn catalog(text: &str, prefixes: &[&str]) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let name = line.trim_start_matches("# HELP ").trim_start_matches("# TYPE ");
        if prefixes.iter().any(|p| name.starts_with(p)) {
            let identity = match line.rsplit_once(' ') {
                Some((series, _)) if !line.starts_with('#') => series,
                _ => line,
            };
            out.push_str(identity);
            out.push('\n');
        }
    }
    out
}

/// Summary of a parsed exposition (see [`parse_exposition`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Exposition {
    /// `(family name, declared type)` pairs, in order of appearance.
    pub families: Vec<(String, String)>,
    /// Total sample lines.
    pub samples: usize,
}

impl Exposition {
    /// Whether a family of the given name was declared.
    pub fn has_family(&self, name: &str) -> bool {
        self.families.iter().any(|(n, _)| n == name)
    }
}

/// Validates a text exposition: every non-comment line must parse as
/// `name{labels} value`, every sample must belong to a `# TYPE`-declared
/// family, and every value must be a finite number.
///
/// This is the checker behind `quickrec stats --metrics` and the CI
/// scrape step.
///
/// # Errors
///
/// Returns a line-numbered description of the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut families: Vec<(String, String)> = Vec::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                return Err(format!("line {lineno}: malformed TYPE comment"));
            };
            if !["counter", "gauge", "histogram", "summary"].contains(&kind) {
                return Err(format!("line {lineno}: unknown metric type `{kind}`"));
            }
            families.push((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free-form comment
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample has no value"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: unparsable sample value `{value}`"))?;
        if !value.is_finite() {
            return Err(format!("line {lineno}: non-finite sample value"));
        }
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {lineno}: unterminated label set"));
                }
                name
            }
            None => series,
        };
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {lineno}: invalid metric name `{name}`"));
        }
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if !families.iter().any(|(n, _)| n == base || n == name) {
            return Err(format!("line {lineno}: sample `{name}` has no TYPE declaration"));
        }
        samples += 1;
    }
    Ok(Exposition { families, samples })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ENABLED` is process-global: tests that toggle it hold this
    /// write-side lock, tests that count under the default hold the
    /// read side, so parallel test threads never observe a flip.
    static FLAG: std::sync::RwLock<()> = std::sync::RwLock::new(());

    #[test]
    fn counters_and_gauges_accumulate() {
        let _on = FLAG.read().unwrap_or_else(PoisonError::into_inner);
        let reg = Registry::new();
        let c = reg.counter("t_jobs_total", "jobs", &[("kind", "record")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) resolves to the same series.
        reg.counter("t_jobs_total", "jobs", &[("kind", "record")]).inc();
        assert_eq!(c.get(), 6);
        let g = reg.gauge("t_queue_depth", "depth", &[]);
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let _on = FLAG.read().unwrap_or_else(PoisonError::into_inner);
        let reg = Registry::new();
        let h = reg.histogram("t_lat_us", "latency", &[], &[10, 100, 1000, 10_000]);
        for v in [5u64, 50, 50, 50, 500, 500, 5000, 20_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 5 + 150 + 1000 + 5000 + 20_000);
        let p50 = h.quantile(0.5);
        assert!((10.0..=100.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= 1000.0, "p99 {p99}");
        // +Inf bucket clamps to the top finite bound.
        assert!(h.quantile(1.0) <= 10_000.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let reg = Registry::new();
        let h = reg.histogram("t_empty", "x", &[], LATENCY_US);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn disabled_metrics_do_not_mutate() {
        let _off = FLAG.write().unwrap_or_else(PoisonError::into_inner);
        let reg = Registry::new();
        let c = reg.counter("t_gated_total", "x", &[]);
        let h = reg.histogram("t_gated_us", "x", &[], &[10, 100]);
        set_enabled(false);
        c.inc();
        h.observe(50);
        set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collision_panics() {
        let reg = Registry::new();
        reg.counter("t_collide", "x", &[]);
        reg.gauge("t_collide", "x", &[]);
    }

    #[test]
    fn metric_registers_its_whole_family_on_first_enabled_use() {
        static POLICY: Metric<Counter, 3> =
            Metric::counters("t_policy_total", "policy", "slot", || ["a", "b", "c"]);
        let _off = FLAG.write().unwrap_or_else(PoisonError::into_inner);
        set_enabled(false);
        POLICY.inc_at(1);
        let disabled = (POLICY.at(1).is_none(), clock().is_none());
        set_enabled(true);
        assert_eq!(disabled, (true, true), "disabled handles neither resolve nor read the clock");
        assert!(!global().render().contains("t_policy_total"), "disabled use registered");
        POLICY.inc_at(1);
        let text = global().render();
        for series in ["{slot=\"a\"} 0", "{slot=\"b\"} 1", "{slot=\"c\"} 0"] {
            assert!(text.contains(&format!("t_policy_total{series}\n")), "{series} in\n{text}");
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn metric_kind_collision_panics() {
        static COUNTER: Metric<Counter> = Metric::counter("t_metric_collide", "x");
        static GAUGE: Metric<Gauge> = Metric::gauge("t_metric_collide", "x");
        let _on = FLAG.read().unwrap_or_else(PoisonError::into_inner);
        COUNTER.inc();
        GAUGE.set(1);
    }

    #[test]
    fn render_parses_and_orders_deterministically() {
        let _on = FLAG.read().unwrap_or_else(PoisonError::into_inner);
        let reg = Registry::new();
        reg.counter("t_b_total", "second", &[("enc", "delta")]).add(3);
        reg.counter("t_b_total", "second", &[("enc", "raw")]).add(1);
        reg.counter("t_a_total", "first", &[]).inc();
        reg.gauge("t_depth", "queue", &[]).set(-2);
        let h = reg.histogram("t_lat_us", "lat", &[("op", "put")], &[10, 100]);
        h.observe(5);
        h.observe(5000);
        let text = reg.render();
        let text2 = reg.render();
        assert_eq!(text, text2, "render must be stable");
        let a = text.find("t_a_total").unwrap();
        let b = text.find("t_b_total").unwrap();
        assert!(a < b, "families sorted by name");
        assert!(text.contains("t_b_total{enc=\"delta\"} 3"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("quantile=\"0.95\""));
        assert!(text.contains("t_depth -2"));
        let parsed = parse_exposition(&text).expect("own render must parse");
        assert!(parsed.has_family("t_lat_us"));
        assert_eq!(parsed.families.len(), 4);
        assert!(parsed.samples >= 10);
    }

    #[test]
    fn parser_rejects_damage() {
        assert!(parse_exposition("# TYPE x counter\nx notanumber").is_err());
        assert!(parse_exposition("x 1").is_err(), "sample without TYPE");
        assert!(parse_exposition("# TYPE x widget\nx 1").is_err(), "unknown type");
        assert!(parse_exposition("# TYPE x counter\nx{le=\"5\" 1").is_err(), "broken labels");
        assert!(parse_exposition("").unwrap().samples == 0);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let _on = FLAG.read().unwrap_or_else(PoisonError::into_inner);
        let reg = Registry::new();
        let c = reg.counter("t_mt_total", "x", &[]);
        let h = reg.histogram("t_mt_us", "x", &[], &[100]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (c, h) = (Arc::clone(&c), Arc::clone(&h));
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.observe(i % 200);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
    }
}
