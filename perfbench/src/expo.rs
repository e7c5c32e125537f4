//! Reading the daemon's METRICS exposition: sample values by series,
//! deltas between two scrapes, and histogram quantiles over a delta.

use std::collections::BTreeMap;

/// Sample values keyed by their series text (`name{labels}`). The
/// pre-computed `quantile` lines are skipped: they cover the daemon's
/// whole life, not a window.
pub fn parse(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains("quantile=\""))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `after - before`, series by series.
pub fn delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// Quantile `q` of histogram `family`'s series whose labels start with
/// `labels` (e.g. `kind="jobs"`), from cumulative `_bucket` values,
/// interpolating linearly inside the covering bucket. `None` when the
/// series saw no observations.
pub fn quantile(
    samples: &BTreeMap<String, f64>,
    family: &str,
    labels: &str,
    q: f64,
) -> Option<f64> {
    let prefix = format!("{family}_bucket{{{labels},le=\"");
    let mut buckets: Vec<(f64, f64)> = samples
        .iter()
        .filter_map(|(k, &v)| {
            let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, v))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total;
    let (mut lower, mut below) = (0.0, 0.0);
    for (bound, cumulative) in buckets {
        if cumulative >= rank && cumulative > below {
            if bound.is_infinite() {
                return Some(lower);
            }
            return Some(lower + (bound - lower) * (rank - below) / (cumulative - below));
        }
        (lower, below) = (bound, cumulative);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE h histogram\n\
        h_bucket{kind=\"jobs\",le=\"100\"} 10\n\
        h_bucket{kind=\"jobs\",le=\"200\"} 10\n\
        h_bucket{kind=\"jobs\",le=\"+Inf\"} 10\n\
        h{kind=\"jobs\",quantile=\"0.5\"} 50.0\n\
        c_total 4\n";
    const AFTER: &str = "# TYPE h histogram\n\
        h_bucket{kind=\"jobs\",le=\"100\"} 10\n\
        h_bucket{kind=\"jobs\",le=\"200\"} 30\n\
        h_bucket{kind=\"jobs\",le=\"+Inf\"} 30\n\
        h{kind=\"jobs\",quantile=\"0.5\"} 150.0\n\
        c_total 9\n";

    #[test]
    fn window_quantiles_come_from_bucket_deltas() {
        let d = delta(&parse(BEFORE), &parse(AFTER));
        assert_eq!(d["c_total"], 5.0);
        // All 20 new observations fell in (100, 200].
        assert_eq!(quantile(&d, "h", "kind=\"jobs\"", 0.5), Some(150.0));
        assert_eq!(
            quantile(&parse(AFTER), "h", "kind=\"jobs\"", 0.5),
            Some(125.0)
        );
        assert_eq!(quantile(&d, "h", "kind=\"fetch\"", 0.5), None);
    }
}
