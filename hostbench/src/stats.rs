//! Order statistics and the window arithmetic shared by the workloads.

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::host::Steal;

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics. `xs` must be non-empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Fewest timed ops in a `--trace 0` run, and the fewest the percentiles
/// are taken over: at least ten samples lie beyond the p90.
pub const MIN_OPS: usize = 100;

/// The end-to-end op figures of a timed phase.
pub struct OpSummary {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub elements_per_s: f64,
    /// Ops the figures are taken over.
    pub kept: usize,
}

/// Consecutive ops are grouped into windows of about this much op time; the
/// host's steal rate is judged per window.
const WINDOW: Duration = Duration::from_secs(1);

/// p50, p90 and elements moved per second of op time, over the ops least
/// disturbed by other tenants of the host. `steal[k]` is the host CPU time
/// around op `k`; `elements[k]` is what op `k` moved. The ops are grouped
/// into windows of `WINDOW` op time, and whole windows are kept in order of
/// their steal rate, lowest first, until a quarter of the ops and at least
/// `MIN_OPS` are kept. The selection never looks at the op times.
pub fn summarize(op_ms: &[f64], elements: &[f64], steal: &[Steal]) -> OpSummary {
    let mut windows: Vec<Range<usize>> = Vec::new();
    let (mut start, mut span) = (0, Duration::ZERO);
    for (k, s) in steal.iter().enumerate() {
        span += s.span;
        if span >= WINDOW || k + 1 == steal.len() {
            windows.push(start..k + 1);
            (start, span) = (k + 1, Duration::ZERO);
        }
    }
    let rate = |w: &Range<usize>| {
        let (stolen, total) = steal[w.clone()]
            .iter()
            .fold((0, 0), |(s, t), x| (s + x.stolen, t + x.total));
        stolen as f64 / total.max(1) as f64
    };
    windows.sort_by(|a, b| rate(a).total_cmp(&rate(b)));
    let want = MIN_OPS.max(op_ms.len() / 4);
    let mut kept: Vec<usize> = Vec::new();
    for w in windows {
        if kept.len() >= want {
            break;
        }
        kept.extend(w);
    }
    let t: Vec<f64> = kept.iter().map(|&k| op_ms[k]).collect();
    let moved: f64 = kept.iter().map(|&k| elements[k]).sum();
    OpSummary {
        p50_ms: quantile(&t, 0.5),
        p90_ms: quantile(&t, 0.9),
        elements_per_s: moved / (t.iter().sum::<f64>() / 1e3),
        kept: kept.len(),
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Wall time from the first of `starts` to the last of `ends`: how long a
/// collective call took, from the first processor entering it to the last
/// one leaving it.
pub fn window(
    starts: impl Iterator<Item = Instant>,
    ends: impl Iterator<Item = Instant>,
) -> Duration {
    let first = starts.min().expect("at least one processor");
    let last = ends.max().expect("at least one processor");
    last.saturating_duration_since(first)
}

/// Mean over processors of each processor's own `(start, end)` span, in
/// ms: the per-layer attribution unit.
pub fn mean_span_ms(spans: impl Iterator<Item = (Instant, Instant)>) -> f64 {
    let v: Vec<f64> = spans
        .map(|(s, e)| ms(e.saturating_duration_since(s)))
        .collect();
    mean(&v)
}
