//! Stand-alone layer probes for traced runs: each layer's public entry
//! point called alone, outside any op window, with every processor released
//! together by a gate.

use std::time::Instant;

use hpf_core::ranking::{rank_from_counts, slice_counts, RankShape};
use hpf_core::PackOptions;
use hpf_distarray::ArrayDesc;
use hpf_machine::collectives::{alltoallv, prefix_reduction_sum};
use hpf_machine::Proc;

use crate::stats::{mean_span_ms, median};
use crate::sync::gate;

/// One processor's probe spans, one per repetition.
#[derive(Debug, Default)]
pub struct Probes {
    pub ranking: Vec<(Instant, Instant)>,
    pub prs: Vec<(Instant, Instant)>,
    pub a2a: Vec<(Instant, Instant)>,
    /// Words this processor sends in the `alltoallv` probe.
    pub a2a_words: u64,
}

/// Run `reps` repetitions of each probe on this processor's mask portion
/// `m`:
/// - `ranking`: `slice_counts` + `rank_from_counts`;
/// - `prs`: `prefix_reduction_sum` over grid dimension 0 at the ranking's
///   vector length;
/// - `a2a`: `alltoallv` carrying `words_to[j]` words to each destination
///   `j`, the per-destination counts of one op.
pub fn run(
    proc: &mut Proc,
    desc: &ArrayDesc,
    m: &[bool],
    opts: &PackOptions,
    words_to: &[u64],
    reps: usize,
) -> Probes {
    let shape = RankShape::from_desc(desc);
    let mut p = Probes {
        a2a_words: words_to.iter().sum(),
        ..Probes::default()
    };
    for _ in 0..reps {
        gate(proc, true);
        let s = Instant::now();
        let counts = slice_counts(m, shape.w[0]);
        std::hint::black_box(rank_from_counts(proc, &shape, counts, opts.prs));
        p.ranking.push((s, Instant::now()));
    }
    let axis = proc.axis_group(0);
    for _ in 0..reps {
        let counts = slice_counts(m, shape.w[0]);
        gate(proc, true);
        let s = Instant::now();
        std::hint::black_box(prefix_reduction_sum(proc, &axis, &counts, opts.prs));
        p.prs.push((s, Instant::now()));
    }
    let world = proc.world();
    for _ in 0..reps {
        let sends: Vec<Vec<i32>> = words_to.iter().map(|&w| vec![0; w as usize]).collect();
        gate(proc, true);
        let s = Instant::now();
        let got = alltoallv(proc, &world, sends, opts.schedule);
        p.a2a.push((s, Instant::now()));
        drop(std::hint::black_box(got));
    }
    p
}

/// Per repetition, the mean over processors of one probe's span (ms).
pub fn rep_ms(procs: &[&Probes], which: fn(&Probes) -> &Vec<(Instant, Instant)>) -> Vec<f64> {
    let reps = which(procs[0]).len();
    (0..reps)
        .map(|r| mean_span_ms(procs.iter().map(|p| which(p)[r])))
        .collect()
}

/// Layer times from probes: `(ranking_ms, prs_ms, a2a_ms)`, each the median
/// over repetitions.
pub fn summary(procs: &[&Probes]) -> (f64, f64, f64) {
    (
        median(&rep_ms(procs, |p| &p.ranking)),
        median(&rep_ms(procs, |p| &p.prs)),
        median(&rep_ms(procs, |p| &p.a2a)),
    )
}
