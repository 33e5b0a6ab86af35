//! `hostbench`: the repository benchmark.
//!
//! Runs one workload as a closed loop of PACK→UNPACK round trips on the
//! simulated machine, checks every op against the sequential oracle, and
//! prints the provenance, then one JSON result as the last line of stdout.
//!
//! ```text
//! hostbench --workload <steady_block|oneshot_cyclic|many_procs>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` makes an
//! untraced and a traced pass and reports the per-layer metrics. See
//! `README.md` next to this crate for what each metric means.

mod cached;
mod host;
mod oneshot;
mod probe;
mod spec;
mod stats;
mod sync;

use hpf_core::CopyStats;
use hpf_machine::{Category, ClockReport};

use host::Sched;
use spec::{Plans, Spec};

/// Default seed; results quoted without a seed use this one.
const DEFAULT_SEED: u64 = 1;

/// Ops at the start of the timed phase over which the simulated metrics are
/// taken. The same ops in every run of a seed, so the figures are exact.
pub const SIM_OPS: usize = 8;

/// Fewest timed ops per pass of a `--trace 1` run.
pub const MIN_TRACE_OPS: usize = SIM_OPS;

/// Repetitions of each stand-alone layer probe in a traced run.
pub const PROBE_REPS: usize = 5;

/// Command-line settings.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Single-thread memcpy bandwidth at this workload's working set.
    pub roof_gbps: f64,
}

/// One run's outcome, printed as the final JSON line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Diagnostics printed before the result, one `key: value` per line.
    pub notes: Vec<String>,
}

/// Simulated cost of a stretch of ops, summed over processors (the time is
/// the maximum over processors). Exact: any difference between two runs of
/// the same seed means the measurement disturbed the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim {
    pub ms: f64,
    pub startups: u64,
    pub words: u64,
    pub local_ops: u64,
}

impl Sim {
    /// The cost between two clock snapshots of every processor.
    pub fn between(start: &[ClockReport], end: &[ClockReport]) -> Sim {
        let mut s = Sim::default();
        for (a, b) in start.iter().zip(end) {
            s.ms = s.ms.max((b.now_ns - a.now_ns) / 1e6);
            s.startups += b.startups - a.startups;
            s.words += b.words_sent - a.words_sent;
            s.local_ops += b.cat_ops(Category::LocalComp) - a.cat_ops(Category::LocalComp);
        }
        s
    }

    pub fn add(&mut self, o: Sim) {
        self.ms += o.ms;
        self.startups += o.startups;
        self.words += o.words;
        self.local_ops += o.local_ops;
    }

    pub fn identical(&self, o: &Sim) -> bool {
        self.ms.to_bits() == o.ms.to_bits()
            && (self.startups, self.words, self.local_ops) == (o.startups, o.words, o.local_ops)
    }

    pub fn describe(&self) -> String {
        format!(
            "ms={} startups={} words={} local_ops={}",
            self.ms, self.startups, self.words, self.local_ops
        )
    }

    /// `sim.*` per-layer metrics over `ops` ops.
    pub fn per_op(&self, ops: usize) -> [(&'static str, f64, &'static str); 3] {
        let k = ops as f64;
        [
            ("sim.startups_per_op", self.startups as f64 / k, "count"),
            ("sim.words_per_op", self.words as f64 / k, "count"),
            ("sim.local_ops_per_op", self.local_ops as f64 / k, "count"),
        ]
    }
}

/// What a traced run measured, per op unless named otherwise. Every
/// workload reports its per-layer metrics through [`LayerFigures::metrics`],
/// so the names and derived figures are defined once.
pub struct LayerFigures {
    pub machine_run_ms: f64,
    pub ranking_ms: f64,
    pub prs_ms: f64,
    pub plan_pack_ms: f64,
    pub plan_unpack_ms: f64,
    pub exec_pack_ms: f64,
    pub exec_unpack_ms: f64,
    /// Sum of the top-level layer times that fall inside an op.
    pub in_op_ms: f64,
    /// Mean op time of the traced pass.
    pub op_mean_ms: f64,
    /// Median op time of the traced pass over the untraced pass's.
    pub overhead_ratio: f64,
    /// Selected elements per op.
    pub selected: f64,
    pub copy: CopyStats,
    pub a2a_ms: f64,
    pub a2a_ns_per_word: f64,
    pub nprocs: f64,
    /// Scheduler counters summed over the traced ops, and the wall time
    /// they cover.
    pub sched: Sched,
    pub sched_span_ms: f64,
    pub ops: f64,
    pub sim: Sim,
    pub seq_roundtrip_ms: f64,
    pub rss_setup_mb: f64,
}

impl LayerFigures {
    pub fn metrics(&self, roof_gbps: f64) -> Vec<(&'static str, f64, &'static str)> {
        let exec_ns_per_element =
            (self.exec_pack_ms + self.exec_unpack_ms) * 1e6 / (2.0 * self.selected);
        // 4 B read and 4 B written per selected element and direction.
        let exec_gbps = 8.0 / exec_ns_per_element;
        let n = self.ops;
        let mut m = vec![
            ("machine.run_ms", self.machine_run_ms, "ms"),
            ("ranking.ms", self.ranking_ms, "ms"),
            ("prs.ms", self.prs_ms, "ms"),
            ("plan.pack_ms", self.plan_pack_ms, "ms"),
            ("plan.unpack_ms", self.plan_unpack_ms, "ms"),
            (
                "plan.rest_ms",
                self.plan_pack_ms + self.plan_unpack_ms - 2.0 * self.ranking_ms,
                "ms",
            ),
            ("exec.pack_ms", self.exec_pack_ms, "ms"),
            ("exec.unpack_ms", self.exec_unpack_ms, "ms"),
            ("exec.ns_per_element", exec_ns_per_element, "ns"),
            ("exec.gbps", exec_gbps, "GB/s"),
            ("exec.roof_frac", exec_gbps / roof_gbps, "fraction"),
            ("copy.bulk_fraction", self.copy.bulk_fraction(), "fraction"),
            ("a2a.ms", self.a2a_ms, "ms"),
            (
                "a2a.ns_per_frame",
                self.a2a_ms * 1e6 / (self.nprocs * (self.nprocs - 1.0)),
                "ns",
            ),
            ("a2a.ns_per_word", self.a2a_ns_per_word, "ns"),
            (
                "sched.switches_per_op",
                self.sched.switches as f64 / n,
                "count",
            ),
            (
                "sched.oncpu_ms_per_op",
                self.sched.oncpu_ns as f64 / 1e6 / n,
                "ms",
            ),
            (
                "sched.runq_wait_ms_per_op",
                self.sched.runq_ns as f64 / 1e6 / n,
                "ms",
            ),
            (
                "sched.cpu_util",
                self.sched.oncpu_ns as f64 / 1e6 / (self.sched_span_ms * spec::WORKERS as f64),
                "fraction",
            ),
        ];
        m.extend(self.sim.per_op(SIM_OPS));
        m.extend([
            ("seq.roundtrip_ms", self.seq_roundtrip_ms, "ms"),
            ("rss.setup_mb", self.rss_setup_mb, "MB"),
            (
                "layers.unexplained_frac",
                1.0 - self.in_op_ms / self.op_mean_ms,
                "fraction",
            ),
            ("trace.overhead_frac", self.overhead_ratio - 1.0, "fraction"),
        ]);
        m
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: hostbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        spec::WORKLOADS.map(|s| s.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (&'static Spec, u64, f64, bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut spec, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0_f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => spec = Some(Spec::find(val).unwrap_or_else(|| usage())),
            "--seed" => seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        usage();
    }
    (spec.unwrap_or_else(|| usage()), seed, seconds, trace)
}

fn main() {
    let (spec, seed, seconds, trace) = parse_args();
    // Nominal working set at the workloads' mask density of 0.5.
    let ws = spec.working_set_bytes(spec.len() / 2);
    let roof_gbps = host::memcpy_roof_gbps(ws);
    println!("{}", host::provenance(spec.name, seed, ws, roof_gbps));
    let cfg = Cfg {
        seed,
        seconds,
        trace,
        roof_gbps,
    };
    let steal0 = host::cpu_steal_ticks();
    let report = match spec.plans {
        Plans::Cached => cached::run(spec, &cfg),
        Plans::PerOp => oneshot::run(spec, &cfg),
    };
    let steal1 = host::cpu_steal_ticks();
    for note in &report.notes {
        println!("{note}");
    }
    // CPU time taken by other tenants of a virtual host while this ran.
    println!(
        "host_steal_frac: {}",
        (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64
    );
    println!(
        "failed_ops_frac: {}",
        report.failed as f64 / report.attempted.max(1) as f64
    );
    // A metric that is not a number means the run measured nothing sound.
    let finite = report.metrics.iter().all(|m| m.1.is_finite());
    let correct = report.correct && finite;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
