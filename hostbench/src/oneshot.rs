//! Workloads that plan inside every op (`oneshot_cyclic`).
//!
//! Every op draws a new mask and new values, then makes one fresh
//! `Machine::run` that calls `plan_pack`, `plan_unpack` and both
//! `execute_into`. The op's time is the calling thread's span around that
//! `Machine::run`. Outside it, the outputs are gathered and compared with
//! `pack_seq`/`unpack_seq` on the op's global arrays.

use std::time::{Duration, Instant};

use hpf_core::{plan_pack, plan_unpack, CopyStats, PackOptions, PackOutput, UnpackOptions};
use hpf_distarray::{ArrayDesc, DimLayout};
use hpf_machine::{ClockReport, Machine};

use crate::host::{self, Sched, Steal};
use crate::probe::{self, Probes};
use crate::spec::{self, Inputs, Spec};
use crate::stats::{mean, mean_span_ms, median, ms, summarize, window, MIN_OPS};
use crate::{Cfg, LayerFigures, Report, Sim, MIN_TRACE_OPS, SIM_OPS};

/// Op numbers of warm-up ops, far from the timed ops' `0, 1, 2, ...`.
const WARMUP_OPS: u64 = 1 << 40;

/// The layout and the per-processor maps every op reuses.
struct Layout {
    desc: ArrayDesc,
    maps: Vec<Vec<usize>>,
}

/// One op's inputs: the global arrays and their per-processor parts.
struct OpIn {
    inputs: Inputs,
    m_loc: Vec<Vec<bool>>,
    a_loc: Vec<Vec<i32>>,
    f_loc: Vec<Vec<i32>>,
}

impl OpIn {
    fn draw(spec: &Spec, lay: &Layout, seed: u64, op: u64) -> OpIn {
        let inputs = Inputs::draw(spec, seed, op);
        OpIn {
            m_loc: spec::scatter(inputs.m.data(), &lay.maps),
            a_loc: spec::scatter(inputs.a.data(), &lay.maps),
            f_loc: spec::scatter(inputs.f.data(), &lay.maps),
            inputs,
        }
    }
}

/// What one processor reports from an op.
struct ProcOp {
    entry: Instant,
    planned_pack: Instant,
    planned_unpack: Instant,
    packed: Instant,
    exit: Instant,
    v: Vec<i32>,
    r: Vec<i32>,
    v_layout: DimLayout,
    /// Traced only.
    copy: CopyStats,
    /// Traced only: scheduler counters of this processor's body.
    sched: Sched,
}

/// Per-layer figures of one traced op.
struct Layers {
    machine_run_ms: f64,
    plan_pack_ms: f64,
    plan_unpack_ms: f64,
    exec_pack_ms: f64,
    exec_unpack_ms: f64,
    sched: Sched,
    copy: CopyStats,
    probes: Vec<Probes>,
}

/// One op's record on the calling thread.
struct OpRec {
    wall_ms: f64,
    /// Host CPU steal around the op's `Machine::run`.
    steal: Steal,
    ok: bool,
    selected: usize,
    sim: Sim,
    layers: Option<Layers>,
}

fn round_trip(machine: &Machine, spec: &Spec, lay: &Layout, op: &OpIn, traced: bool) -> OpRec {
    let popts = PackOptions::new(spec.pack);
    let uopts = UnpackOptions::new(spec.unpack);
    let desc = &lay.desc;
    let steal0 = Steal::mark();
    let t0 = Instant::now();
    let out = machine.run(|proc| -> Result<ProcOp, String> {
        let s0 = traced.then(Sched::now);
        let entry = Instant::now();
        let id = proc.id();
        let m = &op.m_loc[id];
        let pack = plan_pack(proc, desc, m, &popts).map_err(|e| e.to_string())?;
        let planned_pack = Instant::now();
        let v_layout = pack.v_layout().ok_or("the mask selects nothing")?;
        let unpack = plan_unpack(proc, desc, m, &v_layout, &uopts).map_err(|e| e.to_string())?;
        let planned_unpack = Instant::now();
        let mut pout = PackOutput {
            local_v: Vec::new(),
            size: 0,
            v_layout: None,
        };
        pack.execute_into(proc, &op.a_loc[id], &mut pout)
            .map_err(|e| e.to_string())?;
        let packed = Instant::now();
        let mut r = Vec::new();
        unpack
            .execute_into(proc, &op.f_loc[id], &pout.local_v, &mut r)
            .map_err(|e| e.to_string())?;
        let exit = Instant::now();
        let sched = s0.map_or_else(Sched::default, |s0| Sched::now().since(s0));
        let mut copy = CopyStats::default();
        if traced {
            copy.merge(&pack.copy_stats());
            copy.merge(&unpack.copy_stats());
        }
        Ok(ProcOp {
            entry,
            planned_pack,
            planned_unpack,
            packed,
            exit,
            v: pout.local_v,
            r,
            v_layout,
            copy,
            sched,
        })
    });
    let wall = t0.elapsed();
    let steal = Steal::since(steal0);
    let zero = vec![ClockReport::zero(); out.clocks.len()];
    let sim = Sim::between(&zero, &out.clocks);
    let selected = op.inputs.selected();
    let Ok(procs) = out
        .results
        .into_iter()
        .collect::<Result<Vec<ProcOp>, String>>()
    else {
        return OpRec {
            wall_ms: ms(wall),
            steal,
            ok: false,
            selected,
            sim,
            layers: None,
        };
    };
    let v: Vec<&[i32]> = procs.iter().map(|p| p.v.as_slice()).collect();
    let r: Vec<&[i32]> = procs.iter().map(|p| p.r.as_slice()).collect();
    let ok = spec::matches_oracle(&op.inputs, &procs[0].v_layout, &lay.maps, &v, &r);
    let layers = traced.then(|| {
        let mut sched = Sched::default();
        let mut copy = CopyStats::default();
        for p in &procs {
            sched.add(p.sched);
            copy.merge(&p.copy);
        }
        let in_body = window(procs.iter().map(|p| p.entry), procs.iter().map(|p| p.exit));
        Layers {
            machine_run_ms: ms(wall.saturating_sub(in_body)),
            plan_pack_ms: mean_span_ms(procs.iter().map(|p| (p.entry, p.planned_pack))),
            plan_unpack_ms: mean_span_ms(procs.iter().map(|p| (p.planned_pack, p.planned_unpack))),
            exec_pack_ms: mean_span_ms(procs.iter().map(|p| (p.planned_unpack, p.packed))),
            exec_unpack_ms: mean_span_ms(procs.iter().map(|p| (p.packed, p.exit))),
            sched,
            copy,
            probes: probes(machine, spec, lay, op, &out.comm_matrix),
        }
    });
    OpRec {
        wall_ms: ms(wall),
        steal,
        ok,
        selected,
        sim,
        layers,
    }
}

/// The layer probes on this op's mask, in a machine run of their own so
/// the op's window never contains them.
fn probes(
    machine: &Machine,
    spec: &Spec,
    lay: &Layout,
    op: &OpIn,
    comm: &[Vec<u64>],
) -> Vec<Probes> {
    let popts = PackOptions::new(spec.pack);
    machine
        .run(|proc| {
            let id = proc.id();
            probe::run(proc, &lay.desc, &op.m_loc[id], &popts, &comm[id], 1)
        })
        .results
}

/// Machine construction, the layout maps and the warm-up ops.
struct Setup {
    machine: Machine,
    lay: Layout,
    setup_s: f64,
    rss_setup_mb: f64,
    warmup: Vec<OpRec>,
}

fn setup(spec: &Spec, cfg: &Cfg) -> Setup {
    let t0 = Instant::now();
    let machine = spec.machine();
    let desc = spec.desc();
    let lay = Layout {
        maps: spec::local_maps(&desc),
        desc,
    };
    let warmup = (0..spec.warmup as u64)
        .map(|w| {
            let op = OpIn::draw(spec, &lay, cfg.seed, WARMUP_OPS + w);
            round_trip(&machine, spec, &lay, &op, false)
        })
        .collect();
    Setup {
        setup_s: t0.elapsed().as_secs_f64(),
        rss_setup_mb: host::rss_mb(),
        machine,
        lay,
        warmup,
    }
}

/// Timed ops `0, 1, 2, ...` until `seconds` have passed and at least
/// `min_ops` ran.
fn phase(
    spec: &Spec,
    cfg: &Cfg,
    s: &Setup,
    (seconds, min_ops): (f64, usize),
    traced: bool,
) -> Vec<OpRec> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut recs = Vec::new();
    while recs.len() < min_ops || start.elapsed() < budget {
        let op = OpIn::draw(spec, &s.lay, cfg.seed, recs.len() as u64);
        recs.push(round_trip(&s.machine, spec, &s.lay, &op, traced));
    }
    recs
}

/// Sum of the first `SIM_OPS` ops' simulated cost.
fn sim_window(recs: &[OpRec]) -> Sim {
    let mut s = Sim::default();
    for r in &recs[..SIM_OPS] {
        s.add(r.sim);
    }
    s
}

fn failures(recs: &[OpRec]) -> u64 {
    recs.iter().filter(|r| !r.ok).count() as u64
}

pub fn run(spec: &Spec, cfg: &Cfg) -> Report {
    if cfg.trace {
        traced_run(spec, cfg)
    } else {
        timed_run(spec, cfg)
    }
}

/// A `--trace 0` run: `setup_reps` sessions, each a set-up followed by an
/// equal share of the timed phase; the op figures pool every session's ops
/// and `setup_s` is the median set-up.
fn timed_run(spec: &Spec, cfg: &Cfg) -> Report {
    let reps = spec.setup_reps;
    let sessions: Vec<(Setup, Vec<OpRec>)> = (0..reps)
        .map(|_| {
            let s = setup(spec, cfg);
            let recs = phase(
                spec,
                cfg,
                &s,
                (cfg.seconds / reps as f64, MIN_OPS.div_ceil(reps)),
                false,
            );
            (s, recs)
        })
        .collect();
    // Every session ran the same warm-up ops and timed ops 0, 1, 2, ...
    let (first_setup, first_recs) = &sessions[0];
    let same = |a: &[OpRec], b: &[OpRec]| a.iter().zip(b).all(|(x, y)| x.sim.identical(&y.sim));
    let identical = sessions
        .iter()
        .all(|(s, r)| same(&s.warmup, &first_setup.warmup) && same(r, first_recs));
    let mut notes = Vec::new();
    if !identical {
        notes.push("sim_mismatch: sessions of one seed differ".to_string());
    }
    let recs: Vec<&OpRec> = sessions.iter().flat_map(|(_, r)| r).collect();
    let wall: Vec<f64> = recs.iter().map(|r| r.wall_ms).collect();
    let elements: Vec<f64> = recs.iter().map(|r| 2.0 * r.selected as f64).collect();
    let steal: Vec<Steal> = recs.iter().map(|r| r.steal).collect();
    let ops = summarize(&wall, &elements, &steal);
    let sim = sim_window(first_recs);
    notes.push(format!("sim_window: ops={SIM_OPS} {}", sim.describe()));
    notes.push(format!(
        "samples: timed_ops={} kept_ops={} sessions={reps}",
        recs.len(),
        ops.kept,
    ));
    let setups: Vec<f64> = sessions.iter().map(|(s, _)| s.setup_s).collect();
    let failed: u64 = sessions
        .iter()
        .map(|(s, r)| failures(&s.warmup) + failures(r))
        .sum();
    let attempted = sessions
        .iter()
        .map(|(s, r)| (s.warmup.len() + r.len()) as u64)
        .sum();
    Report {
        correct: identical && failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("op_ms_p50", ops.p50_ms, "ms"),
            ("op_ms_p90", ops.p90_ms, "ms"),
            ("elements_per_s", ops.elements_per_s, "1/s"),
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", host::peak_rss_mb(), "MB"),
            ("sim_ms_per_op", sim.ms / SIM_OPS as f64, "ms"),
        ],
        notes,
    }
}

fn traced_run(spec: &Spec, cfg: &Cfg) -> Report {
    let s = setup(spec, cfg);
    let half = cfg.seconds / 2.0;
    let plain = phase(spec, cfg, &s, (half, MIN_TRACE_OPS), false);
    let recs = phase(spec, cfg, &s, (half, MIN_TRACE_OPS), true);
    let mut notes = Vec::new();
    // Both passes ran ops 0, 1, 2, ... on the same inputs.
    let identical = plain
        .iter()
        .zip(&recs)
        .all(|(a, b)| a.sim.identical(&b.sim));
    if !identical {
        notes.push("sim_mismatch: traced and untraced ops differ".to_string());
    }
    let sim = sim_window(&recs);
    notes.push(format!("sim_window: ops={SIM_OPS} {}", sim.describe()));
    notes.push(format!(
        "samples: traced_ops={} untraced_ops={}",
        recs.len(),
        plain.len()
    ));

    let layers: Vec<&Layers> = recs.iter().filter_map(|r| r.layers.as_ref()).collect();
    let avg = |f: fn(&Layers) -> f64| mean(&layers.iter().map(|l| f(l)).collect::<Vec<_>>());
    let wall: Vec<f64> = recs.iter().map(|r| r.wall_ms).collect();
    // Probes ran once per op; each figure is the median over ops.
    let per_op_probe = |which: fn(&Probes) -> &Vec<(Instant, Instant)>| -> Vec<f64> {
        layers
            .iter()
            .map(|l| probe::rep_ms(&l.probes.iter().collect::<Vec<_>>(), which)[0])
            .collect()
    };
    let a2a = per_op_probe(|p| &p.a2a);
    let a2a_ns_per_word: Vec<f64> = layers
        .iter()
        .zip(&a2a)
        .map(|(l, t)| t * 1e6 / l.probes.iter().map(|p| p.a2a_words).sum::<u64>().max(1) as f64)
        .collect();
    let mut sched = Sched::default();
    let mut copy = CopyStats::default();
    for l in &layers {
        sched.add(l.sched);
        copy.merge(&l.copy);
    }
    let seq_roundtrip_ms = {
        let op = OpIn::draw(spec, &s.lay, cfg.seed, 0);
        median(
            &(0..3)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(op.inputs.oracle());
                    ms(t.elapsed())
                })
                .collect::<Vec<_>>(),
        )
    };
    let figures = LayerFigures {
        machine_run_ms: avg(|l| l.machine_run_ms),
        ranking_ms: median(&per_op_probe(|p| &p.ranking)),
        prs_ms: median(&per_op_probe(|p| &p.prs)),
        plan_pack_ms: avg(|l| l.plan_pack_ms),
        plan_unpack_ms: avg(|l| l.plan_unpack_ms),
        exec_pack_ms: avg(|l| l.exec_pack_ms),
        exec_unpack_ms: avg(|l| l.exec_unpack_ms),
        in_op_ms: avg(|l| {
            l.machine_run_ms + l.plan_pack_ms + l.plan_unpack_ms + l.exec_pack_ms + l.exec_unpack_ms
        }),
        op_mean_ms: mean(&wall),
        overhead_ratio: median(&wall)
            / median(&plain.iter().map(|r| r.wall_ms).collect::<Vec<_>>()),
        selected: mean(&recs.iter().map(|r| r.selected as f64).collect::<Vec<_>>()),
        copy,
        a2a_ms: median(&a2a),
        a2a_ns_per_word: median(&a2a_ns_per_word),
        nprocs: spec.nprocs() as f64,
        sched,
        // The counters cover each processor body, inside the op's run.
        sched_span_ms: wall.iter().sum(),
        ops: recs.len() as f64,
        sim,
        seq_roundtrip_ms,
        rss_setup_mb: s.rss_setup_mb,
    };
    let failed = failures(&s.warmup) + failures(&plain) + failures(&recs);
    Report {
        correct: identical && failed == 0,
        attempted: (s.warmup.len() + plain.len() + recs.len()) as u64,
        failed,
        metrics: figures.metrics(cfg.roof_gbps),
        notes,
    }
}
