//! Workloads whose plans are built once in set-up (`steady_block`,
//! `many_procs`).
//!
//! One `Machine::run` holds a whole session: planning, warm-up ops, then
//! the timed ops. An op is `PackPlan::execute_into` followed by
//! `UnpackPlan::execute_into` on the packed vector. Op `j` packs
//! `A + key(j)` and unpacks into `F + key(j)`, so its oracle result is the
//! oracle result for the base arrays plus `key(j)`: every op is checked
//! against `pack_seq`/`unpack_seq` without re-running them per op, and the
//! last op is also checked directly against fresh `pack_seq`/`unpack_seq`
//! calls on its actual inputs.

use std::time::{Duration, Instant};

use hpf_core::{
    plan_pack, plan_unpack, CopyStats, PackOptions, PackOutput, PackPlan, UnpackOptions, UnpackPlan,
};
use hpf_distarray::{ArrayDesc, DimLayout, GlobalArray};
use hpf_machine::{ClockReport, Proc};

use crate::host::{self, Sched, Steal};
use crate::probe::{self, Probes};
use crate::spec::{self, Inputs, Spec};
use crate::stats::{mean, mean_span_ms, median, ms, summarize, window, MIN_OPS};
use crate::sync::gate;
use crate::{Cfg, LayerFigures, Report, Sim, MIN_TRACE_OPS, PROBE_REPS, SIM_OPS};

/// A session's timed phase: ops until `seconds` have passed and at least
/// `min_ops` ran.
#[derive(Clone, Copy)]
struct Phase {
    seconds: f64,
    min_ops: usize,
    traced: bool,
}

/// Read-only inputs shared by every processor of a session.
struct Ctx<'a> {
    spec: &'a Spec,
    seed: u64,
    desc: ArrayDesc,
    m_loc: Vec<Vec<bool>>,
    a_loc: Vec<Vec<i32>>,
    f_loc: Vec<Vec<i32>>,
    /// Oracle result `R` for the base arrays, per processor.
    r_loc: Vec<Vec<i32>>,
    /// Oracle result `V` for the base arrays, global.
    v_base: Vec<i32>,
}

#[derive(Clone, Copy)]
struct OpTimes {
    start: Instant,
    /// Between the PACK and the UNPACK execute.
    mid: Instant,
    end: Instant,
}

/// What one processor reports from a session.
struct ProcOut {
    entry: Instant,
    setup_end: Instant,
    exit: Instant,
    plan_pack: (Instant, Instant),
    plan_unpack: (Instant, Instant),
    setup_clock: ClockReport,
    copy: CopyStats,
    v_layout: DimLayout,
    /// Per op, warm-up included: did the op fail or mismatch the oracle?
    failed: Vec<bool>,
    timed: Vec<OpTimes>,
    /// Processor 0 only: host CPU steal around each timed op.
    steal: Vec<Steal>,
    sim_start: Option<ClockReport>,
    sim_end: Option<ClockReport>,
    /// Traced only: scheduler counters from just before the gate that
    /// starts each op to just after the gate that ends it.
    sched: Sched,
    /// Processor 0 only: RSS at the end of set-up.
    rss_setup_mb: f64,
    /// The last op's local `V` and `R`, and its key.
    last: Option<(Vec<i32>, Vec<i32>, i32)>,
    probes: Probes,
}

/// The per-processor round-trip state: plans, buffers, and current values.
struct RoundTrip<'a> {
    pack: PackPlan,
    unpack: UnpackPlan,
    a: Vec<i32>,
    f: Vec<i32>,
    v_exp: Vec<i32>,
    r_exp: &'a [i32],
    pout: PackOutput<i32>,
    r: Vec<i32>,
    seed: u64,
    j: u64,
    key: i32,
}

impl RoundTrip<'_> {
    fn run(&mut self, proc: &mut Proc) -> (OpTimes, bool) {
        let start = Instant::now();
        let packed = self
            .pack
            .execute_into(proc, &self.a, &mut self.pout)
            .is_ok();
        let mid = Instant::now();
        let unpacked = packed
            && self
                .unpack
                .execute_into(proc, &self.f, &self.pout.local_v, &mut self.r)
                .is_ok();
        let end = Instant::now();
        (OpTimes { start, mid, end }, unpacked)
    }

    /// Check the op against the oracle, then move the inputs on to the next
    /// op's values. Returns whether the op passed.
    fn check_and_advance(&mut self, ran: bool) -> bool {
        let ok = ran
            && spec::matches_offset(&self.pout.local_v, &self.v_exp, self.key)
            && spec::matches_offset(&self.r, self.r_exp, self.key);
        self.j += 1;
        let next = spec::key(self.seed, self.j);
        let d = next.wrapping_sub(self.key);
        for x in self.a.iter_mut().chain(self.f.iter_mut()) {
            *x = x.wrapping_add(d);
        }
        self.key = next;
        ok
    }
}

fn body(proc: &mut Proc, ctx: &Ctx, phase: Phase) -> ProcOut {
    let entry = Instant::now();
    let id = proc.id();
    let m = &ctx.m_loc[id];
    let popts = PackOptions::new(ctx.spec.pack);
    let uopts = UnpackOptions::new(ctx.spec.unpack);
    let p0 = Instant::now();
    let pack = plan_pack(proc, &ctx.desc, m, &popts).expect("pack planning");
    let p1 = Instant::now();
    let vl = pack.v_layout().expect("the workload masks select elements");
    let unpack = plan_unpack(proc, &ctx.desc, m, &vl, &uopts).expect("unpack planning");
    let p2 = Instant::now();
    let mut copy = pack.copy_stats();
    copy.merge(&unpack.copy_stats());

    let key0 = spec::key(ctx.seed, 0);
    let mut rt = RoundTrip {
        pack,
        unpack,
        a: ctx.a_loc[id].iter().map(|x| x.wrapping_add(key0)).collect(),
        f: ctx.f_loc[id].iter().map(|x| x.wrapping_add(key0)).collect(),
        v_exp: (0..vl.local_len(id))
            .map(|l| ctx.v_base[vl.global_of(id, l)])
            .collect(),
        r_exp: &ctx.r_loc[id],
        pout: PackOutput {
            local_v: Vec::new(),
            size: 0,
            v_layout: None,
        },
        r: Vec::new(),
        seed: ctx.seed,
        j: 0,
        key: key0,
    };

    let mut failed = Vec::new();
    for _ in 0..ctx.spec.warmup {
        gate(proc, true);
        let (_, ran) = rt.run(proc);
        gate(proc, true);
        failed.push(!rt.check_and_advance(ran));
    }
    gate(proc, true);
    let setup_end = Instant::now();
    let setup_clock = proc.clock_ref().report();
    let rss_setup_mb = if id == 0 { host::rss_mb() } else { 0.0 };

    let mut out = ProcOut {
        entry,
        setup_end,
        exit: setup_end,
        plan_pack: (p0, p1),
        plan_unpack: (p1, p2),
        setup_clock,
        copy,
        v_layout: vl,
        failed,
        timed: Vec::new(),
        steal: Vec::new(),
        sim_start: None,
        sim_end: None,
        sched: Sched::default(),
        rss_setup_mb,
        last: None,
        probes: Probes::default(),
    };
    let Phase {
        seconds,
        min_ops,
        traced,
    } = phase;

    let phase_start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut words_to = Vec::new();
    let mut last_key = None;
    loop {
        let n = out.timed.len();
        let more = n < min_ops || phase_start.elapsed() < budget;
        // Read the host counters only while no op is in flight.
        let s0 = traced.then(Sched::now);
        let steal0 = (id == 0).then(Steal::mark);
        if !gate(proc, more) {
            break;
        }
        if n == 0 {
            out.sim_start = Some(proc.clock_ref().report());
            words_to = proc.words_sent_to().to_vec();
        }
        let (t, ran) = rt.run(proc);
        if n == 0 {
            for (w, now) in words_to.iter_mut().zip(proc.words_sent_to()) {
                *w = now - *w;
            }
        }
        if n + 1 == SIM_OPS {
            out.sim_end = Some(proc.clock_ref().report());
        }
        gate(proc, true);
        if let Some(steal0) = steal0 {
            out.steal.push(Steal::since(steal0));
        }
        if let Some(s0) = s0 {
            out.sched.add(Sched::now().since(s0));
        }
        last_key = Some(rt.key);
        out.failed.push(!rt.check_and_advance(ran));
        out.timed.push(t);
    }
    out.last = last_key.map(|key| (rt.pout.local_v.clone(), rt.r.clone(), key));
    if traced {
        out.probes = probe::run(proc, &ctx.desc, m, &popts, &words_to, PROBE_REPS);
    }
    out.exit = Instant::now();
    out
}

/// One session's record on the calling thread.
struct Session {
    setup_s: f64,
    /// Span around `Machine::run` on the calling thread, minus the in-body window.
    machine_run_ms: f64,
    procs: Vec<ProcOut>,
    attempted: u64,
    failed: u64,
    selected: usize,
    seq_roundtrip_ms: f64,
}

impl Session {
    fn setup_sig(&self) -> Sim {
        let zero = vec![ClockReport::zero(); self.procs.len()];
        let end: Vec<ClockReport> = self.procs.iter().map(|p| p.setup_clock).collect();
        Sim::between(&zero, &end)
    }

    fn sim(&self) -> Option<Sim> {
        let start: Option<Vec<_>> = self.procs.iter().map(|p| p.sim_start).collect();
        let end: Option<Vec<_>> = self.procs.iter().map(|p| p.sim_end).collect();
        Some(Sim::between(&start?, &end?))
    }

    fn ops(&self) -> usize {
        self.procs[0].timed.len()
    }

    /// Per timed op, its wall-time window in ms.
    fn op_ms(&self) -> Vec<f64> {
        (0..self.ops())
            .map(|k| {
                ms(window(
                    self.procs.iter().map(|p| p.timed[k].start),
                    self.procs.iter().map(|p| p.timed[k].end),
                ))
            })
            .collect()
    }
}

fn session(spec: &Spec, cfg: &Cfg, phase: Phase) -> Session {
    let t0 = Instant::now();
    let desc = spec.desc();
    let maps = spec::local_maps(&desc);
    let inputs = Inputs::draw(spec, cfg.seed, 0);
    let (v_base, r_base) = inputs.oracle();
    let ctx = Ctx {
        spec,
        seed: cfg.seed,
        m_loc: spec::scatter(inputs.m.data(), &maps),
        a_loc: spec::scatter(inputs.a.data(), &maps),
        f_loc: spec::scatter(inputs.f.data(), &maps),
        r_loc: spec::scatter(&r_base, &maps),
        v_base,
        desc,
    };
    let machine = spec.machine();
    let run_t0 = Instant::now();
    let out = machine.run(|proc| body(proc, &ctx, phase));
    let run_span = run_t0.elapsed();
    let procs = out.results;
    let setup_s = procs
        .iter()
        .map(|p| p.setup_end)
        .max()
        .expect("processors")
        .duration_since(t0)
        .as_secs_f64();
    let in_body = window(procs.iter().map(|p| p.entry), procs.iter().map(|p| p.exit));

    // An op failed if it failed on any processor.
    let n_ops = procs[0].failed.len();
    let mut failed = (0..n_ops)
        .filter(|&j| procs.iter().any(|p| p.failed[j]))
        .count() as u64;
    // The last op once more, against the oracle run on its actual inputs.
    if let Some((_, _, key)) = procs[0].last {
        let last = Inputs {
            m: inputs.m.clone(),
            a: offset(&inputs.a, key),
            f: offset(&inputs.f, key),
        };
        let outs: Vec<_> = procs
            .iter()
            .map(|p| p.last.as_ref().expect("every processor ran the op"))
            .collect();
        let v: Vec<&[i32]> = outs.iter().map(|o| o.0.as_slice()).collect();
        let r: Vec<&[i32]> = outs.iter().map(|o| o.1.as_slice()).collect();
        let last_ok = spec::matches_oracle(&last, &procs[0].v_layout, &maps, &v, &r);
        let already = procs.iter().any(|p| *p.failed.last().expect("ops ran"));
        if !last_ok && !already {
            failed += 1;
        }
    }

    let seq_roundtrip_ms = if phase.traced {
        median(
            &(0..3)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(inputs.oracle());
                    ms(t.elapsed())
                })
                .collect::<Vec<_>>(),
        )
    } else {
        0.0
    };

    Session {
        setup_s,
        machine_run_ms: ms(run_span.saturating_sub(in_body)),
        attempted: n_ops as u64,
        failed,
        selected: inputs.selected(),
        seq_roundtrip_ms,
        procs,
    }
}

fn offset(a: &GlobalArray<i32>, key: i32) -> GlobalArray<i32> {
    let data = a.data().iter().map(|x| x.wrapping_add(key)).collect();
    GlobalArray::from_vec(a.shape(), data)
}

pub fn run(spec: &Spec, cfg: &Cfg) -> Report {
    if cfg.trace {
        traced_run(spec, cfg)
    } else {
        timed_run(spec, cfg)
    }
}

/// A `--trace 0` run: `setup_reps` sessions, each a set-up followed by an
/// equal share of the timed phase. The op figures pool the ops of every
/// session, so no one session's thread placement or memory layout decides
/// them; `setup_s` is the median set-up.
fn timed_run(spec: &Spec, cfg: &Cfg) -> Report {
    let reps = spec.setup_reps;
    let phase = Phase {
        seconds: cfg.seconds / reps as f64,
        min_ops: MIN_OPS.div_ceil(reps),
        traced: false,
    };
    let sessions: Vec<Session> = (0..reps).map(|_| session(spec, cfg, phase)).collect();
    let first = &sessions[0];
    let mut notes = Vec::new();
    let sim = first
        .sim()
        .expect("the timed phase covers the simulated window");
    let identical = sessions.iter().all(|s| {
        s.setup_sig().identical(&first.setup_sig()) && s.sim().is_some_and(|x| x.identical(&sim))
    });
    if !identical {
        notes.push("sim_mismatch: sessions of one seed differ".to_string());
    }
    let mut op_ms = Vec::new();
    let mut steal = Vec::new();
    for s in &sessions {
        op_ms.extend(s.op_ms());
        steal.extend_from_slice(&s.procs[0].steal);
    }
    let ops = summarize(
        &op_ms,
        &vec![2.0 * first.selected as f64; op_ms.len()],
        &steal,
    );
    let setups: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    notes.push(format!("sim_window: ops={SIM_OPS} {}", sim.describe()));
    notes.push(format!(
        "samples: timed_ops={} kept_ops={} sessions={reps}",
        op_ms.len(),
        ops.kept,
    ));
    let failed = sessions.iter().map(|s| s.failed).sum();
    Report {
        correct: identical && failed == 0,
        attempted: sessions.iter().map(|s| s.attempted).sum(),
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
    let half = cfg.seconds / 2.0;
    let plain = session(
        spec,
        cfg,
        Phase {
            seconds: half,
            min_ops: MIN_TRACE_OPS,
            traced: false,
        },
    );
    let s = session(
        spec,
        cfg,
        Phase {
            seconds: half,
            min_ops: MIN_TRACE_OPS,
            traced: true,
        },
    );
    let mut notes = Vec::new();
    let sim = s
        .sim()
        .expect("the timed phase covers the simulated window");
    let plain_sim = plain
        .sim()
        .expect("the timed phase covers the simulated window");
    let identical = sim.identical(&plain_sim) && s.setup_sig().identical(&plain.setup_sig());
    if !identical {
        notes.push(format!(
            "sim_mismatch: traced {} vs untraced {}",
            sim.describe(),
            plain_sim.describe()
        ));
    }
    notes.push(format!("sim_window: ops={SIM_OPS} {}", sim.describe()));

    let p = &s.procs;
    let n = s.ops();
    let op_ms = s.op_ms();
    let exec = |from: fn(&OpTimes) -> Instant, to: fn(&OpTimes) -> Instant| {
        mean(
            &(0..n)
                .map(|k| mean_span_ms(p.iter().map(|q| (from(&q.timed[k]), to(&q.timed[k])))))
                .collect::<Vec<_>>(),
        )
    };
    let exec_pack_ms = exec(|t| t.start, |t| t.mid);
    let exec_unpack_ms = exec(|t| t.mid, |t| t.end);
    let (ranking_ms, prs_ms, a2a_ms) =
        probe::summary(&p.iter().map(|q| &q.probes).collect::<Vec<_>>());
    let a2a_words: u64 = p.iter().map(|q| q.probes.a2a_words).sum();
    let mut sched = Sched::default();
    let mut copy = CopyStats::default();
    for q in p {
        sched.add(q.sched);
        copy.merge(&q.copy);
    }
    let figures = LayerFigures {
        machine_run_ms: s.machine_run_ms,
        ranking_ms,
        prs_ms,
        plan_pack_ms: mean_span_ms(p.iter().map(|q| q.plan_pack)),
        plan_unpack_ms: mean_span_ms(p.iter().map(|q| q.plan_unpack)),
        exec_pack_ms,
        exec_unpack_ms,
        // Planning and the machine start-up happen in set-up, outside ops.
        in_op_ms: exec_pack_ms + exec_unpack_ms,
        op_mean_ms: mean(&op_ms),
        overhead_ratio: median(&op_ms) / median(&plain.op_ms()),
        selected: s.selected as f64,
        copy,
        a2a_ms,
        a2a_ns_per_word: a2a_ms * 1e6 / a2a_words.max(1) as f64,
        nprocs: p.len() as f64,
        sched,
        // The counters cover each op with its two gates.
        sched_span_ms: p[0].steal.iter().map(|s| ms(s.span)).sum(),
        ops: n as f64,
        sim,
        seq_roundtrip_ms: s.seq_roundtrip_ms,
        rss_setup_mb: p[0].rss_setup_mb,
    };
    notes.push(format!(
        "samples: traced_ops={n} untraced_ops={}",
        plain.ops()
    ));
    let failed = plain.failed + s.failed;
    Report {
        correct: identical && failed == 0,
        attempted: plain.attempted + s.attempted,
        failed,
        metrics: figures.metrics(cfg.roof_gbps),
        notes,
    }
}
