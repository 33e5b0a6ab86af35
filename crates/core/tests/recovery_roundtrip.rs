//! Crash-recovery sweeps over planned PACK → UNPACK roundtrips: for every
//! send step k (and every receive step k) at which a processor can crash,
//! the recovered run must be bit-exact — same results, same simulated
//! clocks — as the fault-free run, for every storage scheme. One sweep
//! plans and executes once per epoch; the other executes cached plans
//! several times per epoch across several epochs, so recovered runs reuse
//! pooled send buffers exactly as fault-free ones do.

use std::fmt::Debug;

use hpf_core::{
    plan_pack, plan_unpack, MaskPattern, PackOptions, PackOutput, PackPlan, PackScheme,
    UnpackOptions, UnpackPlan, UnpackScheme,
};
use hpf_distarray::{local_from_fn, ArrayDesc, DimLayout, Dist};
use hpf_machine::{
    Category, CostModel, EventKind, FaultPlan, Machine, MemAccount, Proc, ProcGrid, RunOutput,
};

const P: usize = 4;

/// Checkpointed state threaded through the two epochs: the packed vector,
/// its replicated size/layout, and the unpacked result.
type St = (Vec<i32>, usize, Option<DimLayout>, Vec<i32>);

fn data_at(gidx: &[usize], salt: i32) -> i32 {
    gidx.iter()
        .fold(salt, |acc, &x| acc.wrapping_mul(31).wrapping_add(x as i32))
}

/// Epoch 0 packs a masked array; epoch 1 unpacks it back over a fresh
/// field. A crash in epoch 0 exercises the from-scratch resume (no
/// checkpoint exists yet); a crash in epoch 1 exercises snapshot restore
/// plus replay.
fn roundtrip(
    pack_opts: PackOptions,
    unpack_opts: UnpackOptions,
) -> impl Fn(&mut Proc) -> (Vec<i32>, Vec<i32>) + Sync {
    move |proc: &mut Proc| {
        let grid = ProcGrid::line(P);
        let desc = ArrayDesc::new(&[24], &grid, &[Dist::BlockCyclic(2)]).unwrap();
        let pattern = MaskPattern::Random {
            density: 0.55,
            seed: 9,
        };
        let mut st: St = (Vec::new(), 0, None, Vec::new());
        proc.epoch(&mut st, |proc, st| {
            let m = pattern.local(&desc, proc.id());
            let a = local_from_fn(&desc, proc.id(), |g| data_at(g, 17));
            let plan = plan_pack(proc, &desc, &m, &pack_opts).unwrap();
            let out = plan.execute(proc, &a).unwrap();
            st.0 = out.local_v;
            st.1 = out.size;
            st.2 = out.v_layout;
        });
        proc.epoch(&mut st, |proc, st| {
            let vl = st.2.expect("mask selects elements");
            let m = pattern.local(&desc, proc.id());
            let f = local_from_fn(&desc, proc.id(), |g| data_at(g, -5));
            let plan = plan_unpack(proc, &desc, &m, &vl, &unpack_opts).unwrap();
            st.3 = plan.execute(proc, &f, &st.0).unwrap();
        });
        (st.0.clone(), st.3.clone())
    }
}

fn machine(faults: FaultPlan) -> Machine {
    Machine::new(ProcGrid::line(P), CostModel::cm5()).with_faults(faults)
}

fn assert_bit_exact<R: PartialEq + Debug>(
    clean: &RunOutput<R>,
    crashed: &RunOutput<R>,
    what: &str,
) {
    assert_eq!(clean.results, crashed.results, "{what}: results diverged");
    for (ca, cb) in clean.clocks.iter().zip(&crashed.clocks) {
        assert_eq!(ca.now_ms(), cb.now_ms(), "{what}: final clock diverged");
        for cat in Category::ALL {
            assert_eq!(ca.cat_ms(cat), cb.cat_ms(cat), "{what}: {cat:?} diverged");
        }
        assert_eq!(ca.ops, cb.ops, "{what}: ops diverged");
        assert_eq!(ca.words_sent, cb.words_sent, "{what}: words diverged");
    }
}

/// Sweep the crash over every send step and every receive step of one
/// victim until the schedule stops firing; each recovered run must match
/// the fault-free run bit-exactly.
fn sweep<R: PartialEq + Debug + Send>(program: impl Fn(&mut Proc) -> R + Sync) {
    let clean = machine(FaultPlan::new(0))
        .run_recoverable(&program)
        .expect("fault-free run");
    let victim = 1usize;
    for recv_side in [false, true] {
        let mut fired = 0u64;
        for k in 1u64..500 {
            let plan = if recv_side {
                FaultPlan::new(0).with_crash_at_recv(victim, k)
            } else {
                FaultPlan::new(0).with_crash(victim, k)
            };
            let crashed = machine(plan)
                .run_recoverable(&program)
                .unwrap_or_else(|e| panic!("step {k} (recv={recv_side}) unrecovered: {e}"));
            let rec = crashed.recovery.as_ref().unwrap();
            if rec.replays == 0 {
                // Past the last send/receive step — the sweep is complete.
                assert!(fired > 0, "crash schedule never fired");
                break;
            }
            fired += 1;
            assert_eq!(rec.replays, 1, "step {k}: one crash, one recovery");
            assert_bit_exact(&clean, &crashed, &format!("step {k} recv={recv_side}"));
        }
        assert!(fired < 499, "sweep did not terminate");
    }
}

fn options(pack: PackScheme, unpack: UnpackScheme) -> (PackOptions, UnpackOptions) {
    (PackOptions::new(pack), UnpackOptions::new(unpack))
}

#[test]
fn simple_pack_simple_unpack_survive_any_crash_step() {
    let (po, uo) = options(PackScheme::Simple, UnpackScheme::Simple);
    sweep(roundtrip(po, uo));
}

#[test]
fn compact_storage_roundtrip_survives_any_crash_step() {
    let (po, uo) = options(PackScheme::CompactStorage, UnpackScheme::CompactStorage);
    sweep(roundtrip(po, uo));
}

#[test]
fn compact_message_pack_survives_any_crash_step() {
    let (po, uo) = options(PackScheme::CompactMessage, UnpackScheme::CompactStorage);
    sweep(roundtrip(po, uo));
}

/// Executes of each cached plan per epoch: one more than the two slots a
/// pool entry starts with, so slots pinned for replay force growth within
/// an epoch, and a respawned sender whose re-sends deduplication drops
/// reaches its orphaned slots again.
const EXECS: usize = 3;

/// Checkpointed state of the cached-plan program: both plans, built once,
/// and every execute's output in order.
#[derive(Clone)]
struct Cached {
    pack: Option<PackPlan>,
    unpack: Option<UnpackPlan>,
    out: Vec<i32>,
}

/// Epoch 0 plans one PACK and one UNPACK; each of the next `epochs` epochs
/// executes both plans [`EXECS`] times over fresh values. Every execute
/// sends different data through the same pool entries, so a replay that
/// decoded a slot the sender had since refilled would change the result.
/// Crashes land before and after decodes, on senders and on receivers, in
/// every epoch, so pins span executes and replays span slot reuse.
fn cached_roundtrip(
    pack_opts: PackOptions,
    unpack_opts: UnpackOptions,
    epochs: usize,
) -> impl Fn(&mut Proc) -> Vec<i32> + Sync {
    move |proc: &mut Proc| {
        let grid = ProcGrid::line(P);
        let desc = ArrayDesc::new(&[24], &grid, &[Dist::BlockCyclic(2)]).unwrap();
        let m = MaskPattern::Random {
            density: 0.55,
            seed: 9,
        }
        .local(&desc, proc.id());
        let mut st = Cached {
            pack: None,
            unpack: None,
            out: Vec::new(),
        };
        proc.epoch(&mut st, |proc, st| {
            let pack = plan_pack(proc, &desc, &m, &pack_opts).unwrap();
            let vl = pack.v_layout().expect("mask selects elements");
            st.unpack = Some(plan_unpack(proc, &desc, &m, &vl, &unpack_opts).unwrap());
            st.pack = Some(pack);
        });
        for e in 0..epochs {
            proc.epoch(&mut st, |proc, st| {
                let (pack, unpack) = (st.pack.as_ref().unwrap(), st.unpack.as_ref().unwrap());
                let mut v = PackOutput {
                    local_v: Vec::new(),
                    size: 0,
                    v_layout: None,
                };
                let mut u = Vec::new();
                for i in 0..EXECS {
                    let salt = (e * EXECS + i) as i32;
                    let a = local_from_fn(&desc, proc.id(), |g| data_at(g, salt));
                    pack.execute_into(proc, &a, &mut v).unwrap();
                    let f = local_from_fn(&desc, proc.id(), |g| data_at(g, -salt));
                    unpack.execute_into(proc, &f, &v.local_v, &mut u).unwrap();
                    st.out.extend(&v.local_v);
                    st.out.extend(&u);
                }
            });
        }
        st.out
    }
}

fn cached_sweep(pack: PackScheme, unpack: UnpackScheme) {
    let (po, uo) = options(pack, unpack);
    sweep(cached_roundtrip(po, uo, 3));
}

#[test]
fn cached_simple_plans_survive_any_crash_step() {
    cached_sweep(PackScheme::Simple, UnpackScheme::Simple);
}

#[test]
fn cached_compact_storage_plans_survive_any_crash_step() {
    cached_sweep(PackScheme::CompactStorage, UnpackScheme::CompactStorage);
}

#[test]
fn cached_compact_message_plans_survive_any_crash_step() {
    cached_sweep(PackScheme::CompactMessage, UnpackScheme::CompactStorage);
}

/// One processor's `pool` memory account: gauge `(last, max)` and the
/// traced `(ts_ns, delta_bytes)` samples.
type PoolAccount = ((u64, u64), Vec<(f64, i64)>);

/// Per processor: the `pool` memory account's gauge and its trace samples.
fn pool_accounting<R>(out: &RunOutput<R>) -> Vec<PoolAccount> {
    out.metrics
        .iter()
        .zip(&out.events)
        .map(|(m, ev)| {
            let g = m.gauges[MemAccount::Pool.gauge_name()];
            let samples = ev
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::MemSample {
                        account: MemAccount::Pool,
                        delta_bytes,
                        ..
                    } => Some((e.ts_ns, delta_bytes)),
                    _ => None,
                })
                .collect();
            ((g.last, g.max), samples)
        })
        .collect()
}

/// Slot growth and respawns are host-side events: a recovered run charges
/// the `pool` memory account exactly as the fault-free recoverable run does
/// — same gauge, same traced samples — although the respawned processor
/// sends from fresh slots and grows its entries again.
#[test]
fn recovered_run_reports_the_fault_free_pool_gauge() {
    let (po, uo) = options(PackScheme::CompactMessage, UnpackScheme::Simple);
    let program = cached_roundtrip(po, uo, 3);
    let traced = |faults| machine(faults).with_tracing(true).with_metrics(true);
    let clean = traced(FaultPlan::new(0))
        .run_recoverable(&program)
        .expect("fault-free run");
    let want = pool_accounting(&clean);
    assert!(
        want.iter().all(|((_, max), _)| *max > 0),
        "pool account unused"
    );
    for (k, recv_side) in [(2, false), (9, false), (30, false), (4, true), (25, true)] {
        let plan = if recv_side {
            FaultPlan::new(0).with_crash_at_recv(1, k)
        } else {
            FaultPlan::new(0).with_crash(1, k)
        };
        let crashed = traced(plan).run_recoverable(&program).expect("recovered");
        assert_eq!(crashed.recovery.as_ref().unwrap().replays, 1, "step {k}");
        assert_bit_exact(&clean, &crashed, &format!("step {k} recv={recv_side}"));
        assert_eq!(pool_accounting(&crashed), want, "step {k} recv={recv_side}");
    }
}

/// Replay-safe reuse grows an entry only while every slot is pinned: with
/// three executes per epoch each entry grows one slot in the first
/// executing epoch, and the release of pins at every boundary keeps later
/// epochs on that fixed set.
#[test]
fn pool_growth_stops_after_the_first_epoch() {
    let grown = |epochs| {
        let (po, uo) = options(PackScheme::Simple, UnpackScheme::CompactStorage);
        machine(FaultPlan::new(0))
            .with_metrics(true)
            .run_recoverable(cached_roundtrip(po, uo, epochs))
            .expect("fault-free run")
            .merged_metrics()
            .counter("pool.slots_grown")
    };
    let warm = grown(1);
    assert!(warm > 0, "three executes per epoch must outgrow two slots");
    assert_eq!(grown(4), warm, "growth continued past the warm-up epoch");
}
