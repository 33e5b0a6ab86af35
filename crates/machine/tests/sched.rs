//! Scheduler determinism: the cooperative worker pool must be an invisible
//! implementation detail. For any pool size — one permit, a few, or one
//! per core — the same program must produce bit-identical results,
//! simulated clocks, event streams, and metrics, because execution order
//! is drawn from the deterministic ready-queue (simulated time, proc id),
//! never from OS scheduling (DESIGN.md §15).
//!
//! Wall-clock observables (retransmit counts under faults, `alloc.*`
//! counters past the ring capacity, gauge *maxima* like `mailbox.depth`)
//! legitimately vary with the interleaving, so the comparisons below are
//! over the schedule-invariant set: per-processor event streams
//! canonicalized by (timestamp, kind) and metric snapshots filtered to
//! counters (minus `alloc.*`), gauge last-values (minus `mailbox.depth`
//! and `mem.payload.cur`, whose final value depends on when the last
//! Arc-shared packet copy drops at teardown), and histograms.

use std::sync::Mutex;
use std::thread::sleep;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use hpf_machine::collectives::{
    allreduce_sum, alltoallv, prefix_reduction_sum, A2aSchedule, PrsAlgorithm,
};
use hpf_machine::{
    tags, Category, CostModel, FaultPlan, Machine, MachineError, PoolSlot, Proc, ProcGrid,
    RunOutput,
};

/// Mixed workload touching every park point: ring traffic (frame receive),
/// collectives (clock-sync barriers), pooled sends (buffer-pool
/// back-pressure), plus staged local work so event streams are nontrivial.
fn mixed_workload(p: &mut Proc) -> Vec<i64> {
    let n = p.nprocs();
    let next = (p.id() + 1) % n;
    let prev = (p.id() + n - 1) % n;
    let mut acc: Vec<i64> = vec![p.id() as i64 + 1];
    for round in 0..3u64 {
        p.with_stage("test.ring", |p| {
            p.send(next, tags::USER + round, acc.clone());
            let got: Vec<i64> = p.recv(prev, tags::USER + round);
            acc.extend(got);
            acc.push(acc.iter().sum());
        });
        p.with_category(Category::LocalComp, |p| p.charge_ops(25));
    }
    let g = p.world();
    let total = allreduce_sum(p, &g, &[acc.len() as i64], PrsAlgorithm::Auto);
    acc.push(total[0]);
    // One pooled round-trip per ring neighbor: checkout, stash, send, and
    // decode the inbound slot back to its owner.
    let key = hpf_machine::fresh_pool_key();
    let (slot, mut buf) = p.pool_checkout::<Vec<i64>>(key, next);
    buf.push(acc[0]);
    slot.stash(buf);
    p.send_pooled::<Vec<i64>>(next, tags::USER + 10, key);
    let pkt = p.recv_packet(prev, tags::USER + 10);
    let inbound = pkt
        .data
        .downcast::<PoolSlot<Vec<i64>>>()
        .expect("pooled send delivers the slot");
    acc.push(inbound.decode(|got| got[0]));
    acc
}

fn machine(p: usize, workers: usize) -> Machine {
    Machine::new(ProcGrid::line(p), CostModel::cm5())
        .with_test_preset()
        .with_tracing(true)
        .with_metrics(true)
        .with_workers(workers)
}

fn assert_clocks_identical<R>(a: &RunOutput<R>, b: &RunOutput<R>, what: &str) {
    for (ca, cb) in a.clocks.iter().zip(&b.clocks) {
        assert_eq!(ca.now_ms(), cb.now_ms(), "{what}: final clock differs");
        for cat in Category::ALL {
            assert_eq!(ca.cat_ms(cat), cb.cat_ms(cat), "{what}: {cat:?} differs");
        }
        assert_eq!(ca.ops, cb.ops, "{what}: ops differ");
        assert_eq!(ca.words_sent, cb.words_sent, "{what}: words differ");
        assert_eq!(ca.startups, cb.startups, "{what}: startups differ");
    }
    assert_eq!(a.comm_matrix, b.comm_matrix, "{what}: comm matrix differs");
}

/// Per-processor event streams, canonicalized: record order within one log
/// can vary with the interleaving (a receive is logged at dispatch, which
/// may happen inside another call's pump loop), but the *set* of
/// (timestamp, event) pairs per processor is schedule-invariant.
fn canonical_events<R>(out: &RunOutput<R>) -> Vec<Vec<(u64, String)>> {
    out.events
        .iter()
        .map(|evs| {
            let mut v: Vec<(u64, String)> = evs
                .iter()
                .map(|e| (e.ts_ns.to_bits(), format!("{:?}", e.kind)))
                .collect();
            v.sort();
            v
        })
        .collect()
}

/// The schedule-invariant slice of each processor's metrics.
#[allow(clippy::type_complexity)]
fn canonical_metrics<R>(
    out: &RunOutput<R>,
) -> Vec<(Vec<(String, u64)>, Vec<(String, u64)>, String)> {
    out.metrics
        .iter()
        .map(|m| {
            let counters: Vec<(String, u64)> = m
                .counters
                .iter()
                .filter(|(k, _)| !k.starts_with("alloc."))
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            let gauges: Vec<(String, u64)> = m
                .gauges
                .iter()
                .filter(|(k, _)| k.as_str() != "mailbox.depth" && k.as_str() != "mem.payload.cur")
                .map(|(k, v)| (k.clone(), v.last))
                .collect();
            (counters, gauges, format!("{:?}", m.histograms))
        })
        .collect()
}

/// The tentpole acceptance check: one permit, a few, and
/// available-parallelism pools all produce the same run, observably.
#[test]
fn all_pool_sizes_produce_the_identical_run() {
    const P: usize = 8;
    let reference = machine(P, 1).run(mixed_workload);
    let ncores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for workers in [2usize, 4, ncores] {
        let out = machine(P, workers).run(mixed_workload);
        let what = format!("workers={workers}");
        assert_eq!(reference.results, out.results, "{what}: results differ");
        assert_clocks_identical(&reference, &out, &what);
        assert_eq!(
            canonical_events(&reference),
            canonical_events(&out),
            "{what}: event streams differ"
        );
        assert_eq!(
            canonical_metrics(&reference),
            canonical_metrics(&out),
            "{what}: metrics differ"
        );
    }
}

/// Buffer-pool back-pressure must park (not spin, not deadlock) even when
/// a single permit serializes everything: the third checkout of one
/// (key, dst) entry cannot proceed until the receiver runs and returns a
/// slot, which only happens because the blocked sender releases its permit.
#[test]
fn pool_backpressure_parks_under_a_single_permit() {
    let out = Machine::new(ProcGrid::line(2), CostModel::cm5())
        .with_test_preset()
        .with_workers(1)
        .run(|p| {
            let peer = 1 - p.id();
            let key = hpf_machine::fresh_pool_key();
            if p.id() == 0 {
                for i in 0..3u64 {
                    let (slot, mut buf) = p.pool_checkout::<Vec<i64>>(key, peer);
                    buf.push(i as i64 * 7);
                    slot.stash(buf);
                    p.send_pooled::<Vec<i64>>(peer, tags::USER + i, key);
                }
                0
            } else {
                let mut sum = 0i64;
                for i in 0..3u64 {
                    let pkt = p.recv_packet(peer, tags::USER + i);
                    let slot = pkt
                        .data
                        .downcast::<PoolSlot<Vec<i64>>>()
                        .expect("pooled send delivers the slot");
                    sum += slot.decode(|buf| buf[0]);
                }
                sum
            }
        });
    assert_eq!(out.results, vec![0, 21]);
}

/// Slept parks split by cause, and the three causes add up to the total.
/// On one permit under a duplicating fault plan (so the reliable transport
/// runs and must flush), the program below parks for all three: processor
/// 0's third checkout of one pool entry waits for processor 1 to return a
/// buffer, processor 1 then waits for the third pooled frame, and
/// processor 0's flush at exit waits for processor 1's acks.
#[test]
fn slept_parks_by_cause_add_up_to_the_total() {
    let out = Machine::new(ProcGrid::line(2), CostModel::cm5())
        .with_test_preset()
        .with_workers(1)
        .with_faults(FaultPlan::new(1).with_duplicate(0.5))
        .run(|p| {
            let peer = 1 - p.id();
            if p.id() == 1 {
                let _: Vec<i64> = p.recv(peer, tags::USER);
            }
            let key = hpf_machine::fresh_pool_key();
            if p.id() == 0 {
                p.send(peer, tags::USER, vec![1i64]);
                for i in 0..3u64 {
                    let (slot, mut buf) = p.pool_checkout::<Vec<i64>>(key, peer);
                    buf.push(i as i64);
                    slot.stash(buf);
                    p.send_pooled::<Vec<i64>>(peer, tags::USER + 1 + i, key);
                }
            } else {
                for i in 0..3u64 {
                    let pkt = p.recv_packet(peer, tags::USER + 1 + i);
                    let slot = pkt
                        .data
                        .downcast::<PoolSlot<Vec<i64>>>()
                        .expect("pooled send delivers the slot");
                    slot.decode(|_| ());
                }
            }
        });
    let total = out.sched_stats();
    for st in out.sched.iter().chain([&total]) {
        assert_eq!(
            st.recv_parks_slept + st.pool_parks_slept + st.flush_parks_slept,
            st.parks_slept,
            "{st:?}"
        );
    }
    assert!(out.sched[1].recv_parks_slept > 0, "{:?}", out.sched[1]);
    assert!(out.sched[0].pool_parks_slept > 0, "{:?}", out.sched[0]);
    assert!(out.sched[0].flush_parks_slept > 0, "{:?}", out.sched[0]);
}

/// Crash recovery on a small pool: the respawned victim re-enrolls with
/// the scheduler on a fresh carrier and the recovered run stays
/// bit-identical, for a pool smaller than the machine.
#[test]
fn recovery_respawn_re_enrolls_on_a_small_pool() {
    const P: usize = 4;
    fn ring(p: &mut Proc) -> Vec<i64> {
        let mut st: Vec<i64> = vec![p.id() as i64 + 1];
        for round in 0..2u64 {
            p.epoch(&mut st, |p, st| {
                let next = (p.id() + 1) % p.nprocs();
                let prev = (p.id() + p.nprocs() - 1) % p.nprocs();
                p.send(next, tags::USER + round, st.clone());
                let got: Vec<i64> = p.recv(prev, tags::USER + round);
                st.extend(got);
            });
        }
        st
    }
    let m = |faults: FaultPlan, workers: usize| {
        Machine::new(ProcGrid::line(P), CostModel::cm5())
            .with_test_preset()
            .with_workers(workers)
            .with_faults(faults)
    };
    let clean = m(FaultPlan::new(7), 1).run_recoverable(ring).expect("run");
    for workers in [1usize, 2] {
        let crashed = m(FaultPlan::new(7).with_crash(1, 2), workers)
            .run_recoverable(ring)
            .expect("run");
        assert_eq!(clean.results, crashed.results, "workers={workers}");
        assert_clocks_identical(&clean, &crashed, &format!("workers={workers}"));
        assert_eq!(crashed.recovery.as_ref().unwrap().replays, 1);
    }
}

/// Large-P smoke: a P=1024 machine on the default (core-count) pool — the
/// configuration a thread-per-proc design could not schedule sensibly —
/// completes a ring exchange plus a tree-structured scan, and matches the
/// single-permit run bit-for-bit.
#[test]
fn p1024_smoke_is_identical_across_pool_sizes() {
    const P: usize = 1024;
    fn program(p: &mut Proc) -> i64 {
        let n = p.nprocs();
        let next = (p.id() + 1) % n;
        let prev = (p.id() + n - 1) % n;
        p.send(next, tags::USER, vec![p.id() as i64]);
        let got: Vec<i64> = p.recv(prev, tags::USER);
        let g = p.world();
        let (before, _) = prefix_reduction_sum(p, &g, &[1i64], PrsAlgorithm::Split);
        got[0] + before[0]
    }
    let build = |workers: usize| {
        Machine::new(ProcGrid::line(P), CostModel::cm5())
            .with_test_preset()
            .with_workers(workers)
    };
    let a = build(1).run(program);
    let expected: Vec<i64> = (0..P)
        .map(|id| ((id + P - 1) % P) as i64 + id as i64)
        .collect();
    assert_eq!(a.results, expected);
    let ncores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let b = build(ncores.max(2)).run(program);
    assert_eq!(a.results, b.results);
    assert_clocks_identical(&a, &b, "p1024");
}

/// Targeted wake-ups: on a fault-free machine a parked receiver is woken
/// only by the frame it waits for. In a P=64 linear-permutation all-to-all
/// every processor waits on its peers one at a time while frames from all
/// of them land in arbitrary order, yet no wake is mismatched — and the
/// run stays identical for pool sizes 1 and N.
#[test]
fn p64_alltoallv_has_no_mismatched_wakes() {
    const P: usize = 64;
    let program = |p: &mut Proc| {
        let g = p.world();
        let sends: Vec<Vec<i64>> = (0..P)
            .map(|dst| vec![(p.id() * P + dst) as i64; 1 + dst % 3])
            .collect();
        alltoallv(p, &g, sends, A2aSchedule::LinearPermutation)
    };
    let build = |workers: usize| {
        Machine::new(ProcGrid::line(P), CostModel::cm5())
            .with_test_preset()
            .with_workers(workers)
    };
    let a = build(1).run(program);
    for (id, got) in a.results.iter().enumerate() {
        for (src, v) in got.iter().enumerate() {
            assert_eq!(v, &vec![(src * P + id) as i64; 1 + id % 3]);
        }
    }
    let ncores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let b = build(ncores.max(2)).run(program);
    assert_eq!(a.results, b.results);
    assert_clocks_identical(&a, &b, "p64 alltoallv");
    for (what, out) in [("workers=1", &a), ("workers=N", &b)] {
        assert_eq!(out.sched.len(), P, "{what}: one count set per processor");
        let st = out.sched_stats();
        assert_eq!(st.mismatched_wakes, 0, "{what}: {st:?}");
    }
    // On one permit every receive that finds its peer unrun must park, so
    // the zero above is measured, not vacuous.
    assert!(a.sched_stats().parks_slept > 0);
}

/// Frames of noise processor 2 sends processor 0 in [`noisy_receiver`].
const NOISE: u64 = 5;

/// Processor 2 sends processor 0 `NOISE` frames 40 ms apart, recording
/// when it sent the last one. With `awaited_after_ms`, processor 1 sends
/// processor 0 one awaited frame after that delay, and processor 0 waits
/// for it before taking the noise.
fn noisy_receiver(
    p: &mut Proc,
    awaited_after_ms: Option<u64>,
    last_noise: &Mutex<Option<Instant>>,
) -> i32 {
    match p.id() {
        0 => {
            let got = match awaited_after_ms {
                Some(_) => p.recv::<Vec<i32>>(1, tags::USER + 99)[0],
                None => 0,
            };
            for i in 0..NOISE {
                let _: Vec<i32> = p.recv(2, tags::USER + i);
            }
            got
        }
        1 => {
            if let Some(ms) = awaited_after_ms {
                sleep(Duration::from_millis(ms));
                p.send(0, tags::USER + 99, vec![7i32]);
            }
            0
        }
        _ => {
            for i in 0..NOISE {
                sleep(Duration::from_millis(40));
                p.send(0, tags::USER + i, vec![i as i32]);
                *last_noise.lock().unwrap() = Some(Instant::now());
            }
            0
        }
    }
}

/// A receive whose message never comes still times out while unrelated
/// frames keep arriving. They do not wake the parked receiver; it drains
/// them when its park times out, and each drained frame restarts the
/// deadline, so the error fires at least one timeout after the last frame
/// arrived (and at most about two).
#[test]
fn recv_timeout_fires_while_unrelated_frames_arrive() {
    const TIMEOUT: Duration = Duration::from_millis(150);
    let last_noise = Mutex::new(None);
    let out = Machine::new(ProcGrid::line(3), CostModel::cm5())
        .with_recv_timeout(TIMEOUT)
        .with_workers(3)
        .run(|p| {
            if p.id() != 0 {
                return noisy_receiver(p, None, &last_noise);
            }
            let err = p
                .try_recv::<Vec<i32>>(1, tags::USER + 99)
                .expect_err("nothing is ever sent under this tag");
            let failed_at = Instant::now();
            assert!(
                matches!(
                    err,
                    MachineError::RecvTimeout { proc: 0, src: 1, tag, .. } if tag == tags::USER + 99
                ),
                "{err:?}"
            );
            let last = last_noise.lock().unwrap().expect("noise was sent");
            let after_last = failed_at.duration_since(last);
            assert!(
                after_last >= TIMEOUT,
                "fired {after_last:?} after the last frame"
            );
            assert!(
                after_last < 10 * TIMEOUT,
                "fired {after_last:?} after the last frame"
            );
            noisy_receiver(p, None, &last_noise)
        });
    assert_eq!(out.results, vec![0; 3]);
    assert_eq!(out.sched[0].mismatched_wakes, 0, "noise must not wake");
}

/// Under a fault plan frames are sequenced by the reliable transport, so a
/// receive cannot filter on `(src, tag)` and wakes on every frame: the
/// noisy program that shows no mismatched wake fault-free shows them under
/// a duplicating plan, with the same results.
#[test]
fn fault_plan_receives_wake_on_every_frame() {
    let last_noise = Mutex::new(None);
    let awaited_after_ms = Some(40 * NOISE + 100);
    let build = || {
        Machine::new(ProcGrid::line(3), CostModel::cm5())
            .with_test_preset()
            .with_workers(3)
    };
    let clean = build().run(|p| noisy_receiver(p, awaited_after_ms, &last_noise));
    let faulty = build()
        .with_faults(FaultPlan::new(1).with_duplicate(0.5))
        .run(|p| noisy_receiver(p, awaited_after_ms, &last_noise));
    assert_eq!(clean.results, vec![7, 0, 0]);
    assert_eq!(clean.results, faulty.results);
    assert_eq!(clean.sched[0].mismatched_wakes, 0, "{:?}", clean.sched[0]);
    assert!(
        faulty.sched[0].mismatched_wakes >= 1,
        "every frame wakes under a fault plan: {:?}",
        faulty.sched[0]
    );
}

fn any_algo() -> impl Strategy<Value = PrsAlgorithm> {
    prop::sample::select(vec![
        PrsAlgorithm::Direct,
        PrsAlgorithm::Split,
        PrsAlgorithm::Auto,
        PrsAlgorithm::Hardware,
    ])
}

fn any_schedule() -> impl Strategy<Value = A2aSchedule> {
    prop::sample::select(vec![
        A2aSchedule::LinearPermutation,
        A2aSchedule::NaivePush,
        A2aSchedule::PairwiseExchange,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Collectives over arbitrary sizes, algorithms, and schedules are
    /// bit-identical between a single-permit pool and a wider one.
    /// Fault-free only: retransmit diagnostics are wall-clock observables.
    #[test]
    fn collectives_identical_across_pool_sizes(
        p in 1usize..=9,
        workers in 2usize..=5,
        algo in any_algo(),
        schedule in any_schedule(),
        seed in 0i64..100,
    ) {
        let program = move |proc: &mut Proc| {
            let g = proc.world();
            let mine: Vec<i64> =
                (0..4).map(|j| seed + (proc.id() * 13 + j * 7) as i64).collect();
            let (prefix, total) = prefix_reduction_sum(proc, &g, &mine, algo);
            let sends: Vec<Vec<i64>> = (0..proc.nprocs())
                .map(|dst| vec![seed + (proc.id() * 31 + dst) as i64])
                .collect();
            let gathered = alltoallv(proc, &g, sends, schedule);
            (prefix, total, gathered)
        };
        let a = Machine::new(ProcGrid::line(p), CostModel::cm5())
            .with_test_preset()
            .with_workers(1)
            .run(program);
        let b = Machine::new(ProcGrid::line(p), CostModel::cm5())
            .with_test_preset()
            .with_workers(workers)
            .run(program);
        prop_assert_eq!(&a.results, &b.results);
        for (ca, cb) in a.clocks.iter().zip(&b.clocks) {
            prop_assert_eq!(ca.now_ms(), cb.now_ms());
            prop_assert_eq!(ca.ops, cb.ops);
            prop_assert_eq!(ca.words_sent, cb.words_sent);
            prop_assert_eq!(ca.startups, cb.startups);
        }
    }

    /// Traced ring programs produce the same canonical event stream on any
    /// pool: the trace is part of the deterministic contract, not a
    /// best-effort diagnostic.
    #[test]
    fn event_streams_identical_across_pool_sizes(
        p in 2usize..=6,
        workers in 2usize..=4,
        rounds in 1u64..=4,
    ) {
        let program = move |proc: &mut Proc| {
            let n = proc.nprocs();
            let next = (proc.id() + 1) % n;
            let prev = (proc.id() + n - 1) % n;
            for round in 0..rounds {
                proc.with_stage("test.ring", |proc| {
                    proc.send(next, tags::USER + round, vec![proc.id() as i32; 3]);
                    let _: Vec<i32> = proc.recv(prev, tags::USER + round);
                });
            }
        };
        let a = machine(p, 1).run(program);
        let b = machine(p, workers).run(program);
        prop_assert_eq!(canonical_events(&a), canonical_events(&b));
        prop_assert_eq!(canonical_metrics(&a), canonical_metrics(&b));
    }
}
