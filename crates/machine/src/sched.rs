//! Deterministic cooperative scheduler: virtual processors multiplexed
//! over a bounded worker pool.
//!
//! Each virtual processor keeps its own OS thread as a *stack carrier* (an
//! arbitrary `Fn(&mut Proc) -> R` closure cannot be suspended any other way
//! in stable Rust), but execution is gated by this scheduler: at most
//! `workers` run permits exist, and a carrier may only execute its program
//! while holding one. Every blocking point in [`crate::proc::Proc`] — frame
//! receive, transport flush, clock-sync barrier, buffer-pool back-pressure
//! — releases the permit and parks here; senders wake the destination
//! through [`Scheduler::unpark`].
//!
//! Permits are granted from a ready min-heap keyed on
//! `(simulated time, proc id)` — the lowest simulated clock runs first,
//! ties break to the lowest id — never on OS wake-up order. With one worker
//! the execution order is therefore a pure function of the program; with
//! more workers the grant *order* is still drawn from the same keyed heap,
//! and simulated results are schedule-invariant regardless (message
//! matching is by `(src, tag)` FIFO plus SPMD program order; see
//! DESIGN.md §15).
//!
//! The missed-wakeup race (sender enqueues between a receiver's empty
//! queue probe and its park) is closed by a per-processor wake token:
//! an unpark aimed at a processor that is not parked sets the token, and
//! the next park consumes the token and returns immediately without ever
//! releasing its permit. All state transitions happen under one mutex, so
//! the token handshake needs no memory-ordering subtlety.
//!
//! ## Grant delivery
//!
//! Every wake is two steps: *decide and publish* under the lock, then
//! *wake the OS thread* after it is released. A grant moves the task to
//! `Running`, sets the task's atomic grant flag (`Release`) and records
//! its carrier's [`Thread`] handle in a fixed-size [`Wakeups`] list; the
//! caller drops every lock it holds and only then calls
//! [`Wakeups::deliver`], which `Thread::unpark`s each entry. The woken
//! carrier takes its flag with a single `swap` (`Acquire`) and returns
//! without touching the mutex, so it never wakes up only to queue behind
//! its waker for the lock. Every wait loops on its own flag: an OS unpark
//! that arrives late, or lands in a later wait it was not meant for, costs
//! one more loop and nothing else.
//!
//! A carrier registers its `Thread` handle in [`Scheduler::acquire`] and
//! tests its flag under the same lock: a grant made before the
//! registration (the initial grants in [`Scheduler::new`], a respawn's
//! [`Scheduler::enroll`]) has already set the flag, and a grant made after
//! it finds the handle. [`Scheduler::unpark`] returns its `Wakeups`
//! undelivered, so a channel sender or a pool slot can decide the wake
//! under its own lock and deliver it after releasing that lock.
//!
//! Frame senders do not unpark on every frame. A processor about to park
//! in a receive arms a wait filter for the `(src, tag)` it wants in its
//! frame channel, and senders unpark it only for a frame that can end the
//! wait (see [`crate::chan`] for the protocol and its race argument). The
//! wake token above is what makes that filter race-free: a matching frame
//! enqueued after the arm but before the park unparks a still-running
//! processor, and the park returns at once. Since unrelated frames no
//! longer wake a parked receiver, the receive timeout's "any frame
//! restarts the deadline" rule applies when the receiver next drains: a
//! timed-out park drains what queued, each drained frame restarts the
//! deadline, and the receive parks again — a message that never comes
//! still times out, between one and two timeouts after the last frame.
//!
//! Each processor counts its own scheduler events in a [`SchedStats`]
//! (plain fields on the `Proc`, no shared atomics), summed into
//! [`crate::RunOutput::sched_stats`]: parks that slept (in total and by
//! cause), parks a wake token short-circuited, and mismatched wakes — a
//! wake after which the receive probe found nothing it waited for and
//! parked again.
//!
//! Parks carry wall-clock deadlines: the existing no-hang guarantees
//! (receive timeouts, reliable-transport retransmissions, pool-checkout
//! stall detection) survive verbatim, re-expressed as scheduler deadlines
//! instead of blocking waits and `yield_now` spins. A timed-out processor
//! re-enters the ready queue and *reacquires a permit before returning*,
//! so the permit invariant (`running ≤ workers`) holds at every instant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Why [`Scheduler::park`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkOutcome {
    /// A wake token was already pending: the park returned at once without
    /// releasing the permit. The caller should re-probe.
    Pending,
    /// The processor slept and an unpark woke it. The caller should
    /// re-probe whatever it was waiting for.
    Woken,
    /// The wall-clock timeout expired first. The processor has already
    /// reacquired a run permit; the caller owns its own deadline logic.
    TimedOut,
}

/// Host-side scheduler event counts for one processor (or, summed, a
/// run). Wall-side observables: they depend on the interleaving and never
/// touch simulated clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Parks that released the run permit (woken or timed out). The sum of
    /// the three per-cause counts below.
    pub parks_slept: u64,
    /// Slept parks in a receive, waiting for a frame.
    pub recv_parks_slept: u64,
    /// Slept parks in buffer-pool back-pressure, waiting for a receiver to
    /// return a send buffer.
    pub pool_parks_slept: u64,
    /// Slept parks in the reliable transport's flush, waiting for acks.
    pub flush_parks_slept: u64,
    /// Parks that a pending wake token short-circuited: no permit
    /// released, no sleep.
    pub token_short_circuits: u64,
    /// Receive parks that were woken, drained the channel without finding
    /// the awaited packet, and parked again. Zero on a fault-free machine,
    /// where only the awaited frame wakes a parked receiver.
    pub mismatched_wakes: u64,
}

impl std::ops::AddAssign for SchedStats {
    fn add_assign(&mut self, o: SchedStats) {
        self.parks_slept += o.parks_slept;
        self.recv_parks_slept += o.recv_parks_slept;
        self.pool_parks_slept += o.pool_parks_slept;
        self.flush_parks_slept += o.flush_parks_slept;
        self.token_short_circuits += o.token_short_circuits;
        self.mismatched_wakes += o.mismatched_wakes;
    }
}

/// Task lifecycle. `Ready` tasks (and only they) have an entry in the
/// ready heap; `Running` tasks (and only they) hold a permit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Wants to run; queued in the ready heap awaiting a permit.
    Ready,
    /// Holds a permit. Its carrier may not have taken the grant flag yet.
    Running,
    /// Blocked at a park point; holds no permit and no heap entry.
    Parked,
    /// Finished (or crashed); holds nothing. [`Scheduler::enroll`]
    /// re-animates a `Done` task for a crash-recovery respawn.
    Done,
}

/// Carrier wake-ups one state transition can collect. A transition frees
/// at most one permit or readies at most one task, so it grants at most
/// one; only [`Scheduler::new`] grants more, before any carrier has
/// registered. Overflow still wakes (see [`Wakeups::push`]).
const WAKE_LIST_LEN: usize = 2;

/// Carriers granted a permit under the scheduler lock, to be woken by
/// [`Wakeups::deliver`] once the caller holds no lock. Fixed-size: the
/// wake path never allocates.
#[must_use = "a granted carrier sleeps until its wake-up is delivered"]
pub(crate) struct Wakeups {
    threads: [Option<Thread>; WAKE_LIST_LEN],
    len: usize,
}

impl Wakeups {
    fn new() -> Wakeups {
        Wakeups {
            threads: [const { None }; WAKE_LIST_LEN],
            len: 0,
        }
    }

    /// Queue `carrier` for delivery. A full list wakes it at once, under
    /// the lock: slower, but no granted permit ever goes unused.
    fn push(&mut self, carrier: &Thread) {
        match self.threads.get_mut(self.len) {
            Some(slot) => {
                *slot = Some(carrier.clone());
                self.len += 1;
            }
            None => carrier.unpark(),
        }
    }

    /// Wake every queued carrier. Call with no lock held.
    pub(crate) fn deliver(self) {
        for carrier in self.threads.into_iter().flatten() {
            carrier.unpark();
        }
    }
}

struct Inner {
    state: Box<[State]>,
    /// Pending wake per processor: an unpark that arrived while the target
    /// was not parked. Consumed (without sleeping) by the next park.
    token: Box<[bool]>,
    /// Ready processors, keyed by `(simulated-time bits, proc id)`.
    /// Simulated times are finite and non-negative, so the IEEE-754 bit
    /// pattern orders exactly like the float and the heap never sees NaN.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Each processor's last park key (its simulated clock at the park),
    /// re-used when an unpark or a respawn re-enqueues it.
    key: Box<[u64]>,
    /// Each processor's carrier thread, registered by
    /// [`Scheduler::acquire`] and cleared by [`Scheduler::finish`].
    carrier: Box<[Option<Thread>]>,
    /// Permits currently held (`Running` tasks).
    running: usize,
}

/// The worker-pool scheduler shared by one machine run. See the module
/// docs for the protocol.
pub(crate) struct Scheduler {
    inner: Mutex<Inner>,
    /// Per-processor grant flags: set (`Release`) under the lock by a
    /// grant, taken (`Acquire` swap) by the carrier without the lock.
    granted: Box<[AtomicBool]>,
    workers: usize,
}

impl Scheduler {
    /// Build a scheduler for `nprocs` virtual processors over `workers`
    /// permits (clamped to at least one). All processors are pre-enrolled
    /// ready at key `(0, id)` and the first `workers` grants are issued
    /// immediately, so the initial execution order is deterministic no
    /// matter in which order the carrier threads happen to start.
    pub(crate) fn new(nprocs: usize, workers: usize) -> Scheduler {
        let mut ready = BinaryHeap::with_capacity(nprocs + 1);
        for id in 0..nprocs {
            ready.push(Reverse((0u64, id)));
        }
        let s = Scheduler {
            inner: Mutex::new(Inner {
                state: vec![State::Ready; nprocs].into_boxed_slice(),
                token: vec![false; nprocs].into_boxed_slice(),
                ready,
                key: vec![0u64; nprocs].into_boxed_slice(),
                carrier: vec![None; nprocs].into_boxed_slice(),
                running: 0,
            }),
            granted: (0..nprocs).map(|_| AtomicBool::new(false)).collect(),
            workers: workers.max(1),
        };
        let mut wake = Wakeups::new();
        s.grant(&mut s.lock(), &mut wake);
        // No carrier has registered yet: the flags alone carry these grants.
        wake.deliver();
        s
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("scheduler state is updated only by code that cannot panic")
    }

    /// Grant permits to the lowest-keyed ready processors while any are
    /// free, collecting the registered carriers in `wake`. Runs under the
    /// lock; every state transition that could free a permit or add a
    /// ready task calls this before unlocking.
    fn grant(&self, g: &mut Inner, wake: &mut Wakeups) {
        while g.running < self.workers {
            let Some(Reverse((_, id))) = g.ready.pop() else {
                return;
            };
            debug_assert_eq!(g.state[id], State::Ready, "heap holds only Ready tasks");
            g.state[id] = State::Running;
            g.running += 1;
            self.granted[id].store(true, Ordering::Release);
            if let Some(carrier) = &g.carrier[id] {
                wake.push(carrier);
            }
        }
    }

    /// Queue processor `id` ready at its last park key, then grant.
    fn make_ready(&self, g: &mut Inner, id: usize, wake: &mut Wakeups) {
        g.state[id] = State::Ready;
        let entry = Reverse((g.key[id], id));
        g.ready.push(entry);
        self.grant(g, wake);
    }

    /// Take processor `id`'s grant flag if it is set.
    fn take_grant(&self, id: usize) -> bool {
        self.granted[id].swap(false, Ordering::Acquire)
    }

    /// Sleep until processor `id` is granted, then take the grant. An OS
    /// unpark that carries no grant only goes round the loop once more.
    fn wait_grant(&self, id: usize) {
        while !self.take_grant(id) {
            thread::park();
        }
    }

    /// Carrier entry: block until processor `id` is granted a permit.
    /// Called once per carrier thread before the program closure (and
    /// again after [`Scheduler::enroll`] on a respawn, from the new
    /// thread).
    pub(crate) fn acquire(&self, id: usize) {
        let granted = {
            let mut g = self.lock();
            g.carrier[id] = Some(thread::current());
            self.take_grant(id)
        };
        if !granted {
            self.wait_grant(id);
        }
    }

    /// Release the permit and block until woken or `timeout` elapses.
    /// `key_ns` is the processor's current simulated time — the ready-queue
    /// sort key if it must requeue. A pending wake token short-circuits the
    /// park entirely (permit kept, no transition). On timeout the processor
    /// requeues itself ready and *waits for a fresh grant* before
    /// returning, so the caller always holds a permit again.
    pub(crate) fn park(&self, id: usize, key_ns: f64, timeout: Duration) -> ParkOutcome {
        let mut wake = Wakeups::new();
        {
            let mut g = self.lock();
            debug_assert_eq!(g.state[id], State::Running, "park from a non-running task");
            debug_assert_eq!(
                g.carrier[id].as_ref().map(Thread::id),
                Some(thread::current().id()),
                "a processor parks only on the carrier thread that acquired it"
            );
            if std::mem::replace(&mut g.token[id], false) {
                return ParkOutcome::Pending;
            }
            g.state[id] = State::Parked;
            g.key[id] = key_ns.max(0.0).to_bits();
            g.running -= 1;
            self.grant(&mut g, &mut wake);
        }
        wake.deliver();
        let deadline = Instant::now() + timeout;
        loop {
            if self.take_grant(id) {
                return ParkOutcome::Woken;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            thread::park_timeout(deadline - now);
        }
        // Nobody woke us in time: requeue ready at our park key, unless an
        // unpark already did. The grant may well pick us right back.
        let mut wake = Wakeups::new();
        {
            let mut g = self.lock();
            if g.state[id] == State::Parked {
                self.make_ready(&mut g, id, &mut wake);
            }
        }
        wake.deliver();
        self.wait_grant(id);
        ParkOutcome::TimedOut
    }

    /// Decide a wake of processor `id`: senders call this after enqueuing
    /// a frame (via the channel waker), pool slots on their decode. Parked
    /// targets move to the ready queue at their park key; any other state
    /// records a wake token so a concurrent or future park cannot miss the
    /// signal. The returned carrier wake-ups must be delivered once the
    /// caller has released its own locks.
    pub(crate) fn unpark(&self, id: usize) -> Wakeups {
        let mut wake = Wakeups::new();
        let mut g = self.lock();
        match g.state[id] {
            State::Parked => self.make_ready(&mut g, id, &mut wake),
            State::Done => {}
            _ => g.token[id] = true,
        }
        wake
    }

    /// Carrier exit: release the permit for good (program finished,
    /// errored, or crashed). Every carrier calls this exactly once per
    /// (re)spawn, on success and failure paths alike — a leaked permit
    /// would starve the pool.
    pub(crate) fn finish(&self, id: usize) {
        let mut wake = Wakeups::new();
        {
            let mut g = self.lock();
            debug_assert_eq!(
                g.state[id],
                State::Running,
                "finish from a task not holding a permit"
            );
            g.state[id] = State::Done;
            g.token[id] = false;
            g.carrier[id] = None;
            g.running -= 1;
            self.grant(&mut g, &mut wake);
        }
        wake.deliver();
    }

    /// Re-enroll a `Done` processor for a crash-recovery respawn: it
    /// re-enters the ready queue at its last park key and its new carrier
    /// then blocks in [`Scheduler::acquire`] like any other task.
    pub(crate) fn enroll(&self, id: usize) {
        let mut wake = Wakeups::new();
        {
            let mut g = self.lock();
            debug_assert_eq!(g.state[id], State::Done, "enroll of a live task");
            self.make_ready(&mut g, id, &mut wake);
        }
        wake.deliver();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Arc};

    #[test]
    fn initial_grants_go_to_lowest_ids() {
        let s = Arc::new(Scheduler::new(3, 2));
        // Procs 0 and 1 hold the two permits (not 2, despite all three
        // being enrolled ready): acquiring them returns immediately, and a
        // park by one hands the permit to the waiting proc 2. Each
        // processor parks on the thread that acquired it, its carrier.
        s.acquire(1);
        assert_eq!(s.workers, 2);
        let (tx, rx) = mpsc::channel();
        let s0 = Arc::clone(&s);
        let carrier0 = std::thread::spawn(move || {
            s0.acquire(0);
            // Parking 0 with a pending token returns immediately instead.
            s0.unpark(0).deliver();
            tx.send(s0.park(0, 0.0, Duration::from_secs(5))).unwrap();
            // A real park releases the permit to proc 2.
            s0.park(0, 1.0, Duration::from_secs(5))
        });
        assert_eq!(
            rx.recv().unwrap(),
            ParkOutcome::Pending,
            "a pending wake token short-circuits the park"
        );
        let s2 = Arc::clone(&s);
        std::thread::spawn(move || s2.acquire(2)).join().unwrap();
        // Retiring proc 1 frees a permit; waking 0 claims it.
        s.finish(1);
        s.unpark(0).deliver();
        assert_eq!(carrier0.join().unwrap(), ParkOutcome::Woken);
    }

    #[test]
    fn timeout_reacquires_a_permit() {
        let s = Scheduler::new(2, 1);
        s.acquire(0);
        let t0 = Instant::now();
        // Proc 1 holds no permit yet; proc 0's timed-out park must hand
        // the permit over and then win it back (key 0.0 < proc 1's never
        // being parked means proc 0 requeues behind the grant to 1 — but 1
        // never parks, so 0 only returns once 1 finishes).
        let s = Arc::new(s);
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s2.acquire(1);
            std::thread::sleep(Duration::from_millis(30));
            s2.finish(1);
        });
        let out = s.park(0, 0.0, Duration::from_millis(5));
        assert_eq!(out, ParkOutcome::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(5));
        h.join().unwrap();
        s.finish(0);
    }

    #[test]
    fn unpark_of_done_task_is_a_no_op() {
        let s = Scheduler::new(1, 1);
        s.acquire(0);
        s.finish(0);
        s.unpark(0).deliver(); // must not panic or grant
        s.enroll(0);
        s.acquire(0);
        s.finish(0);
    }

    /// How long a protocol test waits for its carriers before it fails
    /// instead of hanging.
    const LIMIT: Duration = Duration::from_secs(20);

    /// Run `body(scheduler, id)` on one new carrier thread per id, spawned
    /// in `order`, and wait for all of them. A carrier that never finishes
    /// (a lost grant) fails the test after [`LIMIT`] instead of hanging it.
    fn run_carriers<F>(s: &Arc<Scheduler>, order: impl IntoIterator<Item = usize>, body: F)
    where
        F: Fn(&Scheduler, usize) + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let (tx, rx) = mpsc::channel();
        let handles: Vec<_> = order
            .into_iter()
            .map(|id| {
                let (s, body, tx) = (Arc::clone(s), Arc::clone(&body), tx.clone());
                std::thread::spawn(move || {
                    body(&s, id);
                    tx.send(id).expect("the test waits for every carrier");
                })
            })
            .collect();
        for _ in 0..handles.len() {
            rx.recv_timeout(LIMIT)
                .expect("a carrier never finished: a grant was lost");
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Carriers between their return from `acquire`/`park` and their next
    /// `park`/`finish`: the ones executing on a permit.
    #[derive(Default)]
    struct Permits {
        inside: AtomicUsize,
        max: AtomicUsize,
    }

    impl Permits {
        fn enter(&self) {
            let n = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
            self.max.fetch_max(n, Ordering::SeqCst);
        }

        fn leave(&self) {
            self.inside.fetch_sub(1, Ordering::SeqCst);
        }

        fn max(&self) -> usize {
            self.max.load(Ordering::SeqCst)
        }
    }

    /// P = 32 carriers wake each other and park in rounds. However the
    /// grants, OS wake-ups and timeouts interleave, no more than `workers`
    /// of them ever execute at once.
    #[test]
    fn at_most_workers_carriers_run_at_once() {
        const P: usize = 32;
        const ROUNDS: usize = 40;
        for workers in 1..=3 {
            for _ in 0..4 {
                let s = Arc::new(Scheduler::new(P, workers));
                let permits = Arc::new(Permits::default());
                let seen = Arc::clone(&permits);
                run_carriers(&s, 0..P, move |s, id| {
                    s.acquire(id);
                    seen.enter();
                    for round in 0..ROUNDS {
                        s.unpark((id + 1 + round) % P).deliver();
                        seen.leave();
                        s.park(id, round as f64, Duration::from_millis(2));
                        seen.enter();
                    }
                    seen.leave();
                    s.finish(id);
                });
                let max = permits.max();
                assert!(
                    (1..=workers).contains(&max),
                    "workers {workers}: {max} ran at once"
                );
            }
        }
    }

    /// The first grantees finish at once while the other carriers start
    /// late and in reverse order, so grants land both before and after a
    /// carrier registers its thread. Every carrier must still acquire.
    #[test]
    fn grants_reach_carriers_that_register_late() {
        const P: usize = 16;
        for workers in 1..=3 {
            for _ in 0..50 {
                let s = Arc::new(Scheduler::new(P, workers));
                let order = (0..workers).chain((workers..P).rev());
                run_carriers(&s, order, |s, id| {
                    s.acquire(id);
                    s.finish(id);
                });
            }
        }
    }

    /// 1 ms parks race a thread that keeps unparking every processor at
    /// uneven intervals, so deadlines expire just before, during and just
    /// after grants. Every park, woken or timed out, returns holding a
    /// permit.
    #[test]
    fn a_timeout_racing_a_grant_returns_holding_a_permit() {
        const P: usize = 4;
        const WORKERS: usize = 2;
        const PARKS: usize = 300;
        let s = Arc::new(Scheduler::new(P, WORKERS));
        let permits = Arc::new(Permits::default());
        let outcomes = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let stop = Arc::new(AtomicBool::new(false));
        let unparker = {
            let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    s.unpark(n as usize % P).deliver();
                    let pause = Duration::from_micros(n * 7919 % 2000);
                    let t = Instant::now();
                    while t.elapsed() < pause {
                        std::hint::spin_loop();
                    }
                    n += 1;
                }
            })
        };
        let (seen, counts) = (Arc::clone(&permits), Arc::clone(&outcomes));
        run_carriers(&s, 0..P, move |s, id| {
            s.acquire(id);
            seen.enter();
            for i in 0..PARKS {
                seen.leave();
                let out = s.park(id, i as f64, Duration::from_millis(1));
                seen.enter();
                assert_eq!(
                    s.lock().state[id],
                    State::Running,
                    "{out:?} without a permit"
                );
                match out {
                    ParkOutcome::Woken => counts[0].fetch_add(1, Ordering::SeqCst),
                    ParkOutcome::TimedOut => counts[1].fetch_add(1, Ordering::SeqCst),
                    ParkOutcome::Pending => 0,
                };
            }
            seen.leave();
            s.finish(id);
        });
        stop.store(true, Ordering::SeqCst);
        unparker.join().unwrap();
        assert!(permits.max() <= WORKERS);
        let [woken, timed_out] = [0, 1].map(|i| outcomes[i].load(Ordering::SeqCst));
        assert!(
            woken > 0 && timed_out > 0,
            "woken {woken}, timed out {timed_out}"
        );
    }

    /// Eight permits on P = 64, more than the wake list holds: the first
    /// eight carriers and then, as those finish, the next eight must all
    /// run at once, or the rendezvous below never completes.
    #[test]
    fn every_permit_is_issued_when_workers_exceed_the_wake_list() {
        const P: usize = 64;
        const WORKERS: usize = 8;
        const { assert!(WORKERS > WAKE_LIST_LEN) };
        let s = Arc::new(Scheduler::new(P, WORKERS));
        let waves = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let seen = Arc::clone(&waves);
        run_carriers(&s, 0..P, move |s, id| {
            s.acquire(id);
            if let Some(wave) = seen.get(id / WORKERS) {
                wave.fetch_add(1, Ordering::SeqCst);
                let t = Instant::now();
                while wave.load(Ordering::SeqCst) < WORKERS {
                    assert!(
                        t.elapsed() < LIMIT,
                        "wave {}: a permit was never issued",
                        id / WORKERS
                    );
                    std::thread::yield_now();
                }
            }
            s.finish(id);
        });
    }

    /// A wake list pushed past its capacity still wakes every carrier: the
    /// overflow is woken at once, the rest on delivery.
    #[test]
    fn an_overflowing_wake_list_wakes_every_carrier() {
        const N: usize = WAKE_LIST_LEN + 2;
        let flags: Arc<[AtomicBool]> = (0..N).map(|_| AtomicBool::new(false)).collect();
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let (flags, ready, done) = (Arc::clone(&flags), ready_tx.clone(), done_tx.clone());
                std::thread::spawn(move || {
                    ready.send(()).unwrap();
                    while !flags[i].swap(false, Ordering::Acquire) {
                        thread::park();
                    }
                    done.send(i).unwrap();
                })
            })
            .collect();
        for _ in 0..N {
            ready_rx.recv().unwrap();
        }
        let mut wake = Wakeups::new();
        for (h, flag) in handles.iter().zip(flags.iter()) {
            flag.store(true, Ordering::Release);
            wake.push(h.thread());
        }
        wake.deliver();
        for _ in 0..N {
            done_rx
                .recv_timeout(LIMIT)
                .expect("a carrier was never woken");
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
