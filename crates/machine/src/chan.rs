//! Allocation-free frame channel between virtual processors.
//!
//! `std::sync::mpsc` allocates a fresh node per send, which would show up
//! in the steady-state allocation gate even when every payload buffer is
//! pooled. This channel is a `Mutex<VecDeque<Frame>>` with a
//! deterministically pre-reserved ring, so enqueue/dequeue is
//! allocation-free as long as the queue depth stays under the initial
//! capacity (the buffer-pool back-pressure in [`crate::proc::Proc`] bounds
//! depth to a few frames per sender; see DESIGN.md §11).
//!
//! Blocking is the scheduler's job, not the channel's: receivers probe with
//! [`FrameReceiver::try_recv`] and park in [`crate::sched::Scheduler`].
//! The channel carries a *waker* — the destination's scheduler handle, set
//! once at machine start — so an enqueue on any thread can unpark the
//! destination.
//!
//! ## Targeted wake-ups
//!
//! A processor parked in a receive waits for one `(src, tag)`; waking it
//! for any other frame only makes it drain that frame and park again. So a
//! receiver about to park [arms](FrameReceiver::arm) a *wait filter* that
//! lives under the same mutex as the queue, and [`FrameSender::send`]
//! unparks only when the frame can end the wait:
//!
//! | filter | `Raw` frame | `Data` / `Ack` / `Poison` |
//! |---|---|---|
//! | not armed | wake | wake |
//! | armed for `(src, tag)` | wake iff it matches | wake |
//!
//! Every plain probe ([`FrameReceiver::try_recv`]) clears the filter, so
//! parks that do not arm (pool back-pressure, transport flush) keep waking
//! on every frame.
//!
//! The race argument is short. Arming and enqueuing are serialized by the
//! queue lock, and arming refuses when a frame is already queued — so a
//! frame is either visible to the receiver's drain or judged against the
//! armed filter, never lost between the two. The sender *decides*
//! the wake — [`Scheduler::unpark`], which moves a parked receiver to the
//! ready queue or sets its wake token — before releasing the queue lock
//! (lock order: channel queue, then scheduler; the scheduler never takes a
//! channel lock), and *delivers* the OS wake-up only after releasing it. So
//! every decision is made before the receiver can probe or arm again: a
//! wake meant for the armed filter that is decided before the receiver
//! reaches its park sets the scheduler's wake token, and the park returns
//! at once; a wake decided while no filter was armed can never reach a
//! later park it was not meant for — at worst it leaves a token that a
//! park consumes without sleeping. The argument rests on when the decision
//! is made, not on when the OS wake-up lands: a parked carrier returns
//! only once its grant flag is set, so a late OS wake-up that reaches a
//! later park just sends it round its wait loop once more.
//!
//! Receive timeouts see the filter only indirectly: unrelated frames queue
//! without waking the receiver, so they restart its deadline when it next
//! drains — after the awaited frame, or after the park times out (see
//! `Proc::try_recv_packet`).
//!
//! The ring capacity is scale-aware (see [`default_capacity`]): the
//! original fixed 1024-frame pre-reserve is kept through P=64 so small-P
//! steady-state traffic never allocates, and shrinks hyperbolically above
//! that — at P=4096 a full-size pre-reserve would cost ~P× more memory
//! than any queue ever uses. Ring bytes are charged to the
//! `mem.mailbox.ring` account at processor start (see DESIGN.md §13).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

use crate::message::Frame;
use crate::sched::Scheduler;

/// Per-processor frames pre-reserved across the whole machine, the budget
/// [`default_capacity`] divides by P (chosen so P ≤ 64 keeps the historic
/// 1024-slot ring).
const TOTAL_FRAME_BUDGET: usize = 65_536;

/// Ring capacity floor: even the largest machines keep a few slots so
/// steady phase traffic (a handful of frames between dequeues) stays
/// allocation-free.
const MIN_CAPACITY: usize = 16;

/// Historic per-processor pre-reserve, kept verbatim for P ≤ 64 so the
/// small-P allocation behaviour (and the `exec_hot` zero-alloc gate) is
/// byte-for-byte unchanged.
const MAX_CAPACITY: usize = 1024;

/// The scale-aware default ring capacity for a P-processor machine:
/// `clamp(65536 / P, 16, 1024)` frames. Growth past the ring allocates
/// (correctly counted) and stays results-deterministic — queue depth never
/// influences matching, only the allocator.
pub fn default_capacity(nprocs: usize) -> usize {
    (TOTAL_FRAME_BUDGET / nprocs.max(1)).clamp(MIN_CAPACITY, MAX_CAPACITY)
}

/// Bytes the pre-reserved frame ring pins per processor at capacity `cap`
/// — the exact quantity charged to the `mem.mailbox.ring` account and
/// asserted byte-for-byte by the memory perf group.
pub fn ring_bytes(cap: usize) -> u64 {
    (cap * std::mem::size_of::<Frame>()) as u64
}

/// Queue and wait filter, guarded together.
struct Inbox {
    frames: VecDeque<Frame>,
    /// The `(src, tag)` a receiver parked for; `None` wakes on any frame.
    want: Option<(usize, u64)>,
}

struct Shared {
    inbox: Mutex<Inbox>,
    /// Pre-reserved ring capacity (the charged quantity; the `VecDeque`
    /// may round up internally).
    capacity: usize,
    /// Destination scheduler handle: set once at machine start, before any
    /// sender clone escapes, and only ever borrowed afterwards.
    waker: OnceLock<(Arc<Scheduler>, usize)>,
}

/// Sending half; cheaply cloneable, one clone per peer processor.
pub(crate) struct FrameSender {
    shared: Arc<Shared>,
}

impl Clone for FrameSender {
    fn clone(&self) -> Self {
        FrameSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Receiving half; owned by exactly one processor.
pub(crate) struct FrameReceiver {
    shared: Arc<Shared>,
}

/// A connected channel with `capacity` slots pre-reserved.
pub(crate) fn frame_channel_with_capacity(capacity: usize) -> (FrameSender, FrameReceiver) {
    let shared = Arc::new(Shared {
        inbox: Mutex::new(Inbox {
            frames: VecDeque::with_capacity(capacity),
            want: None,
        }),
        capacity,
        waker: OnceLock::new(),
    });
    (
        FrameSender {
            shared: Arc::clone(&shared),
        },
        FrameReceiver { shared },
    )
}

/// A connected channel with the historic 1024-slot pre-reserve.
#[cfg(test)]
pub(crate) fn frame_channel() -> (FrameSender, FrameReceiver) {
    frame_channel_with_capacity(MAX_CAPACITY)
}

impl FrameSender {
    /// Enqueue a frame and, when the receiver's wait filter says the frame
    /// can end its wait, unpark it. Never blocks; receivers may already be
    /// gone during teardown, in which case the frame is silently parked in
    /// the queue (the stale unpark is harmless — a finished task ignores
    /// wakes).
    pub(crate) fn send(&self, frame: Frame) {
        let mut inbox = self.shared.inbox.lock().unwrap();
        let wake = match (inbox.want, &frame) {
            (Some((src, tag)), Frame::Raw(p)) => p.src == src && p.tag == tag,
            _ => true,
        };
        inbox.frames.push_back(frame);
        // Decide the wake under the queue lock, so it is made before the
        // receiver can probe or arm again; wake its carrier after the lock
        // is released (see the module docs).
        let wakeups = match self.shared.waker.get() {
            Some((sched, dst)) if wake => Some(sched.unpark(*dst)),
            _ => None,
        };
        drop(inbox);
        if let Some(w) = wakeups {
            w.deliver();
        }
    }
}

impl FrameReceiver {
    /// Register the owning processor's scheduler handle so senders can
    /// unpark it. Called once by the machine driver before carriers start.
    pub(crate) fn attach_waker(&self, sched: Arc<Scheduler>, owner: usize) {
        assert!(
            self.shared.waker.set((sched, owner)).is_ok(),
            "channel waker attached twice"
        );
    }

    /// Dequeue the next frame if one is already queued. Clears the wait
    /// filter: after any probe, every frame wakes again until the next
    /// [`FrameReceiver::arm`].
    pub(crate) fn try_recv(&self) -> Option<Frame> {
        let mut inbox = self.shared.inbox.lock().unwrap();
        inbox.want = None;
        inbox.frames.pop_front()
    }

    /// Arm the wait filter ahead of a receive park: until the next probe,
    /// only a `Raw` frame from `src` under `tag` (or a non-`Raw` frame)
    /// unparks this receiver. Refuses, returning `false`, when a frame is
    /// already queued — the caller must drain it instead of parking.
    pub(crate) fn arm(&self, src: usize, tag: u64) -> bool {
        let mut inbox = self.shared.inbox.lock().unwrap();
        if !inbox.frames.is_empty() {
            return false;
        }
        inbox.want = Some((src, tag));
        true
    }

    /// The pre-reserved ring capacity, in frames.
    pub(crate) fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MachineError;
    use crate::sched::ParkOutcome;
    use std::time::{Duration, Instant};

    fn poison() -> Frame {
        Frame::Poison(MachineError::ProcPanicked {
            proc: 0,
            msg: String::new(),
        })
    }

    #[test]
    fn frames_arrive_in_order() {
        let (tx, rx) = frame_channel();
        tx.send(Frame::Ack { from: 1, seq: 10 });
        tx.send(Frame::Ack { from: 2, seq: 20 });
        for expect in [(1, 10), (2, 20)] {
            match rx.try_recv().unwrap() {
                Frame::Ack { from, seq } => assert_eq!((from, seq), expect),
                _ => panic!("wrong frame"),
            }
        }
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn send_unparks_the_attached_owner() {
        // A machine of two scheduled tasks with one permit: task 1 parks
        // (releasing the permit to task 0's acquire), then a send through
        // the waker-attached channel wakes it.
        let sched = Arc::new(Scheduler::new(2, 1));
        let (tx, rx) = frame_channel();
        rx.attach_waker(Arc::clone(&sched), 1);
        let s2 = Arc::clone(&sched);
        let parker = std::thread::spawn(move || {
            s2.acquire(1);
            let out = s2.park(1, 0.0, Duration::from_secs(5));
            s2.finish(1);
            out
        });
        sched.acquire(0);
        // Give task 1 the permit by parking task 0 until it is woken back.
        let s3 = Arc::clone(&sched);
        let t0 = Instant::now();
        let waker_thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(poison());
        });
        // Task 0 parks long; the send wakes task 1, which finishes and
        // frees the permit... but nothing ever wakes task 0, so it times
        // out — proving the send woke exactly its addressee.
        let out0 = s3.park(0, 0.0, Duration::from_millis(200));
        assert_eq!(out0, ParkOutcome::TimedOut);
        assert_eq!(parker.join().unwrap(), ParkOutcome::Woken);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(matches!(rx.try_recv(), Some(Frame::Poison(_))));
        waker_thread.join().unwrap();
    }

    fn pkt(src: usize, tag: u64) -> crate::message::Packet {
        crate::message::Packet {
            src,
            tag,
            arrival_ns: 0.0,
            words: 0,
            data: Arc::new(()),
            charge: None,
        }
    }

    fn raw(src: usize, tag: u64) -> Frame {
        Frame::Raw(pkt(src, tag))
    }

    /// A one-task scheduler whose task is running and owns `rx`. Whether a
    /// send unparked it shows in the next park: a wake token makes it
    /// return `Pending` at once, otherwise it times out.
    fn running_owner() -> (Arc<Scheduler>, FrameSender, FrameReceiver) {
        let sched = Arc::new(Scheduler::new(1, 1));
        sched.acquire(0);
        let (tx, rx) = frame_channel();
        rx.attach_waker(Arc::clone(&sched), 0);
        (sched, tx, rx)
    }

    fn was_unparked(sched: &Scheduler) -> bool {
        match sched.park(0, 0.0, Duration::from_millis(1)) {
            ParkOutcome::Pending => true,
            ParkOutcome::TimedOut => false,
            ParkOutcome::Woken => unreachable!("no other thread sends"),
        }
    }

    #[test]
    fn non_matching_raw_frame_does_not_unpark_an_armed_receiver() {
        let (sched, tx, rx) = running_owner();
        assert!(rx.arm(1, 7));
        tx.send(raw(2, 7));
        tx.send(raw(1, 8));
        assert!(!was_unparked(&sched), "wrong src or tag must not wake");
        assert_eq!(rx.shared.inbox.lock().unwrap().frames.len(), 2);
    }

    #[test]
    fn matching_raw_frame_unparks_until_the_next_probe_clears_the_filter() {
        let (sched, tx, rx) = running_owner();
        assert!(rx.arm(1, 7));
        tx.send(raw(1, 7));
        assert!(was_unparked(&sched));
        // The filter holds until the receiver probes.
        tx.send(raw(2, 0));
        assert!(!was_unparked(&sched));
        // A probe clears the filter; from then on every frame wakes.
        assert!(rx.try_recv().is_some());
        tx.send(raw(3, 0));
        assert!(was_unparked(&sched));
    }

    #[test]
    fn control_and_sequenced_frames_always_unpark() {
        let (sched, tx, rx) = running_owner();
        let frames = [
            Frame::Ack { from: 2, seq: 0 },
            Frame::Data {
                seq: 0,
                pkt: pkt(2, 0),
            },
            poison(),
        ];
        for frame in frames {
            while rx.try_recv().is_some() {}
            assert!(rx.arm(1, 7));
            tx.send(frame);
            assert!(was_unparked(&sched));
        }
    }

    #[test]
    fn arming_refuses_on_a_non_empty_queue() {
        let (sched, tx, rx) = running_owner();
        tx.send(raw(2, 0));
        assert!(
            was_unparked(&sched),
            "an unarmed receiver wakes on any frame"
        );
        assert!(
            !rx.arm(1, 7),
            "a queued frame must be drained, not slept on"
        );
        assert!(rx.try_recv().is_some());
        assert!(rx.arm(1, 7));
    }

    /// Many senders race one receiver that arms, parks and drains in a
    /// loop, waiting for each `(src, tag)` in an order unrelated to the
    /// arrival order. A lost wake would show as a timed-out park.
    #[test]
    fn armed_receiver_never_misses_its_frame_under_contention() {
        const SENDERS: usize = 4;
        const FRAMES: usize = 300;
        let sched = Arc::new(Scheduler::new(1, 1));
        let (tx, rx) = frame_channel();
        rx.attach_waker(Arc::clone(&sched), 0);
        let senders: Vec<_> = (0..SENDERS)
            .map(|src| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for tag in 0..FRAMES as u64 {
                        tx.send(raw(src, tag));
                        if tag % 16 == src as u64 {
                            tx.send(Frame::Ack {
                                from: src,
                                seq: tag,
                            });
                        }
                        if tag % 7 == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        sched.acquire(0);
        let mut got = vec![vec![false; FRAMES]; SENDERS];
        for tag in 0..FRAMES {
            for src in (0..SENDERS).rev() {
                loop {
                    while let Some(frame) = rx.try_recv() {
                        if let Frame::Raw(p) = frame {
                            got[p.src][p.tag as usize] = true;
                        }
                    }
                    if got[src][tag] {
                        break;
                    }
                    if rx.arm(src, tag as u64) {
                        let out = sched.park(0, 0.0, Duration::from_secs(5));
                        assert_ne!(out, ParkOutcome::TimedOut, "missed ({src}, {tag})");
                    }
                }
            }
        }
        sched.finish(0);
        for h in senders {
            h.join().unwrap();
        }
    }

    #[test]
    fn capacity_is_scale_aware() {
        assert_eq!(default_capacity(1), 1024);
        assert_eq!(default_capacity(8), 1024);
        assert_eq!(
            default_capacity(64),
            1024,
            "small P keeps the historic ring"
        );
        assert_eq!(default_capacity(128), 512);
        assert_eq!(default_capacity(1024), 64);
        assert_eq!(default_capacity(4096), 16);
        assert_eq!(default_capacity(1 << 20), 16, "floor holds");
        let (_tx, rx) = frame_channel_with_capacity(default_capacity(4096));
        assert_eq!(rx.capacity(), 16);
        assert_eq!(ring_bytes(16), 16 * std::mem::size_of::<Frame>() as u64);
    }
}
