//! Typed, per-processor buffer pool for allocation-free plan execution.
//!
//! Re-executing a cached communication plan sends the same message shapes
//! to the same destinations every iteration. Instead of allocating fresh
//! per-destination buffers each time, the executor checks buffers out of a
//! pool keyed by `(plan key, destination, payload type)`, fills them in
//! place, and ships them as [`Arc`]-shared packets; the *receiver* decodes
//! each buffer in place in the sender's slot, which frees the slot for the
//! sender's next checkout. From the second execution onward the whole
//! compose+redistribute loop touches no allocator (verified by the
//! counting allocator in the bench harness).
//!
//! Ownership protocol (see DESIGN.md §11): every slot is a tiny state
//! machine —
//!
//! ```text
//!   Free ──checkout (sender, resets)──▶ Empty ──stash (sender)──▶ Staged
//!     ▲                                                             │
//!     └──────────── decode (receiver, in place, keeps data) ◀───────┘
//! ```
//!
//! Decoding leaves the buffer's contents in the slot, so a receiver that
//! crashes after a decode and is respawned can decode the same slot again
//! while replaying its log. Each `(key, dst, type)` entry starts with two
//! slots used alternately, so a sender can compose iteration `n+1` while
//! the receiver still holds iteration `n`. Which slot a checkout may take
//! depends on the mode:
//!
//! - **Plain runs**: the rotation's slot, once `Free`. A slot still
//!   `Staged` is owed a decode, and the sender parks until that decode
//!   wakes it (wall-clock only — simulated time is untouched).
//! - **Replay-safe runs** (under crash recovery): a slot sent since this
//!   processor's last epoch boundary is *pinned* — its replay-log entry may
//!   still be replayed — and is never reused. Checkout takes the first
//!   unpinned slot, reclaiming a `Staged` one (an earlier epoch's frame
//!   that deduplication dropped, so nothing will ever decode it), and grows
//!   the entry by one slot when every slot is pinned. It never parks:
//!   nothing wakes a sender when a pin lapses. Pins are released at each
//!   epoch boundary, so steady-state executes reuse a fixed set of slots.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::message::Payload;
use crate::sched::Scheduler;

/// A pool-managed payload: resettable to an empty-but-capacitated state so
/// the next fill reuses the allocation.
pub trait Reusable: Payload + Default {
    /// Clear contents, keeping capacity.
    fn reset(&mut self);
}

impl<T: crate::message::Wire> Reusable for Vec<T> {
    fn reset(&mut self) {
        self.clear();
    }
}

/// Where a slot's buffer currently lives.
enum SlotState<B> {
    /// Decoded (or never used), ready for checkout. Holds the last decoded
    /// contents until the next checkout resets them.
    Free(B),
    /// Filled by the sender, awaiting (or in) transit and decode.
    Staged(B),
    /// Checked out: the sender is filling it.
    Empty,
}

/// One shareable buffer slot. The `Arc<PoolSlot<B>>` itself is the packet
/// payload: the receiver downcasts it and decodes the buffer in place.
pub struct PoolSlot<B> {
    state: Mutex<SlotState<B>>,
    /// The slot owner's scheduler handle, registered only while the owner
    /// is parked in back-pressure ([`crate::proc::Proc::pool_checkout`]):
    /// the receiver's decode — which runs on a different carrier — unparks
    /// the owner instead of leaving it to spin or poll.
    waker: Mutex<Option<(Arc<Scheduler>, usize)>>,
}

impl<B: Reusable> PoolSlot<B> {
    fn new() -> PoolSlot<B> {
        PoolSlot {
            state: Mutex::new(SlotState::Free(B::default())),
            waker: Mutex::new(None),
        }
    }

    /// Register (or clear) the owner's park waker for this slot.
    pub(crate) fn set_waker(&self, waker: Option<(Arc<Scheduler>, usize)>) {
        *self.waker.lock().unwrap() = waker;
    }

    /// Take the buffer, reset for refilling, if the slot is `Free` — or
    /// also `Staged` when `reclaim_staged` (an orphaned frame nothing will
    /// decode). `None` while the previous send through this slot is still
    /// owed its decode.
    pub(crate) fn try_checkout(&self, reclaim_staged: bool) -> Option<B> {
        let mut st = self.state.lock().unwrap();
        match std::mem::replace(&mut *st, SlotState::Empty) {
            SlotState::Free(mut b) => {
                b.reset();
                Some(b)
            }
            SlotState::Staged(mut b) if reclaim_staged => {
                b.reset();
                Some(b)
            }
            other => {
                *st = other;
                None
            }
        }
    }

    /// Park a filled buffer for the receiver (sender side, after filling).
    pub fn stash(&self, buf: B) {
        let mut st = self.state.lock().unwrap();
        debug_assert!(matches!(*st, SlotState::Empty), "stash into non-empty slot");
        *st = SlotState::Staged(buf);
    }

    /// Words the staged buffer will occupy on the wire (sender side,
    /// between `stash` and the actual send).
    pub fn staged_words(&self) -> crate::cost::Words {
        let st = self.state.lock().unwrap();
        match &*st {
            SlotState::Staged(b) => b.wire_words(),
            _ => panic!("staged_words on a slot that is not staged"),
        }
    }

    /// Decode the buffer in place (receiver side): run `f` over it, mark
    /// the slot `Free`, and unpark the owner if it is waiting on this
    /// slot's back-pressure. The contents stay readable, so a replayed
    /// frame decodes an already-decoded slot again with the same result.
    ///
    /// # Panics
    /// Panics if the slot is checked out — FIFO delivery guarantees the
    /// sender stashed before the packet became visible, and a pinned slot
    /// is never checked out while a replay may still read it.
    pub fn decode<R>(&self, f: impl FnOnce(&B) -> R) -> R {
        let mut st = self.state.lock().unwrap();
        let buf = match std::mem::replace(&mut *st, SlotState::Empty) {
            SlotState::Staged(b) | SlotState::Free(b) => b,
            SlotState::Empty => panic!("pool slot decoded while its sender is filling it"),
        };
        let out = f(&buf);
        *st = SlotState::Free(buf);
        drop(st);
        // Decide the wake under the waker lock: once the owner's
        // `set_waker(None)` returns, no wake from this slot is still
        // undecided, so none can ready one of the owner's later, unrelated
        // parks. The OS wake-up is delivered after the lock is released; a
        // late one only sends a later park round its wait loop again.
        let waker = self.waker.lock().unwrap();
        let wakeups = waker.as_ref().map(|(sched, owner)| sched.unpark(*owner));
        drop(waker);
        if let Some(w) = wakeups {
            w.deliver();
        }
        out
    }
}

/// The observable state of one `(key, dst, type)` entry, which is what an
/// epoch checkpoint preserves: which rotation position the next checkout
/// takes, and the charged high-water per position. Memory accounting
/// charges a position's *growth* once (its buffer is reused, so its
/// footprint is its largest staging, never the sum); keying the high-water
/// by position rather than by physical slot keeps `mem.pool` independent
/// of slot growth and of a respawn's fresh slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Rotation {
    flip: usize,
    charged: [u64; 2],
}

type AnySlot = Arc<dyn Any + Send + Sync>;

/// One `(key, dst, type)` entry. Only what a plain, unobserved execute
/// touches lives inline — the two rotation slots and two indices — because
/// every frame looks its entry up while it is cold in cache; the rest is
/// boxed and created on first use.
struct Entry {
    slots: [AnySlot; 2],
    /// Rotation position (0 or 1) the next checkout takes.
    flip: usize,
    /// Index of the slot handed out by the most recent checkout.
    current: usize,
    cold: Option<Box<Cold>>,
}

#[derive(Default)]
struct Cold {
    /// Charged high-water per rotation position (see [`Rotation`]).
    charged: [u64; 2],
    /// Slots grown past the two inline ones (indices 2.. of the entry).
    grown: Vec<AnySlot>,
    /// Indices of the slots sent since this processor's last epoch
    /// boundary under replay-safe reuse.
    pinned: Vec<usize>,
}

impl Entry {
    fn new<B: Reusable>(rot: Rotation) -> Entry {
        Entry {
            slots: [
                Arc::new(PoolSlot::<B>::new()),
                Arc::new(PoolSlot::<B>::new()),
            ],
            flip: rot.flip,
            current: 0,
            cold: (rot.charged != [0; 2]).then(|| {
                Box::new(Cold {
                    charged: rot.charged,
                    ..Cold::default()
                })
            }),
        }
    }

    fn rotation(&self) -> Rotation {
        Rotation {
            flip: self.flip,
            charged: self.cold.as_ref().map_or([0; 2], |c| c.charged),
        }
    }

    fn cold(&mut self) -> &mut Cold {
        self.cold.get_or_insert_default()
    }

    fn len(&self) -> usize {
        2 + self.cold.as_ref().map_or(0, |c| c.grown.len())
    }

    fn pinned(&self, i: usize) -> bool {
        self.cold.as_ref().is_some_and(|c| c.pinned.contains(&i))
    }

    fn slot<B: Reusable>(&self, i: usize) -> Arc<PoolSlot<B>> {
        let s = match i {
            0 | 1 => &self.slots[i],
            _ => &self.cold.as_ref().expect("grown slot").grown[i - 2],
        };
        Arc::clone(s)
            .downcast::<PoolSlot<B>>()
            .expect("pool entry type mismatch")
    }
}

/// Result of [`BufferPool::checkout`].
pub(crate) enum Checkout<B> {
    /// A reset buffer to fill and the slot to stash it in; `grown` when
    /// the entry added a slot to provide it.
    Ready {
        slot: Arc<PoolSlot<B>>,
        buf: B,
        grown: bool,
    },
    /// The rotation's slot is still owed its receiver's decode (plain runs
    /// only): park until that decode returns it.
    Busy(Arc<PoolSlot<B>>),
}

type Key = (u64, usize, TypeId);

/// A per-processor pool of reusable send buffers.
#[derive(Default)]
pub struct BufferPool {
    entries: HashMap<Key, Entry>,
    /// Rotations restored from an epoch checkpoint, consulted when an entry
    /// is first (re-)created after a crash respawn. Only the rotation
    /// survives a crash: the respawned processor's slots are fresh, and the
    /// old ones live on only in the packets and logs that still share them.
    restored: HashMap<Key, Rotation>,
    /// Replay-safe reuse (under crash recovery): pin sent slots until the
    /// next epoch boundary; grow instead of parking.
    replay_safe: bool,
}

impl BufferPool {
    /// Switch to replay-safe reuse; see the module docs.
    pub(crate) fn set_replay_safe(&mut self) {
        self.replay_safe = true;
    }

    /// Check out a buffer for the next send of a `B` to `dst` under plan
    /// `key`, advancing the entry's two-position rotation. Creates (and
    /// allocates) the entry on first use; steady-state calls only flip an
    /// index and lock one slot.
    pub(crate) fn checkout<B: Reusable>(&mut self, key: u64, dst: usize) -> Checkout<B> {
        let k = (key, dst, TypeId::of::<B>());
        let restored = &self.restored;
        let e = self
            .entries
            .entry(k)
            .or_insert_with(|| Entry::new::<B>(restored.get(&k).copied().unwrap_or_default()));
        let first = e.flip;
        e.flip ^= 1;
        if !self.replay_safe {
            e.current = first;
            let slot = e.slot::<B>(first);
            return match slot.try_checkout(false) {
                Some(buf) => Checkout::Ready {
                    slot,
                    buf,
                    grown: false,
                },
                None => Checkout::Busy(slot),
            };
        }
        let order = std::iter::once(first).chain((0..e.len()).filter(|&i| i != first));
        for i in order {
            if e.pinned(i) {
                continue;
            }
            let slot = e.slot::<B>(i);
            if let Some(buf) = slot.try_checkout(true) {
                e.current = i;
                return Checkout::Ready {
                    slot,
                    buf,
                    grown: false,
                };
            }
        }
        let slot = Arc::new(PoolSlot::<B>::new());
        let buf = slot.try_checkout(false).expect("a fresh slot is free");
        e.cold().grown.push(Arc::clone(&slot) as _);
        e.current = e.len() - 1;
        Checkout::Ready {
            slot,
            buf,
            grown: true,
        }
    }

    /// The slot handed out by the most recent [`BufferPool::checkout`] for
    /// this `(key, dst, type)` — the one currently staged. Used by the
    /// self-message path, where sender and receiver are the same processor.
    pub(crate) fn current_slot<B: Reusable>(&self, key: u64, dst: usize) -> Arc<PoolSlot<B>> {
        let e = self
            .entries
            .get(&(key, dst, TypeId::of::<B>()))
            .expect("current_slot before any checkout");
        e.slot::<B>(e.current)
    }

    /// The staged slot about to be sent to `dst`, pinned under replay-safe
    /// reuse.
    pub(crate) fn sending<B: Reusable>(&mut self, key: u64, dst: usize) -> Arc<PoolSlot<B>> {
        let replay_safe = self.replay_safe;
        let e = self.entry_mut::<B>(key, dst);
        if replay_safe {
            let current = e.current;
            e.cold().pinned.push(current);
        }
        e.slot::<B>(e.current)
    }

    /// Raise the charged high-water of the rotation position the latest
    /// checkout for `(key, dst)` took to `bytes`, returning the growth over
    /// the previous high-water (0 once the position is warm).
    pub(crate) fn charge<B: Reusable>(&mut self, key: u64, dst: usize, bytes: u64) -> u64 {
        let e = self.entry_mut::<B>(key, dst);
        // `flip` already points past the position this checkout took.
        let pos = e.flip ^ 1;
        let hw = &mut e.cold().charged[pos];
        let growth = bytes.saturating_sub(*hw);
        *hw = (*hw).max(bytes);
        growth
    }

    fn entry_mut<B: Reusable>(&mut self, key: u64, dst: usize) -> &mut Entry {
        self.entries
            .get_mut(&(key, dst, TypeId::of::<B>()))
            .expect("send of a slot that was never checked out")
    }

    /// Release every pin at an epoch boundary: every frame sent since the
    /// last boundary has been decoded, and each receiver truncates its
    /// replay log before its next program step, so no replay can read
    /// those slots again.
    pub(crate) fn release_pins(&mut self) {
        for c in self.entries.values_mut().filter_map(|e| e.cold.as_mut()) {
            c.pinned.clear();
        }
    }

    /// Freeze the pool's rotations for an epoch checkpoint. Rotations
    /// restored earlier but not yet re-materialised as live entries are
    /// carried through, so repeated snapshot/restore cycles are lossless.
    pub(crate) fn snapshot(&self) -> PoolSnapshot {
        let mut rots = self.restored.clone();
        for (k, e) in &self.entries {
            rots.insert(*k, e.rotation());
        }
        PoolSnapshot { rots }
    }

    /// Reset this (fresh) pool to a checkpointed rotation — the inverse of
    /// [`BufferPool::snapshot`], used when a crashed processor is respawned.
    pub(crate) fn restore(&mut self, snap: &PoolSnapshot) {
        self.entries.clear();
        self.restored = snap.rots.clone();
    }
}

/// Opaque checkpoint of a [`BufferPool`]: per `(plan key, destination,
/// payload type)` entry, which rotation position the next checkout takes
/// and the charged high-water of each position. Captured at epoch
/// boundaries by the crash-recovery machinery; see [`crate::recovery`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    rots: HashMap<Key, Rotation>,
}

static NEXT_POOL_KEY: AtomicU64 = AtomicU64::new(1);

/// A process-unique pool key. Each plan takes one at planning time; pools
/// are per-processor, so keys only need to be unique locally — but a global
/// counter is the simplest way to also keep them unique across plans.
pub fn fresh_pool_key() -> u64 {
    NEXT_POOL_KEY.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Check out, fill with `v`, and stash: the sender's half of a send.
    fn fill(
        pool: &mut BufferPool,
        key: u64,
        dst: usize,
        v: i32,
    ) -> (Arc<PoolSlot<Vec<i32>>>, bool) {
        match pool.checkout::<Vec<i32>>(key, dst) {
            Checkout::Ready {
                slot,
                mut buf,
                grown,
            } => {
                buf.push(v);
                slot.stash(buf);
                (slot, grown)
            }
            Checkout::Busy(_) => panic!("checkout parked"),
        }
    }

    /// One full send: fill, mark sent, and decode on the receiver side.
    fn cycle(pool: &mut BufferPool, key: u64, dst: usize) -> Arc<PoolSlot<Vec<i32>>> {
        let (slot, _) = fill(pool, key, dst, 1);
        pool.sending::<Vec<i32>>(key, dst);
        slot.decode(|_| ());
        slot
    }

    #[test]
    fn slot_state_machine_roundtrip() {
        let slot = PoolSlot::<Vec<i32>>::new();
        let mut b = slot.try_checkout(false).expect("fresh slot is free");
        assert!(slot.try_checkout(true).is_none(), "empty slot is not free");
        b.push(7);
        slot.stash(b);
        assert_eq!(slot.staged_words(), 1);
        assert!(
            slot.try_checkout(false).is_none(),
            "staged slot is not free"
        );
        assert_eq!(slot.decode(|b| b.clone()), vec![7]);
        assert_eq!(
            slot.decode(|b| b.clone()),
            vec![7],
            "a replayed decode reads the same contents"
        );
        let again = slot
            .try_checkout(false)
            .expect("decoded slot is free again");
        assert!(again.is_empty(), "checkout resets contents");
        assert!(again.capacity() >= 1, "checkout keeps capacity");
    }

    #[test]
    fn pool_alternates_two_slots_per_destination() {
        let mut pool = BufferPool::default();
        let a = cycle(&mut pool, 1, 0);
        assert!(Arc::ptr_eq(&a, &pool.current_slot::<Vec<i32>>(1, 0)));
        let b = cycle(&mut pool, 1, 0);
        assert!(!Arc::ptr_eq(&a, &b));
        let c = cycle(&mut pool, 1, 0);
        assert!(Arc::ptr_eq(&a, &c), "third checkout reuses the first slot");
        // Different keys, destinations, and types get distinct entries.
        let other = cycle(&mut pool, 2, 0);
        assert!(!Arc::ptr_eq(&a, &other));
        assert!(matches!(
            pool.checkout::<Vec<(u32, i32)>>(1, 0),
            Checkout::Ready { .. }
        ));
    }

    #[test]
    fn plain_checkout_parks_on_a_slot_owed_its_decode() {
        let mut pool = BufferPool::default();
        let (a, _) = fill(&mut pool, 1, 0, 1);
        fill(&mut pool, 1, 0, 2);
        let Checkout::Busy(busy) = pool.checkout::<Vec<i32>>(1, 0) else {
            panic!("a staged slot is owed its decode");
        };
        assert!(Arc::ptr_eq(&a, &busy));
        assert!(busy.try_checkout(false).is_none());
        a.decode(|_| ());
        assert!(
            busy.try_checkout(false).is_some(),
            "the decode frees the slot"
        );
    }

    #[test]
    fn pinned_slot_is_skipped_and_the_entry_grows() {
        let mut pool = BufferPool::default();
        pool.set_replay_safe();
        let a = cycle(&mut pool, 1, 0);
        let b = cycle(&mut pool, 1, 0);
        // Both slots are decoded and free, but sent this epoch: pinned.
        let (c, grown) = fill(&mut pool, 1, 0, 3);
        assert!(grown, "every slot pinned: the entry grows");
        assert!(!Arc::ptr_eq(&c, &a) && !Arc::ptr_eq(&c, &b));
        assert_eq!(a.decode(|v| v.clone()), vec![1], "pinned data is intact");
        // After the boundary the pins lapse and the rotation reuses slots.
        pool.sending::<Vec<i32>>(1, 0);
        c.decode(|_| ());
        pool.release_pins();
        let (d, grown) = fill(&mut pool, 1, 0, 4);
        assert!(!grown);
        assert!(Arc::ptr_eq(&d, &b), "rotation position 1 is slot b again");
    }

    #[test]
    fn staged_slot_nothing_references_is_reclaimed() {
        let mut pool = BufferPool::default();
        pool.set_replay_safe();
        // A send whose frame deduplication dropped: sent, never decoded.
        let (orphan, _) = fill(&mut pool, 1, 0, 9);
        pool.sending::<Vec<i32>>(1, 0);
        cycle(&mut pool, 1, 0);
        pool.release_pins();
        drop(orphan);
        let Checkout::Ready { slot, buf, grown } = pool.checkout::<Vec<i32>>(1, 0) else {
            panic!("replay-safe checkout never parks");
        };
        assert!(!grown, "the orphaned staged slot is reclaimed");
        assert!(buf.is_empty(), "reclaimed buffer is reset");
        assert_eq!(Arc::strong_count(&slot), 2, "entry + this handle");
    }

    #[test]
    fn replay_safe_checkout_never_parks_on_a_pin() {
        let mut pool = BufferPool::default();
        pool.set_replay_safe();
        // Sent but not yet decoded: a plain run would park on these.
        for n in 0..5 {
            let (_, grown) = fill(&mut pool, 1, 0, n);
            pool.sending::<Vec<i32>>(1, 0);
            assert_eq!(grown, n >= 2, "checkout {n}");
        }
    }

    #[test]
    fn fresh_keys_are_unique() {
        let a = fresh_pool_key();
        let b = fresh_pool_key();
        assert_ne!(a, b);
    }

    proptest::proptest! {
        /// The pool's checkpoint captures exactly its observable state (the
        /// per-entry rotation and charged high-waters): after an arbitrary
        /// send history, restoring a fresh pool from the snapshot must make
        /// it indistinguishable — identical re-snapshot, and identical
        /// rotation and charges on every subsequent send.
        #[test]
        fn pool_snapshot_restore_roundtrip(
            history in proptest::collection::vec((0u64..3, 0usize..3, 0u64..9), 0..40),
            future in proptest::collection::vec((0u64..3, 0usize..3, 0u64..9), 0..10),
        ) {
            fn send(pool: &mut BufferPool, key: u64, dst: usize, bytes: u64) {
                let (slot, _) = fill(pool, key, dst, 0);
                pool.sending::<Vec<i32>>(key, dst);
                pool.charge::<Vec<i32>>(key, dst, bytes);
                slot.decode(|_| ());
            }
            let mut pool = BufferPool::default();
            for &(key, dst, bytes) in &history {
                send(&mut pool, key, dst, bytes);
            }
            let snap = pool.snapshot();

            let mut respawned = BufferPool::default();
            respawned.restore(&snap);
            proptest::prop_assert_eq!(&respawned.snapshot(), &snap,
                "restore must reproduce the checkpointed rotation");

            // Both pools rotate in lockstep from here on. Slot *identity*
            // differs (the respawned pool allocates fresh slots) but the
            // rotation position and charges must match, which we observe
            // through a second snapshot.
            for &(key, dst, bytes) in &future {
                send(&mut pool, key, dst, bytes);
                send(&mut respawned, key, dst, bytes);
            }
            proptest::prop_assert_eq!(&respawned.snapshot(), &pool.snapshot());
        }
    }
}
