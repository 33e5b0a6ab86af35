//! Many-to-many personalized communication.
//!
//! The redistribution stage of PACK/UNPACK needs every processor to send a
//! different message to (potentially) every other processor. The paper uses
//! the *linear permutation* scheduling algorithm [9] with active messages:
//! in round `k = 1 .. P-1`, processor `r` sends to `(r + k) mod P` and
//! receives from `(r - k) mod P`, so every round is a perfect permutation
//! and no node is hit by two senders at once.
//!
//! Alternative schedules are provided for the scheduling-algorithm
//! comparison the paper defers to its technical report [1]: a naive push,
//! and the pairwise-exchange (XOR) schedule classically used on hypercubes.
//! Under the contention-free two-level model of Section 2 the schedules
//! cost nearly the same — which is itself the model's point; on a real
//! network the permutation schedules avoid node contention.

use crate::message::{Packet, Payload};
use crate::pool::Reusable;
use crate::proc::{tags, Group, Proc};

/// Message schedule for [`alltoallv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum A2aSchedule {
    /// Linear permutation [9]: round `k` pairs `r → (r+k) mod P`.
    #[default]
    LinearPermutation,
    /// Send everything immediately in rank order, then receive in rank order.
    NaivePush,
    /// Pairwise exchange: round `k` pairs `r ↔ r XOR k`. A perfect matching
    /// every round when `P` is a power of two (the classic hypercube
    /// schedule); for other `P` the rounds that map out of range fall back
    /// to the linear-permutation pairing.
    PairwiseExchange,
}

/// Exchange `sends[j]` (destined for group rank `j`) among all members;
/// returns the received payloads indexed by source rank. `recv[my_rank]` is
/// the self-message, moved without charge (the paper's implementation skips
/// the local copy).
///
/// Works for any [`Payload`] (plain element vectors, or structured message
/// formats like the compact message scheme's segment stream). Empty slots
/// (zero wire words) transmit for schedule regularity but charge nothing —
/// a real implementation simply would not send a message.
///
/// # Panics
/// Panics if `sends.len() != group.size()`.
pub fn alltoallv<P: Payload + Default>(
    proc: &mut Proc,
    group: &Group,
    mut sends: Vec<P>,
    schedule: A2aSchedule,
) -> Vec<P> {
    let n = group.size();
    assert_eq!(sends.len(), n, "one send buffer per group member required");
    let me = group.my_rank();

    let mut recvs: Vec<P> = (0..n).map(|_| P::default()).collect();
    recvs[me] = std::mem::take(&mut sends[me]);

    match schedule {
        A2aSchedule::LinearPermutation => proc.with_stage("a2a.linear", |proc| {
            for k in 1..n {
                let dst = (me + k) % n;
                let src = (me + n - k) % n;
                proc.send(
                    group.id_of(dst),
                    tags::ALLTOALL,
                    std::mem::take(&mut sends[dst]),
                );
                recvs[src] = proc.recv(group.id_of(src), tags::ALLTOALL);
            }
        }),
        A2aSchedule::NaivePush => proc.with_stage("a2a.naive", |proc| {
            for k in 1..n {
                let dst = (me + k) % n;
                proc.send(
                    group.id_of(dst),
                    tags::ALLTOALL,
                    std::mem::take(&mut sends[dst]),
                );
            }
            for k in 1..n {
                let src = (me + n - k) % n;
                recvs[src] = proc.recv(group.id_of(src), tags::ALLTOALL);
            }
        }),
        A2aSchedule::PairwiseExchange => {
            if n.is_power_of_two() {
                proc.with_stage("a2a.pairwise", |proc| {
                    for k in 1..n {
                        let partner = me ^ k;
                        proc.send(
                            group.id_of(partner),
                            tags::ALLTOALL,
                            std::mem::take(&mut sends[partner]),
                        );
                        recvs[partner] = proc.recv(group.id_of(partner), tags::ALLTOALL);
                    }
                })
            } else {
                // No perfect XOR matching exists; use the linear pairing.
                return proc.with_stage("a2a.linear", |proc| {
                    finish_linear(proc, group, sends, recvs)
                });
            }
        }
    }
    recvs
}

/// Which peers actually exchange data in a planned many-to-many: `to[j]`
/// means this processor sends a (possibly empty) message to group rank `j`,
/// `from[j]` means rank `j` sends one to us. Captured once at plan time so
/// that [`alltoallv_pooled`] can skip the send/recv rounds of silent pairs
/// entirely — the count-exchange a fresh `alltoallv` would implicitly redo
/// every call.
///
/// The flags must be *pairwise consistent* across the group: `from[j]` here
/// must equal `to[my_rank]` on rank `j`, or a planned exchange deadlocks
/// waiting for a message that is never sent. [`A2aPlan::exchange`]
/// establishes that consistency collectively; [`A2aPlan::from_flags`] trusts
/// the caller (for protocols where both directions are locally known, e.g. a
/// request/reply pattern replying only to actual requesters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct A2aPlan {
    /// `to[j]`: this rank sends to group rank `j`.
    pub to: Vec<bool>,
    /// `from[j]`: group rank `j` sends to this rank.
    pub from: Vec<bool>,
}

impl A2aPlan {
    /// Build from flags the caller already knows in both directions.
    pub fn from_flags(to: Vec<bool>, from: Vec<bool>) -> A2aPlan {
        assert_eq!(to.len(), from.len(), "direction flags must cover the group");
        A2aPlan { to, from }
    }

    /// Collective: derive the receive flags by a one-round exchange of the
    /// locally known send flags. The flags are single bits riding zero-word
    /// messages, so the round is free under the word-granular cost model —
    /// deliberately so: a fresh [`alltoallv`] gets the same pair-population
    /// knowledge for free through its padding messages, and the planned
    /// path must not cost more for learning once what the unplanned path
    /// re-learns implicitly on every call.
    pub fn exchange(proc: &mut Proc, group: &Group, to: Vec<bool>, schedule: A2aSchedule) -> Self {
        let n = group.size();
        assert_eq!(to.len(), n, "one send flag per group member required");
        let sends: Vec<FlagMsg> = to.iter().map(|&t| FlagMsg(t)).collect();
        let recvs = proc.with_stage("a2a.flags", |proc| alltoallv(proc, group, sends, schedule));
        let from = recvs.iter().map(|r| r.0).collect();
        A2aPlan { to, from }
    }

    /// True iff neither direction of the `(me → dst, src → me)` round pairing
    /// moves data, i.e. the whole round can be skipped.
    #[inline]
    fn round_is_silent(&self, dst: usize, src: usize) -> bool {
        !self.to[dst] && !self.from[src]
    }
}

/// A single send/no-send bit for [`A2aPlan::exchange`]: zero words on the
/// wire (sub-word control information, like the empty padding slots of a
/// plain [`alltoallv`]), but still distinguishable content on arrival.
#[derive(Debug, Clone, Copy, Default)]
struct FlagMsg(bool);

impl Payload for FlagMsg {
    fn wire_words(&self) -> crate::cost::Words {
        0
    }

    fn clone_payload(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(*self)
    }
}

/// [`alltoallv`] with the pair population known in advance, over pooled
/// buffers: the allocation-free steady state of a cached plan's execute
/// loop. Rounds where neither direction moves data are skipped outright
/// instead of exchanging empty padding messages; under the cost model the
/// padding was already free, so the simulated time matches the unplanned
/// exchange — the savings are real messages, real synchronization, and the
/// per-call count knowledge the plan already holds.
///
/// The caller has already checked out, filled, and stashed the pool slot
/// for every destination `dst` with `plan.to[dst]` — including its own rank,
/// whose slot is never sent and is decoded in place (the uncharged
/// self-move of [`alltoallv`]). Received messages land in `out` as raw
/// [`Packet`]s whose payload is the *sender's* `Arc<PoolSlot<B>>`; the
/// decoder downcasts and decodes the buffer in place with
/// [`crate::PoolSlot::decode`] — which is what frees the sender's slot for
/// its next checkout.
///
/// Always runs over the world communicator (group rank = processor id);
/// the span is `a2a.planned` under every schedule (see DESIGN.md §11).
pub fn alltoallv_pooled<B: Reusable>(
    proc: &mut Proc,
    plan: &A2aPlan,
    schedule: A2aSchedule,
    key: u64,
    out: &mut Vec<Packet>,
) {
    let n = proc.nprocs();
    assert_eq!(plan.to.len(), n, "plan must cover the world");
    assert_eq!(plan.from.len(), n, "plan must cover the world");
    let me = proc.id();

    // Wall attribution: each received packet's charged wire words, so the
    // profile reports the exchange's effective receive bandwidth.
    fn recv_attributed(proc: &mut Proc, src: usize, out: &mut Vec<Packet>) {
        let pkt = proc.recv_packet(src, tags::ALLTOALL);
        proc.wall_bytes(pkt.words as u64 * 4);
        out.push(pkt);
    }

    proc.wall_span("a2a.pooled", |proc| {
        proc.with_stage("a2a.planned", |proc| match schedule {
            A2aSchedule::NaivePush => {
                for k in 1..n {
                    let dst = (me + k) % n;
                    if plan.to[dst] {
                        proc.send_pooled::<B>(dst, tags::ALLTOALL, key);
                    }
                }
                for k in 1..n {
                    let src = (me + n - k) % n;
                    if plan.from[src] {
                        recv_attributed(proc, src, out);
                    }
                }
            }
            A2aSchedule::PairwiseExchange if n.is_power_of_two() => {
                for k in 1..n {
                    let partner = me ^ k;
                    if plan.to[partner] {
                        proc.send_pooled::<B>(partner, tags::ALLTOALL, key);
                    }
                    if plan.from[partner] {
                        recv_attributed(proc, partner, out);
                    }
                }
            }
            // Linear permutation, and the non-power-of-two pairwise fallback.
            _ => {
                for k in 1..n {
                    let dst = (me + k) % n;
                    let src = (me + n - k) % n;
                    if plan.round_is_silent(dst, src) {
                        continue;
                    }
                    if plan.to[dst] {
                        proc.send_pooled::<B>(dst, tags::ALLTOALL, key);
                    }
                    if plan.from[src] {
                        recv_attributed(proc, src, out);
                    }
                }
            }
        });
    });
}

fn finish_linear<P: Payload + Default>(
    proc: &mut Proc,
    group: &Group,
    mut sends: Vec<P>,
    mut recvs: Vec<P>,
) -> Vec<P> {
    let n = group.size();
    let me = group.my_rank();
    for k in 1..n {
        let dst = (me + k) % n;
        let src = (me + n - k) % n;
        proc.send(
            group.id_of(dst),
            tags::ALLTOALL,
            std::mem::take(&mut sends[dst]),
        );
        recvs[src] = proc.recv(group.id_of(src), tags::ALLTOALL);
    }
    recvs
}

/// A bundle-carrying message for the two-phase schedule: each bundle is
/// tagged with a peer rank (the final destination in phase 1, the original
/// source in phase 2). Two header words per bundle on the wire.
struct Bundled<T> {
    bundles: Vec<(u32, Vec<T>)>,
}

impl<T> Default for Bundled<T> {
    fn default() -> Self {
        Bundled {
            bundles: Vec::new(),
        }
    }
}

impl<T: Wire> Clone for Bundled<T> {
    fn clone(&self) -> Self {
        Bundled {
            bundles: self.bundles.clone(),
        }
    }
}

impl<T: Wire> Payload for Bundled<T> {
    fn wire_words(&self) -> crate::cost::Words {
        self.bundles
            .iter()
            .map(|(_, v)| 2 + v.len() * T::WORDS)
            .sum()
    }

    fn clone_payload(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.clone())
    }
}

use crate::message::Wire;

/// Two-phase (row–column) schedule for *sparse* many-to-many exchanges.
///
/// Ranks are arranged on a `rows × cols` virtual grid (`cols = ⌈√P⌉`).
/// Phase 1 forwards each message to the row-mate sharing the destination's
/// column; phase 2 delivers within the column. Each processor pays at most
/// `≈ 2√P` message start-ups instead of `P-1`, at the price of moving every
/// element twice plus two header words per (source, destination) pair — the
/// classic trade for exchanges of many tiny messages ([9]'s all-to-many
/// family). For dense exchanges prefer [`alltoallv`].
///
/// Semantics match [`alltoallv`]: `sends[j]` goes to group rank `j`; the
/// result is indexed by original source rank.
pub fn alltoallv_two_phase<T: Wire>(
    proc: &mut Proc,
    group: &Group,
    mut sends: Vec<Vec<T>>,
    schedule: A2aSchedule,
) -> Vec<Vec<T>> {
    let n = group.size();
    assert_eq!(sends.len(), n, "one send buffer per group member required");
    let me = group.my_rank();
    let cols = (n as f64).sqrt().ceil() as usize;
    if cols <= 1 || n <= 3 {
        return alltoallv(proc, group, sends, schedule);
    }

    // Relay for traffic from `src`'s row toward `dst`: the processor in
    // src's row with dst's column, falling back to row 0 (always full) when
    // the ragged last row lacks that column.
    let relay_of = |src: usize, dst: usize| -> usize {
        let r = (src / cols) * cols + dst % cols;
        if r < n {
            r
        } else {
            dst % cols
        }
    };

    // Phase 1: bundle by relay. The self-slot skips both phases.
    let mut recvs: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    recvs[me] = std::mem::take(&mut sends[me]);
    let mut phase1: Vec<Bundled<T>> = (0..n).map(|_| Bundled::default()).collect();
    for (dst, payload) in sends.into_iter().enumerate() {
        if dst == me || payload.is_empty() {
            continue;
        }
        phase1[relay_of(me, dst)]
            .bundles
            .push((dst as u32, payload));
    }
    proc.marker("a2a.two_phase.relay");
    let relayed = alltoallv(proc, group, phase1, schedule);

    // Phase 2: regroup by final destination, tagging with the original
    // source. My own deliveries (I was the relay for me->dst? impossible:
    // dst==me was skipped; but src->me bundles can arrive here directly if
    // relay_of(src, me) == me).
    let mut phase2: Vec<Bundled<T>> = (0..n).map(|_| Bundled::default()).collect();
    for (src, msg) in relayed.into_iter().enumerate() {
        for (dst, items) in msg.bundles {
            let dst = dst as usize;
            if dst == me {
                recvs[src] = items;
            } else {
                phase2[dst].bundles.push((src as u32, items));
            }
        }
    }
    proc.marker("a2a.two_phase.deliver");
    let delivered = alltoallv(proc, group, phase2, schedule);
    for msg in delivered {
        for (src, items) in msg.bundles {
            recvs[src as usize] = items;
        }
    }
    recvs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::machine::Machine;
    use crate::pool::{fresh_pool_key, PoolSlot};
    use crate::topology::ProcGrid;

    /// Exchange `sends` (indexed by destination) the way a cached plan's
    /// execute does: check out, fill, and stash a slot for every flagged
    /// destination (this rank included), run [`alltoallv_pooled`], and
    /// decode every delivered slot in place. Returns the payloads by
    /// source; pairs the plan leaves silent come back empty.
    fn pooled_exchange(
        proc: &mut Proc,
        plan: &A2aPlan,
        schedule: A2aSchedule,
        sends: Vec<Vec<i32>>,
    ) -> Vec<Vec<i32>> {
        let key = fresh_pool_key();
        let me = proc.id();
        for (dst, payload) in sends.into_iter().enumerate() {
            if plan.to[dst] {
                let (slot, mut buf) = proc.pool_checkout::<Vec<i32>>(key, dst);
                buf.extend(payload);
                slot.stash(buf);
            } else {
                assert!(payload.is_empty(), "send slot flagged silent carries data");
            }
        }
        let mut pkts = Vec::new();
        alltoallv_pooled::<Vec<i32>>(proc, plan, schedule, key, &mut pkts);
        let mut recvs = vec![Vec::new(); proc.nprocs()];
        if plan.to[me] {
            recvs[me] = proc.pool_current::<Vec<i32>>(key, me).decode(Vec::clone);
        }
        for pkt in pkts {
            let src = pkt.src;
            let slot = pkt
                .data
                .downcast::<PoolSlot<Vec<i32>>>()
                .expect("pooled exchange delivers pool slots");
            recvs[src] = slot.decode(Vec::clone);
        }
        recvs
    }

    fn run_exchange(p: usize, schedule: A2aSchedule) {
        let machine = Machine::new(ProcGrid::line(p), CostModel::zero());
        let out = machine.run(move |proc| {
            let g = proc.world();
            // Rank r sends [r*100 + j; r+j+1 elements] to rank j.
            let sends: Vec<Vec<i32>> = (0..p)
                .map(|j| vec![(proc.id() * 100 + j) as i32; proc.id() + j + 1])
                .collect();
            alltoallv(proc, &g, sends, schedule)
        });
        for (j, recvs) in out.results.iter().enumerate() {
            for (r, v) in recvs.iter().enumerate() {
                assert_eq!(v.len(), r + j + 1, "length from {r} to {j}");
                assert!(
                    v.iter().all(|&x| x == (r * 100 + j) as i32),
                    "content from {r} to {j}"
                );
            }
        }
    }

    #[test]
    fn linear_permutation_delivers_everything() {
        for p in [1, 2, 3, 5, 8] {
            run_exchange(p, A2aSchedule::LinearPermutation);
        }
    }

    #[test]
    fn naive_push_delivers_everything() {
        for p in [1, 2, 3, 5, 8] {
            run_exchange(p, A2aSchedule::NaivePush);
        }
    }

    #[test]
    fn pairwise_exchange_delivers_everything() {
        // Powers of two use the XOR matching; other sizes fall back.
        for p in [1, 2, 3, 4, 5, 8] {
            run_exchange(p, A2aSchedule::PairwiseExchange);
        }
    }

    #[test]
    fn two_phase_delivers_everything() {
        for p in [1, 2, 3, 4, 5, 7, 9, 16] {
            let machine = Machine::new(ProcGrid::line(p), CostModel::zero());
            let out = machine.run(move |proc| {
                let g = proc.world();
                let sends: Vec<Vec<i32>> = (0..p)
                    .map(|j| vec![(proc.id() * 100 + j) as i32; (proc.id() + j) % 3])
                    .collect();
                alltoallv_two_phase(proc, &g, sends, A2aSchedule::LinearPermutation)
            });
            for (j, recvs) in out.results.iter().enumerate() {
                for (r, v) in recvs.iter().enumerate() {
                    assert_eq!(v.len(), (r + j) % 3, "p={p} from {r} to {j}");
                    assert!(v.iter().all(|&x| x == (r * 100 + j) as i32));
                }
            }
        }
    }

    /// The point of two-phase: far fewer start-ups for all-pairs tiny
    /// messages, at ~2x the volume.
    #[test]
    fn two_phase_trades_volume_for_startups() {
        let p = 16usize;
        let run = |two_phase: bool| {
            let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
            let out = machine.run(move |proc| {
                let g = proc.world();
                let sends: Vec<Vec<i32>> = (0..p).map(|j| vec![j as i32]).collect();
                if two_phase {
                    alltoallv_two_phase(proc, &g, sends, A2aSchedule::LinearPermutation);
                } else {
                    alltoallv(proc, &g, sends, A2aSchedule::LinearPermutation);
                }
            });
            (
                out.total_startups(),
                out.total_words_sent(),
                out.max_time_ms(),
            )
        };
        let (s1, w1, t1) = run(false);
        let (s2, w2, t2) = run(true);
        assert!(
            s2 < s1 / 2,
            "two-phase startups {s2} should be well under direct {s1}"
        );
        assert!(w2 > w1, "two-phase volume {w2} must exceed direct {w1}");
        assert!(
            t2 < t1,
            "with 1-word messages, start-ups dominate: {t2} < {t1}"
        );
    }

    /// Planned (pooled) exchanges deliver the same payloads as plain
    /// `alltoallv` over a sparse pattern (only ranks at even distance talk), for every
    /// schedule and an awkward mix of group sizes.
    #[test]
    fn planned_matches_unplanned_on_sparse_patterns() {
        for p in [1usize, 2, 3, 5, 8, 16] {
            for schedule in [
                A2aSchedule::LinearPermutation,
                A2aSchedule::NaivePush,
                A2aSchedule::PairwiseExchange,
            ] {
                let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
                let out = machine.run(move |proc| {
                    let g = proc.world();
                    let build = |me: usize| -> Vec<Vec<i32>> {
                        (0..p)
                            .map(|j| {
                                if (me + j).is_multiple_of(2) && me != j {
                                    vec![(me * 100 + j) as i32; me + 1]
                                } else {
                                    Vec::new()
                                }
                            })
                            .collect()
                    };
                    let to: Vec<bool> = build(proc.id()).iter().map(|s| !s.is_empty()).collect();
                    let plan = A2aPlan::exchange(proc, &g, to, schedule);
                    let planned = pooled_exchange(proc, &plan, schedule, build(proc.id()));
                    let plain = alltoallv(proc, &g, build(proc.id()), schedule);
                    (planned, plain)
                });
                for (me, (planned, plain)) in out.results.iter().enumerate() {
                    assert_eq!(planned, plain, "p={p} {schedule:?} rank {me}");
                }
            }
        }
    }

    /// The flag exchange is free on the wire and the planned rounds then
    /// move no padding at all — words and time drop to the populated pairs.
    #[test]
    fn planned_exchange_skips_silent_pairs() {
        let p = 6usize;
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5()).with_metrics(true);
        let out = machine.run(move |proc| {
            let g = proc.world();
            // Only 0 -> 1 carries data.
            let mut sends: Vec<Vec<i32>> = vec![Vec::new(); p];
            let to: Vec<bool> = (0..p).map(|j| proc.id() == 0 && j == 1).collect();
            if proc.id() == 0 {
                sends[1] = vec![7, 8, 9];
            }
            let plan = A2aPlan::exchange(proc, &g, to.clone(), A2aSchedule::LinearPermutation);
            assert_eq!(plan.from.iter().filter(|&&f| f).count() > 0, proc.id() == 1);
            pooled_exchange(proc, &plan, A2aSchedule::LinearPermutation, sends)
        });
        assert_eq!(out.results[1][0], vec![7, 8, 9]);
        // Flag exchange: zero-word flags charge nothing. Planned rounds:
        // one 3-word message. Every other pair stays silent.
        assert_eq!(out.total_words_sent(), 3);
    }

    #[test]
    fn from_flags_reply_pattern_needs_no_exchange() {
        // Request/reply: every rank requests from rank 0 only, so both
        // directions are locally known and no flag exchange is needed.
        let p = 4usize;
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let out = machine.run(move |proc| {
            let me = proc.id();
            let to: Vec<bool> = (0..p).map(|j| me == 0 && j != 0).collect();
            let from: Vec<bool> = (0..p).map(|j| me != 0 && j == 0).collect();
            let plan = A2aPlan::from_flags(to, from);
            let sends: Vec<Vec<i32>> = (0..p)
                .map(|j| {
                    if me == 0 && j != 0 {
                        vec![j as i32 * 11]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            pooled_exchange(proc, &plan, A2aSchedule::LinearPermutation, sends)
        });
        for (me, recvs) in out.results.iter().enumerate().skip(1) {
            assert_eq!(recvs[0], vec![me as i32 * 11]);
        }
    }

    /// Zero-word skip edge case: an all-empty two-phase exchange moves
    /// nothing in either phase and charges nothing at all.
    #[test]
    fn two_phase_with_all_empty_sends() {
        for p in [4usize, 7, 16] {
            let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
            let out = machine.run(move |proc| {
                let g = proc.world();
                let sends: Vec<Vec<i32>> = vec![Vec::new(); p];
                alltoallv_two_phase(proc, &g, sends, A2aSchedule::LinearPermutation)
            });
            assert_eq!(out.total_words_sent(), 0, "p={p}");
            assert_eq!(out.total_startups(), 0, "p={p}");
            for recvs in &out.results {
                assert!(recvs.iter().all(Vec::is_empty));
            }
        }
    }

    /// Zero-word skip edge case: exactly one populated pair routes through
    /// one relay, so the two-phase words are exactly twice the bundle size
    /// (payload + 2 header words, moved twice) and everything else stays
    /// silent.
    #[test]
    fn two_phase_with_single_nonsilent_pair() {
        // p = 9 puts ranks on a 3×3 grid; for 2 → 4 the relay is rank 1
        // (row of 2, column of 4) — distinct from both endpoints.
        let p = 9usize;
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let out = machine.run(move |proc| {
            let g = proc.world();
            let mut sends: Vec<Vec<i32>> = vec![Vec::new(); p];
            if proc.id() == 2 {
                sends[4] = vec![70, 71, 72];
            }
            alltoallv_two_phase(proc, &g, sends, A2aSchedule::LinearPermutation)
        });
        for (me, recvs) in out.results.iter().enumerate() {
            for (src, v) in recvs.iter().enumerate() {
                if (me, src) == (4, 2) {
                    assert_eq!(v, &vec![70, 71, 72]);
                } else {
                    assert!(v.is_empty(), "unexpected data {src} -> {me}");
                }
            }
        }
        // 3 payload words + 2 header words, relayed twice.
        assert_eq!(out.total_words_sent(), 10);
        assert_eq!(out.total_startups(), 2);
    }

    /// Flag-exchange edge case: with nothing to say anywhere, the derived
    /// plan is all-silent on every rank and the exchange itself is free.
    #[test]
    fn plan_exchange_with_all_empty_sends() {
        for schedule in [
            A2aSchedule::LinearPermutation,
            A2aSchedule::NaivePush,
            A2aSchedule::PairwiseExchange,
        ] {
            let p = 5usize;
            let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
            let out = machine.run(move |proc| {
                let g = proc.world();
                let plan = A2aPlan::exchange(proc, &g, vec![false; p], schedule);
                let recvs = pooled_exchange(proc, &plan, schedule, vec![Vec::new(); p]);
                (plan.from, recvs)
            });
            assert_eq!(out.total_words_sent(), 0, "{schedule:?}");
            for (from, recvs) in &out.results {
                assert!(from.iter().all(|&f| !f), "{schedule:?}");
                assert!(recvs.iter().all(Vec::is_empty));
            }
        }
    }

    /// Flag-exchange edge case: exactly one non-silent pair yields exactly
    /// one raised flag per direction, on exactly the right ranks, under
    /// every schedule.
    #[test]
    fn plan_exchange_with_single_pair_sets_one_flag() {
        for schedule in [
            A2aSchedule::LinearPermutation,
            A2aSchedule::NaivePush,
            A2aSchedule::PairwiseExchange,
        ] {
            let p = 8usize;
            let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
            let out = machine.run(move |proc| {
                let g = proc.world();
                let to: Vec<bool> = (0..p).map(|j| proc.id() == 3 && j == 6).collect();
                A2aPlan::exchange(proc, &g, to, schedule).from
            });
            for (me, from) in out.results.iter().enumerate() {
                let expect: Vec<bool> = (0..p).map(|j| me == 6 && j == 3).collect();
                assert_eq!(from, &expect, "{schedule:?} rank {me}");
            }
            assert_eq!(out.total_words_sent(), 0, "flags ride zero-word frames");
        }
    }

    #[test]
    fn empty_slots_charge_nothing() {
        let machine = Machine::new(
            ProcGrid::line(4),
            CostModel {
                delta_ns: 0.0,
                tau_ns: 100.0,
                mu_ns: 1.0,
                ..CostModel::zero()
            },
        );
        let out = machine.run(|proc| {
            let g = proc.world();
            // Only proc 0 sends anything, and only to proc 1.
            let mut sends: Vec<Vec<i32>> = vec![Vec::new(); 4];
            if proc.id() == 0 {
                sends[1] = vec![1, 2, 3];
            }
            alltoallv(proc, &g, sends, A2aSchedule::LinearPermutation);
        });
        // Proc 0 paid for exactly one 3-word message; everyone else nothing.
        assert_eq!(out.clocks[0].words_sent, 3);
        assert_eq!(out.clocks[0].startups, 1);
        for c in &out.clocks[1..] {
            assert_eq!(c.words_sent, 0);
            assert_eq!(c.startups, 0);
        }
    }

    #[test]
    fn self_message_moves_without_charge() {
        let machine = Machine::new(ProcGrid::line(2), CostModel::cm5());
        let out = machine.run(|proc| {
            let g = proc.world();
            let mut sends: Vec<Vec<i32>> = vec![Vec::new(); 2];
            sends[proc.id()] = vec![42; 10];
            let recvs = alltoallv(proc, &g, sends, A2aSchedule::LinearPermutation);
            recvs[proc.id()].clone()
        });
        assert_eq!(out.results[0], vec![42; 10]);
        assert_eq!(out.clocks[0].words_sent, 0);
    }
}
