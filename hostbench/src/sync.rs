//! A host-side barrier between ops that the simulated clocks never see.

use hpf_machine::{tags, Proc};

const GATE: u64 = tags::USER + 0x4842;

/// Barrier over all processors, run with the clock muted so no simulated
/// time, start-up or word is charged. Processor 0 collects one arrival from
/// everyone, then releases everyone with its own `go`; every processor
/// returns that decision. The other processors' `go` is ignored.
///
/// Between ops this keeps the benchmark's own work (checking, preparing the
/// next values) out of the op's wall-time window, and lets processor 0
/// alone decide when the timed phase ends.
pub fn gate(proc: &mut Proc, go: bool) -> bool {
    proc.with_uncharged_comm(|proc| {
        if proc.id() == 0 {
            for src in 1..proc.nprocs() {
                let _: Vec<u8> = proc.recv(src, GATE);
            }
            for dst in 1..proc.nprocs() {
                proc.send(dst, GATE, vec![u8::from(go)]);
            }
            go
        } else {
            proc.send(0, GATE, Vec::<u8>::new());
            let verdict: Vec<u8> = proc.recv(0, GATE);
            verdict[0] == 1
        }
    })
}
