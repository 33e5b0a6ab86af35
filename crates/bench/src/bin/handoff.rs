//! Scheduler handoff cost: one token passed around a ring of P virtual
//! processors through the public `Machine::run` API.
//!
//! Each pass is a zero-word send the next processor is parked waiting for,
//! so every pass is one scheduler handoff: the receiver is readied, granted
//! a permit and its carrier thread woken. Lap 0 is a warm-up that brings
//! every carrier up and into its first receive; processor 0 times the laps
//! after it. Reported per `(P, workers)` cell: the median wall nanoseconds
//! per handoff over the repetitions (with the fastest and slowest), and
//! slept parks per handoff from `RunOutput::sched_stats()` (warm-up
//! included).
//!
//! Usage:
//! ```sh
//! cargo run -p hpf-bench --release --bin handoff -- [--smoke]
//! # --smoke: fewer handoffs and repetitions per cell, for CI
//! ```

use std::time::{Duration, Instant};

use hpf_bench::Table;
use hpf_machine::{tags, CostModel, Machine, Proc, ProcGrid};

const PROCS: [usize; 4] = [2, 16, 256, 1024];
const WORKERS: [usize; 2] = [1, 2];

/// Pass the token `laps + 1` times around the ring; processor 0 returns
/// the wall time of the last `laps`.
fn ring(p: &mut Proc, laps: usize) -> Option<Duration> {
    let n = p.nprocs();
    let (next, prev) = ((p.id() + 1) % n, (p.id() + n - 1) % n);
    let mut start = Instant::now();
    for lap in 0..=laps {
        if p.id() == 0 {
            if lap == 1 {
                start = Instant::now();
            }
            p.send(next, tags::USER, ());
            p.recv::<()>(prev, tags::USER);
        } else {
            p.recv::<()>(prev, tags::USER);
            p.send(next, tags::USER, ());
        }
    }
    (p.id() == 0).then(|| start.elapsed())
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            _ => {
                eprintln!("usage: handoff [--smoke]");
                std::process::exit(2);
            }
        }
    }
    let (handoffs, reps) = if smoke { (2_000, 3) } else { (20_000, 7) };
    let mut table = Table::new(vec![
        "P",
        "workers",
        "handoffs/rep",
        "ns/handoff (median)",
        "min",
        "max",
        "slept parks/handoff",
    ]);
    for &nprocs in &PROCS {
        let laps = (handoffs / nprocs).max(1);
        let timed = (laps * nprocs) as f64;
        for &workers in &WORKERS {
            let machine =
                Machine::new(ProcGrid::line(nprocs), CostModel::cm5()).with_workers(workers);
            let mut ns = Vec::with_capacity(reps);
            let mut slept = Vec::with_capacity(reps);
            for _ in 0..reps {
                let out = machine.run(|p| ring(p, laps));
                let wall = out.results[0].expect("processor 0 times the ring");
                ns.push(wall.as_nanos() as f64 / timed);
                slept.push(out.sched_stats().parks_slept as f64 / ((laps + 1) * nprocs) as f64);
            }
            let (lo, hi) = ns
                .iter()
                .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            table.row(vec![
                nprocs.to_string(),
                workers.to_string(),
                (laps * nprocs).to_string(),
                format!("{:.0}", median(&mut ns)),
                format!("{lo:.0}"),
                format!("{hi:.0}"),
                format!("{:.3}", median(&mut slept)),
            ]);
        }
    }
    println!("Scheduler handoff: token ring through Machine::run ({reps} reps per cell)");
    print!("{}", table.render());
}
