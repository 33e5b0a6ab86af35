//! The workloads and the inputs they are given.
//!
//! Everything the program sees is generated here from the benchmark seed:
//! the masks and the array values. The program receives only these arrays,
//! never the seed or a mask recipe.

use hpf_core::seq::{pack_seq, unpack_seq};
use hpf_core::{PackScheme, UnpackScheme};
use hpf_distarray::index::linearize;
use hpf_distarray::{ArrayDesc, DimLayout, Dist, GlobalArray};
use hpf_machine::{CostModel, Machine, ProcGrid};

/// Worker-pool size of every machine: at most two virtual processors run at
/// once, the rest of the carrier threads stay parked.
pub const WORKERS: usize = 2;

/// How a workload's mask is drawn.
#[derive(Debug, Clone, Copy)]
pub enum MaskKind {
    /// Alternating true and false runs with geometric lengths of this mean.
    Runs { mean: f64 },
    /// Every element independently true with this probability.
    Bernoulli { p: f64 },
}

/// Whether plans are built once in set-up or afresh inside every op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plans {
    /// `plan_pack`/`plan_unpack` run once during set-up; an op is the two
    /// `execute_into` calls inside one long `Machine::run`.
    Cached,
    /// Every op is a fresh `Machine::run` that plans and executes a mask
    /// drawn for that op alone.
    PerOp,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Global array shape, dimension 0 first.
    pub shape: &'static [usize],
    /// Processor grid extents, dimension 0 first.
    pub grid: &'static [usize],
    /// `BlockCyclic` block size in every dimension.
    pub block: usize,
    pub mask: MaskKind,
    pub pack: PackScheme,
    pub unpack: UnpackScheme,
    pub plans: Plans,
    /// Untimed round trips at the end of set-up.
    pub warmup: usize,
    /// Set-ups per `--trace 0` run; `setup_s` is their median.
    pub setup_reps: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "steady_block",
        shape: &[1 << 20],
        grid: &[16],
        block: 64,
        mask: MaskKind::Runs { mean: 32.0 },
        pack: PackScheme::CompactMessage,
        unpack: UnpackScheme::CompactStorage,
        plans: Plans::Cached,
        warmup: 8,
        setup_reps: 5,
    },
    Spec {
        name: "oneshot_cyclic",
        shape: &[512, 512],
        grid: &[4, 4],
        block: 1,
        mask: MaskKind::Bernoulli { p: 0.5 },
        pack: PackScheme::CompactStorage,
        unpack: UnpackScheme::Simple,
        plans: Plans::PerOp,
        warmup: 2,
        setup_reps: 5,
    },
    Spec {
        name: "many_procs",
        shape: &[16384],
        grid: &[256],
        block: 4,
        mask: MaskKind::Bernoulli { p: 0.5 },
        pack: PackScheme::Simple,
        unpack: UnpackScheme::CompactStorage,
        plans: Plans::Cached,
        warmup: 3,
        setup_reps: 3,
    },
];

impl Spec {
    pub fn find(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|s| s.name == name)
    }

    pub fn nprocs(&self) -> usize {
        self.grid.iter().product()
    }

    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    pub fn desc(&self) -> ArrayDesc {
        let dists = vec![Dist::BlockCyclic(self.block); self.shape.len()];
        ArrayDesc::new(self.shape, &ProcGrid::new(self.grid), &dists)
            .expect("workload layouts are valid")
    }

    pub fn machine(&self) -> Machine {
        Machine::new(ProcGrid::new(self.grid), CostModel::cm5()).with_workers(WORKERS)
    }

    /// Bytes the round trip touches: `A`, `F`, the result `R` (4 B each),
    /// the mask (1 B) per element, and `V` (4 B) per selected element.
    pub fn working_set_bytes(&self, selected: usize) -> usize {
        13 * self.len() + 4 * selected
    }
}

/// SplitMix64: small, fast, and good enough to draw benchmark inputs.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value offset of op `j`: op `j` packs `A + key(j)` and unpacks into
/// `F + key(j)`, so consecutive ops never see the same values (the map
/// `j -> key(j)` is a bijection on 32 bits).
pub fn key(seed: u64, j: u64) -> i32 {
    ((j as u32).wrapping_add(1).wrapping_mul(0x9E37_79B1) ^ (mix(seed) as u32)) as i32
}

pub fn draw_mask(kind: MaskKind, n: usize, rng: &mut Rng) -> Vec<bool> {
    match kind {
        MaskKind::Bernoulli { p } => (0..n).map(|_| rng.unit() < p).collect(),
        MaskKind::Runs { mean } => {
            // 1 + Geometric(1/mean) failures has mean `mean`.
            let ln_q = (1.0 - 1.0 / mean).ln();
            let mut out = Vec::with_capacity(n);
            let mut bit = rng.next_u64() & 1 == 1;
            while out.len() < n {
                let len = 1 + ((1.0 - rng.unit()).ln() / ln_q) as usize;
                let take = len.min(n - out.len());
                out.extend(std::iter::repeat_n(bit, take));
                bit = !bit;
            }
            out
        }
    }
}

/// One op's global inputs.
pub struct Inputs {
    pub m: GlobalArray<bool>,
    pub a: GlobalArray<i32>,
    pub f: GlobalArray<i32>,
}

impl Inputs {
    /// Inputs number `op` of workload `spec` under `seed`.
    pub fn draw(spec: &Spec, seed: u64, op: u64) -> Inputs {
        let n = spec.len();
        let mut rng = Rng::new(seed, op);
        let m = draw_mask(spec.mask, n, &mut rng);
        let a: Vec<i32> = (0..n).map(|_| rng.next_u64() as i32).collect();
        let f: Vec<i32> = (0..n).map(|_| rng.next_u64() as i32).collect();
        Inputs {
            m: GlobalArray::from_vec(spec.shape, m),
            a: GlobalArray::from_vec(spec.shape, a),
            f: GlobalArray::from_vec(spec.shape, f),
        }
    }

    pub fn selected(&self) -> usize {
        self.m.data().iter().filter(|&&b| b).count()
    }

    /// The sequential oracle's round trip: `V = PACK(A, M)` and
    /// `R = UNPACK(V, M, F)`.
    pub fn oracle(&self) -> (Vec<i32>, Vec<i32>) {
        let v = pack_seq(&self.a, &self.m, None);
        let r = unpack_seq(&v, &self.m, &self.f);
        (v, r.data().to_vec())
    }
}

/// Per processor, the global linear index of each local element.
pub fn local_maps(desc: &ArrayDesc) -> Vec<Vec<usize>> {
    let shape = desc.shape();
    (0..desc.grid().nprocs())
        .map(|p| {
            let mut map = vec![0usize; desc.local_len(p)];
            desc.for_each_local_global(p, |l, g| map[l] = linearize(g, &shape));
            map
        })
        .collect()
}

/// Split a global array into per-processor locals along `maps`.
pub fn scatter<T: Copy>(global: &[T], maps: &[Vec<usize>]) -> Vec<Vec<T>> {
    maps.iter()
        .map(|map| map.iter().map(|&g| global[g]).collect())
        .collect()
}

/// Compare a round trip's distributed outputs with the oracle run on
/// `inputs`: per processor `p`, `v[p]` is its part of `V` under layout `vl`
/// and `r[p]` its part of `R` along `maps[p]`.
pub fn matches_oracle(
    inputs: &Inputs,
    vl: &DimLayout,
    maps: &[Vec<usize>],
    v: &[&[i32]],
    r: &[&[i32]],
) -> bool {
    let (v_want, r_want) = inputs.oracle();
    let mut ok = vl.n() == v_want.len();
    let mut v_got = vec![0; vl.n()];
    let mut r_got = vec![0; r_want.len()];
    for (p, (vp, rp)) in v.iter().zip(r).enumerate() {
        ok &= vp.len() == vl.local_len(p) && rp.len() == maps[p].len();
        for (l, &x) in vp.iter().enumerate().take(vl.local_len(p)) {
            v_got[vl.global_of(p, l)] = x;
        }
        for (&x, &g) in rp.iter().zip(&maps[p]) {
            r_got[g] = x;
        }
    }
    ok && v_got == v_want && r_got == r_want
}

/// `got == base + key` elementwise, in one branch-free pass.
pub fn matches_offset(got: &[i32], base: &[i32], key: i32) -> bool {
    got.len() == base.len()
        && got
            .iter()
            .zip(base)
            .fold(0i32, |acc, (&g, &b)| acc | (g ^ b.wrapping_add(key)))
            == 0
}
