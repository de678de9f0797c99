//! The three workloads and their seed-driven inputs.
//!
//! Each workload makes a different layer dominant (README.md says why each
//! was chosen); the program under test receives only the generated inputs.

use tsgemm::core::{BlockDist, TsConfig};
use tsgemm::sparse::gen::{init_frontier, random_tall, rmat, web_like, RMAT_WEB};
use tsgemm::sparse::{Coo, Idx};

/// Graph generator of a workload's square operand `A`.
#[derive(Clone, Copy, Debug)]
pub enum Graph {
    /// Crawl-ordered web graph (`gen::web_like`).
    Web,
    /// R-MAT with the paper's web-like parameters (`gen::RMAT_WEB`).
    Rmat,
}

/// What the timed operation is.
#[derive(Clone, Copy, Debug)]
pub enum Algo {
    /// One `ts_spgemm` of `A · B` under `(+,×)`, hybrid mode policy.
    Multiply {
        /// `None` = Table IV default (`n/p`).
        tile_height: Option<usize>,
        /// Tile width as a multiple of `n/p`; `None` = Table IV default (16).
        width_factor: Option<usize>,
    },
    /// One full `msbfs_ts` under `(∧,∨)` from `BFS_SOURCES` sources.
    Msbfs,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub graph: Graph,
    pub scale: u32,
    pub deg: f64,
    /// Columns of `B` (unused for MS-BFS, which has `BFS_SOURCES`).
    pub d: usize,
    /// Sparsity of the random `B` (unused for MS-BFS).
    pub sparsity: f64,
    /// Ranks.
    pub p: usize,
    /// Pool threads per rank.
    pub t: usize,
    pub algo: Algo,
    /// Operations per timed sample. A sample is the batch's mean, so a
    /// workload whose single operations fall into two speed modes still
    /// gives a steady median.
    pub batch: usize,
}

/// Sources of every MS-BFS run (the workload's and the apps-layer probe's).
pub const BFS_SOURCES: usize = 128;

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "mult-web-p1t1",
        graph: Graph::Web,
        scale: 16,
        deg: 16.0,
        d: 128,
        sparsity: 0.8,
        p: 1,
        t: 1,
        algo: Algo::Multiply {
            tile_height: None,
            width_factor: None,
        },
        batch: 4,
    },
    Spec {
        name: "msbfs-rmat-p2",
        graph: Graph::Rmat,
        scale: 16,
        deg: 16.0,
        d: BFS_SOURCES,
        sparsity: 0.0,
        p: 2,
        t: 1,
        algo: Algo::Msbfs,
        batch: 2,
    },
    Spec {
        name: "tiled-hash-p2",
        graph: Graph::Web,
        scale: 15,
        deg: 16.0,
        d: 4096,
        sparsity: 0.99,
        p: 2,
        t: 1,
        algo: Algo::Multiply {
            tile_height: Some(256),
            width_factor: Some(1),
        },
        batch: 1,
    },
];

/// A workload small enough for unit tests (two ranks, 16 tile steps).
#[cfg(test)]
pub const TINY: Spec = Spec {
    name: "tiny",
    graph: Graph::Web,
    scale: 7,
    deg: 6.0,
    d: 16,
    sparsity: 0.5,
    p: 2,
    t: 1,
    algo: Algo::Multiply {
        tile_height: Some(16),
        width_factor: Some(1),
    },
    batch: 2,
};

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    pub fn n(&self) -> usize {
        1 << self.scale
    }

    pub fn dist(&self) -> BlockDist {
        BlockDist::new(self.n(), self.p)
    }

    /// The square operand, generated from the run's seed.
    pub fn graph(&self, seed: u64) -> Coo<f64> {
        match self.graph {
            Graph::Web => web_like(self.scale, self.deg, seed),
            Graph::Rmat => rmat(self.scale, self.deg, RMAT_WEB, seed),
        }
    }

    /// The tall-and-skinny operand `B` (`n × d`, random, `sparsity` zeros).
    pub fn tall(&self, seed: u64) -> Coo<f64> {
        random_tall(self.n(), self.d, self.sparsity, seed ^ 0xB0B0_B0B0)
    }

    /// `BFS_SOURCES` distinct BFS sources, drawn by `init_frontier` among the
    /// vertices with at least one edge out (a nonempty column of `a`, as
    /// `A·F` expands a frontier). A source without edges visits only itself,
    /// so drawing from all vertices would make the amount of work swing with
    /// how many sources happen to be isolated.
    pub fn sources<T: Copy>(&self, a: &Coo<T>, seed: u64) -> Vec<Idx> {
        let mut live: Vec<Idx> = a.entries().iter().map(|&(_, c, _)| c).collect();
        live.sort_unstable();
        live.dedup();
        let d = BFS_SOURCES.min(live.len());
        let (_, picks) = init_frontier(live.len(), d, seed ^ 0x05EE_DF12);
        picks.iter().map(|&i| live[i as usize]).collect()
    }

    /// The multiply's configuration (tag `ts`); Table IV defaults for MS-BFS.
    pub fn ts_config(&self) -> TsConfig {
        match self.algo {
            Algo::Multiply {
                tile_height,
                width_factor,
            } => {
                let cfg = TsConfig {
                    tile_height,
                    ..TsConfig::default()
                };
                match width_factor {
                    Some(f) => cfg.with_width_factor(f, self.dist()),
                    None => cfg,
                }
            }
            Algo::Msbfs => TsConfig::default(),
        }
    }

    /// Tile `(height, width)` the multiply uses (mirrors `TsConfig`'s
    /// defaults: `h = n/p`, `w = 16·n/p` clamped to `n`).
    pub fn tile_shape(&self) -> (usize, usize) {
        let cfg = self.ts_config();
        let dist = self.dist();
        let block = dist.block().max(1);
        let h = cfg.tile_height.unwrap_or(block).max(1);
        let w = cfg
            .tile_width
            .unwrap_or_else(|| (16 * block).min(dist.n().max(1)))
            .max(1);
        (h, w)
    }
}
