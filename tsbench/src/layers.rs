//! The traced pass: per-layer numbers for one workload.
//!
//! Every number comes from timing calls into a crate's public functions from
//! this file, or from the `RankProfile`s (collective records and phase
//! spans) the runtime already records; nothing is instrumented inside the
//! crates. Each layer is probed on the workload's own operands: `A · B`
//! for the multiply workloads, `A · F` with `F` the densest BFS frontier
//! for MS-BFS.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tsgemm::apps::msbfs::{msbfs_ts, sequential_msbfs, BfsConfig};
use tsgemm::core::mode::decide_modes;
use tsgemm::core::naive::naive_spgemm;
use tsgemm::core::tiling::{TileBuckets, Tiling};
use tsgemm::core::{ts_spgemm, TsLocalStats};
use tsgemm::net::{CollectiveRecord, CostModel, Metrics, RankProfile, World};
use tsgemm::pool::ThreadPool;
use tsgemm::sparse::ewise::{andnot, union};
use tsgemm::sparse::spgemm::{spgemm, spgemm_flops, spgemm_par_with, AccumChoice};
use tsgemm::sparse::{BoolAndOr, Coo, Csr, Idx, Semiring};

use crate::check::{blocks_match, Tally};
use crate::run::{setup, Measured, Problem};
use crate::spec::Spec;
use crate::stats::median;
use crate::Metric;

/// Repetitions of each probe; the probe reports the median.
const REPS: usize = 3;
/// Calls per collective micro-benchmark.
const CALLS: usize = 500;
/// Pool width of the pool-layer probes (at most the host's 2 CPUs).
const POOL_T: usize = 2;

/// Median wall seconds of `REPS` calls of `f`, and its last result.
fn time<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (median(&times), last.expect("REPS > 0"))
}

/// Per-layer metrics of one workload. `probe_b` is the right operand of the
/// layer probes; `bfs` is the graph and sources of the apps-layer probe.
pub fn collect<S: Semiring>(
    prob: &Problem<S>,
    m: &Measured<S::T>,
    probe_b: &Coo<S::T>,
    bfs: (&Coo<bool>, &[Idx]),
    tally: &mut Tally,
) -> Vec<Metric> {
    let spec = prob.spec;
    let (p, t) = (spec.p, spec.t);
    let dist = spec.dist();
    let mut out: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, unit: &'static str, value: f64| out.push((name.to_string(), unit, value));

    // ---- sparse: local kernels and output assembly -----------------------
    let a = prob.a.to_csr::<S>();
    let b = probe_b.to_csr::<S>();
    let probe = setup::<S>(spec, prob.a, Some(probe_b)).ops;
    let (seq_s, c) = time(|| spgemm::<S>(&a, &b, AccumChoice::Auto));
    let a0 = &probe[0].a.local;
    let (spa_s, _) = time(|| spgemm::<S>(a0, &b, AccumChoice::Spa));
    let (hash_s, _) = time(|| spgemm::<S>(a0, &b, AccumChoice::Hash));
    let flops = spgemm_flops(&a, &b) as f64;
    // Computed, not measured: A streamed once, one B entry read per flop,
    // C written once, plus both row-pointer arrays.
    let entry = (std::mem::size_of::<Idx>() + std::mem::size_of::<S::T>()) as f64;
    let ptrs = 2.0 * (a.nrows() + 1) as f64 * std::mem::size_of::<usize>() as f64;
    let bytes = (a.nnz() as f64 + flops + c.nnz() as f64) * entry + ptrs;
    // COO -> CSR on C's triplets in row-major order, the order the tile
    // loop emits them in with one column band.
    let trips = c.to_coo().into_entries();
    let (assemble_s, _) =
        time(|| Coo::from_entries(c.nrows(), c.ncols(), trips.clone()).to_csr::<S>());
    put("sparse.seq_spgemm_s", "s", seq_s);
    put("sparse.kernel_spa_s", "s", spa_s);
    put("sparse.kernel_hash_s", "s", hash_s);
    put("sparse.flops", "count", flops);
    put("sparse.gflops", "Gflop/s", flops / seq_s / 1e9);
    put("sparse.bytes_computed", "bytes", bytes);
    put("sparse.assemble_s", "s", assemble_s);
    drop(trips);

    // ---- pool ------------------------------------------------------------
    let pool = ThreadPool::new(POOL_T);
    let t0 = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(pool.run(POOL_T, |i| i));
    }
    let run_empty_us = t0.elapsed().as_secs_f64() / CALLS as f64 * 1e6;
    let (par_s, par_c) = time(|| spgemm_par_with::<S>(&pool, &a, &b, AccumChoice::Auto));
    tally.record_probe(par_c == c);
    put("pool.run_empty_us", "us", run_empty_us);
    put("pool.spgemm_par_s", "s", par_s);
    put("pool.speedup", "x", seq_s / par_s);

    // ---- net: runtime cost per call, and the solve's collectives ----------
    let spawns: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            World::run_with_threads(p, t, |_| ());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let per_call = World::run_with_threads(p, t, |comm| {
        let us = |comm: &mut tsgemm::net::Comm, f: &dyn Fn(&mut tsgemm::net::Comm)| {
            comm.barrier("bench:micro");
            let t0 = Instant::now();
            for _ in 0..CALLS {
                f(comm);
            }
            t0.elapsed().as_secs_f64() / CALLS as f64 * 1e6
        };
        let n = comm.size();
        [
            us(comm, &|c| {
                drop(c.alltoallv((0..n).map(|_| Vec::<u64>::new()).collect(), "micro:a2a0"))
            }),
            us(comm, &|c| {
                drop(c.alltoallv((0..n).map(|_| vec![1u64]).collect(), "micro:a2a1"))
            }),
            us(comm, &|c| {
                c.allreduce(1u64, |x, y| x + y, "micro:allreduce");
            }),
            us(comm, &|c| c.barrier("micro:barrier")),
        ]
    })
    .results[0];
    put("net.spawn_s", "s", median(&spawns));
    put("net.alltoallv_empty_us", "us", per_call[0]);
    put("net.alltoallv_1_us", "us", per_call[1]);
    put("net.allreduce_us", "us", per_call[2]);
    put("net.barrier_us", "us", per_call[3]);

    let un = &m.untraced;
    let tag = prob.tag;
    let first = solve_colls(&un[0].profiles, tag);
    let suffix_bytes = |sfx: &str| -> f64 {
        first
            .iter()
            .flatten()
            .filter(|c| c.tag.ends_with(sfx))
            .map(|c| c.bytes_sent() as f64)
            .sum()
    };
    put(
        "net.collectives",
        "count",
        first.iter().map(Vec::len).max().unwrap_or(0) as f64,
    );
    put(
        "net.msgs",
        "count",
        first.iter().flatten().map(|c| c.recv_msgs as f64).sum(),
    );
    let wait: Vec<f64> = un
        .iter()
        .map(|o| {
            solve_colls(&o.profiles, tag)
                .iter()
                .map(|r| r.iter().map(|c| c.wait_secs).sum::<f64>())
                .fold(0.0, f64::max)
        })
        .collect();
    put("net.wait_s", "s", median(&wait));
    put("net.comm_bytes", "bytes", un[0].bytes as f64);
    put("net.bytes_bfetch", "bytes", suffix_bytes(":bfetch"));
    put("net.bytes_cret", "bytes", suffix_bytes(":cret"));
    put("net.alloc.allocs", "count", m.solve_allocs as f64);
    let cm = CostModel::default();
    let modeled: Vec<_> = un.iter().map(|o| cm.model_run(&o.profiles)).collect();
    let compute_s = median(&modeled.iter().map(|x| x.compute_secs).collect::<Vec<_>>());
    let rank_cpu_s = median(&un.iter().map(|o| o.cpu_s).collect::<Vec<_>>());
    put("net.cost.compute_s", "s", compute_s);
    put(
        "net.cost.comm_s",
        "s",
        median(&modeled.iter().map(|x| x.comm_secs).collect::<Vec<_>>()),
    );
    put("net.cost.compute_ratio", "x", rank_cpu_s / compute_s);

    // ---- core: set-up phases, tile-loop phases, the 1-D baseline ----------
    let setup_med =
        |f: fn(&crate::run::SetupTimes) -> f64| median(&m.setups.iter().map(f).collect::<Vec<_>>());
    put("core.partition_s", "s", setup_med(|s| s.partition_s));
    put("core.local_csr_s", "s", setup_med(|s| s.local_csr_s));
    put("core.colblocks_s", "s", setup_med(|s| s.colblocks_s));
    let (h, w) = spec.tile_shape();
    let tiling = Tiling::new(dist, h, w);
    let (buckets_s, _) = time(|| {
        probe
            .iter()
            .map(|op| TileBuckets::build(&op.ac, &tiling))
            .collect::<Vec<_>>()
    });
    put("core.buckets_s", "s", buckets_s);
    let cfg = spec.ts_config();
    let symbolic = World::run_with_threads(p, t, |comm| {
        let op = &probe[comm.rank()];
        let buckets = TileBuckets::build(&op.ac, &tiling);
        comm.barrier("bench:ready");
        let t0 = Instant::now();
        decide_modes::<S>(comm, &tiling, &buckets, op.b(), cfg.policy, "probe");
        t0.elapsed().as_secs_f64()
    });
    put(
        "core.symbolic_s",
        "s",
        symbolic.results.iter().copied().fold(0.0, f64::max),
    );
    put("core.rank_cpu_s", "s", rank_cpu_s);
    let ts = World::run_with_threads(p, t, |comm| {
        let op = &probe[comm.rank()];
        ts_spgemm::<S>(comm, &op.a, &op.ac, op.b(), &cfg)
    });
    let mut stats = TsLocalStats::default();
    let mut blocks = Vec::new();
    for (blk, st) in ts.results {
        stats.merge(&st);
        blocks.push(blk);
    }
    tally.record_probe(blocks_match(&blocks, &c, dist, prob.eq));
    drop(blocks);
    put("core.steps", "count", stats.steps as f64);
    put("core.local_subtiles", "count", stats.local_subtiles as f64);
    put(
        "core.remote_subtiles",
        "count",
        stats.remote_subtiles as f64,
    );
    put("core.diag_subtiles", "count", stats.diag_subtiles as f64);
    put(
        "core.peak_transient_bytes",
        "bytes",
        stats.peak_transient_bytes as f64,
    );
    let phases: Vec<Phases> = m
        .traced
        .iter()
        .map(|o| Phases::of(&o.profiles, tag))
        .collect();
    let phase = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    put("core.pack_s", "s", phase(|x| x.pack));
    put("core.kernel_s", "s", phase(|x| x.kernel));
    put("core.merge_s", "s", phase(|x| x.merge));
    put("core.ts_self_s", "s", phase(|x| x.self_s));
    let naive: Vec<f64> = (0..REPS)
        .map(|_| {
            World::run_with_threads(p, t, |comm| {
                let op = &probe[comm.rank()];
                comm.barrier("bench:ready");
                let t0 = Instant::now();
                naive_spgemm::<S>(comm, &op.a, op.b(), AccumChoice::Auto, "naive");
                comm.barrier("bench:done");
                t0.elapsed().as_secs_f64()
            })
            .results[0]
        })
        .collect();
    put("core.naive_spgemm_s", "s", median(&naive));
    drop(probe);

    // ---- apps: MS-BFS on this workload's graph ---------------------------
    let apps = apps_probe(spec, bfs.0, bfs.1);
    tally.record_probe(apps.ok);
    put("apps.msbfs_iters", "count", apps.iters as f64);
    put("apps.frontier_nnz_max", "count", apps.frontier_max as f64);
    put("apps.iter_max_s", "s", apps.iter_max_s);
    put("apps.seq_msbfs_s", "s", apps.seq_s);

    let untraced_s = median(&un.iter().map(|o| o.solve_s).collect::<Vec<_>>());
    let traced_s = median(&m.traced.iter().map(|o| o.solve_s).collect::<Vec<_>>());
    put("trace.overhead_ratio", "x", traced_s / untraced_s);
    out
}

/// Each rank's collectives of the solve (tags starting with `tag`).
fn solve_colls<'p>(profiles: &'p [RankProfile], tag: &str) -> Vec<Vec<&'p CollectiveRecord>> {
    profiles
        .iter()
        .map(|pr| {
            pr.segments
                .iter()
                .filter_map(|s| s.coll.as_ref())
                .filter(|c| c.tag.starts_with(tag))
                .collect()
        })
        .collect()
}

/// Tile-loop phase seconds of one traced operation: per-rank sums of the
/// `pack` / `kernel` / `merge` spans, and the self time of the run spans,
/// each the largest over ranks.
#[derive(Default)]
struct Phases {
    pack: f64,
    kernel: f64,
    merge: f64,
    self_s: f64,
}

impl Phases {
    fn of(profiles: &[RankProfile], tag: &str) -> Self {
        let mut worst = Phases::default();
        for pr in profiles {
            let mut ph = Phases::default();
            let mut children: Vec<(f64, f64)> = Vec::new();
            let mut runs: Vec<(f64, f64)> = Vec::new();
            for s in pr.spans.iter().filter(|s| s.tag.starts_with(tag)) {
                let dur = s.end_secs - s.start_secs;
                let iv = (s.start_secs, s.end_secs);
                match s.tag.rsplit(':').next().unwrap_or("") {
                    "pack" => ph.pack += dur,
                    "kernel" => ph.kernel += dur,
                    "merge" => ph.merge += dur,
                    "symbolic" => {}
                    // Per-thread kernel lanes nest inside `kernel`.
                    x if x.starts_with('t') && s.tag.contains(":kernel:") => continue,
                    _ => {
                        runs.push(iv);
                        continue;
                    }
                }
                children.push(iv);
            }
            // Collectives inside a run span are its children too.
            for c in pr
                .segments
                .iter()
                .filter_map(|s| s.coll.as_ref())
                .filter(|c| c.tag.starts_with(tag))
            {
                children.push((c.entered_secs, c.entered_secs + c.wait_secs));
            }
            ph.self_s = runs
                .iter()
                .map(|&r| r.1 - r.0 - covered(r, &mut children))
                .sum();
            worst.pack = worst.pack.max(ph.pack);
            worst.kernel = worst.kernel.max(ph.kernel);
            worst.merge = worst.merge.max(ph.merge);
            worst.self_s = worst.self_s.max(ph.self_s);
        }
        worst
    }
}

/// Length of the part of `run` that the union of `ivs` covers.
fn covered(run: (f64, f64), ivs: &mut [(f64, f64)]) -> f64 {
    ivs.sort_by(|x, y| x.0.total_cmp(&y.0));
    let (mut total, mut reach) = (0.0, run.0);
    for &(s, e) in ivs.iter() {
        let (s, e) = (s.max(reach), e.min(run.1));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

struct Apps {
    ok: bool,
    iters: usize,
    frontier_max: u64,
    iter_max_s: f64,
    seq_s: f64,
}

/// One distributed MS-BFS at the workload's `p` and `t`, checked against
/// `sequential_msbfs`; iteration times come from the per-iteration `count`
/// AllReduce entry times rank 0 recorded.
fn apps_probe(spec: &Spec, a: &Coo<bool>, sources: &[Idx]) -> Apps {
    let (seq_s, oracle) = time(|| sequential_msbfs(&a.to_csr::<BoolAndOr>(), sources));
    let ops = setup::<BoolAndOr>(spec, a, None).ops;
    let cfg = BfsConfig::default();
    let run = catch_unwind(AssertUnwindSafe(|| {
        World::run_with_threads(spec.p, spec.t, |comm| {
            let op = &ops[comm.rank()];
            msbfs_ts(comm, &op.a, &op.ac, sources, &cfg)
        })
    }));
    let Ok(run) = run else {
        return Apps {
            ok: false,
            iters: 0,
            frontier_max: 0,
            iter_max_s: f64::NAN,
            seq_s,
        };
    };
    let counts: Vec<f64> = run.profiles[0]
        .segments
        .iter()
        .filter_map(|s| s.coll.as_ref())
        .filter(|c| c.tag.starts_with("bfs:") && c.tag.ends_with(":count"))
        .map(|c| c.entered_secs)
        .collect();
    let iter_max_s = counts.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max);
    let stats = run.results[0].1.clone();
    let blocks: Vec<Csr<bool>> = run.results.into_iter().map(|r| r.0).collect();
    Apps {
        ok: blocks_match(&blocks, &oracle, spec.dist(), |x, y| x == y),
        iters: stats.len(),
        frontier_max: stats.iter().map(|s| s.frontier_nnz).max().unwrap_or(0),
        iter_max_s,
        seq_s,
    }
}

/// The densest frontier of a level-synchronous MS-BFS from `sources`
/// (`F ← A·F \ S`, sequential), the MS-BFS workload's probe operand.
pub fn densest_frontier(a: &Coo<bool>, sources: &[Idx]) -> Coo<bool> {
    let a = a.to_csr::<BoolAndOr>();
    let f0: Vec<(Idx, Idx, bool)> = sources
        .iter()
        .enumerate()
        .map(|(j, &v)| (v, j as Idx, true))
        .collect();
    let mut f = Coo::from_entries(a.nrows(), sources.len(), f0).to_csr::<BoolAndOr>();
    let mut seen = f.clone();
    let mut best = f.clone();
    while f.nnz() > 0 {
        let next = spgemm::<BoolAndOr>(&a, &f, AccumChoice::Auto);
        f = andnot(&next, &seen);
        seen = union::<BoolAndOr>(&seen, &f);
        if f.nnz() > best.nnz() {
            best = f.clone();
        }
    }
    best.to_coo()
}
