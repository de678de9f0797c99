//! The distributed TS-SpGEMM driver (Alg. 2).
//!
//! Executes `C = A ⊗ B` with 1-D partitioned `A`, `B`, `C`, the
//! column-partitioned copy `A^c`, and sparsity-aware tiling. Per tile step
//! `(row band, column band)` every rank plays two roles:
//!
//! * **server** (owner of the `B` rows a sub-tile needs): for local-mode
//!   sub-tiles it packs the needed `B` rows; for remote-mode sub-tiles it
//!   multiplies the sub-tile (taken from its `A^c` block, no communication)
//!   against its local `B` and packs the partial `C` rows;
//! * **tile owner**: multiplies its own tile columns against local `B`
//!   (diagonal), received `B` rows (local mode), and merges received partial
//!   `C` rows (remote mode).
//!
//! Communication per step is consolidated into two AllToAllv's — `B` rows
//! (tag `…:bfetch`, Alg. 2 line 27) and returned partials (tag `…:cret`,
//! line 17) — matching the paper's "consolidated communication".

use crate::colpart::{ColBlocks, Trip};
use crate::dist::DistCsr;
use crate::mode::{decide_modes, ModePolicy, TileMode};
use crate::part::BlockDist;
use crate::tiling::{needed_rows, subtile_csr, TileBuckets, Tiling};
use std::collections::HashMap;
use std::time::Instant;
use tsgemm_net::{alloc, Comm, CommError, FlightEventKind, Metrics, MetricsRegistry};
use tsgemm_pool::{nnz_chunks_range, ThreadPool};
use tsgemm_sparse::accum::{Accumulator, HashAccum, Spa};
use tsgemm_sparse::merge::merge;
use tsgemm_sparse::semiring::Semiring;
use tsgemm_sparse::spgemm::{spgemm, spgemm_flops, AccumChoice};
use tsgemm_sparse::{Csr, Idx};

/// Configuration of one TS-SpGEMM invocation.
#[derive(Clone, Debug)]
pub struct TsConfig {
    /// Tile height; `None` = the full row block (`n/p`, Table IV default).
    pub tile_height: Option<usize>,
    /// Tile width in global columns; `None` = `16·n/p` (Table IV default).
    pub tile_width: Option<usize>,
    /// Local/remote selection policy.
    pub policy: ModePolicy,
    /// Accumulator selection for multiplies and merges.
    pub accum: AccumChoice,
    /// Tag prefix for communication records (phase attribution).
    pub tag: String,
}

impl Default for TsConfig {
    fn default() -> Self {
        Self {
            tile_height: None,
            tile_width: None,
            policy: ModePolicy::Hybrid,
            accum: AccumChoice::Auto,
            tag: "ts".to_string(),
        }
    }
}

impl TsConfig {
    /// Tile width as a multiple of the block size (the Fig. 5 sweep axis).
    pub fn with_width_factor(mut self, factor: usize, dist: BlockDist) -> Self {
        self.tile_width = Some((factor * dist.block().max(1)).min(dist.n().max(1)).max(1));
        self
    }
}

/// Per-rank statistics of one invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TsLocalStats {
    /// Multiplications performed by this rank (server + owner roles).
    pub flops: u64,
    /// Peak bytes of transient received data (B rows + C partials) held
    /// simultaneously during any single tile step (the Fig. 5a metric).
    pub peak_transient_bytes: u64,
    /// Sub-tiles this rank served in local mode.
    pub local_subtiles: u64,
    /// Sub-tiles this rank served in remote mode.
    pub remote_subtiles: u64,
    /// Diagonal sub-tiles (no communication).
    pub diag_subtiles: u64,
    /// Tile steps executed.
    pub steps: u64,
    /// Tile-step collectives retried after an injected transient failure
    /// (always zero without an active fault plan).
    pub retries: u64,
}

impl TsLocalStats {
    /// Lowers into the registry namespace under `phase` (normally the
    /// config's tag). Sum-like fields become counters, high-water marks
    /// become gauges, so registry merges agree with [`Metrics::merge`].
    pub fn registry(&self, phase: &str) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add(phase, "flops", self.flops);
        m.gauge_max(
            phase,
            "peak_transient_bytes",
            self.peak_transient_bytes as f64,
        );
        m.counter_add(phase, "local_subtiles", self.local_subtiles);
        m.counter_add(phase, "remote_subtiles", self.remote_subtiles);
        m.counter_add(phase, "diag_subtiles", self.diag_subtiles);
        m.gauge_max(phase, "steps", self.steps as f64);
        m.counter_add(phase, "retries", self.retries);
        m
    }
}

impl Metrics for TsLocalStats {
    /// Element-wise aggregation across ranks (high-water marks take the max).
    fn merge(&mut self, other: &Self) {
        // Destructured so that adding a field without deciding its merge law
        // is a compile error rather than a silently dropped count.
        let TsLocalStats {
            flops,
            peak_transient_bytes,
            local_subtiles,
            remote_subtiles,
            diag_subtiles,
            steps,
            retries,
        } = *other;
        self.flops += flops;
        self.peak_transient_bytes = self.peak_transient_bytes.max(peak_transient_bytes);
        self.local_subtiles += local_subtiles;
        self.remote_subtiles += remote_subtiles;
        self.diag_subtiles += diag_subtiles;
        self.steps = self.steps.max(steps);
        self.retries += retries;
    }

    fn snapshot(&self) -> MetricsRegistry {
        self.registry("ts")
    }
}

/// Attempts a tile-step AllToAllv up to this many times when the active
/// fault plan injects transient failures (a transient error performs no
/// communication, so a retry re-enters the collective in lock-step).
pub const MAX_COLLECTIVE_ATTEMPTS: u32 = 3;

/// AllToAllv with bounded retry on [`CommError::Injected`]. The defensive
/// copy of the send buffers is made only under an active fault plan;
/// fault-free runs pay nothing.
fn alltoallv_retry<T: Clone + Send + 'static>(
    comm: &mut Comm,
    sends: Vec<Vec<T>>,
    tag: String,
    retries: &mut u64,
) -> Result<Vec<Vec<T>>, CommError> {
    if !comm.fault_active() {
        return comm.try_alltoallv(sends, tag);
    }
    let mut bufs = sends;
    let mut attempt = 1u32;
    loop {
        let backup = (attempt < MAX_COLLECTIVE_ATTEMPTS).then(|| bufs.clone());
        match comm.try_alltoallv(bufs, tag.clone()) {
            Ok(r) => return Ok(r),
            Err(e) if e.is_transient() && backup.is_some() => {
                *retries += 1;
                attempt += 1;
                comm.flight_record(&tag, FlightEventKind::Retry { attempt });
                bufs = backup.unwrap();
            }
            Err(e) => return Err(e),
        }
    }
}

/// Distributed TS-SpGEMM: returns this rank's row block of `C` (local rows,
/// `d` columns) and its local statistics.
///
/// Transient injected faults on the tile-step collectives are retried
/// internally (see [`try_ts_spgemm`]); any other [`CommError`] panics.
///
/// # Panics
/// Panics if `b`'s row distribution differs from `a`'s, or if the column
/// block `ac` was built from a different matrix shape.
pub fn ts_spgemm<S: Semiring>(
    comm: &mut Comm,
    a: &DistCsr<S::T>,
    ac: &ColBlocks<S::T>,
    b: &DistCsr<S::T>,
    cfg: &TsConfig,
) -> (Csr<S::T>, TsLocalStats) {
    try_ts_spgemm::<S>(comm, a, ac, b, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`ts_spgemm`]: tile-step collectives that fail with a transient
/// injected error are retried up to [`MAX_COLLECTIVE_ATTEMPTS`] times
/// (`stats.retries` counts them); non-transient errors are returned.
pub fn try_ts_spgemm<S: Semiring>(
    comm: &mut Comm,
    a: &DistCsr<S::T>,
    ac: &ColBlocks<S::T>,
    b: &DistCsr<S::T>,
    cfg: &TsConfig,
) -> Result<(Csr<S::T>, TsLocalStats), CommError> {
    // Whole-invocation span under the config tag (the same phase the stats
    // registry uses). A drop guard, so it also closes when a collective
    // fails and the `?` below returns early — the timeline never leaks an
    // open span on the error path.
    let run_span = comm.span(|| cfg.tag.clone());
    let me = comm.rank();
    let p = comm.size();
    let dist = a.dist;
    assert_eq!(b.dist, dist, "B rows must follow A's distribution");
    assert_eq!(ac.dist, dist, "A^c columns must follow A's distribution");
    assert_eq!(
        a.ncols(),
        dist.n(),
        "A must be square over the distribution"
    );
    let d = b.ncols();
    let (my_lo, _) = dist.range(me);

    let tiling = Tiling::table_iv(dist, cfg.tile_height, cfg.tile_width);
    let buckets = TileBuckets::build(ac, &tiling);
    let modes = decide_modes::<S>(comm, &tiling, &buckets, b, cfg.policy, &cfg.tag);

    let mut stats = TsLocalStats {
        local_subtiles: modes.n_local,
        remote_subtiles: modes.n_remote,
        diag_subtiles: modes.n_diag,
        steps: tiling.steps() as u64,
        ..TsLocalStats::default()
    };

    let trip_bytes = std::mem::size_of::<Trip<S::T>>() as u64;
    let mut flops = 0u64;
    let trace = comm.trace_on();
    let pool = ThreadPool::global();
    // One finished CSR per row band, stacked into C at the end.
    let mut bands: Vec<Csr<S::T>> = Vec::with_capacity(tiling.n_row_bands);

    for rb in 0..tiling.n_row_bands {
        // This rank's local rows in row band `rb`.
        let (g_lo, g_hi) = tiling.band_range(me, rb);
        let band = (g_lo - my_lo) as usize..(g_hi - my_lo) as usize;
        // This band's C restricted to each column band's contributions.
        let mut pieces: Vec<Csr<S::T>> = Vec::with_capacity(tiling.n_col_bands);
        for cb in 0..tiling.n_col_bands {
            comm.flight_record(
                &cfg.tag,
                FlightEventKind::StepStart {
                    rb: rb as u32,
                    cb: cb as u32,
                },
            );
            // ---- server role: pack B rows / compute partial C ------------
            let pack_span = comm.span(|| format!("{}:pack", cfg.tag));
            let mut bsend: Vec<Vec<Trip<S::T>>> = (0..p).map(|_| Vec::new()).collect();
            let mut csend: Vec<Vec<Trip<S::T>>> = (0..p).map(|_| Vec::new()).collect();
            let (bcol_lo, _) = ac.col_range();
            for i in 0..p {
                if i == me {
                    continue;
                }
                let key = (i, rb as u32, cb as u32);
                let Some(bucket) = buckets.get(&key) else {
                    continue;
                };
                match modes.serve[&key] {
                    TileMode::Local => {
                        // Ship each distinct needed B row once.
                        for k in needed_rows(bucket) {
                            let g_row = bcol_lo + k;
                            let (cols, vals) = b.local.row(k as usize);
                            for (&c, &v) in cols.iter().zip(vals) {
                                bsend[i].push(Trip {
                                    row: g_row,
                                    col: c,
                                    val: v,
                                });
                            }
                        }
                    }
                    TileMode::Remote => {
                        let (band_lo, band_hi) = tiling.band_range(i, rb);
                        let tile = subtile_csr(
                            bucket,
                            band_lo,
                            (band_hi - band_lo) as usize,
                            b.local.nrows(),
                        );
                        flops += spgemm_flops(&tile, &b.local);
                        let part = spgemm::<S>(&tile, &b.local, cfg.accum);
                        // Packed in row order: the owner merges each source's
                        // message with one forward cursor.
                        for (r, cols, vals) in part.iter_rows() {
                            let g_row = band_lo + r as Idx;
                            for (&c, &v) in cols.iter().zip(vals) {
                                csend[i].push(Trip {
                                    row: g_row,
                                    col: c,
                                    val: v,
                                });
                            }
                        }
                    }
                }
            }

            pack_span.end();

            // ---- consolidated communication ------------------------------
            let brecv = alltoallv_retry(
                comm,
                bsend,
                format!("{}:bfetch", cfg.tag),
                &mut stats.retries,
            )?;
            let crecv =
                alltoallv_retry(comm, csend, format!("{}:cret", cfg.tag), &mut stats.retries)?;

            let transient: u64 = brecv
                .iter()
                .chain(crecv.iter())
                .map(|v| v.len() as u64 * trip_bytes)
                .sum();
            stats.peak_transient_bytes = stats.peak_transient_bytes.max(transient);
            // Tiling bounds the multiply's working set to this step's slice.
            comm.note_working_set(transient);

            // ---- tile-owner role: local multiply and MERGE ----------------
            let kernel_span = comm.span(|| format!("{}:kernel", cfg.tag));
            // Index received B rows: global row id -> slice of entries.
            let mut brow_cols: Vec<Idx> = Vec::new();
            let mut brow_vals: Vec<S::T> = Vec::new();
            let mut brow_index: HashMap<Idx, (u32, u32)> = HashMap::new();
            for msg in &brecv {
                for run in msg.chunk_by(|x, y| x.row == y.row) {
                    let lo = brow_cols.len() as u32;
                    brow_cols.extend(run.iter().map(|t| t.col));
                    brow_vals.extend(run.iter().map(|t| t.val));
                    brow_index.insert(run[0].row, (lo, brow_cols.len() as u32));
                }
            }

            let (cb_lo, cb_hi) = tiling.col_band_range(cb);
            // One mode lookup per serving rank and step, not per nonzero.
            let step_modes: Vec<Option<TileMode>> = (0..p)
                .map(|j| modes.own.get(&(rb as u32, cb as u32, j)).copied())
                .collect();
            let ctx = OwnerCtx::<S> {
                my_lo,
                cb_lo,
                cb_hi,
                me,
                dist,
                a_local: &a.local,
                b_local: &b.local,
                modes: &step_modes,
                brow_index: &brow_index,
                brow_cols: &brow_cols,
                brow_vals: &brow_vals,
                crecv: &crecv,
            };
            // nnz-balanced chunks over this band of A's local rows; one
            // private accumulator per chunk (the paper's per-thread SPA),
            // per-chunk rows concatenated in order, so the piece is
            // byte-identical at every thread count.
            let chunks = nnz_chunks_range(a.local.indptr(), band.start, band.end, pool.nthreads());
            let lanes = trace && chunks.len() > 1;
            let parts = pool.run(chunks.len(), |k| {
                let t0 = lanes.then(Instant::now);
                let rows = chunks[k].clone();
                let part = match cfg.accum.resolve(d) {
                    AccumChoice::Hash => {
                        owner_rows(&ctx, rows, &mut HashAccum::<S>::with_capacity(64))
                    }
                    _ => owner_rows(&ctx, rows, &mut Spa::<S>::new(d)),
                };
                (part, t0.map(|t| (t, Instant::now())))
            });
            for (k, (part, span)) in parts.iter().enumerate() {
                flops += part.flops;
                if let Some((s0, e0)) = *span {
                    comm.record_span_between(format!("{}:kernel:t{k}", cfg.tag), s0, e0);
                }
            }
            // Chunk pieces in row order; the first one's buffers are kept.
            let piece = parts
                .into_iter()
                .map(|(part, _)| part)
                .reduce(|mut piece, part| {
                    let base = piece.indices.len();
                    piece
                        .indptr
                        .extend(part.indptr[1..].iter().map(|&x| x + base));
                    piece.indices.extend(part.indices);
                    piece.values.extend(part.values);
                    piece
                })
                .expect("nnz_chunks_range yields at least one chunk");
            pieces.push(Csr::from_parts(
                band.len(),
                d,
                piece.indptr,
                piece.indices,
                piece.values,
            ));
            kernel_span.end();
            comm.flight_record(
                &cfg.tag,
                FlightEventKind::StepEnd {
                    rb: rb as u32,
                    cb: cb as u32,
                },
            );
        }

        // ---- merge the band's column-band pieces (⊕ in cb order) ---------
        let merge_span = comm.span(|| format!("{}:merge", cfg.tag));
        bands.push(match <[Csr<S::T>; 1]>::try_from(pieces) {
            Ok([piece]) => piece,
            Err(pieces) => merge::<S>(&pieces.iter().collect::<Vec<_>>(), cfg.accum),
        });
        merge_span.end();
    }

    comm.add_flops(flops);
    stats.flops = flops;
    if trace {
        comm.metrics(|m| m.merge(&stats.registry(&cfg.tag)));
        if alloc::counting_active() {
            // Process-wide accounted bytes (the counting allocator is
            // global): the peak is the whole job's high-water mark since the
            // last reset, recorded as gauges so rank merges take the max.
            comm.metrics(|m| {
                m.gauge_max(&cfg.tag, "mem_live_bytes", alloc::live_bytes() as f64);
                m.gauge_max(&cfg.tag, "mem_peak_bytes", alloc::peak_bytes() as f64);
            });
        }
    }

    let c = match <[Csr<S::T>; 1]>::try_from(bands) {
        Ok([band]) => band,
        Err(bands) => Csr::vstack(&bands.iter().collect::<Vec<_>>()),
    };
    run_span.end();
    Ok((c, stats))
}

/// Shared-read context for the tile-owner multiply over one `(rb, cb)`
/// step: everything a worker needs to process a chunk of local rows.
struct OwnerCtx<'a, S: Semiring> {
    my_lo: Idx,
    cb_lo: Idx,
    cb_hi: Idx,
    me: usize,
    dist: BlockDist,
    a_local: &'a Csr<S::T>,
    b_local: &'a Csr<S::T>,
    /// This step's sub-tile mode per serving rank (`None`: no sub-tile, or
    /// the diagonal).
    modes: &'a [Option<TileMode>],
    brow_index: &'a HashMap<Idx, (u32, u32)>,
    brow_cols: &'a [Idx],
    brow_vals: &'a [S::T],
    /// Returned partial `C` rows per source rank, each sorted by row.
    crecv: &'a [Vec<Trip<S::T>>],
}

/// One chunk's rows of a step's CSR piece (`indptr` relative to the chunk).
struct OwnerPart<T> {
    indptr: Vec<usize>,
    indices: Vec<Idx>,
    values: Vec<T>,
    flops: u64,
}

/// The tile-owner multiply and MERGE for a contiguous range of *local*
/// rows. Each row ⊕-accumulates the owner's products over the tile's column
/// slice (in `A`'s column order), then the returned partials of that row
/// (by source rank), and drains once. Per-row output depends only on that
/// row's accumulate/drain sequence, so any partition of the band into
/// ranges, concatenated in order, reproduces the full-band pass exactly.
fn owner_rows<S: Semiring, A: Accumulator<S>>(
    ctx: &OwnerCtx<'_, S>,
    rows: std::ops::Range<usize>,
    acc: &mut A,
) -> OwnerPart<S::T> {
    let mut out = OwnerPart {
        indptr: Vec::with_capacity(rows.len() + 1),
        indices: Vec::new(),
        values: Vec::new(),
        flops: 0,
    };
    out.indptr.push(0);
    // One forward cursor per source into its row-sorted partials.
    let g_lo = ctx.my_lo + rows.start as Idx;
    let mut cursors: Vec<usize> = ctx
        .crecv
        .iter()
        .map(|msg| msg.partition_point(|t| t.row < g_lo))
        .collect();
    for r_local in rows {
        let (cols, vals) = ctx.a_local.row(r_local);
        let start = cols.partition_point(|&c| c < ctx.cb_lo);
        let end = cols.partition_point(|&c| c < ctx.cb_hi);
        for (&c, &va) in cols[start..end].iter().zip(&vals[start..end]) {
            let j = ctx.dist.owner(c);
            let (bc, bv) = if j == ctx.me {
                // Diagonal: B row is local.
                ctx.b_local.row((c - ctx.my_lo) as usize)
            } else {
                match ctx.modes[j] {
                    Some(TileMode::Local) => match ctx.brow_index.get(&c) {
                        Some(&(lo, hi)) => (
                            &ctx.brow_cols[lo as usize..hi as usize],
                            &ctx.brow_vals[lo as usize..hi as usize],
                        ),
                        None => continue, // empty B row: nothing shipped
                    },
                    Some(TileMode::Remote) => continue, // partial merged below
                    None => {
                        // The serving rank saw no entries for this sub-tile,
                        // yet we hold one: A and A^c have diverged — a bug.
                        unreachable!("sub-tile served by {j} has no mode");
                    }
                }
            };
            for (&bcol, &bval) in bc.iter().zip(bv) {
                acc.accumulate(bcol, S::mul(va, bval));
            }
            out.flops += bc.len() as u64;
        }
        let g_row = ctx.my_lo + r_local as Idx;
        for (msg, at) in ctx.crecv.iter().zip(&mut cursors) {
            while let Some(t) = msg.get(*at).filter(|t| t.row == g_row) {
                acc.accumulate(t.col, t.val);
                *at += 1;
            }
        }
        if acc.touched() > 0 {
            acc.drain_sorted(&mut out.indices, &mut out.values);
        }
        out.indptr.push(out.indices.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::{erdos_renyi, random_tall, rmat, RMAT_WEB};
    use tsgemm_sparse::spgemm::spgemm as local_spgemm;
    use tsgemm_sparse::{BoolAndOr, Coo, PlusTimesF64};

    /// Runs distributed TS-SpGEMM and checks the gathered result against a
    /// sequential multiply of the same operands.
    fn check(
        n: usize,
        d: usize,
        p: usize,
        acoo: &Coo<f64>,
        bcoo: &Coo<f64>,
        cfg: TsConfig,
    ) -> Vec<TsLocalStats> {
        let expected = local_spgemm::<PlusTimesF64>(
            &acoo.to_csr::<PlusTimesF64>(),
            &bcoo.to_csr::<PlusTimesF64>(),
            AccumChoice::Auto,
        );
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            let b = DistCsr::from_global_coo::<PlusTimesF64>(bcoo, dist, comm.rank(), d);
            let (c_local, stats) = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg);
            let c = DistCsr {
                dist,
                rank: comm.rank(),
                local: c_local,
            };
            (c.gather_global::<PlusTimesF64>(comm), stats)
        });
        for (c, _) in &out.results {
            assert!(
                c.approx_eq(&expected, 1e-9),
                "distributed result differs from sequential"
            );
        }
        out.results.into_iter().map(|(_, s)| s).collect()
    }

    #[test]
    fn stats_merge_is_total_over_every_field() {
        // Regression: an earlier fold-based merge silently dropped fields
        // (retry counts) added after it was written. The destructuring merge
        // makes that a compile error; this pins the runtime semantics.
        let a = TsLocalStats {
            flops: 1,
            peak_transient_bytes: 10,
            local_subtiles: 2,
            remote_subtiles: 3,
            diag_subtiles: 4,
            steps: 5,
            retries: 6,
        };
        let b = TsLocalStats {
            flops: 10,
            peak_transient_bytes: 7,
            local_subtiles: 20,
            remote_subtiles: 30,
            diag_subtiles: 40,
            steps: 3,
            retries: 60,
        };
        let mut ab = a;
        ab.merge(&b);
        assert_eq!(
            ab,
            TsLocalStats {
                flops: 11,
                peak_transient_bytes: 10,
                local_subtiles: 22,
                remote_subtiles: 33,
                diag_subtiles: 44,
                steps: 5,
                retries: 66,
            }
        );
        // Commutative: fold order across ranks must not matter.
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        // The registry lowering agrees with the struct merge laws.
        let mut ra = a.snapshot();
        ra.merge(&b.snapshot());
        assert_eq!(ra, ab.snapshot());
    }

    #[test]
    fn matches_sequential_default_config() {
        let n = 64;
        let d = 8;
        let acoo = erdos_renyi(n, 5.0, 21);
        let bcoo = random_tall(n, d, 0.5, 22);
        let stats = check(n, d, 4, &acoo, &bcoo, TsConfig::default());
        let total: u64 = stats.iter().map(|s| s.flops).sum();
        assert!(total > 0);
    }

    #[test]
    fn matches_sequential_all_policies() {
        let n = 48;
        let d = 6;
        let acoo = erdos_renyi(n, 6.0, 31);
        let bcoo = random_tall(n, d, 0.7, 32);
        for policy in [
            ModePolicy::Hybrid,
            ModePolicy::LocalOnly,
            ModePolicy::RemoteOnly,
        ] {
            let cfg = TsConfig {
                policy,
                ..TsConfig::default()
            };
            check(n, d, 3, &acoo, &bcoo, cfg);
        }
    }

    #[test]
    fn matches_sequential_small_tiles() {
        let n = 40;
        let d = 5;
        let acoo = erdos_renyi(n, 4.0, 41);
        let bcoo = random_tall(n, d, 0.4, 42);
        // Narrow tiles (w = n/p) and short tiles (h = 3) exercise multi-step.
        let cfg = TsConfig {
            tile_height: Some(3),
            tile_width: Some(10),
            ..TsConfig::default()
        };
        let stats = check(n, d, 4, &acoo, &bcoo, cfg);
        assert!(stats[0].steps > 1, "config must produce multiple steps");
    }

    #[test]
    fn matches_sequential_wide_tile_single_step() {
        let n = 30;
        let d = 4;
        let acoo = erdos_renyi(n, 5.0, 51);
        let bcoo = random_tall(n, d, 0.2, 52);
        let cfg = TsConfig {
            tile_width: Some(n),
            ..TsConfig::default()
        };
        let stats = check(n, d, 3, &acoo, &bcoo, cfg);
        assert_eq!(stats[0].steps, 1);
    }

    #[test]
    fn matches_sequential_hash_accumulator() {
        let n = 32;
        let d = 8;
        let acoo = erdos_renyi(n, 5.0, 61);
        let bcoo = random_tall(n, d, 0.5, 62);
        let cfg = TsConfig {
            accum: AccumChoice::Hash,
            ..TsConfig::default()
        };
        check(n, d, 4, &acoo, &bcoo, cfg);
    }

    #[test]
    fn matches_sequential_scale_free() {
        let n = 128;
        let d = 16;
        let acoo = rmat(7, 8.0, RMAT_WEB, 71);
        let bcoo = random_tall(n, d, 0.8, 72);
        let stats = check(n, d, 8, &acoo, &bcoo, TsConfig::default());
        let remote: u64 = stats.iter().map(|s| s.remote_subtiles).sum();
        let local: u64 = stats.iter().map(|s| s.local_subtiles).sum();
        assert!(remote + local > 0);
    }

    #[test]
    fn exact_cancellation_leaves_no_entry_at_any_merge_point() {
        // C(0,0) = A(0,1)·B(1,0) + A(0,5)·B(5,0) = 1 - 1 = 0. Row 0 is rank
        // 0's; column 1 is its diagonal, column 5 is served by rank 1. The
        // second term arrives as a fetched B row (local mode) or a returned
        // partial (remote mode), in the first column band or, with w = 4,
        // from the second band, so the sum cancels in the owner's
        // accumulator or in the column-band merge.
        let (n, d, p) = (8, 2, 2);
        let acoo = Coo::from_entries(n, n, vec![(0, 1, 1.0), (0, 5, 1.0)]);
        let bcoo = Coo::from_entries(
            n,
            d,
            vec![(1, 0, 1.0), (1, 1, 1.0), (5, 0, -1.0), (5, 1, 1.0)],
        );
        let expected = local_spgemm::<PlusTimesF64>(
            &acoo.to_csr::<PlusTimesF64>(),
            &bcoo.to_csr::<PlusTimesF64>(),
            AccumChoice::Auto,
        );
        assert_eq!(expected.get(0, 0), None);
        assert_eq!(expected.get(0, 1), Some(2.0));
        for policy in [
            ModePolicy::Hybrid,
            ModePolicy::LocalOnly,
            ModePolicy::RemoteOnly,
        ] {
            for tile_width in [None, Some(4)] {
                for accum in [AccumChoice::Spa, AccumChoice::Hash] {
                    let cfg = TsConfig {
                        policy,
                        tile_width,
                        accum,
                        ..TsConfig::default()
                    };
                    // `check` requires the sequential pattern exactly.
                    check(n, d, p, &acoo, &bcoo, cfg);
                }
            }
        }
    }

    #[test]
    fn flight_events_repeat_exactly_across_runs() {
        // The symbolic step visits sub-tiles in key order, so its mode
        // decisions, the mode messages and every later event come out in
        // the same order on every run. Timestamps are left out.
        let n = 256;
        let d = 16;
        let acoo = rmat(8, 8.0, RMAT_WEB, 7);
        let bcoo = random_tall(n, d, 0.8, 8);
        let cfg = TsConfig {
            tile_height: Some(32),
            tile_width: Some(64),
            ..TsConfig::default()
        };
        let events = || {
            let out = World::run(4, |comm| {
                let dist = BlockDist::new(n, 4);
                let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
                let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
                let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
                ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg);
            });
            out.flights
                .iter()
                .map(|f| {
                    let evs: Vec<_> = f.in_order().map(|e| (e.tag.clone(), e.kind)).collect();
                    assert_eq!(evs.len() as u64, f.total_recorded(), "whole stream kept");
                    evs
                })
                .collect::<Vec<_>>()
        };
        let first = events();
        assert!(first
            .iter()
            .flatten()
            .any(|(_, k)| matches!(k, FlightEventKind::TileMode { .. })));
        for _ in 0..4 {
            assert_eq!(events(), first);
        }
    }

    #[test]
    fn bool_semiring_multi_frontier() {
        let n = 40;
        let d = 4;
        let acoo = erdos_renyi(n, 4.0, 81).map_values(|_| true);
        let (fcoo, _) = tsgemm_sparse::gen::init_frontier(n, d, 82);
        let expected = local_spgemm::<BoolAndOr>(
            &acoo.to_csr::<BoolAndOr>(),
            &fcoo.to_csr::<BoolAndOr>(),
            AccumChoice::Auto,
        );
        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<BoolAndOr>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
            let b = DistCsr::from_global_coo::<BoolAndOr>(&fcoo, dist, comm.rank(), d);
            let (c_local, _) = ts_spgemm::<BoolAndOr>(comm, &a, &ac, &b, &TsConfig::default());
            DistCsr {
                dist,
                rank: comm.rank(),
                local: c_local,
            }
            .gather_global::<BoolAndOr>(comm)
        });
        for c in out.results {
            assert_eq!(c, expected);
        }
    }

    #[test]
    fn empty_b_gives_empty_c() {
        let n = 24;
        let d = 4;
        let acoo = erdos_renyi(n, 5.0, 91);
        let bcoo = Coo::new(n, d);
        let out = World::run(3, |comm| {
            let dist = BlockDist::new(n, 3);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
            let (c, _) = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &TsConfig::default());
            c.nnz()
        });
        assert!(out.results.iter().all(|&nnz| nnz == 0));
    }

    #[test]
    fn more_ranks_than_rows() {
        let n = 5;
        let d = 3;
        let acoo = erdos_renyi(n, 2.0, 95);
        let bcoo = random_tall(n, d, 0.0, 96);
        check(n, d, 8, &acoo, &bcoo, TsConfig::default());
    }

    #[test]
    fn hybrid_moves_no_more_than_local_only() {
        // The mode decision minimises moved nonzeros per sub-tile, so total
        // multiply-phase traffic under Hybrid must be <= LocalOnly.
        let n = 128;
        let d = 8;
        let acoo = rmat(7, 12.0, RMAT_WEB, 97);
        let bcoo = random_tall(n, d, 0.3, 98);
        let volume = |policy: ModePolicy| {
            let out = World::run(4, |comm| {
                let dist = BlockDist::new(n, 4);
                let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
                let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
                let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
                let cfg = TsConfig {
                    policy,
                    ..TsConfig::default()
                };
                let _ = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg);
            });
            out.profiles
                .iter()
                .map(|p| p.bytes_sent_tagged("ts:bfetch") + p.bytes_sent_tagged("ts:cret"))
                .sum::<u64>()
        };
        let hybrid = volume(ModePolicy::Hybrid);
        let local = volume(ModePolicy::LocalOnly);
        assert!(
            hybrid <= local,
            "hybrid ({hybrid}) must not exceed local-only ({local})"
        );
    }

    #[test]
    fn peak_transient_memory_grows_with_width() {
        let n = 256;
        let d = 16;
        let acoo = erdos_renyi(n, 8.0, 99);
        let bcoo = random_tall(n, d, 0.2, 100);
        let peak = |factor: usize| {
            let out = World::run(8, |comm| {
                let dist = BlockDist::new(n, 8);
                let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
                let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
                let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
                let cfg = TsConfig::default().with_width_factor(factor, dist);
                let (_, stats) = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg);
                stats.peak_transient_bytes
            });
            out.results.into_iter().max().unwrap()
        };
        assert!(
            peak(8) >= peak(1),
            "wider tiles must not shrink peak transient memory"
        );
    }
}
