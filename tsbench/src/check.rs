//! Oracle checks and failure accounting.
//!
//! Every operation the benchmark runs is checked outside its timed region:
//! each rank's row block of the result against a sequential oracle, and its
//! communication volume against the first operation's (the volume is a pure
//! function of the inputs, so any difference is a defect). An operation that
//! panics, mismatches or changes volume counts as failed.

use tsgemm::core::BlockDist;
use tsgemm::sparse::Csr;

/// Relative tolerance of the multiply check.
pub const TOL: f64 = 1e-9;

pub fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= TOL * (1.0 + x.abs().max(y.abs()))
}

/// Whether the ranks' result blocks, stacked, equal `oracle`: each block
/// has its rank's row count, the oracle's pattern and values equal under
/// `eq`.
pub fn blocks_match<T: Copy>(
    blocks: &[Csr<T>],
    oracle: &Csr<T>,
    dist: BlockDist,
    eq: impl Fn(T, T) -> bool + Copy,
) -> bool {
    blocks.len() == dist.p()
        && blocks.iter().enumerate().all(|(r, b)| {
            let lo = dist.range(r).0 as usize;
            block_matches(b, oracle, lo, dist.local_len(r), eq)
        })
}

fn block_matches<T: Copy>(
    block: &Csr<T>,
    oracle: &Csr<T>,
    lo: usize,
    rows: usize,
    eq: impl Fn(T, T) -> bool,
) -> bool {
    block.nrows() == rows
        && block.ncols() == oracle.ncols()
        && lo + rows <= oracle.nrows()
        && block.iter_rows().all(|(r, cols, vals)| {
            let (oc, ov) = oracle.row(lo + r);
            cols == oc && vals.iter().zip(ov).all(|(&x, &y)| eq(x, y))
        })
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    bytes: Option<u64>,
}

impl Tally {
    /// Records one operation: `outcome` is `None` when it panicked, else
    /// whether its output matched the oracle and the bytes it moved.
    pub fn record(&mut self, outcome: Option<(bool, u64)>) {
        self.attempted += 1;
        let ok = match outcome {
            Some((matched, bytes)) => matched && *self.bytes.get_or_insert(bytes) == bytes,
            None => false,
        };
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a checked layer probe (its volume is not compared).
    pub fn record_probe(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_op, setup, Solve};
    use crate::spec::{Algo, Spec, TINY};
    use tsgemm::apps::msbfs::{msbfs_ts, sequential_msbfs, BfsConfig};
    use tsgemm::core::ts_spgemm;
    use tsgemm::sparse::gen::{erdos_renyi, init_frontier, random_tall};
    use tsgemm::sparse::spgemm::{spgemm, AccumChoice};
    use tsgemm::sparse::{BoolAndOr, Csr, PlusTimesF64};

    fn tally<T: Copy>(
        blocks: &[Csr<T>],
        oracle: &Csr<T>,
        bytes: u64,
        eq: impl Fn(T, T) -> bool + Copy,
    ) -> Tally {
        let mut t = Tally::default();
        t.record(Some((blocks_match(blocks, oracle, TINY.dist(), eq), bytes)));
        t
    }

    #[test]
    fn perturbed_product_counts_as_failure() {
        let n = TINY.n();
        let a = erdos_renyi(n, TINY.deg, 3);
        let b = random_tall(n, TINY.d, TINY.sparsity, 4);
        let oracle = spgemm::<PlusTimesF64>(
            &a.to_csr::<PlusTimesF64>(),
            &b.to_csr::<PlusTimesF64>(),
            AccumChoice::Auto,
        );
        let ops = setup::<PlusTimesF64>(&TINY, &a, Some(&b)).ops;
        let cfg = TINY.ts_config();
        let solve: &Solve<f64> =
            &|comm, op| ts_spgemm::<PlusTimesF64>(comm, &op.a, &op.ac, op.b(), &cfg).0;
        let out = run_op(&TINY, &ops, solve, "ts", false).expect("multiply runs");
        assert_eq!(tally(&out.blocks, &oracle, out.bytes, close).failed, 0);

        let mut bad = out.blocks.clone();
        let c = &mut bad[1];
        let vals: Vec<f64> = c
            .values()
            .iter()
            .enumerate()
            .map(|(i, &v)| if i == 0 { v * (1.0 + 1e-6) } else { v })
            .collect();
        *c = Csr::from_parts(
            c.nrows(),
            c.ncols(),
            c.indptr().to_vec(),
            c.indices().to_vec(),
            vals,
        );
        let t = tally(&bad, &oracle, out.bytes, close);
        assert_eq!((t.attempted, t.failed), (1, 1));
        assert!(t.error_rate() > 0.0);
    }

    #[test]
    fn dropped_bfs_entry_counts_as_failure() {
        let spec = Spec {
            algo: Algo::Msbfs,
            ..TINY
        };
        let n = spec.n();
        let a = erdos_renyi(n, 2.0, 5).map_values(|_| true);
        let (_, sources) = init_frontier(n, spec.d, 6);
        let oracle = sequential_msbfs(&a.to_csr::<BoolAndOr>(), &sources);
        let ops = setup::<BoolAndOr>(&spec, &a, None).ops;
        let cfg = BfsConfig::default();
        let solve: &Solve<bool> = &|comm, op| msbfs_ts(comm, &op.a, &op.ac, &sources, &cfg).0;
        let out = run_op(&spec, &ops, solve, "bfs", false).expect("bfs runs");
        assert_eq!(
            tally(&out.blocks, &oracle, out.bytes, |x, y| x == y).failed,
            0
        );

        let mut bad = out.blocks.clone();
        let victim = bad
            .iter_mut()
            .find(|b| b.nnz() > 0)
            .expect("something visited");
        let (r0, cols, _) = victim
            .iter_rows()
            .find(|(_, cols, _)| !cols.is_empty())
            .unwrap();
        let c0 = cols[0];
        *victim = victim.filter(|r, c, _| (r, c) != (r0, c0));
        let t = tally(&bad, &oracle, out.bytes, |x, y| x == y);
        assert_eq!((t.attempted, t.failed), (1, 1));
    }

    #[test]
    fn panics_and_volume_changes_count_as_failures() {
        let mut t = Tally::default();
        t.record(Some((true, 100)));
        t.record(None);
        t.record(Some((true, 101)));
        t.record(Some((true, 100)));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.error_rate(), 0.5);

        let ops = setup::<PlusTimesF64>(&TINY, &erdos_renyi(TINY.n(), 2.0, 1), None).ops;
        let solve: &Solve<f64> = &|_, _| panic!("injected by the test");
        assert!(run_op(&TINY, &ops, solve, "ts", false).is_none());
    }
}
