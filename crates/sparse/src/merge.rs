//! Semiring summation ("merge") of sparse matrices.
//!
//! Alg. 2 merges partial results from every tile — locally computed pieces,
//! remotely computed pieces shipped back, and the diagonal piece — into
//! `C_i`. The paper uses the same SPA/hash accumulators for merging as for
//! multiplication (§III-C); so do we.

use crate::accum::{Accumulator, HashAccum, Spa};
use crate::semiring::Semiring;
use crate::spgemm::AccumChoice;
use crate::Csr;

/// Sums matrices of identical shape under `S`, entry-wise.
///
/// # Panics
/// Panics if shapes differ or `mats` is empty.
pub fn merge<S: Semiring>(mats: &[&Csr<S::T>], choice: AccumChoice) -> Csr<S::T> {
    assert!(!mats.is_empty(), "merge needs at least one matrix");
    let (nrows, ncols) = (mats[0].nrows(), mats[0].ncols());
    for m in mats {
        assert_eq!((m.nrows(), m.ncols()), (nrows, ncols), "shape mismatch");
    }
    if mats.len() == 1 {
        return mats[0].clone();
    }
    match choice.resolve(ncols) {
        AccumChoice::Hash => merge_with(mats, &mut HashAccum::<S>::with_capacity(64)),
        _ => merge_with(mats, &mut Spa::<S>::new(ncols)),
    }
}

fn merge_with<S: Semiring, A: Accumulator<S>>(mats: &[&Csr<S::T>], acc: &mut A) -> Csr<S::T> {
    let (nrows, ncols) = (mats[0].nrows(), mats[0].ncols());
    let nnz_hint: usize = mats.iter().map(|m| m.nnz()).sum();
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.push(0);
    let mut indices = Vec::with_capacity(nnz_hint);
    let mut values = Vec::with_capacity(nnz_hint);
    for r in 0..nrows {
        for m in mats {
            let (cols, vals) = m.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                acc.accumulate(c, v);
            }
        }
        acc.drain_sorted(&mut indices, &mut values);
        indptr.push(indices.len());
    }
    Csr::from_parts(nrows, ncols, indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BoolAndOr, PlusTimesF64};
    use crate::{Coo, Idx};

    fn mk(entries: &[(Idx, Idx, f64)]) -> Csr<f64> {
        Coo::from_entries(3, 3, entries.to_vec()).to_csr::<PlusTimesF64>()
    }

    #[test]
    fn merge_two_disjoint() {
        let a = mk(&[(0, 0, 1.0)]);
        let b = mk(&[(2, 2, 2.0)]);
        let c = merge::<PlusTimesF64>(&[&a, &b], AccumChoice::Auto);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(0, 0), Some(1.0));
        assert_eq!(c.get(2, 2), Some(2.0));
    }

    #[test]
    fn merge_overlapping_adds() {
        let a = mk(&[(1, 1, 1.0), (1, 2, 5.0)]);
        let b = mk(&[(1, 1, 2.5)]);
        let c = merge::<PlusTimesF64>(&[&a, &b], AccumChoice::Auto);
        assert_eq!(c.get(1, 1), Some(3.5));
        assert_eq!(c.get(1, 2), Some(5.0));
    }

    #[test]
    fn merge_cancellation_drops_entry() {
        let a = mk(&[(0, 1, 2.0)]);
        let b = mk(&[(0, 1, -2.0)]);
        let c = merge::<PlusTimesF64>(&[&a, &b], AccumChoice::Auto);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn merge_single_is_identity() {
        let a = mk(&[(0, 0, 1.0), (2, 1, 3.0)]);
        assert_eq!(merge::<PlusTimesF64>(&[&a], AccumChoice::Auto), a);
    }

    #[test]
    fn spa_and_hash_merge_agree() {
        let a = mk(&[(0, 0, 1.0), (1, 2, 2.0), (2, 0, 3.0)]);
        let b = mk(&[(0, 0, 4.0), (2, 2, 5.0)]);
        let c = mk(&[(1, 2, -2.0)]);
        let m1 = merge::<PlusTimesF64>(&[&a, &b, &c], AccumChoice::Spa);
        let m2 = merge::<PlusTimesF64>(&[&a, &b, &c], AccumChoice::Hash);
        assert_eq!(m1, m2);
        assert_eq!(m1.get(1, 2), None, "cancelled entry must vanish");
    }

    #[test]
    fn merge_bool_is_union() {
        let a = Coo::from_entries(2, 2, vec![(0, 0, true)]).to_csr::<BoolAndOr>();
        let b = Coo::from_entries(2, 2, vec![(0, 0, true), (1, 1, true)]).to_csr::<BoolAndOr>();
        let c = merge::<BoolAndOr>(&[&a, &b], AccumChoice::Auto);
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_rejects_shape_mismatch() {
        let a = mk(&[(0, 0, 1.0)]);
        let b = Coo::from_entries(2, 3, vec![]).to_csr::<PlusTimesF64>();
        let _ = merge::<PlusTimesF64>(&[&a, &b], AccumChoice::Auto);
    }
}
