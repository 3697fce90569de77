//! Property tests on the conversion graph: converting between any two
//! reachable formats preserves the matrix (values + structure) relative
//! to the COO reference.

use std::collections::BTreeSet;

use proptest::prelude::*;
use spmm_core::{
    BcsrMatrix, BellMatrix, ConversionGraph, ConvertConfig, CooMatrix, CsrMatrix, DenseMatrix,
    EllMatrix, HybMatrix, MatrixStats, SparseFormat, SparseMatrix,
};

/// A random sparse matrix with strictly nonzero values: blocked formats
/// pad with explicit zeros and `to_coo` back-edges prune them, so zero
/// values would make structure comparisons ambiguous.
fn sparse_matrix() -> impl Strategy<Value = CooMatrix<f64>> {
    (1usize..24, 1usize..24).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            (0..rows, 0..cols, 1i32..100).prop_map(|(r, c, v)| (r, c, v as f64 / 4.0)),
            0..64,
        )
        .prop_map(move |trips| {
            // Duplicates sum to a positive value (all entries positive),
            // so nothing collapses to an explicit zero.
            CooMatrix::from_triplets(rows, cols, &trips).expect("in bounds")
        })
    })
}

/// Raw assembly input as `(rows, cols, triplets)`, to be pushed in draw
/// order so duplicate coordinates and unsorted column runs survive. Half
/// the cases add one very long row: every column twice, in descending
/// order, so it overflows any HYB width the other rows pick and can split
/// a duplicate pair between the ELL part and the tail.
fn raw_triplets() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..12, 1usize..12).prop_flat_map(|(r, c)| {
        (
            proptest::collection::vec(
                (0..r, 0..c, 1i32..50).prop_map(|(i, j, v)| (i, j, v as f64 / 4.0)),
                0..40,
            ),
            proptest::collection::vec(0..r, 0..2),
        )
            .prop_map(move |(mut trips, long_row)| {
                for &i in &long_row {
                    trips.extend((0..2 * c).rev().map(|j| (i, j % c, 0.5 + j as f64)));
                }
                (r, c, trips)
            })
    })
}

/// The triplets pushed as-is, without sorting or summing.
fn push_raw(rows: usize, cols: usize, trips: &[(usize, usize, f64)]) -> CooMatrix<f64> {
    let mut raw = CooMatrix::new(rows, cols);
    for &(r, c, v) in trips {
        raw.push(r, c, v).expect("in bounds");
    }
    raw
}

fn max_row_nnz(csr: &CsrMatrix<f64>) -> usize {
    (0..csr.rows()).map(|i| csr.row_nnz(i)).max().unwrap_or(0)
}

/// `C = A·B` straight off HYB's two parts: every ELL slot (padding slots
/// hold zero) plus every tail entry.
fn hyb_spmm(hyb: &HybMatrix<f64>, b: &DenseMatrix<f64>) -> DenseMatrix<f64> {
    let mut c = DenseMatrix::zeros(hyb.rows(), b.cols());
    let ell = hyb.ell();
    let slots = (0..hyb.rows()).flat_map(|i| {
        let entries = ell.row_cols(i).iter().zip(ell.row_vals(i));
        entries.map(move |(&col, &v)| (i, col, v))
    });
    for (i, col, v) in slots.chain(hyb.tail().iter()) {
        for j in 0..b.cols() {
            c.set(i, j, c.get(i, j) + v * b.get(col, j));
        }
    }
    c
}

/// The number of distinct `r × c` blocks each block-row (or strip) of
/// `coo` touches.
fn blocks_per_strip(coo: &CooMatrix<f64>, r: usize, c: usize) -> Vec<usize> {
    let mut seen = vec![BTreeSet::new(); coo.rows().div_ceil(r)];
    for (i, j, _) in coo.iter() {
        seen[i / r].insert(j / c);
    }
    seen.iter().map(BTreeSet::len).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every reachable (from, to) pair: COO → from → to → COO equals
    /// the original after pruning padding and sorting.
    #[test]
    fn every_reachable_pair_roundtrips(coo in sparse_matrix()) {
        let graph = ConversionGraph::standard();
        let cfg = ConvertConfig::default();
        let reference = coo.to_coo();
        for from in SparseFormat::ALL {
            let source = graph.convert_coo(&coo, from, &cfg).unwrap().matrix;
            for to in SparseFormat::ALL {
                let stats = MatrixStats::of_coo(&coo);
                let route = graph.route(from, to, &stats).unwrap();
                prop_assert_eq!(route.first(), Some(&from));
                prop_assert_eq!(route.last(), Some(&to));
                let converted = graph.convert(source.clone(), to, &cfg).unwrap();
                prop_assert_eq!(converted.route, route);
                prop_assert_eq!(converted.matrix.format(), to);
                let mut back = converted.matrix.to_coo_wide();
                back.prune_zeros();
                back.sort_and_sum_duplicates();
                prop_assert_eq!(&back, &reference);
            }
        }
    }

    /// The direct `from_coo` entry point agrees with the reference too,
    /// and reports a route that starts at COO.
    #[test]
    fn convert_coo_roundtrips(coo in sparse_matrix(), target_idx in 0usize..8) {
        let graph = ConversionGraph::standard();
        let target = SparseFormat::ALL[target_idx];
        let converted = graph
            .convert_coo(&coo, target, &ConvertConfig::default())
            .unwrap();
        prop_assert_eq!(converted.route.first(), Some(&SparseFormat::Coo));
        let mut back = converted.matrix.to_coo_wide();
        back.prune_zeros();
        back.sort_and_sum_duplicates();
        prop_assert_eq!(back, coo.to_coo());
    }

    /// Raw assembly input — pushed out of order, with duplicate
    /// coordinates — reaches every format as the *summed* matrix. The
    /// triplets are drawn without canonicalization, so duplicates and
    /// unsorted runs survive into the conversion input.
    #[test]
    fn raw_pushed_coo_converts_to_the_summed_matrix(shape in raw_triplets()) {
        let (rows, cols, trips) = shape.clone();
        let raw = push_raw(rows, cols, &trips);
        let canonical =
            CooMatrix::<f64>::from_triplets(rows, cols, &trips).expect("in bounds");

        let graph = ConversionGraph::standard();
        for target in SparseFormat::ALL {
            let converted = graph
                .convert_coo(&raw, target, &ConvertConfig::with_block(2))
                .unwrap();
            let mut back = converted.matrix.to_coo_wide();
            back.prune_zeros();
            back.sort_and_sum_duplicates();
            prop_assert!(back == canonical.to_coo(), "{target} lost duplicate sums");
        }
    }

    /// HYB on raw input, at width 0, the automatic width, the fullest row
    /// and past it: like CSR it keeps every pushed entry (duplicates as
    /// separate slots), and both its `to_coo` and its product agree with
    /// the CSR it came from.
    #[test]
    fn hyb_keeps_every_raw_entry_at_any_width(shape in raw_triplets()) {
        let (rows, cols, trips) = shape.clone();
        let raw = push_raw(rows, cols, &trips);
        let csr = CsrMatrix::from_coo(&raw);
        let mut want = csr.to_coo();
        want.sort_and_sum_duplicates();
        // Quarter-integer values times small integers: every product and
        // partial sum is exact, so any summation order gives equal bits.
        let b = DenseMatrix::from_fn(cols, 3, |i, j| (i + 2 * j) as f64 - 4.0);
        let reference = raw.spmm_reference(&b);
        let max = max_row_nnz(&csr);
        let built = [
            HybMatrix::from_csr_with_width(&csr, 0),
            HybMatrix::from_csr(&csr),
            HybMatrix::from_csr_with_width(&csr, max),
            HybMatrix::from_csr_with_width(&csr, max + 3),
        ];
        for hyb in built {
            let hyb = hyb.unwrap();
            prop_assert_eq!(hyb.nnz(), csr.nnz());
            prop_assert_eq!(hyb.to_coo(), want.clone());
            prop_assert_eq!(hyb_spmm(&hyb, &b), reference.clone());
        }
    }

    /// On canonical input HYB's ELL part is exactly the ELL of each row's
    /// first `w` entries, and its tail exactly the rest, in CSR order.
    #[test]
    fn hyb_splits_canonical_rows_at_the_width(coo in sparse_matrix()) {
        let csr = CsrMatrix::from_coo(&coo);
        let max = max_row_nnz(&csr);
        let auto = HybMatrix::from_csr(&csr).unwrap().ell().width();
        for w in [0, 1, auto, max / 2, max, max + 3] {
            let hyb = HybMatrix::from_csr_with_width(&csr, w).unwrap();
            let mut row_ptr = vec![0];
            let (mut head_cols, mut head_vals) = (Vec::new(), Vec::new());
            let mut spill = CooMatrix::new(csr.rows(), csr.cols());
            for i in 0..csr.rows() {
                let (rcols, rvals) = csr.row(i);
                for (slot, (&c, &v)) in rcols.iter().zip(rvals).enumerate() {
                    if slot < w {
                        head_cols.push(c);
                        head_vals.push(v);
                    } else {
                        spill.push(i, c, v).unwrap();
                    }
                }
                row_ptr.push(head_cols.len());
            }
            let head = CsrMatrix::from_parts(csr.rows(), csr.cols(), row_ptr, head_cols, head_vals);
            prop_assert_eq!(hyb.ell(), &EllMatrix::from_csr_with_width(&head, w).unwrap());
            prop_assert_eq!(hyb.tail(), &spill);
        }
    }

    /// BCSR and BELL on raw and canonical input: the dense matrix sums
    /// duplicates, and the stored slot counts follow from the distinct
    /// blocks each block-row (or strip) touches. Square BCSR also matches
    /// the naive formatter field for field.
    #[test]
    fn blocked_formats_store_the_expected_blocks(
        shape in raw_triplets(),
        r in 1usize..5,
        c in 1usize..5,
    ) {
        let (rows, cols, trips) = shape.clone();
        let raw = push_raw(rows, cols, &trips);
        let canonical = CooMatrix::from_triplets(rows, cols, &trips).unwrap();
        let dense = canonical.to_dense();
        let per_strip = blocks_per_strip(&canonical, r, c);
        let widest = per_strip.iter().copied().max().unwrap_or(0);
        for coo in [&raw, &canonical] {
            let csr = CsrMatrix::from_coo(coo);
            let bcsr = BcsrMatrix::from_csr_rect(&csr, r, c).unwrap();
            prop_assert_eq!(bcsr.to_dense(), dense.clone());
            prop_assert_eq!(bcsr.stored_entries(), per_strip.iter().sum::<usize>() * r * c);
            let bell = BellMatrix::from_csr_rect(&csr, r, c).unwrap();
            prop_assert_eq!(bell.to_dense(), dense.clone());
            prop_assert_eq!(bell.stored_entries(), per_strip.len() * widest * r * c);
            let square = BcsrMatrix::from_csr(&csr, r).unwrap();
            prop_assert_eq!(square, BcsrMatrix::from_csr_naive(&csr, r).unwrap());
        }
    }
}

/// The standard topology routes every non-hub pair through the CSR hub:
/// e.g. ELL → BCSR must be the multi-hop ELL → COO → CSR → BCSR, never a
/// fabricated direct edge.
#[test]
fn non_hub_pairs_route_through_the_csr_hub() {
    let graph = ConversionGraph::standard();
    let coo = CooMatrix::<f64>::from_triplets(8, 8, &[(0, 0, 1.0), (3, 5, 2.0), (7, 7, 3.0)])
        .expect("in bounds");
    let stats = MatrixStats::of_coo(&coo);
    let leaves = [
        SparseFormat::Ell,
        SparseFormat::Bcsr,
        SparseFormat::Bell,
        SparseFormat::Sell,
        SparseFormat::Hyb,
        SparseFormat::Csr5,
    ];
    for from in leaves {
        for to in leaves {
            if from == to {
                continue;
            }
            let route = graph.route(from, to, &stats).expect("reachable");
            assert_eq!(
                route,
                vec![from, SparseFormat::Coo, SparseFormat::Csr, to],
                "{from} -> {to} should take the COO/CSR hub"
            );
        }
    }
    // And the hub itself is one hop out, one hop home.
    let route = graph
        .route(SparseFormat::Csr, SparseFormat::Hyb, &stats)
        .expect("reachable");
    assert_eq!(route, vec![SparseFormat::Csr, SparseFormat::Hyb]);
    let route = graph
        .route(SparseFormat::Hyb, SparseFormat::Coo, &stats)
        .expect("reachable");
    assert_eq!(route, vec![SparseFormat::Hyb, SparseFormat::Coo]);
}
