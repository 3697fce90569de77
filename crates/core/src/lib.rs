//! # spmm-core
//!
//! Core data structures for SpMM-Bench: sparse matrix formats, dense
//! matrices, matrix-property metrics and result verification.
//!
//! The crate implements every format studied by the paper — [`CooMatrix`],
//! [`CsrMatrix`], [`EllMatrix`] (ELLPACK) and [`BcsrMatrix`] — plus the
//! formats the paper lists as future work: [`BellMatrix`] (Blocked-ELLPACK)
//! and [`Csr5Matrix`] (a CSR5-style tiled format), and [`CscMatrix`] as the
//! column-major mirror of CSR.
//!
//! All formats are generic over the value type ([`Scalar`]: `f32`/`f64`) and
//! the index type ([`Index`]: `u16`/`u32`/`u64`/`usize`), directly addressing
//! the paper's §6.3.5 observation that 32-bit storage halves the memory
//! footprint of the suite.
//!
//! ```
//! use spmm_core::{CooMatrix, CsrMatrix, DenseMatrix};
//!
//! // A small sparse matrix in COO (the load format of the suite) ...
//! let coo = CooMatrix::<f64>::from_triplets(
//!     3, 3,
//!     &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0), (2, 2, 4.0)],
//! ).unwrap();
//!
//! // ... compressed to CSR ...
//! let csr = CsrMatrix::from_coo(&coo);
//!
//! // ... and multiplied by a dense matrix (k = 2 columns).
//! let b = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64);
//! let c = coo.spmm_reference(&b);
//! assert_eq!(c.rows(), 3);
//! assert_eq!(csr.nnz(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bcsr;
mod bell;
pub mod convert;
mod coo;
mod csc;
mod csr;
mod csr5;
mod dense;
mod ell;
mod error;
mod footprint;
mod hyb;
mod index;
mod properties;
mod scalar;
mod sell;
pub mod traffic;
mod verify;

pub use bcsr::BcsrMatrix;
pub use bell::BellMatrix;
pub use convert::{AnyMatrix, ConversionGraph, ConvertConfig, Converted, MatrixStats};
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use csr5::{Csr5Matrix, Csr5Tile};
pub use dense::{DenseMatrix, PackedPanels};
pub use ell::EllMatrix;
pub use error::SparseError;
pub use footprint::MemoryFootprint;
pub use hyb::HybMatrix;
pub use index::Index;
pub use properties::MatrixProperties;
pub use scalar::Scalar;
pub use sell::SellMatrix;
pub use traffic::Traffic;
pub use verify::{max_rel_error, suggested_tolerance, verify, VerifyError};

use std::fmt;
use std::str::FromStr;

/// The sparse formats known to the benchmark suite.
///
/// The first four are the formats evaluated by the paper; `Bell` and `Csr5`
/// are the §6.3.1 future-work formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SparseFormat {
    /// Coordinate format: one `(row, col, value)` triplet per nonzero.
    Coo,
    /// Compressed sparse row.
    Csr,
    /// ELLPACK: fixed-width padded rows.
    Ell,
    /// Blocked CSR with `r × c` dense blocks.
    Bcsr,
    /// Blocked ELLPACK: ELL over dense blocks.
    Bell,
    /// CSR5-style nnz-tiled format.
    Csr5,
    /// SELL-C-σ: sliced ELLPACK with windowed row sorting.
    Sell,
    /// HYB: ELL regular part + COO spill tail.
    Hyb,
}

impl SparseFormat {
    /// All formats, in the order the paper reports them: the four studied
    /// formats first, then the §6.3.1 future-work and related-work
    /// extensions this reproduction adds.
    pub const ALL: [SparseFormat; 8] = [
        SparseFormat::Coo,
        SparseFormat::Csr,
        SparseFormat::Ell,
        SparseFormat::Bcsr,
        SparseFormat::Bell,
        SparseFormat::Csr5,
        SparseFormat::Sell,
        SparseFormat::Hyb,
    ];

    /// The four formats the paper's evaluation covers.
    pub const PAPER: [SparseFormat; 4] = [
        SparseFormat::Coo,
        SparseFormat::Csr,
        SparseFormat::Ell,
        SparseFormat::Bcsr,
    ];

    /// Short lowercase name used on the CLI and in CSV output.
    pub fn name(self) -> &'static str {
        match self {
            SparseFormat::Coo => "coo",
            SparseFormat::Csr => "csr",
            SparseFormat::Ell => "ell",
            SparseFormat::Bcsr => "bcsr",
            SparseFormat::Bell => "bell",
            SparseFormat::Csr5 => "csr5",
            SparseFormat::Sell => "sell",
            SparseFormat::Hyb => "hyb",
        }
    }

    /// Whether this is one of the blocked (padded) formats.
    pub fn is_blocked(self) -> bool {
        matches!(
            self,
            SparseFormat::Ell
                | SparseFormat::Bcsr
                | SparseFormat::Bell
                | SparseFormat::Sell
                | SparseFormat::Hyb
        )
    }
}

impl fmt::Display for SparseFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SparseFormat {
    type Err = SparseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "coo" => Ok(SparseFormat::Coo),
            "csr" => Ok(SparseFormat::Csr),
            "ell" | "ellpack" => Ok(SparseFormat::Ell),
            "bcsr" => Ok(SparseFormat::Bcsr),
            "bell" | "blocked-ell" => Ok(SparseFormat::Bell),
            "csr5" => Ok(SparseFormat::Csr5),
            "sell" | "sell-c-sigma" => Ok(SparseFormat::Sell),
            "hyb" | "hybrid" => Ok(SparseFormat::Hyb),
            other => Err(SparseError::Parse(format!("unknown format `{other}`"))),
        }
    }
}

/// Behaviour common to every sparse format.
pub trait SparseMatrix<T: Scalar> {
    /// Number of rows of the logical matrix.
    fn rows(&self) -> usize;
    /// Number of columns of the logical matrix.
    fn cols(&self) -> usize;
    /// Number of *stored* entries, including any explicit zeros a blocked
    /// format padded in.
    fn stored_entries(&self) -> usize;
    /// The format tag.
    fn format(&self) -> SparseFormat;
    /// Lossless conversion back to COO, including stored explicit zeros.
    fn to_coo(&self) -> CooMatrix<T, usize>;

    /// Materialize the matrix densely (test/debug helper; allocates
    /// `rows * cols` values).
    fn to_dense(&self) -> DenseMatrix<T> {
        self.to_coo().to_dense()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_roundtrip_names() {
        for f in SparseFormat::ALL {
            assert_eq!(f.name().parse::<SparseFormat>().unwrap(), f);
        }
    }

    #[test]
    fn format_parse_aliases() {
        assert_eq!(
            "ELLPACK".parse::<SparseFormat>().unwrap(),
            SparseFormat::Ell
        );
        assert_eq!(
            "blocked-ell".parse::<SparseFormat>().unwrap(),
            SparseFormat::Bell
        );
        assert!("notaformat".parse::<SparseFormat>().is_err());
    }

    #[test]
    fn blocked_classification() {
        assert!(!SparseFormat::Coo.is_blocked());
        assert!(!SparseFormat::Csr.is_blocked());
        assert!(SparseFormat::Ell.is_blocked());
        assert!(SparseFormat::Bcsr.is_blocked());
        assert!(SparseFormat::Bell.is_blocked());
        assert!(!SparseFormat::Csr5.is_blocked());
    }

    #[test]
    fn paper_subset_is_prefix_of_all() {
        assert_eq!(&SparseFormat::ALL[..4], &SparseFormat::PAPER[..]);
    }
}
