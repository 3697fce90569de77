//! Typed errors for the harness API.
//!
//! `from_params`, `run`, and the builder used to speak `Result<_, String>`;
//! this module gives them a real error enum so callers can match on the
//! failure class, while `Display` keeps the exact human-readable phrasing
//! the CLI (and its tests) rely on.

use std::error::Error;
use std::fmt;

use spmm_core::SparseError;

/// Everything that can go wrong constructing or running a benchmark.
#[derive(Debug)]
pub enum HarnessError {
    /// Bad CLI flags; carries the full usage text for the terminal.
    Usage(String),
    /// Parameter validation failed (builder cross-field checks included).
    InvalidParams(String),
    /// The requested matrix is not in the suite.
    UnknownMatrix(String),
    /// A matrix file exists but could not be read or parsed.
    MatrixLoad {
        /// Path that failed to load.
        path: String,
        /// What went wrong.
        detail: String,
    },
    /// Formatting the matrix (e.g. BCSR blocking) failed.
    Format(SparseError),
    /// The conversion graph could not route or build the target format.
    Conversion(SparseError),
    /// The combination has no kernel, with a human explanation.
    Unsupported(String),
    /// The calc phase failed mid-run.
    Calc(String),
    /// An operand (B or the SpMV `x`) does not fit the matrix or `k`.
    Operand(String),
    /// Writing an output artifact (trace file, results) failed.
    Io {
        /// Path being written.
        path: String,
        /// The underlying I/O error text.
        detail: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Usage(usage) => f.write_str(usage),
            HarnessError::InvalidParams(msg) => f.write_str(msg),
            HarnessError::UnknownMatrix(name) => {
                write!(f, "unknown suite matrix `{name}` (try --list-matrices)")
            }
            HarnessError::MatrixLoad { path, detail } => {
                write!(f, "cannot read {path}: {detail}")
            }
            HarnessError::Format(e) => write!(f, "formatting failed: {e}"),
            HarnessError::Conversion(e) => write!(f, "conversion failed: {e}"),
            HarnessError::Unsupported(msg) => f.write_str(msg),
            HarnessError::Calc(msg) => f.write_str(msg),
            HarnessError::Operand(msg) => write!(f, "operand shape mismatch: {msg}"),
            HarnessError::Io { path, detail } => write!(f, "cannot write {path}: {detail}"),
        }
    }
}

impl Error for HarnessError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HarnessError::Format(e) => Some(e),
            HarnessError::Conversion(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for HarnessError {
    fn from(e: SparseError) -> Self {
        HarnessError::Format(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_cli_phrasing() {
        let e = HarnessError::UnknownMatrix("nope".into());
        assert!(e.to_string().contains("unknown suite matrix `nope`"));
        let e = HarnessError::Usage("usage...\noptions:\n  -m".into());
        assert!(e.to_string().contains("options:"));
    }

    #[test]
    fn sparse_error_converts() {
        let e: HarnessError = SparseError::Parse("bad".into()).into();
        assert!(matches!(e, HarnessError::Format(_)));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn conversion_error_wraps_sparse_error() {
        let e = HarnessError::Conversion(SparseError::NoRoute {
            from: spmm_core::SparseFormat::Hyb,
            to: spmm_core::SparseFormat::Bcsr,
        });
        assert!(e.to_string().starts_with("conversion failed:"));
        assert!(e.source().is_some());
    }
}
