//! Error type shared by all fallible constructors and kernels in this crate.

use std::fmt;

/// Errors produced by sparse-matrix constructors, kernels, and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// An index (row or column) is out of bounds for the matrix shape.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The exclusive bound it violated.
        bound: usize,
        /// Which axis the index addressed.
        axis: &'static str,
    },
    /// A CSR structure invariant is violated (e.g. non-monotone indptr).
    InvalidStructure(String),
    /// A parse error while reading an external matrix representation.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// Description of what failed to parse.
        msg: String,
    },
    /// An I/O error, stringified (keeps the error type `Clone + PartialEq`).
    Io(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            SparseError::IndexOutOfBounds { index, bound, axis } => {
                write!(f, "{axis} index {index} out of bounds (< {bound} required)")
            }
            SparseError::InvalidStructure(msg) => write!(f, "invalid sparse structure: {msg}"),
            SparseError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            SparseError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = SparseError::ShapeMismatch {
            op: "spmm",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("spmm"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn display_index_out_of_bounds() {
        let e = SparseError::IndexOutOfBounds {
            index: 7,
            bound: 4,
            axis: "column",
        };
        assert!(e.to_string().contains("column index 7"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: SparseError = io.into();
        assert!(matches!(e, SparseError::Io(_)));
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = SparseError::InvalidStructure("x".into());
        let b = SparseError::InvalidStructure("x".into());
        assert_eq!(a, b);
    }
}
