//! GF(2) linear algebra substrate for the HARP reproduction.
//!
//! On-die ECC codes (and the secondary ECC inside the memory controller) are
//! linear block codes over the binary field GF(2). Everything the HARP paper
//! does with them — encoding, syndrome decoding, reasoning about which
//! pre-correction error combinations are possible under data-dependent error
//! models — reduces to arithmetic on binary vectors and matrices.
//!
//! This crate provides four building blocks:
//!
//! * [`BitVec`] — a densely packed, fixed-length vector over GF(2);
//! * [`Gf2Matrix`] — a dense matrix over GF(2) with multiplication,
//!   transposition, stacking, and rank computation;
//! * [`solve`] — Gaussian elimination based solvers: reduced row echelon form,
//!   linear-system feasibility (used to decide whether a set of codeword bits
//!   can all be *charged* under some data pattern), and null-space bases;
//! * [`SyndromeKernel`] — a word-packed parity-check matrix evaluating
//!   syndromes (one or a whole batch of codewords per call) on the hot
//!   Monte-Carlo read path, including a bit-sliced block mode (see
//!   [`bitslice`]) that evaluates 64 codewords at a time and reports which
//!   of them have nonzero syndromes as a single mask word.
//!
//! # Example
//!
//! ```
//! use harp_gf2::{BitVec, Gf2Matrix};
//!
//! // H * c for a tiny parity-check matrix.
//! let h = Gf2Matrix::from_rows(&[
//!     BitVec::from_bools(&[true, true, false, true, false]),
//!     BitVec::from_bools(&[false, true, true, false, true]),
//! ]);
//! let c = BitVec::from_indices(5, [0, 3]);
//! let syndrome = h.mul_vec(&c);
//! assert!(syndrome.is_zero());
//! ```

pub mod batch;
pub mod bitslice;
pub mod bitvec;
pub mod matrix;
pub mod solve;

pub use batch::SyndromeKernel;
pub use bitslice::BitsliceScratch;
pub use bitvec::{BitVec, DiffOnes};
pub use matrix::Gf2Matrix;
pub use solve::{solve, LinearSolution, RowEchelon};
