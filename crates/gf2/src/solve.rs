//! Gaussian elimination and linear-system solving over GF(2).
//!
//! The HARP paper uses the Z3 SAT solver for two tasks: deciding whether a
//! combination of codeword bits can all be *charged* (store '1') under some
//! data pattern, and enumerating the post-correction errors a set of
//! pre-correction at-risk bits can produce. Because on-die ECC is a linear
//! block code and the "charged" constraints are affine equations over GF(2),
//! both tasks reduce to linear algebra. This module provides the exact solver
//! that replaces Z3 in this reproduction.

use serde::{Deserialize, Serialize};

use crate::{BitVec, Gf2Matrix};

/// The reduced row echelon form of a matrix together with its pivot columns.
///
/// Produced by [`row_echelon`]; consumed by [`solve`] and
/// [`RowEchelon::nullspace`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowEchelon {
    /// The matrix in reduced row echelon form.
    pub rref: Gf2Matrix,
    /// For each pivot row (in order), the column index of its leading one.
    pub pivots: Vec<usize>,
}

impl RowEchelon {
    /// The rank of the original matrix.
    pub fn rank(&self) -> usize {
        self.pivots.len()
    }

    /// Returns a basis of the null space (vectors `x` with `A·x = 0`).
    ///
    /// # Example
    ///
    /// ```
    /// use harp_gf2::{BitVec, Gf2Matrix, solve::row_echelon};
    ///
    /// let a = Gf2Matrix::from_rows(&[BitVec::from_bools(&[true, true, false])]);
    /// let basis = row_echelon(&a).nullspace();
    /// assert_eq!(basis.len(), 2);
    /// for v in &basis {
    ///     assert!(a.mul_vec(v).is_zero());
    /// }
    /// ```
    pub fn nullspace(&self) -> Vec<BitVec> {
        let cols = self.rref.cols();
        let mut is_pivot = vec![false; cols];
        for &p in &self.pivots {
            is_pivot[p] = true;
        }
        let mut basis = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for free in 0..cols {
            if is_pivot[free] {
                continue;
            }
            let mut v = BitVec::zeros(cols);
            v.set(free, true);
            for (row, &p) in self.pivots.iter().enumerate() {
                if self.rref.get(row, free) {
                    v.set(p, true);
                }
            }
            basis.push(v);
        }
        basis
    }
}

/// Computes the reduced row echelon form of `a`.
///
/// # Example
///
/// ```
/// use harp_gf2::{Gf2Matrix, solve::row_echelon};
///
/// let re = row_echelon(&Gf2Matrix::identity(5));
/// assert_eq!(re.rank(), 5);
/// ```
pub fn row_echelon(a: &Gf2Matrix) -> RowEchelon {
    let mut m = a.clone();
    let rows = m.rows();
    let cols = m.cols();
    let mut pivots = Vec::new();
    let mut pivot_row = 0usize;
    for col in 0..cols {
        if pivot_row >= rows {
            break;
        }
        // Find a row at or below pivot_row with a one in this column.
        let found = (pivot_row..rows).find(|&r| m.get(r, col));
        let Some(r) = found else { continue };
        m.swap_rows(pivot_row, r);
        // Eliminate the column from every other row.
        for other in 0..rows {
            if other != pivot_row && m.get(other, col) {
                m.xor_row_into(pivot_row, other);
            }
        }
        pivots.push(col);
        pivot_row += 1;
    }
    RowEchelon { rref: m, pivots }
}

/// Returns a basis of the subspace of GF(2)^`unknowns` orthogonal to every
/// relation row: all `x` with `r · x = 0` for each `r` in `relations`.
///
/// This is the constraint-system primitive of BEER-style reconstruction in
/// `harp_beer`: each observed miscorrection contributes one relation row over
/// the unknown parity-check data columns, and every row of the reconstructed
/// parity block must lie in the space this function returns. An empty
/// relation set leaves the full space free (the standard basis); an empty
/// returned basis means the relations admit only the zero assignment — i.e.
/// the constraint system is inconsistent with any non-degenerate code.
///
/// # Panics
///
/// Panics if any relation row's length differs from `unknowns`.
///
/// # Example
///
/// ```
/// use harp_gf2::{BitVec, solve::nullspace_of_relations};
///
/// // One relation x0 ⊕ x1 ⊕ x2 = 0 over four unknowns.
/// let relations = [BitVec::from_indices(4, [0, 1, 2])];
/// let basis = nullspace_of_relations(&relations, 4);
/// assert_eq!(basis.len(), 3);
/// for v in &basis {
///     assert!(!relations[0].dot(v));
/// }
///
/// // No relations at all: the whole space is free.
/// assert_eq!(nullspace_of_relations(&[], 4).len(), 4);
/// ```
pub fn nullspace_of_relations(relations: &[BitVec], unknowns: usize) -> Vec<BitVec> {
    for (i, row) in relations.iter().enumerate() {
        assert_eq!(
            row.len(),
            unknowns,
            "relation row {i} has length {}, expected {unknowns}",
            row.len()
        );
    }
    if relations.is_empty() {
        return (0..unknowns)
            .map(|i| BitVec::from_indices(unknowns, [i]))
            .collect();
    }
    row_echelon(&Gf2Matrix::from_rows(relations)).nullspace()
}

/// Outcome of solving a linear system `A·x = b` over GF(2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinearSolution {
    /// The system has at least one solution; `particular` is one of them and
    /// `nullspace` is a basis of the homogeneous solutions (the full solution
    /// set is `particular + span(nullspace)`).
    Solvable {
        /// A particular solution `x` with `A·x = b`.
        particular: BitVec,
        /// Basis of the homogeneous solution space.
        nullspace: Vec<BitVec>,
    },
    /// The system has no solution.
    Infeasible,
}

impl LinearSolution {
    /// Returns `true` if the system is solvable.
    pub fn is_solvable(&self) -> bool {
        matches!(self, LinearSolution::Solvable { .. })
    }

    /// Returns the particular solution if the system is solvable.
    pub fn particular(&self) -> Option<&BitVec> {
        match self {
            LinearSolution::Solvable { particular, .. } => Some(particular),
            LinearSolution::Infeasible => None,
        }
    }
}

/// Solves `A·x = b` over GF(2).
///
/// Returns a particular solution and a null-space basis, or
/// [`LinearSolution::Infeasible`] if no solution exists.
///
/// # Panics
///
/// Panics if `b.len() != a.rows()`.
///
/// # Example
///
/// ```
/// use harp_gf2::{BitVec, Gf2Matrix, solve};
///
/// // x0 ^ x1 = 1, x1 ^ x2 = 0
/// let a = Gf2Matrix::from_rows(&[
///     BitVec::from_bools(&[true, true, false]),
///     BitVec::from_bools(&[false, true, true]),
/// ]);
/// let b = BitVec::from_indices(2, [0]);
/// let solution = solve(&a, &b);
/// let x = solution.particular().expect("system is solvable");
/// assert_eq!(a.mul_vec(x), b);
/// ```
pub fn solve(a: &Gf2Matrix, b: &BitVec) -> LinearSolution {
    assert_eq!(b.len(), a.rows(), "right-hand side length mismatch");
    // Eliminate on the augmented matrix [A | b].
    let b_col = Gf2Matrix::from_fn(a.rows(), 1, |i, _| b.get(i));
    let augmented = a.hstack(&b_col);
    let re = row_echelon(&augmented);
    let n = a.cols();

    // Infeasible iff some pivot lands in the augmented column.
    if re.pivots.contains(&n) {
        return LinearSolution::Infeasible;
    }

    // Back-substitute: particular solution sets every free variable to zero,
    // so each pivot variable equals the augmented entry of its row.
    let mut particular = BitVec::zeros(n);
    for (row, &p) in re.pivots.iter().enumerate() {
        if re.rref.get(row, n) {
            particular.set(p, true);
        }
    }

    // Null space of A (not of the augmented matrix).
    let re_a = RowEchelon {
        rref: re.rref.col_slice(0, n),
        pivots: re.pivots.clone(),
    };
    LinearSolution::Solvable {
        particular,
        nullspace: re_a.nullspace(),
    }
}

/// Returns `true` if `A·x = b` has at least one solution.
///
/// Convenience wrapper over [`solve`] for feasibility-only queries (the hot
/// path of the chargeability analysis).
///
/// # Example
///
/// ```
/// use harp_gf2::{BitVec, Gf2Matrix, solve::is_feasible};
///
/// // x0 = 1 and x0 = 0 cannot hold simultaneously.
/// let a = Gf2Matrix::from_rows(&[
///     BitVec::from_bools(&[true]),
///     BitVec::from_bools(&[true]),
/// ]);
/// let b = BitVec::from_indices(2, [0]);
/// assert!(!is_feasible(&a, &b));
/// ```
pub fn is_feasible(a: &Gf2Matrix, b: &BitVec) -> bool {
    assert_eq!(b.len(), a.rows(), "right-hand side length mismatch");
    let b_col = Gf2Matrix::from_fn(a.rows(), 1, |i, _| b.get(i));
    let augmented = a.hstack(&b_col);
    let re = row_echelon(&augmented);
    !re.pivots.iter().any(|&p| p == a.cols())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rref_of_identity_is_identity() {
        let id = Gf2Matrix::identity(6);
        let re = row_echelon(&id);
        assert_eq!(re.rref, id);
        assert_eq!(re.pivots, vec![0, 1, 2, 3, 4, 5]);
        assert!(re.nullspace().is_empty());
    }

    #[test]
    fn rref_zero_matrix_has_rank_zero() {
        let z = Gf2Matrix::zeros(3, 5);
        let re = row_echelon(&z);
        assert_eq!(re.rank(), 0);
        assert_eq!(re.nullspace().len(), 5);
    }

    #[test]
    fn nullspace_vectors_are_in_kernel() {
        let a = Gf2Matrix::from_rows(&[
            BitVec::from_bools(&[true, true, false, true, false]),
            BitVec::from_bools(&[false, true, true, false, true]),
            BitVec::from_bools(&[true, false, true, true, true]),
        ]);
        let re = row_echelon(&a);
        let basis = re.nullspace();
        assert_eq!(basis.len(), 5 - re.rank());
        for v in &basis {
            assert!(a.mul_vec(v).is_zero());
        }
    }

    #[test]
    fn relation_nullspace_spans_exactly_the_orthogonal_space() {
        let relations = [
            BitVec::from_indices(5, [0, 1, 2]),
            BitVec::from_indices(5, [1, 3, 4]),
        ];
        let basis = nullspace_of_relations(&relations, 5);
        assert_eq!(basis.len(), 3);
        for v in &basis {
            for r in &relations {
                assert!(!r.dot(v), "basis vector violates a relation");
            }
        }
    }

    #[test]
    fn empty_relation_set_frees_the_whole_space() {
        let basis = nullspace_of_relations(&[], 6);
        assert_eq!(basis.len(), 6);
        for (i, v) in basis.iter().enumerate() {
            assert_eq!(v, &BitVec::from_indices(6, [i]));
        }
    }

    #[test]
    fn full_rank_relations_leave_only_the_zero_assignment() {
        // Four weight-3 rows over four unknowns with rank 4: the nullspace
        // is trivial, reported as an empty basis.
        let relations = [
            BitVec::from_indices(4, [0, 1, 2]),
            BitVec::from_indices(4, [0, 1, 3]),
            BitVec::from_indices(4, [0, 2, 3]),
            BitVec::from_indices(4, [1, 2, 3]),
        ];
        assert!(nullspace_of_relations(&relations, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "relation row 1 has length 3")]
    fn mismatched_relation_row_length_panics() {
        nullspace_of_relations(&[BitVec::zeros(5), BitVec::zeros(3)], 5);
    }

    #[test]
    fn solve_consistent_system_returns_valid_solution() {
        let a = Gf2Matrix::from_rows(&[
            BitVec::from_bools(&[true, true, false, false]),
            BitVec::from_bools(&[false, true, true, false]),
            BitVec::from_bools(&[false, false, true, true]),
        ]);
        let b = BitVec::from_indices(3, [0, 2]);
        let sol = solve(&a, &b);
        let x = sol.particular().expect("solvable");
        assert_eq!(a.mul_vec(x), b);
        assert!(sol.is_solvable());
        assert!(is_feasible(&a, &b));
    }

    #[test]
    fn solve_inconsistent_system_is_infeasible() {
        // x0 ^ x1 = 0, x0 ^ x1 = 1.
        let a = Gf2Matrix::from_rows(&[
            BitVec::from_bools(&[true, true]),
            BitVec::from_bools(&[true, true]),
        ]);
        let b = BitVec::from_indices(2, [1]);
        assert_eq!(solve(&a, &b), LinearSolution::Infeasible);
        assert!(!is_feasible(&a, &b));
        assert!(solve(&a, &b).particular().is_none());
    }

    #[test]
    fn solve_underdetermined_system_exposes_full_solution_set() {
        // One equation over three unknowns: x0 ^ x2 = 1.
        let a = Gf2Matrix::from_rows(&[BitVec::from_bools(&[true, false, true])]);
        let b = BitVec::from_indices(1, [0]);
        match solve(&a, &b) {
            LinearSolution::Solvable {
                particular,
                nullspace,
            } => {
                assert_eq!(a.mul_vec(&particular), b);
                assert_eq!(nullspace.len(), 2);
                // Every combination of particular + nullspace elements solves the system.
                for v in &nullspace {
                    let x = &particular ^ v;
                    assert_eq!(a.mul_vec(&x), b);
                }
            }
            LinearSolution::Infeasible => panic!("system should be solvable"),
        }
    }

    #[test]
    fn solve_homogeneous_system_returns_zero_particular() {
        let a = Gf2Matrix::from_rows(&[
            BitVec::from_bools(&[true, true, true]),
            BitVec::from_bools(&[false, true, true]),
        ]);
        let b = BitVec::zeros(2);
        let sol = solve(&a, &b);
        let x = sol.particular().unwrap();
        assert!(x.is_zero());
    }

    #[test]
    fn rank_plus_nullity_equals_cols() {
        let a = Gf2Matrix::from_fn(4, 9, |i, j| (i * 3 + j * 7) % 5 < 2);
        let re = row_echelon(&a);
        assert_eq!(re.rank() + re.nullspace().len(), 9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn solve_wrong_rhs_length_panics() {
        solve(&Gf2Matrix::identity(3), &BitVec::zeros(2));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arbitrary_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Gf2Matrix> {
            (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
                proptest::collection::vec(proptest::collection::vec(any::<bool>(), c), r).prop_map(
                    move |rows| {
                        let rows: Vec<BitVec> =
                            rows.iter().map(|b| BitVec::from_bools(b)).collect();
                        Gf2Matrix::from_rows(&rows)
                    },
                )
            })
        }

        proptest! {
            #[test]
            fn solutions_satisfy_the_system(
                a in arbitrary_matrix(8, 10),
                b_bits in proptest::collection::vec(any::<bool>(), 8),
            ) {
                let b = BitVec::from_bools(&b_bits[..a.rows()]);
                if let LinearSolution::Solvable { particular, nullspace } = solve(&a, &b) {
                    prop_assert_eq!(a.mul_vec(&particular), b.clone());
                    for v in &nullspace {
                        prop_assert!(a.mul_vec(v).is_zero());
                        let x = &particular ^ v;
                        prop_assert_eq!(a.mul_vec(&x), b.clone());
                    }
                }
            }

            #[test]
            fn feasibility_matches_constructed_rhs(
                a in arbitrary_matrix(8, 10),
                x_bits in proptest::collection::vec(any::<bool>(), 10),
            ) {
                // b built from a known x is always feasible.
                let x = BitVec::from_bools(&x_bits[..a.cols()]);
                let b = a.mul_vec(&x);
                prop_assert!(is_feasible(&a, &b));
                prop_assert!(solve(&a, &b).is_solvable());
            }

            #[test]
            fn rank_is_bounded_and_consistent(a in arbitrary_matrix(8, 10)) {
                let re = row_echelon(&a);
                prop_assert!(re.rank() <= a.rows().min(a.cols()));
                prop_assert_eq!(re.rank() + re.nullspace().len(), a.cols());
                prop_assert_eq!(re.rank(), a.transpose().rank());
            }

            #[test]
            fn rref_row_space_preserved(a in arbitrary_matrix(6, 8)) {
                // Every row of the RREF must be in the row space of A:
                // rank([A; rref_row]) == rank(A).
                let re = row_echelon(&a);
                let rank_a = re.rank();
                for row in re.rref.iter_rows() {
                    let stacked = a.vstack(&Gf2Matrix::from_rows(std::slice::from_ref(row)));
                    prop_assert_eq!(stacked.rank(), rank_a);
                }
            }
        }
    }
}
