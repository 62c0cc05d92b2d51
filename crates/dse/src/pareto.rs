//! Pareto dominance, frontier extraction, and dominance ranking.
//!
//! All functions operate on raw objective vectors (`&[f64]`, lower is better
//! on every axis; point sets are flat row-major matrices) so they can be
//! property-tested independently of the evaluation pipeline. Results are
//! deterministic: the frontier is returned in a canonical order
//! (lexicographic by objective vector, ties by input index), so the same
//! point *set* yields the same frontier regardless of input order.

use std::cmp::Ordering;

/// Whether `a` Pareto-dominates `b`: no worse on every objective and
/// strictly better on at least one. Lower is better.
///
/// Dominance is irreflexive: a point never dominates itself (or an exact
/// duplicate of itself).
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective vectors must have equal length");
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Lexicographic comparison of two objective vectors (`total_cmp` per axis).
pub(crate) fn lex(a: &[f64], b: &[f64]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.total_cmp(y);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Indices of the Pareto frontier of a flat row-major matrix of `dims`-wide
/// objective vectors: every row no other row dominates. Returned sorted
/// lexicographically by objective vector (ties by index), so the frontier's
/// *values* are invariant under permutation of the rows.
///
/// # Panics
///
/// Panics if `dims` is zero while `data` is non-empty, or if `data.len()` is
/// not a multiple of `dims`.
pub fn frontier_indices_flat(data: &[f64], dims: usize) -> Vec<usize> {
    if data.is_empty() {
        return Vec::new();
    }
    assert!(dims > 0, "objective vectors must have at least one axis");
    assert_eq!(data.len() % dims, 0, "flat matrix must be rectangular");
    let rows = data.len() / dims;
    let row = |i: usize| &data[i * dims..(i + 1) * dims];
    let mut frontier: Vec<usize> = (0..rows)
        .filter(|&i| !(0..rows).any(|j| j != i && dominates(row(j), row(i))))
        .collect();
    frontier.sort_by(|&i, &j| lex(row(i), row(j)).then(i.cmp(&j)));
    frontier
}

/// Non-dominated-sorting rank of every row of a flat row-major matrix of
/// `dims`-wide objective vectors: rank 0 is the Pareto frontier, rank 1 the
/// frontier after removing rank 0, and so on (NSGA-style layer peeling).
///
/// # Panics
///
/// Panics under the same conditions as [`frontier_indices_flat`], and if the
/// layer peeling stalls on non-finite objectives.
pub fn dominance_ranks_flat(data: &[f64], dims: usize) -> Vec<usize> {
    if data.is_empty() {
        return Vec::new();
    }
    assert!(dims > 0, "objective vectors must have at least one axis");
    assert_eq!(data.len() % dims, 0, "flat matrix must be rectangular");
    let rows = data.len() / dims;
    let row = |i: usize| &data[i * dims..(i + 1) * dims];
    const UNRANKED: usize = usize::MAX;
    let mut rank = vec![UNRANKED; rows];
    let mut remaining: Vec<usize> = (0..rows).collect();
    let mut layer = 0;
    while !remaining.is_empty() {
        let front: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                !remaining
                    .iter()
                    .any(|&j| j != i && dominates(row(j), row(i)))
            })
            .collect();
        assert!(
            !front.is_empty(),
            "dominance peeling stalled (non-finite objectives?)"
        );
        for &i in &front {
            rank[i] = layer;
        }
        remaining.retain(|&i| rank[i] == UNRANKED);
        layer += 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_requires_strict_improvement_somewhere() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(dominates(&[0.5, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 3.0], &[1.0, 2.0]));
        // Equal points do not dominate each other.
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
        // Trade-offs dominate in neither direction.
        assert!(!dominates(&[0.0, 5.0], &[5.0, 0.0]));
        assert!(!dominates(&[5.0, 0.0], &[0.0, 5.0]));
    }

    #[test]
    fn frontier_of_a_known_set() {
        let points = [
            1.0, 4.0, // frontier
            2.0, 2.0, // frontier
            4.0, 1.0, // frontier
            3.0, 3.0, // dominated by (2,2)
            5.0, 5.0, // dominated by everything
        ];
        assert_eq!(frontier_indices_flat(&points, 2), vec![0, 1, 2]);
        assert_eq!(dominance_ranks_flat(&points, 2), vec![0, 0, 0, 1, 2]);
    }

    #[test]
    fn duplicates_share_the_frontier() {
        let points = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0];
        assert_eq!(frontier_indices_flat(&points, 2), vec![0, 1]);
        assert_eq!(dominance_ranks_flat(&points, 2), vec![0, 0, 1]);
    }

    #[test]
    fn frontier_order_is_canonical() {
        let a = [2.0, 2.0, 1.0, 4.0, 4.0, 1.0];
        let b = [4.0, 1.0, 2.0, 2.0, 1.0, 4.0];
        let values = |m: &[f64]| -> Vec<f64> {
            frontier_indices_flat(m, 2)
                .into_iter()
                .flat_map(|i| m[i * 2..(i + 1) * 2].to_vec())
                .collect()
        };
        assert_eq!(values(&a), values(&b));
    }

    #[test]
    fn empty_and_singleton_sets() {
        assert!(frontier_indices_flat(&[], 4).is_empty());
        assert!(dominance_ranks_flat(&[], 4).is_empty());
        assert_eq!(frontier_indices_flat(&[3.0], 1), vec![0]);
        assert_eq!(dominance_ranks_flat(&[3.0], 1), vec![0]);
    }
}
