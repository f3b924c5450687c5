//! Node-id permutations (bijections over `0..n`).

use crate::csr::NodeId;
use crate::{GraphError, Result};

/// A validated bijection over node ids `0..n`.
///
/// Stored as `new_of_old`: `new_of_old[old] = new`. The inverse direction is
/// materialized on demand by [`Permutation::inverse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_of_old: Vec<NodeId>,
}

impl Permutation {
    /// The identity permutation over `n` nodes.
    pub fn identity(n: usize) -> Self {
        Self {
            new_of_old: (0..n as NodeId).collect(),
        }
    }

    /// Builds a permutation from the `new_of_old` mapping, validating that
    /// it is a bijection over `0..n`.
    pub fn from_new_of_old(new_of_old: Vec<NodeId>) -> Result<Self> {
        let n = new_of_old.len();
        let mut seen = vec![false; n];
        for &new in &new_of_old {
            let idx = new as usize;
            if idx >= n {
                return Err(GraphError::InvalidPermutation {
                    reason: "target id out of range",
                });
            }
            if seen[idx] {
                return Err(GraphError::InvalidPermutation {
                    reason: "duplicate target id",
                });
            }
            seen[idx] = true;
        }
        Ok(Self { new_of_old })
    }

    /// Builds a permutation from an *ordering*: `order[new] = old` (i.e. the
    /// node that should receive id `new`). This is the natural output shape
    /// of traversal-based reorderings like RCM.
    pub fn from_order(order: Vec<NodeId>) -> Result<Self> {
        let n = order.len();
        let mut new_of_old = vec![NodeId::MAX; n];
        for (new_id, &old) in order.iter().enumerate() {
            let idx = old as usize;
            if idx >= n {
                return Err(GraphError::InvalidPermutation {
                    reason: "source id out of range",
                });
            }
            if new_of_old[idx] != NodeId::MAX {
                return Err(GraphError::InvalidPermutation {
                    reason: "duplicate source id",
                });
            }
            new_of_old[idx] = new_id as NodeId;
        }
        Ok(Self { new_of_old })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// Whether this is the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// The new id of old node `v`.
    #[inline]
    pub fn new_of(&self, v: NodeId) -> NodeId {
        self.new_of_old[v as usize]
    }

    /// The raw `new_of_old` slice.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.new_of_old
    }

    /// The inverse permutation (`old_of_new`).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0 as NodeId; self.len()];
        for (old, &new) in self.new_of_old.iter().enumerate() {
            inv[new as usize] = old as NodeId;
        }
        Permutation { new_of_old: inv }
    }

    /// Composition: applies `self` first, then `next` (`result.new_of(v) ==
    /// next.new_of(self.new_of(v))`).
    pub fn then(&self, next: &Permutation) -> Result<Permutation> {
        if self.len() != next.len() {
            return Err(GraphError::InvalidPermutation {
                reason: "length mismatch in composition",
            });
        }
        Ok(Permutation {
            new_of_old: self
                .new_of_old
                .iter()
                .map(|&mid| next.new_of(mid))
                .collect(),
        })
    }

    /// Whether this permutation maps every id to itself.
    pub fn is_identity(&self) -> bool {
        self.new_of_old
            .iter()
            .enumerate()
            .all(|(i, &v)| i as NodeId == v)
    }

    /// Permutes the rows of a row-major matrix: row `old` of the input
    /// lands at row `new_of(old)` of the output. `row_len` is the number of
    /// elements per row. The output is written in order, one row copy per
    /// row, read through the inverse: gathering rows is cheaper than
    /// scattering them into a zeroed buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len() * row_len`.
    pub fn permute_rows<T: Copy>(&self, data: &[T], row_len: usize) -> Vec<T> {
        assert_eq!(data.len(), self.len() * row_len, "matrix shape mismatch");
        let mut out = Vec::with_capacity(data.len());
        for old in self.inverse().new_of_old {
            let old = old as usize;
            out.extend_from_slice(&data[old * row_len..(old + 1) * row_len]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn validation_rejects_non_bijections() {
        assert!(Permutation::from_new_of_old(vec![0, 0, 1]).is_err());
        assert!(Permutation::from_new_of_old(vec![0, 5, 1]).is_err());
        assert!(Permutation::from_new_of_old(vec![2, 0, 1]).is_ok());
    }

    #[test]
    fn from_order_inverts() {
        // order[new] = old: node 2 gets id 0, node 0 gets id 1, node 1 gets id 2.
        let p = Permutation::from_order(vec![2, 0, 1]).expect("valid");
        assert_eq!(p.new_of(2), 0);
        assert_eq!(p.new_of(0), 1);
        assert_eq!(p.new_of(1), 2);
        assert!(Permutation::from_order(vec![1, 1, 0]).is_err());
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::from_new_of_old(vec![3, 1, 0, 2]).expect("valid");
        assert!(p.then(&p.inverse()).expect("same length").is_identity());
        assert!(p.inverse().then(&p).expect("same length").is_identity());
    }

    #[test]
    fn composition_order() {
        let first = Permutation::from_new_of_old(vec![1, 2, 0]).expect("valid");
        let second = Permutation::from_new_of_old(vec![2, 0, 1]).expect("valid");
        let both = first.then(&second).expect("same length");
        for v in 0..3 {
            assert_eq!(both.new_of(v), second.new_of(first.new_of(v)));
        }
    }

    #[test]
    fn permute_rows_moves_data() {
        let p = Permutation::from_new_of_old(vec![2, 0, 1]).expect("valid");
        let data = vec![10, 11, 20, 21, 30, 31]; // 3 rows x 2 cols
        let out = p.permute_rows(&data, 2);
        assert_eq!(out, vec![20, 21, 30, 31, 10, 11]);
    }

    #[test]
    #[should_panic(expected = "matrix shape mismatch")]
    fn permute_rows_shape_checked() {
        Permutation::identity(2).permute_rows(&[1, 2, 3], 2);
    }
}
