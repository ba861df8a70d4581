//! Tensor shapes and PyTorch-style broadcasting.
//!
//! The DSL's pointwise operations follow PyTorch broadcast semantics
//! (§2.2 of the paper explicitly defers to them): shapes are aligned at
//! the trailing dimension and each pair of dimensions must be equal or
//! one of them must be 1.

use std::fmt;

use crate::TensorError;

/// The extents of a tensor, row-major (C order).
///
/// # Examples
///
/// ```
/// use coconet_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: Vec<usize>) -> Shape {
        Shape { dims }
    }

    /// The scalar (rank 0) shape.
    pub fn scalar() -> Shape {
        Shape { dims: Vec::new() }
    }

    /// The dimension extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Extent of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.rank()`.
    #[inline]
    pub fn dim(&self, dim: usize) -> usize {
        self.dims[dim]
    }

    /// Total number of elements (1 for scalars).
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Returns the broadcasted shape of `self` and `other` under PyTorch
    /// semantics.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] when a pair of aligned
    /// dimensions differ and neither is 1.
    #[allow(clippy::needless_range_loop)] // aligned triple-indexing reads clearer
    pub fn broadcast(&self, other: &Shape) -> Result<Shape, TensorError> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0usize; rank];
        for i in 0..rank {
            let a = if i < rank - self.rank() {
                1
            } else {
                self.dims[i - (rank - self.rank())]
            };
            let b = if i < rank - other.rank() {
                1
            } else {
                other.dims[i - (rank - other.rank())]
            };
            dims[i] = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return Err(TensorError::BroadcastMismatch {
                    lhs: self.clone(),
                    rhs: other.clone(),
                });
            };
        }
        Ok(Shape::new(dims))
    }

    /// Whether `self` can be broadcast to exactly `target`.
    pub fn broadcasts_to(&self, target: &Shape) -> bool {
        match self.broadcast(target) {
            Ok(b) => &b == target,
            Err(_) => false,
        }
    }

    /// Converts a linear index in the broadcasted `target` shape to the
    /// linear index in `self`, replicating along broadcast dimensions.
    ///
    /// Used by the pointwise kernels to read a smaller operand as if it
    /// had been materialized at the broadcast shape. Allocation-free:
    /// the coordinates peel off innermost first while `self`'s stride
    /// accumulates alongside.
    pub fn broadcast_index(&self, target: &Shape, linear: usize) -> usize {
        debug_assert!(self.broadcasts_to(target));
        if self.dims == target.dims {
            return linear;
        }
        let mut rest = linear;
        let mut stride = 1usize;
        let mut out = 0usize;
        // Zipping from the back aligns trailing dimensions; target's
        // extra leading dimensions contribute nothing.
        for (&t_dim, &s_dim) in target.dims.iter().rev().zip(self.dims.iter().rev()) {
            let coord = rest % t_dim;
            rest /= t_dim;
            if s_dim != 1 {
                out += coord * stride;
            }
            stride *= s_dim;
        }
        out
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Shape {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Shape {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basics() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.to_string(), "[2, 3, 4]");
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::scalar().strides(), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_trailing_alignment() {
        let a = Shape::from([4, 3]);
        let b = Shape::from([3]);
        assert_eq!(a.broadcast(&b).unwrap(), Shape::from([4, 3]));
        let c = Shape::from([2, 1, 3]);
        assert_eq!(a.broadcast(&c).unwrap(), Shape::from([2, 4, 3]));
    }

    #[test]
    fn broadcast_scalar() {
        let a = Shape::from([4, 3]);
        assert_eq!(a.broadcast(&Shape::scalar()).unwrap(), a);
    }

    #[test]
    fn broadcast_mismatch() {
        let a = Shape::from([4, 3]);
        let b = Shape::from([2]);
        assert!(matches!(
            a.broadcast(&b),
            Err(TensorError::BroadcastMismatch { .. })
        ));
    }

    #[test]
    fn broadcasts_to() {
        assert!(Shape::from([3]).broadcasts_to(&Shape::from([4, 3])));
        assert!(!Shape::from([4, 3]).broadcasts_to(&Shape::from([3])));
        assert!(Shape::scalar().broadcasts_to(&Shape::from([5])));
    }

    #[test]
    fn broadcast_index_replicates() {
        // [3] broadcast to [2, 3]: index (i, j) maps to j.
        let small = Shape::from([3]);
        let big = Shape::from([2, 3]);
        for linear in 0..6 {
            assert_eq!(small.broadcast_index(&big, linear), linear % 3);
        }
        // [2, 1] broadcast to [2, 3]: index (i, j) maps to i.
        let small = Shape::from([2, 1]);
        for linear in 0..6 {
            assert_eq!(small.broadcast_index(&big, linear), linear / 3);
        }
    }

    fn arb_shape() -> impl Strategy<Value = Shape> {
        prop::collection::vec(1usize..5, 0..4).prop_map(Shape::new)
    }

    proptest! {
        /// Broadcasting is commutative.
        #[test]
        fn broadcast_commutative(a in arb_shape(), b in arb_shape()) {
            match (a.broadcast(&b), b.broadcast(&a)) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "one direction failed"),
            }
        }

        /// A shape always broadcasts to itself and to its broadcast result.
        #[test]
        fn broadcast_reflexive(a in arb_shape(), b in arb_shape()) {
            prop_assert!(a.broadcasts_to(&a));
            if let Ok(c) = a.broadcast(&b) {
                prop_assert!(a.broadcasts_to(&c));
                prop_assert!(b.broadcasts_to(&c));
            }
        }

        /// broadcast_index stays in bounds.
        #[test]
        fn broadcast_index_in_bounds(a in arb_shape(), b in arb_shape()) {
            if let Ok(c) = a.broadcast(&b) {
                for linear in 0..c.numel() {
                    prop_assert!(a.broadcast_index(&c, linear) < a.numel());
                }
            }
        }
    }
}
