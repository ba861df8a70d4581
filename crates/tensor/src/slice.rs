//! Slicing, splitting, and concatenation.
//!
//! The `Sliced(d)` layout distributes a tensor along dimension `d`
//! across the ranks of a group (§2.1). These operations produce the
//! per-rank slices and reassemble them. Leading-dimension slices and
//! the flat chunks the ring collectives communicate are zero-copy
//! copy-on-write views; only interior-dimension slices (strided in
//! row-major order) materialize storage, one contiguous row copy per
//! index of the leading dimensions.

use crate::tensor::{Buffer, BufferData};
use crate::{Shape, Tensor, TensorError};

impl Tensor {
    /// Copies the subrange `start..start+len` of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimOutOfRange`] or
    /// [`TensorError::SliceOutOfRange`] for invalid arguments.
    pub fn slice_dim(&self, dim: usize, start: usize, len: usize) -> Result<Tensor, TensorError> {
        let rank = self.shape().rank();
        if dim >= rank {
            return Err(TensorError::DimOutOfRange { dim, rank });
        }
        let extent = self.shape().dim(dim);
        if start + len > extent || len == 0 {
            return Err(TensorError::SliceOutOfRange {
                dim,
                start,
                len,
                extent,
            });
        }
        let mut out_dims = self.shape().dims().to_vec();
        out_dims[dim] = len;
        let out_shape = Shape::new(out_dims);
        if dim == 0 {
            // Leading-dimension slices are contiguous in row-major
            // order: reshape a zero-copy flat view instead of copying.
            let row = self.numel() / extent;
            let view = self.slice_flat(start * row, len * row)?;
            return view.reshape(out_shape);
        }
        // Interior-dimension slices are one contiguous run per index of
        // the leading dimensions: copy those runs in the stored type.
        let inner: usize = self.shape().dims()[dim + 1..].iter().product();
        let outer: usize = self.shape().dims()[..dim].iter().product();
        let (row, skip, take) = (extent * inner, start * inner, len * inner);
        fn gather<T: Copy>(
            src: &[T],
            outer: usize,
            row: usize,
            skip: usize,
            take: usize,
        ) -> Vec<T> {
            let mut out = Vec::with_capacity(outer * take);
            for o in 0..outer {
                let at = o * row + skip;
                out.extend_from_slice(&src[at..at + take]);
            }
            out
        }
        let buf = match (self.buf.as_f32(), self.buf.as_f16()) {
            (Some(v), _) => Buffer::from_f32_vec(gather(v, outer, row, skip, take)),
            (_, Some(v)) => Buffer::from_f16_vec(gather(v, outer, row, skip, take)),
            _ => unreachable!("buffer is F32 or F16"),
        };
        Ok(Tensor {
            shape: out_shape,
            buf,
        })
    }

    /// Splits the tensor into `parts` equal slices along `dim`
    /// (the per-rank pieces of a `Sliced(dim)` layout).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnevenSplit`] when `dim`'s extent is not a
    /// multiple of `parts`, plus the errors of [`Tensor::slice_dim`].
    pub fn split_even(&self, dim: usize, parts: usize) -> Result<Vec<Tensor>, TensorError> {
        let rank = self.shape().rank();
        if dim >= rank {
            return Err(TensorError::DimOutOfRange { dim, rank });
        }
        let extent = self.shape().dim(dim);
        if parts == 0 || !extent.is_multiple_of(parts) {
            return Err(TensorError::UnevenSplit { dim, extent, parts });
        }
        let each = extent / parts;
        (0..parts)
            .map(|p| self.slice_dim(dim, p * each, each))
            .collect()
    }

    /// Concatenates tensors along `dim`. All inputs must agree on dtype
    /// and on every other dimension.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ConcatMismatch`] on disagreement or empty
    /// input, [`TensorError::DimOutOfRange`] for a bad dimension.
    pub fn concat(parts: &[&Tensor], dim: usize) -> Result<Tensor, TensorError> {
        let first = parts.first().ok_or(TensorError::ConcatMismatch)?;
        let rank = first.shape().rank();
        if dim >= rank {
            return Err(TensorError::DimOutOfRange { dim, rank });
        }
        let mut total = 0usize;
        for t in parts {
            if t.shape().rank() != rank || t.dtype() != first.dtype() {
                return Err(TensorError::ConcatMismatch);
            }
            for d in 0..rank {
                if d != dim && t.shape().dim(d) != first.shape().dim(d) {
                    return Err(TensorError::ConcatMismatch);
                }
            }
            total += t.shape().dim(dim);
        }
        let mut out_dims = first.shape().dims().to_vec();
        out_dims[dim] = total;
        let out_shape = Shape::new(out_dims.clone());
        let out_strides = out_shape.strides();

        let mut out = Tensor::zeros(out_shape.clone(), first.dtype());
        if dim == 0 {
            // Leading-dimension concatenation is a sequence of
            // contiguous block copies.
            let mut elem_off = 0usize;
            for t in parts {
                out.write_flat(elem_off, t)?;
                elem_off += t.numel();
            }
            return Ok(out);
        }
        let mut offset = 0usize;
        for t in parts {
            let t_extent = t.shape().dim(dim);
            let t_strides = t.shape().strides();
            for linear in 0..t.numel() {
                let mut dst = 0usize;
                for d in 0..rank {
                    let mut coord = (linear / t_strides[d]) % t.shape().dim(d);
                    if d == dim {
                        coord += offset;
                    }
                    dst += coord * out_strides[d];
                }
                out.set(dst, t.get(linear));
            }
            offset += t_extent;
        }
        Ok(out)
    }

    /// Writes `src`'s elements (in row-major flat order; any shape)
    /// into the flat element range starting at
    /// `start`. Same-dtype writes are a single block copy (after at
    /// most one copy-on-write materialization of `self`); `src` may
    /// alias `self`, in which case the pre-write values are read.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::SliceOutOfRange`] for an out-of-bounds
    /// range and [`TensorError::DTypeMismatch`] on dtype disagreement.
    pub fn write_flat(&mut self, start: usize, src: &Tensor) -> Result<(), TensorError> {
        let n = src.numel();
        if start + n > self.numel() {
            return Err(TensorError::SliceOutOfRange {
                dim: 0,
                start,
                len: n,
                extent: self.numel(),
            });
        }
        if src.dtype() != self.dtype() {
            return Err(TensorError::DTypeMismatch {
                expected: self.dtype(),
                actual: src.dtype(),
            });
        }
        match self.buf.make_mut() {
            BufferData::F32(dst) => {
                dst[start..start + n].copy_from_slice(src.buf.as_f32().expect("dtype checked"));
            }
            BufferData::F16(dst) => {
                dst[start..start + n].copy_from_slice(src.buf.as_f16().expect("dtype checked"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DType;
    use proptest::prelude::*;

    fn t2x4() -> Tensor {
        Tensor::from_fn([2, 4], DType::F32, |i| i as f32)
    }

    #[test]
    fn slice_dim_rows_and_cols() {
        let t = t2x4();
        let row = t.slice_dim(0, 1, 1).unwrap();
        assert_eq!(row.shape(), &Shape::from([1, 4]));
        assert_eq!(row.to_f32_vec(), vec![4.0, 5.0, 6.0, 7.0]);
        let cols = t.slice_dim(1, 1, 2).unwrap();
        assert_eq!(cols.shape(), &Shape::from([2, 2]));
        assert_eq!(cols.to_f32_vec(), vec![1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn slice_errors() {
        let t = t2x4();
        assert!(t.slice_dim(2, 0, 1).is_err());
        assert!(t.slice_dim(1, 3, 2).is_err());
        assert!(t.slice_dim(0, 0, 0).is_err());
    }

    #[test]
    fn split_and_concat_roundtrip() {
        let t = t2x4();
        for dim in 0..2 {
            let parts = t.split_even(dim, 2).unwrap();
            assert_eq!(parts.len(), 2);
            let refs: Vec<&Tensor> = parts.iter().collect();
            let back = Tensor::concat(&refs, dim).unwrap();
            assert_eq!(back, t);
        }
    }

    #[test]
    fn split_uneven_rejected() {
        let t = t2x4();
        assert!(matches!(
            t.split_even(1, 3),
            Err(TensorError::UnevenSplit { .. })
        ));
        assert!(t.split_even(0, 0).is_err());
    }

    #[test]
    fn concat_mismatch_rejected() {
        let a = Tensor::zeros([2, 2], DType::F32);
        let b = Tensor::zeros([3, 3], DType::F32);
        assert!(Tensor::concat(&[&a, &b], 0).is_err());
        let h = Tensor::zeros([2, 2], DType::F16);
        assert!(Tensor::concat(&[&a, &h], 0).is_err());
        assert!(Tensor::concat(&[], 0).is_err());
        assert!(Tensor::concat(&[&a], 5).is_err());
    }

    #[test]
    fn flat_chunk_roundtrip() {
        let t = t2x4();
        let chunk = t.slice_flat(2, 4).unwrap();
        assert_eq!(chunk.to_f32_vec(), vec![2.0, 3.0, 4.0, 5.0]);
        let mut copy = Tensor::zeros([2, 4], DType::F32);
        copy.write_flat(2, &chunk).unwrap();
        assert_eq!(copy.get(3), 3.0);
        assert_eq!(copy.get(0), 0.0);
        assert!(copy.write_flat(6, &chunk).is_err());
        assert!(copy.write_flat(0, &Tensor::zeros([1], DType::F16)).is_err());
    }

    proptest! {
        /// split/concat round-trips on arbitrary shapes and divisors.
        #[test]
        fn split_concat_roundtrip(
            d0 in 1usize..5,
            d1 in 1usize..5,
            parts in 1usize..5,
        ) {
            let t = Tensor::from_fn([d0 * parts, d1], DType::F32, |i| i as f32);
            let pieces = t.split_even(0, parts).unwrap();
            let refs: Vec<&Tensor> = pieces.iter().collect();
            prop_assert_eq!(Tensor::concat(&refs, 0).unwrap(), t);
        }

        /// `slice_dim` copies exactly the elements a coordinate-wise
        /// gather would, in either dtype, bit for bit.
        #[test]
        fn slice_dim_matches_coordinate_gather(
            dims in prop::collection::vec(1usize..4, 1..4),
            dim_pick in 0usize..3,
            start_pick in 0usize..3,
            len_pick in 0usize..3,
            half in any::<bool>(),
        ) {
            let dim = dim_pick % dims.len();
            let start = start_pick % dims[dim];
            let len = 1 + len_pick % (dims[dim] - start);
            let dtype = if half { DType::F16 } else { DType::F32 };
            let t = Tensor::from_fn(dims.clone(), dtype, |i| i as f32 * 0.37 - 1.0);
            let got = t.slice_dim(dim, start, len).unwrap();
            let shape = Shape::new(dims.clone());
            let (in_strides, out_strides) = (shape.strides(), got.shape().strides());
            for linear in 0..got.numel() {
                let mut src = 0;
                for d in 0..dims.len() {
                    let mut coord = (linear / out_strides[d]) % got.shape().dim(d);
                    if d == dim {
                        coord += start;
                    }
                    src += coord * in_strides[d];
                }
                prop_assert_eq!(got.get(linear).to_bits(), t.get(src).to_bits());
            }
        }

        /// A flat slice of a flat write is the identity.
        #[test]
        fn flat_roundtrip(n in 1usize..64, start in 0usize..32, len in 1usize..32) {
            prop_assume!(start + len <= n);
            let t = Tensor::from_fn([n], DType::F32, |i| i as f32);
            let chunk = t.slice_flat(start, len).unwrap();
            let mut out = Tensor::zeros([n], DType::F32);
            out.write_flat(start, &chunk).unwrap();
            for i in 0..len {
                prop_assert_eq!(out.get(start + i), t.get(start + i));
            }
        }
    }
}
