//! Distributed tensor values: a layout plus this rank's local storage.
//!
//! The executor evaluates every DSL operation against these values.
//! Operands are addressed by *global* flat index, so a computation
//! produces identical results whether its operands are replicated or
//! sliced — which is exactly the property that makes the paper's
//! transformations semantics-preserving, and what the integration tests
//! verify. The mapping is resolved a contiguous run at a time, never per
//! element: [`DistValue::global_run`] splits a layout's local domain
//! into runs of consecutive global indices, and [`DistValue::local_run`]
//! finds the local window holding a run of global indices.

use coconet_core::{Layout, SliceDim};
use coconet_tensor::{Shape, Tensor, TensorError};

/// A distributed value as seen from one rank: the global shape, the
/// distributed layout, and the local storage (the full tensor for
/// `Replicated`/`Local`, this rank's slice for `Sliced`).
#[derive(Clone, Debug)]
pub struct DistValue {
    /// Global (undistributed) shape.
    pub global_shape: Shape,
    /// Distributed layout.
    pub layout: Layout,
    /// This rank's local storage.
    pub local: Tensor,
    /// This rank's position within its group.
    pub pos: usize,
    /// Group size.
    pub group_size: usize,
}

impl DistValue {
    /// A replicated value (same full tensor on every rank).
    pub fn replicated(local: Tensor, pos: usize, group_size: usize) -> DistValue {
        DistValue {
            global_shape: local.shape().clone(),
            layout: Layout::Replicated,
            local,
            pos,
            group_size,
        }
    }

    /// A local value (full shape, rank-specific contents).
    pub fn local(local: Tensor, pos: usize, group_size: usize) -> DistValue {
        DistValue {
            global_shape: local.shape().clone(),
            layout: Layout::Local,
            local,
            pos,
            group_size,
        }
    }

    /// Number of elements this rank stores.
    pub fn local_numel(&self) -> usize {
        self.local.numel()
    }

    /// Number of elements of the global tensor.
    pub fn global_numel(&self) -> usize {
        self.global_shape.numel()
    }

    /// The value of a full `global` tensor on rank `pos` of a group of
    /// `group_size` under `layout`: the tensor itself when replicated or
    /// local, else this rank's share — a zero-copy view for flat and
    /// leading-dimension slices, one contiguous row copy per leading
    /// index for interior-dimension slices.
    ///
    /// # Errors
    ///
    /// Returns tensor errors when the share is out of range (the sliced
    /// extent does not divide the group).
    pub(crate) fn from_global(
        global: &Tensor,
        layout: Layout,
        pos: usize,
        group_size: usize,
    ) -> Result<DistValue, TensorError> {
        let local = match layout {
            Layout::Replicated | Layout::Local => global.clone(),
            Layout::Sliced(SliceDim::Flat) => {
                let n = global.numel() / group_size;
                global.slice_flat(pos * n, n)?
            }
            Layout::Sliced(SliceDim::Dim(d)) => {
                let extent = global.shape().dim(d) / group_size;
                global.slice_dim(d, pos * extent, extent)?
            }
        };
        Ok(DistValue {
            global_shape: global.shape().clone(),
            layout,
            local,
            pos,
            group_size,
        })
    }

    /// The run of consecutive *global* indices that starts at local
    /// index `local_idx` of a `layout` value on rank `pos`: its global
    /// start, and how many local elements from `local_idx` it spans.
    /// Replicated, local and flat-sliced values are one run; a value
    /// sliced on dimension `d` is one run per index of the dimensions
    /// before `d`.
    pub(crate) fn global_run(
        global_shape: &Shape,
        layout: Layout,
        pos: usize,
        group_size: usize,
        local_idx: usize,
    ) -> (usize, usize) {
        match layout {
            Layout::Replicated | Layout::Local => (local_idx, global_shape.numel() - local_idx),
            Layout::Sliced(SliceDim::Flat) => {
                let chunk = global_shape.numel() / group_size;
                (pos * chunk + local_idx, chunk - local_idx)
            }
            Layout::Sliced(SliceDim::Dim(d)) => {
                let (row, ext) = DistValue::dim_rows(global_shape, d, group_size);
                let (outer, r) = (local_idx / ext, local_idx % ext);
                (outer * row + pos * ext + r, ext - r)
            }
        }
    }

    /// Where this rank stores the element at *global* flat index
    /// `gidx`: its local index, and how many consecutive global indices
    /// from `gidx` sit contiguously in local storage from there.
    ///
    /// # Panics
    ///
    /// Panics if this rank does not store that element (the layout
    /// rules guarantee it does for well-typed programs).
    pub(crate) fn local_run(&self, gidx: usize) -> (usize, usize) {
        let not_held = || -> ! {
            panic!(
                "rank pos {} does not hold global index {gidx} of a {} value",
                self.pos, self.layout
            )
        };
        match self.layout {
            Layout::Replicated | Layout::Local => {
                let n = self.local.numel();
                if gidx >= n {
                    not_held();
                }
                (gidx, n - gidx)
            }
            Layout::Sliced(SliceDim::Flat) => {
                let chunk = self.local.numel();
                let l = gidx
                    .checked_sub(self.pos * chunk)
                    .filter(|&l| l < chunk)
                    .unwrap_or_else(|| not_held());
                (l, chunk - l)
            }
            Layout::Sliced(SliceDim::Dim(d)) => {
                let (row, ext) = DistValue::dim_rows(&self.global_shape, d, self.group_size);
                let r = (gidx % row)
                    .checked_sub(self.pos * ext)
                    .filter(|&r| r < ext)
                    .unwrap_or_else(|| not_held());
                (gidx / row * ext + r, ext - r)
            }
        }
    }

    /// For a value sliced on dimension `d`: the global elements per
    /// index of the dimensions before `d`, and the share of them each
    /// rank stores contiguously.
    fn dim_rows(global_shape: &Shape, d: usize, group_size: usize) -> (usize, usize) {
        let dims = global_shape.dims();
        let row = dims[d..].iter().product::<usize>();
        (row, row / group_size)
    }

    /// The shape of the local storage for a given layout over a global
    /// shape.
    pub fn local_shape(global: &Shape, layout: Layout, group_size: usize) -> Shape {
        match layout {
            Layout::Replicated | Layout::Local => global.clone(),
            Layout::Sliced(SliceDim::Flat) => Shape::from([global.numel() / group_size]),
            Layout::Sliced(SliceDim::Dim(d)) => {
                let mut dims = global.dims().to_vec();
                dims[d] /= group_size;
                Shape::new(dims)
            }
        }
    }
}

/// The per-element global-index mapping the run mappings replace,
/// kept as the reference they (and the executor's run-based
/// evaluation) are tested against.
#[cfg(test)]
impl DistValue {
    /// Maps a local element index to its global flat index.
    pub(crate) fn global_index_in(
        global_shape: &Shape,
        layout: Layout,
        local_shape: &Shape,
        pos: usize,
        group_size: usize,
        local_idx: usize,
    ) -> usize {
        match layout {
            Layout::Replicated | Layout::Local => local_idx,
            Layout::Sliced(SliceDim::Flat) => {
                let n = global_shape.numel();
                assert_eq!(n % group_size, 0, "indivisible sliced tensor");
                pos * (n / group_size) + local_idx
            }
            Layout::Sliced(SliceDim::Dim(d)) => {
                let global_dims = global_shape.dims();
                let local_extent = global_dims[d] / group_size;
                let l_strides = local_shape.strides();
                let g_strides = global_shape.strides();
                let mut g = 0usize;
                for dim in 0..local_shape.rank() {
                    let mut coord = (local_idx / l_strides[dim]) % local_shape.dim(dim);
                    if dim == d {
                        coord += pos * local_extent;
                    }
                    g += coord * g_strides[dim];
                }
                g
            }
        }
    }

    /// Reads the element at a *global* flat index.
    pub(crate) fn read_global(&self, gidx: usize) -> f32 {
        match self.layout {
            Layout::Replicated | Layout::Local => self.local.get(gidx),
            Layout::Sliced(SliceDim::Flat) => {
                let chunk = self.global_numel() / self.group_size;
                let local = gidx
                    .checked_sub(self.pos * chunk)
                    .filter(|&l| l < chunk)
                    .unwrap_or_else(|| {
                        panic!("rank pos {} does not hold global index {gidx}", self.pos)
                    });
                self.local.get(local)
            }
            Layout::Sliced(SliceDim::Dim(d)) => {
                let g_strides = self.global_shape.strides();
                let local_shape = self.local.shape();
                let l_strides = local_shape.strides();
                let local_extent = self.global_shape.dim(d) / self.group_size;
                let mut l = 0usize;
                for dim in 0..self.global_shape.rank() {
                    let mut coord = (gidx / g_strides[dim]) % self.global_shape.dim(dim);
                    if dim == d {
                        coord = coord
                            .checked_sub(self.pos * local_extent)
                            .filter(|&c| c < local_extent)
                            .unwrap_or_else(|| {
                                panic!("rank pos {} does not hold dim-{d} coordinate", self.pos)
                            });
                    }
                    l += coord * l_strides[dim];
                }
                self.local.get(l)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_tensor::DType;

    fn sliced(
        global: [usize; 2],
        layout: Layout,
        local: Tensor,
        pos: usize,
        gs: usize,
    ) -> DistValue {
        DistValue {
            global_shape: Shape::from(global),
            layout,
            local,
            pos,
            group_size: gs,
        }
    }

    #[test]
    fn replicated_is_one_run() {
        let t = Tensor::from_fn([2, 3], DType::F32, |i| i as f32);
        let v = DistValue::replicated(t, 1, 4);
        assert_eq!(
            DistValue::global_run(&v.global_shape, v.layout, 1, 4, 0),
            (0, 6)
        );
        assert_eq!(v.local_run(2), (2, 4));
    }

    #[test]
    fn flat_sliced_runs() {
        // Global [8], 4 ranks, rank pos 2 holds elements 4..6.
        let local = Tensor::from_f32([2], DType::F32, &[40.0, 50.0]).unwrap();
        let v = DistValue {
            global_shape: Shape::from([8]),
            layout: Layout::sliced_flat(),
            local,
            pos: 2,
            group_size: 4,
        };
        assert_eq!(
            DistValue::global_run(&v.global_shape, v.layout, 2, 4, 0),
            (4, 2)
        );
        assert_eq!(v.local_run(5), (1, 1));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn flat_sliced_out_of_slice_panics() {
        let v = DistValue {
            global_shape: Shape::from([8]),
            layout: Layout::sliced_flat(),
            local: Tensor::zeros([2], DType::F32),
            pos: 2,
            group_size: 4,
        };
        v.local_run(0);
    }

    #[test]
    fn dim_sliced_runs() {
        // Global [2, 4] sliced on dim 1 over 2 ranks; pos 1 holds
        // columns 2..4: one run of two per row.
        let local = Tensor::from_f32([2, 2], DType::F32, &[2.0, 3.0, 6.0, 7.0]).unwrap();
        let v = sliced([2, 4], Layout::sliced(1), local, 1, 2);
        assert_eq!(
            DistValue::global_run(&v.global_shape, v.layout, 1, 2, 0),
            (2, 2)
        );
        assert_eq!(
            DistValue::global_run(&v.global_shape, v.layout, 1, 2, 3),
            (7, 1)
        );
        assert_eq!(v.local_run(6), (2, 2));
        assert_eq!(v.local_run(3), (1, 1));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn dim_sliced_out_of_slice_panics() {
        let v = sliced(
            [2, 4],
            Layout::sliced(1),
            Tensor::zeros([2, 2], DType::F32),
            1,
            2,
        );
        v.local_run(4);
    }

    #[test]
    fn local_shapes() {
        let g = Shape::from([4, 6]);
        assert_eq!(
            DistValue::local_shape(&g, Layout::Replicated, 2),
            Shape::from([4, 6])
        );
        assert_eq!(
            DistValue::local_shape(&g, Layout::sliced_flat(), 2),
            Shape::from([12])
        );
        assert_eq!(
            DistValue::local_shape(&g, Layout::sliced(1), 2),
            Shape::from([4, 3])
        );
    }

    /// The run mappings agree with the per-element reference mapping
    /// at every element, for every layout and position, and
    /// `from_global` stores exactly the elements the reference reads.
    #[test]
    fn runs_agree_with_the_element_mapping() {
        let global = Tensor::from_fn([2, 6, 4], DType::F16, |i| i as f32);
        let layouts = [
            Layout::Replicated,
            Layout::Local,
            Layout::sliced_flat(),
            Layout::sliced(0),
            Layout::sliced(1),
            Layout::sliced(2),
        ];
        for layout in layouts {
            for gs in [1, 2] {
                for pos in 0..gs {
                    let v = DistValue::from_global(&global, layout, pos, gs).unwrap();
                    let lshape = DistValue::local_shape(global.shape(), layout, gs);
                    assert_eq!(v.local.shape(), &lshape, "{layout}");
                    let mut l = 0;
                    while l < lshape.numel() {
                        let (g, len) = DistValue::global_run(global.shape(), layout, pos, gs, l);
                        assert!(len > 0);
                        for i in 0..len {
                            let want = DistValue::global_index_in(
                                global.shape(),
                                layout,
                                &lshape,
                                pos,
                                gs,
                                l + i,
                            );
                            assert_eq!(g + i, want, "{layout} pos {pos}");
                            let (at, rest) = v.local_run(want);
                            assert_eq!(at, l + i, "{layout} pos {pos}");
                            assert_eq!(rest, len - i, "{layout} pos {pos}");
                            assert_eq!(v.local.get(at), v.read_global(want));
                            assert_eq!(v.read_global(want), global.get(want));
                        }
                        l += len;
                    }
                }
            }
        }
    }
}
