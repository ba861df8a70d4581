//! Outside-timed layer probes: the host copy roofline and one public
//! entry point per layer, each at the geometry of the workload it
//! predicts. Bandwidths count bytes read plus bytes written.

use std::hint::black_box;
use std::time::Instant;

use coconet_compress::WireFormat;
use coconet_models::optimizers::reference_step;
use coconet_models::{Hyper, Optimizer};
use coconet_runtime::{ring_all_reduce_wire_striped, run_ranks, Group};
use coconet_tensor::{kernels, CounterRng, DType, ReduceOp, Tensor, F16};

use crate::report::{median, Report};
use crate::Scale;

/// Probe sizes, taken from the workloads' geometries.
struct ProbeGeom {
    /// Elements of the roofline copy (F32).
    copy_elems: usize,
    /// `mp_mlp`'s per-rank GEMM: `[m, k] x [k, n]`, F16 operands.
    mlp: (usize, usize, usize),
    /// `dp_adam`'s per-rank slice (F32).
    adam_slice: usize,
    /// `dp_adam`'s N, for the single-worker reference step.
    adam_n: usize,
    /// `dp_stream`'s per-hop stripe: layer / ranks / channels.
    hop: usize,
    /// `dp_stream`'s layer size and channel count.
    layer: usize,
    channels: usize,
    /// Timed repetitions per probe (the median is kept).
    reps: usize,
}

impl ProbeGeom {
    fn new(scale: Scale) -> ProbeGeom {
        let adam = crate::exec::AdamGeom::new(scale);
        let mlp = crate::exec::MlpGeom::new(scale);
        let stream = crate::stream::StreamGeom::new(scale);
        ProbeGeom {
            copy_elems: match scale {
                Scale::Full => 1 << 22,
                Scale::Tiny => 1 << 12,
            },
            mlp: (mlp.b * mlp.s, 4 * mlp.h / 2, mlp.h),
            adam_slice: adam.n / 2,
            adam_n: adam.n,
            hop: stream.elems / 2 / stream.channels,
            layer: stream.elems,
            channels: stream.channels,
            reps: match scale {
                Scale::Full => 9,
                Scale::Tiny => 3,
            },
        }
    }
}

/// Median seconds of `reps` timed calls of `f`, after one untimed call.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn gb_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// Runs every probe and records its metrics into `report`.
pub fn run(scale: Scale, seed: u64, report: &mut Report) {
    let g = ProbeGeom::new(scale);
    let rng = CounterRng::new(seed ^ 0x9b0b);

    // Host copy roofline: one block copy between two fresh buffers.
    let src: Vec<f32> = (0..g.copy_elems).map(|i| i as f32).collect();
    let mut dst = vec![0.0f32; g.copy_elems];
    let copy_s = time_median(g.reps, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    let roofline = gb_s(8 * g.copy_elems, copy_s);
    drop((src, dst));
    report.set("host.copy_gb_s", roofline);

    // GEMM at mp_mlp's per-rank shape (F16 operands, like the program).
    let (m, k, n) = g.mlp;
    let a = Tensor::randn([m, k], DType::F16, rng, 0);
    let b = Tensor::randn([k, n], DType::F16, rng, (m * k) as u64);
    let mm_s = time_median(g.reps, || {
        black_box(a.matmul(black_box(&b)).expect("probe shapes agree"));
    });
    report.set(
        "tensor.matmul.gflops",
        2.0 * (m * k * n) as f64 / mm_s / 1e9,
    );

    // Pointwise binary ops on dp_adam's local slice.
    let x = Tensor::randn([g.adam_slice], DType::F32, rng, 1 << 40);
    let y = Tensor::randn([g.adam_slice], DType::F32, rng, 2 << 40);
    let mut flip = false;
    let bin_s = time_median(2 * g.reps, || {
        flip = !flip;
        let z = if flip { x.add(&y) } else { x.mul(&y) };
        black_box(z.expect("same shapes"));
    });
    let bin = gb_s(12 * g.adam_slice, bin_s);
    report.set("tensor.ops.binary_gb_s", bin);
    report.set("tensor.ops.binary_eff", bin / roofline);

    // The ring's fold kernel at dp_stream's per-hop stripe.
    let mut acc: Vec<f32> = (0..g.hop).map(|i| (i % 7) as f32).collect();
    let inc: Vec<f32> = (0..g.hop).map(|i| (i % 5) as f32).collect();
    let red_s = time_median(g.reps, || {
        kernels::reduce_f32(black_box(&mut acc), black_box(&inc), ReduceOp::Sum);
    });
    let red = gb_s(12 * g.hop, red_s);
    report.set("tensor.kernels.reduce_gb_s", red);
    report.set("tensor.kernels.reduce_eff", red / roofline);

    // The FP16 wire codec at the same stripe.
    let mut half = vec![F16::from_f32(0.0); g.hop];
    let enc_s = time_median(g.reps, || {
        kernels::f16_encode(black_box(&inc), black_box(&mut half));
    });
    let mut wide = vec![0.0f32; g.hop];
    let dec_s = time_median(g.reps, || {
        kernels::f16_decode(black_box(&half), black_box(&mut wide));
    });
    let (enc, dec) = (gb_s(6 * g.hop, enc_s), gb_s(6 * g.hop, dec_s));
    report.set("compress.f16_encode_gb_s", enc);
    report.set("compress.f16_encode_eff", enc / roofline);
    report.set("compress.f16_decode_gb_s", dec);
    report.set("compress.f16_decode_eff", dec / roofline);

    // One blocking striped ring AllReduce at dp_stream's layer size.
    let (layer, channels, reps) = (g.layer, g.channels, g.reps);
    let per_rank = run_ranks(2, move |comm| {
        let group = Group { start: 0, size: 2 };
        let t = Tensor::randn([layer], DType::F32, rng, (3 << 40) + comm.rank() as u64);
        time_median(reps, || {
            black_box(ring_all_reduce_wire_striped(
                &comm,
                group,
                &t,
                ReduceOp::Sum,
                WireFormat::Dense,
                channels,
            ));
        })
    });
    report.set("runtime.collectives.all_reduce_s", per_rank[0]);

    // The single-worker Adam reference at dp_adam's N.
    let grad = Tensor::randn([g.adam_n], DType::F32, rng, 4 << 40);
    let p0 = Tensor::randn([g.adam_n], DType::F32, rng, 5 << 40);
    let ref_s = time_median(3, || {
        let (mut p, mut m, mut v) = (
            p0.deep_clone(),
            Tensor::zeros([g.adam_n], DType::F32),
            Tensor::full([g.adam_n], DType::F32, 0.01),
        );
        reference_step(
            Optimizer::Adam,
            Hyper::default(),
            &mut p,
            &mut m,
            &mut v,
            &grad,
            0.01,
            1.0,
        );
        black_box(p);
    });
    report.set("models.reference_step_s", ref_s);
}
