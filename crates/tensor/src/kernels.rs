//! Monomorphized, threshold-gated parallel inner-loop kernels.
//!
//! The collectives' hot loops — ring `reduce_assign`, F16 wire
//! encode/decode, top-k key extraction, Q15.16 quantize — all reduce to
//! tight per-element transforms. Before this module they ran through
//! per-element [`ReduceOp::apply`] enum dispatch (or worse, virtual
//! `Tensor::get` indexing); here each `ReduceOp` gets its own
//! monomorphic inner loop over plain slices that the compiler can
//! auto-vectorize, F16 paths widen a whole chunk to `f32` scratch once
//! instead of converting per element both ways, and work above
//! [`PAR_THRESHOLD`] elements fans out across a shared persistent
//! worker pool built on the vendored crossbeam MPMC channel. Small
//! tensors stay on the single-threaded path so latency-sensitive chunks
//! never pay pool overhead.
//!
//! Every `f32` ↔ F16 slice conversion in the workspace — tensor casts,
//! the executor's F16 operands and stores, the wire codec, the F16
//! reduce kernels' widen and narrow passes — goes through one pair,
//! [`f16_encode_serial`] and [`f16_decode_serial`]. Each picks its
//! path at run time: on x86-64 CPUs that report AVX and F16C, eight
//! lanes per `vcvtps2ph`/`vcvtph2ps` instruction (round to nearest
//! even, by immediate) with a scalar tail; everywhere else the scalar
//! [`F16::from_f32`]/[`F16::to_f32`] loop, which stays the definition
//! both paths are tested against bit for bit. The FP16 wire's ring
//! fold, [`reduce_wire_f16_out`], widens the received stripe, folds and
//! narrows in one pass through stack scratch.
//!
//! Every parallel kernel is bit-identical to its serial counterpart:
//! ranges partition the index space and each element sees exactly the
//! same sequence of `f32` operations, so callers (and the striped
//! collectives built on top) can treat parallelism as a pure
//! work-saver.

use crate::ops::ReduceOp;
use crate::F16;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Element count at or above which kernels consider the worker pool.
/// Below it every kernel runs inline on the calling thread.
pub const PAR_THRESHOLD: usize = 1 << 16;

/// Smallest per-task range a parallel kernel will hand to the pool —
/// keeps per-task dispatch overhead well under the work it amortizes.
pub const PAR_MIN_CHUNK: usize = 1 << 14;

/// F16 kernels stage this many elements of widened `f32` scratch on the
/// stack per chunk (one widen and one narrow pass per chunk, with the
/// combine loop running purely in `f32`).
const F16_CHUNK: usize = 256;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    tx: crossbeam::channel::Sender<Job>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set inside pool workers so nested kernels degrade to the serial
    /// path instead of deadlocking on their own queue.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        // The caller always executes one task inline, so spawn one
        // fewer worker than the machine has cores (at least one, so
        // the dispatch path is exercised even on a single core).
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let workers = cores.saturating_sub(1).max(1);
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        for i in 0..workers {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("coconet-kernel-{i}"))
                .spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn kernel pool worker");
        }
        Pool { tx, workers }
    })
}

/// Number of threads the kernel pool can bring to bear on one call
/// (spawned workers plus the calling thread).
#[must_use]
pub fn pool_width() -> usize {
    pool().workers + 1
}

/// Raw mutable pointer that asserts cross-thread safety; every use
/// below hands disjoint ranges to disjoint tasks.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

// Manual impls: `derive` would add unwanted `T: Clone`/`T: Copy`
// bounds, and pointers copy regardless of the pointee.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole wrapper — edition-2021 disjoint capture would otherwise
    /// grab the bare `*mut T` field, which is neither `Send` nor
    /// `Sync`.
    fn get(self) -> *mut T {
        self.0
    }
}

/// Runs `f` over a partition of `0..len` into contiguous ranges, using
/// the shared worker pool when the range is worth splitting (and the
/// calling thread for one share of the work). Falls back to a single
/// inline call for short ranges, when called from inside a pool worker
/// (no nested dispatch), or when `len < 2 * min_chunk`.
///
/// Tasks that panic re-raise the panic on the calling thread after all
/// sibling tasks have finished.
pub fn parallel_for<F>(len: usize, min_chunk: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if len == 0 {
        return;
    }
    let _dispatch = coconet_trace::span(
        coconet_trace::EventKind::Kernel,
        "parallel_for",
        len as u64,
        0,
    );
    coconet_trace::metrics::add_counter(coconet_trace::metrics::Counter::KernelElems, len as u64);
    let nested = IN_WORKER.with(std::cell::Cell::get);
    let max_parts = len / min_chunk.max(1);
    let parts = if nested {
        1
    } else {
        pool_width().min(max_parts)
    };
    if parts <= 1 {
        f(0..len);
        return;
    }

    // SAFETY: the borrow of `f` is erased to 'static so boxed jobs can
    // enter the pool queue; the caller blocks on the completion channel
    // below until every task has run, so `f` outlives all uses.
    let f_ref: &(dyn Fn(Range<usize>) + Sync) = &f;
    let f_static: &'static (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(f_ref) };

    let (done_tx, done_rx) = crossbeam::channel::unbounded();
    let base = len / parts;
    let rem = len % parts;
    let mut start = 0usize;
    let mut inline_task = 0..0;
    for part in 0..parts {
        let take = base + usize::from(part < rem);
        let range = start..start + take;
        start += take;
        if part + 1 == parts {
            // The caller's own share — run it inline after dispatch.
            inline_task = range;
            break;
        }
        let tx = done_tx.clone();
        let job: Job = Box::new(move || {
            let _job_span = coconet_trace::span(
                coconet_trace::EventKind::Kernel,
                "pool_job",
                (range.end - range.start) as u64,
                part as u64,
            );
            let outcome = catch_unwind(AssertUnwindSafe(|| f_static(range)));
            // Receiver outlives all tasks; a send failure means the
            // caller already panicked and unwound past the recv loop.
            let _ = tx.send(outcome);
        });
        pool().tx.send(job).expect("kernel pool workers alive");
    }
    drop(done_tx);

    let caller_outcome = catch_unwind(AssertUnwindSafe(|| f_static(inline_task)));
    let mut payload_hold: Option<Box<dyn std::any::Any + Send>> = None;
    for _ in 0..parts - 1 {
        if let Err(payload) = done_rx.recv().expect("kernel task reports completion") {
            payload_hold = Some(payload);
        }
    }
    if let Err(payload) = caller_outcome {
        resume_unwind(payload);
    }
    if let Some(payload) = payload_hold {
        resume_unwind(payload);
    }
}

/// Runs `serial(range, &mut dst[range])` over all of `dst`: inline
/// below [`PAR_THRESHOLD`] elements, fanned out over the worker pool in
/// disjoint ranges above it. The one dispatch shape of every
/// slice-to-slice kernel here, so each is bit-identical to its serial
/// body by construction.
fn par_out<D, F>(dst: &mut [D], serial: F)
where
    D: Send,
    F: Fn(Range<usize>, &mut [D]) + Sync,
{
    let len = dst.len();
    if len < PAR_THRESHOLD {
        serial(0..len, dst);
        return;
    }
    let ptr = SendPtr(dst.as_mut_ptr());
    parallel_for(len, PAR_MIN_CHUNK, move |r| {
        // SAFETY: parallel_for ranges partition 0..len, so tasks write
        // disjoint subslices of `dst`.
        let d = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
        serial(r, d);
    });
}

/// Serial monomorphic `acc[i] = op(acc[i], inc[i])` over `f32` slices:
/// the operator match is hoisted out of the loop so each arm is a
/// branch-free slice traversal the compiler auto-vectorizes.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f32_serial(acc: &mut [f32], inc: &[f32], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    match op {
        ReduceOp::Sum => {
            for (a, &b) in acc.iter_mut().zip(inc) {
                *a += b;
            }
        }
        ReduceOp::Min => {
            for (a, &b) in acc.iter_mut().zip(inc) {
                *a = a.min(b);
            }
        }
        ReduceOp::Max => {
            for (a, &b) in acc.iter_mut().zip(inc) {
                *a = a.max(b);
            }
        }
    }
}

/// [`reduce_f32_serial`] fanned out over the worker pool above
/// [`PAR_THRESHOLD`] elements; bit-identical to the serial kernel.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f32(acc: &mut [f32], inc: &[f32], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    par_out(acc, |r, a| reduce_f32_serial(a, &inc[r], op));
}

/// Out-of-place monomorphic reduce `dst[i] = op(a[i], b[i])` over
/// `f32` slices — the fused fold-into-fresh-stripe kernel of the
/// striped collectives (one write instead of fold-in-place plus a
/// later send copy). Parallel above [`PAR_THRESHOLD`]; per element it
/// applies exactly `op.apply(a, b)`, so results are bit-identical to
/// an in-place fold of `b` into a copy of `a`.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f32_out(a: &[f32], b: &[f32], dst: &mut [f32], op: ReduceOp) {
    assert_eq!(a.len(), b.len(), "reduce kernel length mismatch");
    assert_eq!(a.len(), dst.len(), "reduce kernel length mismatch");
    par_out(dst, |r, d| {
        reduce_f32_out_serial(&a[r.clone()], &b[r], d, op)
    });
}

fn reduce_f32_out_serial(a: &[f32], b: &[f32], dst: &mut [f32], op: ReduceOp) {
    match op {
        ReduceOp::Sum => {
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = x + y;
            }
        }
        ReduceOp::Min => {
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = x.min(y);
            }
        }
        ReduceOp::Max => {
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = x.max(y);
            }
        }
    }
}

/// Out-of-place F16 reduce `dst[i] = F16(op(a[i] as f32, b[i] as f32))`
/// with the widen-once-per-chunk discipline of [`reduce_f16_serial`];
/// bit-identical to the per-element path. Parallel above
/// [`PAR_THRESHOLD`].
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f16_out(a: &[F16], b: &[F16], dst: &mut [F16], op: ReduceOp) {
    assert_eq!(a.len(), b.len(), "reduce kernel length mismatch");
    assert_eq!(a.len(), dst.len(), "reduce kernel length mismatch");
    par_out(dst, |r, d| {
        reduce_f16_out_serial(&a[r.clone()], &b[r], d, op)
    });
}

fn reduce_f16_out_serial(a: &[F16], b: &[F16], dst: &mut [F16], op: ReduceOp) {
    let mut wa = [0.0f32; F16_CHUNK];
    let mut wb = [0.0f32; F16_CHUNK];
    for ((dc, ac), bc) in dst
        .chunks_mut(F16_CHUNK)
        .zip(a.chunks(F16_CHUNK))
        .zip(b.chunks(F16_CHUNK))
    {
        let n = dc.len();
        f16_decode_serial(ac, &mut wa[..n]);
        f16_decode_serial(bc, &mut wb[..n]);
        reduce_f32_serial(&mut wa[..n], &wb[..n], op);
        f16_encode_serial(&wa[..n], dc);
    }
}

/// Per-element F16 reduce reference: widen both operands, apply, narrow
/// — exactly the pre-kernel-engine inner loop. Kept public so the
/// equivalence proptest and the throughput bench can pin the
/// widen-once chunk path against it.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f16_per_element(acc: &mut [F16], inc: &[F16], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    for (a, &b) in acc.iter_mut().zip(inc) {
        *a = F16::from_f32(op.apply(a.to_f32(), b.to_f32()));
    }
}

/// Serial monomorphic F16 reduce: widens a whole `F16_CHUNK`-element
/// chunk of both operands into stack `f32` scratch once, combines in
/// `f32` with the operator match hoisted out of the loop, and narrows
/// the chunk back once. Each element still sees exactly
/// `F16::from_f32(op(a.to_f32(), b.to_f32()))`, so the result is
/// bit-identical to [`reduce_f16_per_element`].
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f16_serial(acc: &mut [F16], inc: &[F16], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    let mut wa = [0.0f32; F16_CHUNK];
    let mut wb = [0.0f32; F16_CHUNK];
    for (ac, ic) in acc.chunks_mut(F16_CHUNK).zip(inc.chunks(F16_CHUNK)) {
        let n = ac.len();
        f16_decode_serial(ac, &mut wa[..n]);
        f16_decode_serial(ic, &mut wb[..n]);
        reduce_f32_serial(&mut wa[..n], &wb[..n], op);
        f16_encode_serial(&wa[..n], ac);
    }
}

/// [`reduce_f16_serial`] fanned out over the worker pool above
/// [`PAR_THRESHOLD`] elements; bit-identical to the serial kernel.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f16(acc: &mut [F16], inc: &[F16], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    par_out(acc, |r, a| reduce_f16_serial(a, &inc[r], op));
}

/// The FP16 wire's fused ring fold for an `f32` working dtype:
/// `dst[i] = F16::from_f32(op.apply(local[i], incoming[i].to_f32()))`
/// — widen the received stripe, fold, and narrow the result back onto
/// the wire in one pass, block by block through stack scratch. The
/// operand order is `op(local, incoming)`, exactly as the unfused
/// decode → fold → encode sequence applies it (`f32::min`/`max` and
/// NaN propagation are not symmetric), so results are bit-identical to
/// it.
///
/// Serial by design: the ring runs it on every rank thread at once,
/// and fanning each hop out to the shared pool made the ranks queue on
/// each other's pool tasks (measured slower, with a higher peak RSS,
/// on a 2-core host).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_wire_f16_out(local: &[f32], incoming: &[F16], dst: &mut [F16], op: ReduceOp) {
    assert_eq!(local.len(), incoming.len(), "reduce kernel length mismatch");
    assert_eq!(local.len(), dst.len(), "reduce kernel length mismatch");
    let mut wide = [0.0f32; F16_CHUNK];
    let mut folded = [0.0f32; F16_CHUNK];
    for ((dc, lc), ic) in dst
        .chunks_mut(F16_CHUNK)
        .zip(local.chunks(F16_CHUNK))
        .zip(incoming.chunks(F16_CHUNK))
    {
        let n = dc.len();
        f16_decode_serial(ic, &mut wide[..n]);
        reduce_f32_out_serial(lc, &wide[..n], &mut folded[..n], op);
        f16_encode_serial(&folded[..n], dc);
    }
}

/// Parallel elementwise map `dst[i] = f(&src[i])` — the shape of the
/// Q15.16 quantize/dequantize and top-k key extraction codecs. Short
/// inputs run inline; long ones fan out over the pool in disjoint
/// ranges, so `f` must be pure per element.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn par_map<T, U, F>(src: &[T], dst: &mut [U], f: F)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    assert_eq!(src.len(), dst.len(), "map kernel length mismatch");
    par_out(dst, |r, d| {
        for (dv, sv) in d.iter_mut().zip(&src[r]) {
            *dv = f(sv);
        }
    });
}

/// Serial F16 encode `dst[i] = F16::from_f32(src[i])` — one of the two
/// slice conversions every `f32` ↔ F16 pass in the workspace goes
/// through. Runs the F16C kernel when the CPU reports AVX and F16C at
/// run time, else the scalar [`F16::from_f32`] loop; both round to
/// nearest even and keep NaN payloads identically, bit for bit.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn f16_encode_serial(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "codec kernel length mismatch");
    #[cfg(target_arch = "x86_64")]
    if f16c::available() {
        // SAFETY: `available` just detected AVX and F16C on this CPU.
        unsafe { f16c::encode(src, dst) };
        return;
    }
    encode_scalar(src, dst);
}

/// Serial F16 decode `dst[i] = src[i].to_f32()` (exact) — the other
/// half of the conversion pair, F16C-accelerated like
/// [`f16_encode_serial`].
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn f16_decode_serial(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "codec kernel length mismatch");
    #[cfg(target_arch = "x86_64")]
    if f16c::available() {
        // SAFETY: `available` just detected AVX and F16C on this CPU.
        unsafe { f16c::decode(src, dst) };
        return;
    }
    decode_scalar(src, dst);
}

/// The portable encode: the scalar reference loop.
fn encode_scalar(src: &[f32], dst: &mut [F16]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = F16::from_f32(s);
    }
}

/// The portable decode: the scalar reference loop.
fn decode_scalar(src: &[F16], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_f32();
    }
}

/// The x86-64 F16C conversion kernels: eight lanes per instruction,
/// with a scalar tail.
#[cfg(target_arch = "x86_64")]
mod f16c {
    use super::{decode_scalar, encode_scalar, F16};
    use std::arch::x86_64::{
        __m128i, _mm256_cvtph_ps, _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_storeu_ps,
        _mm_loadu_si128, _mm_storeu_si128, _MM_FROUND_TO_NEAREST_INT,
    };

    /// Lanes per conversion instruction.
    const LANES: usize = 8;

    /// Whether this CPU runs the kernels below (std caches the probe).
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx") && std::arch::is_x86_feature_detected!("f16c")
    }

    /// `vcvtps2ph` with an explicit round-to-nearest-even immediate, so
    /// the MXCSR rounding mode never applies.
    #[target_feature(enable = "avx,f16c")]
    pub(super) fn encode(src: &[f32], dst: &mut [F16]) {
        let body = src.len() - src.len() % LANES;
        for (s, d) in src[..body]
            .chunks_exact(LANES)
            .zip(dst[..body].chunks_exact_mut(LANES))
        {
            // SAFETY: AVX and F16C are enabled for this function, which
            // the caller runs only after detecting both. `s` holds 8
            // `f32`s (32 bytes) and `d` 8 `F16`s (16 bytes; `F16` is a
            // transparent `u16`), read and written unaligned.
            unsafe {
                let halves =
                    _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(s.as_ptr()));
                _mm_storeu_si128(d.as_mut_ptr().cast::<__m128i>(), halves);
            }
        }
        encode_scalar(&src[body..], &mut dst[body..]);
    }

    /// `vcvtph2ps`: exact, like [`F16::to_f32`].
    #[target_feature(enable = "avx,f16c")]
    pub(super) fn decode(src: &[F16], dst: &mut [f32]) {
        let body = src.len() - src.len() % LANES;
        for (s, d) in src[..body]
            .chunks_exact(LANES)
            .zip(dst[..body].chunks_exact_mut(LANES))
        {
            // SAFETY: AVX and F16C are enabled for this function, which
            // the caller runs only after detecting both. `s` holds 8
            // `F16`s (16 bytes; `F16` is a transparent `u16`) and `d` 8
            // `f32`s (32 bytes), read and written unaligned.
            unsafe {
                let wide = _mm256_cvtph_ps(_mm_loadu_si128(s.as_ptr().cast::<__m128i>()));
                _mm256_storeu_ps(d.as_mut_ptr(), wide);
            }
        }
        decode_scalar(&src[body..], &mut dst[body..]);
    }
}

/// Parallel F16 wire encode: [`f16_encode_serial`] over the worker
/// pool above [`PAR_THRESHOLD`] elements.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn f16_encode(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "codec kernel length mismatch");
    par_out(dst, |r, d| f16_encode_serial(&src[r], d));
}

/// Parallel F16 wire decode: [`f16_decode_serial`] over the worker
/// pool above [`PAR_THRESHOLD`] elements.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn f16_decode(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "codec kernel length mismatch");
    par_out(dst, |r, d| f16_decode_serial(&src[r], d));
}

/// Serial axpy row update `c[j] += a * b[j]` — the GEMM inner loop,
/// kept monomorphic here so the blocked GEMM's parallel row blocks and
/// the serial reference share one auto-vectorized body.
pub fn axpy(c: &mut [f32], b: &[f32], a: f32) {
    for (cj, &bj) in c.iter_mut().zip(b) {
        *cj += a * bj;
    }
}

/// Runs `f(chunk_index, chunk)` over `data` split into consecutive
/// `chunk`-element chunks (last one short), fanning chunks out across
/// the pool when `data` clears [`PAR_THRESHOLD`]. Chunks are disjoint,
/// so per-chunk writes race-free; `f` must not depend on chunk order.
///
/// # Panics
///
/// Panics when `chunk` is zero.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let len = data.len();
    if len < PAR_THRESHOLD {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    let n_chunks = len.div_ceil(chunk);
    let ptr = SendPtr(data.as_mut_ptr());
    parallel_for(n_chunks, 1, move |r| {
        for i in r {
            let start = i * chunk;
            let end = len.min(start + chunk);
            // SAFETY: chunk index ranges are disjoint across tasks, so
            // the derived element ranges are too.
            let c = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), end - start) };
            f(i, c);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_partitions_exactly() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits: Vec<AtomicU64> = (0..100_000).map(|_| AtomicU64::new(0)).collect();
        parallel_for(hits.len(), 1 << 10, |r| {
            for h in &hits[r] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_propagates_panics() {
        let outcome = std::panic::catch_unwind(|| {
            parallel_for(1 << 18, 1 << 10, |r| {
                assert!(r.start != 0, "deliberate failure in first range");
            });
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn reduce_f32_matches_apply_reference() {
        let n = (1 << 16) + 37; // above threshold, not a chunk multiple
        let a0: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let mut reference = a0.clone();
            for (r, &bv) in reference.iter_mut().zip(&b) {
                *r = op.apply(*r, bv);
            }
            let mut parallel = a0.clone();
            reduce_f32(&mut parallel, &b, op);
            assert_eq!(
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                parallel.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn reduce_f16_chunked_matches_per_element() {
        let n = (1 << 16) + F16_CHUNK / 2 + 3;
        let a0: Vec<F16> = (0..n).map(|i| F16::from_f32(i as f32 * 0.37)).collect();
        let b: Vec<F16> = (0..n)
            .map(|i| F16::from_f32(1.0 - i as f32 * 0.11))
            .collect();
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let mut reference = a0.clone();
            reduce_f16_per_element(&mut reference, &b, op);
            let mut chunked = a0.clone();
            reduce_f16(&mut chunked, &b, op);
            assert_eq!(
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                chunked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn codecs_round_trip() {
        let n = (1 << 16) + 11;
        let src: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 100.0).collect();
        let mut half = vec![F16::ZERO; n];
        f16_encode(&src, &mut half);
        let mut wide = vec![0.0f32; n];
        f16_decode(&half, &mut wide);
        for (i, (&h, &w)) in half.iter().zip(&wide).enumerate() {
            assert_eq!(F16::from_f32(src[i]).to_bits(), h.to_bits());
            assert_eq!(h.to_f32().to_bits(), w.to_bits());
        }
    }

    /// An encode path under test, by name.
    type Encode = (&'static str, Box<dyn Fn(&[f32], &mut [F16])>);
    /// A decode path under test, by name.
    type Decode = (&'static str, Box<dyn Fn(&[F16], &mut [f32])>);

    /// Every encode path this CPU runs: the scalar loop always, the
    /// F16C kernel when detected.
    fn encode_paths() -> Vec<Encode> {
        let mut paths: Vec<Encode> = vec![("scalar", Box::new(encode_scalar))];
        #[cfg(target_arch = "x86_64")]
        if f16c::available() {
            // SAFETY: `available` detected AVX and F16C on this CPU.
            paths.push(("f16c", Box::new(|s, d| unsafe { f16c::encode(s, d) })));
        }
        paths
    }

    /// Every decode path this CPU runs, as [`encode_paths`].
    fn decode_paths() -> Vec<Decode> {
        let mut paths: Vec<Decode> = vec![("scalar", Box::new(decode_scalar))];
        #[cfg(target_arch = "x86_64")]
        if f16c::available() {
            // SAFETY: `available` detected AVX and F16C on this CPU.
            paths.push(("f16c", Box::new(|s, d| unsafe { f16c::decode(s, d) })));
        }
        paths
    }

    /// Runs `path` over `src` and asserts each output's bits against
    /// the scalar reference `F16::from_f32`.
    fn assert_encodes_like_reference(name: &str, path: &dyn Fn(&[f32], &mut [F16]), src: &[f32]) {
        let mut got = vec![F16::ZERO; src.len()];
        path(src, &mut got);
        for (&v, h) in src.iter().zip(&got) {
            assert_eq!(
                h.to_bits(),
                F16::from_f32(v).to_bits(),
                "{name}: encode of {:#010x}",
                v.to_bits()
            );
        }
    }

    /// All 65,536 halves decode bit-identically to `F16::to_f32` on
    /// every path, NaN payloads and subnormals included. The odd
    /// length leaves a scalar tail after the eight-lane body.
    #[test]
    fn decode_matches_reference_on_every_half() {
        let src: Vec<F16> = (0..=u16::MAX)
            .map(F16::from_bits)
            .chain([F16::ONE])
            .collect();
        for (name, path) in decode_paths() {
            let mut got = vec![0.0f32; src.len()];
            path(&src, &mut got);
            for (h, v) in src.iter().zip(&got) {
                assert_eq!(
                    v.to_bits(),
                    h.to_f32().to_bits(),
                    "{name}: decode of {:#06x}",
                    h.to_bits()
                );
            }
        }
    }

    /// Every (sign, `f32` exponent, top-10 mantissa bits) combination,
    /// crossed with low-13-bit patterns on each side of every rounding
    /// decision (exact, sticky only, just below the tie, the tie, just
    /// above it, all ones), encodes bit-identically to
    /// `F16::from_f32` on every path. That spans every round, tie,
    /// sticky, subnormal, underflow, overflow and NaN-payload boundary.
    #[test]
    fn encode_matches_reference_on_every_rounding_boundary() {
        const LOW: [u32; 6] = [0, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF];
        let paths = encode_paths();
        for sign in [0u32, 1] {
            for exp in 0u32..=0xFF {
                let src: Vec<f32> = (0u32..1 << 10)
                    .flat_map(|top| {
                        LOW.map(|low| f32::from_bits(sign << 31 | exp << 23 | top << 13 | low))
                    })
                    .collect();
                for (name, path) in &paths {
                    assert_encodes_like_reference(name, path, &src);
                }
            }
        }
    }

    /// The full sweep: every one of the 2^32 `f32` bit patterns encodes
    /// bit-identically on every path. About 20 s in release for both
    /// paths on a 2-vCPU x86-64 host with F16C; run with
    /// `cargo test --release -p coconet-tensor -- --ignored`.
    #[test]
    #[ignore = "exhaustive 2^32 sweep; run in release with --ignored"]
    fn encode_matches_reference_on_every_f32() {
        let paths = encode_paths();
        let mut src = vec![0.0f32; 1 << 16];
        for hi in 0u32..1 << 16 {
            for (lo, v) in src.iter_mut().enumerate() {
                *v = f32::from_bits(hi << 16 | lo as u32);
            }
            for (name, path) in &paths {
                assert_encodes_like_reference(name, path, &src);
            }
        }
    }

    /// The fused FP16-wire fold keeps the operand order
    /// `op(local, incoming)`, within one block and across block
    /// boundaries: signed zeros under Min/Max, NaN
    /// payloads in either operand or both, infinities, and sums that
    /// overflow the half range all match the unfused widen →
    /// `op.apply` → narrow reference bit for bit, where a swapped fold
    /// would not.
    #[test]
    fn wire_fold_keeps_operand_order() {
        let local_vals: Vec<f32> = [
            0x0000_0000u32, // +0
            0x8000_0000,    // -0
            0x3FC0_0000,    // 1.5
            0xC010_0000,    // -2.25
            0x7F80_0000,    // +inf
            0xFF80_0000,    // -inf
            0x7FC0_2000,    // quiet NaN, payload survives narrowing
            0xFFC4_6000,    // negative quiet NaN, other payload
            0x7F80_2000,    // signaling NaN
            0x477F_E000,    // 65504, the largest half
            0x4974_2400,    // 1e6, beyond the half range
            0xC788_B800,    // -70000
            0x3380_0000,    // 2^-24, the smallest half subnormal
        ]
        .map(f32::from_bits)
        .to_vec();
        let incoming_vals: Vec<F16> = [
            0x0000u16, 0x8000, 0x3C00, 0xC100, 0x7C00, 0xFC00, 0x7E01, 0xFE2A, 0x7C05, 0x7BFF,
            0xFBFF, 0x0001,
        ]
        .map(F16::from_bits)
        .to_vec();
        let pairs = local_vals.len() * incoming_vals.len();
        for n in [pairs, 4 * F16_CHUNK + pairs] {
            let local: Vec<f32> = (0..n).map(|i| local_vals[i % local_vals.len()]).collect();
            let incoming: Vec<F16> = (0..n)
                .map(|i| incoming_vals[(i / local_vals.len()) % incoming_vals.len()])
                .collect();
            for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
                let mut narrow = vec![F16::ZERO; n];
                reduce_wire_f16_out(&local, &incoming, &mut narrow, op);
                for i in 0..n {
                    let want = op.apply(local[i], incoming[i].to_f32());
                    let case = format!(
                        "{op:?} n={n} local={:#010x} incoming={:#06x}",
                        local[i].to_bits(),
                        incoming[i].to_bits()
                    );
                    assert_eq!(
                        narrow[i].to_bits(),
                        F16::from_f32(want).to_bits(),
                        "F16 out: {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_chunks_cover_all_chunks() {
        let mut data = vec![0u32; (1 << 16) + 123];
        let chunk = 1000;
        parallel_chunks_mut(&mut data, chunk, |i, c| {
            for v in c.iter_mut() {
                *v = i as u32 + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / chunk) as u32 + 1);
        }
    }
}
