//! Measured multi-channel striping rows: real ring AllReduces swept
//! over the channel count.
//!
//! Every width runs the same ring engine — fused out-of-place folds,
//! gathered stripes decoded straight into one output — so what the
//! sweep measures is the lanes themselves: with more than one, a rank
//! folds one stripe while its neighbour still produces the next. The
//! `ablation_channels` trajectory row gates three properties at the
//! acceptance geometry: the best multi-channel width strictly beats a
//! single channel, the per-rank wire volume is byte-exact against the
//! analytic ring formula at *every* width, and every width's result is
//! bit-identical to the single-channel run.

use std::time::{Duration, Instant};

use coconet_compress::WireFormat;
use coconet_runtime::{ring_all_reduce_wire_bytes, ring_all_reduce_wire_striped, run_ranks, Group};
use coconet_tensor::{DType, ReduceOp, Tensor};

/// Elements of the swept AllReduce: 2^24 — the acceptance size — in
/// release builds, which produce every committed `BENCH_coconet.json`.
/// Debug builds (the unit-test suite) shrink to 2^18 so the sweep
/// stays a test, not a benchmark.
pub const CH_ELEMS: usize = if cfg!(debug_assertions) {
    1 << 18
} else {
    1 << 24
};

/// Rank threads of the swept AllReduce.
pub const CH_RANKS: usize = 8;

/// The channel widths the ablation sweeps.
pub const CH_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Cap on the gated speedup, mirroring
/// [`GATED_SPEEDUP_CAP`](crate::zerocopy::GATED_SPEEDUP_CAP) at a
/// scale fit to this row: the multi-lane win is pipelining inside one
/// engine (~1.1x), so the measured wall ratio is both smaller and
/// noisier than the zero-copy row's. Capping the recorded
/// speedup at 1.1x keeps the committed baseline machine-independent —
/// every healthy release run measures above it — while any real
/// striping regression collapses the ratio below 1 and fails both the
/// gate and the strictly-faster check.
pub const CH_SPEEDUP_CAP: f64 = 1.1;

/// One channel-sweep measurement: per-width walls and ledgers, plus
/// the bit-identity verdict against the single-channel run.
#[derive(Clone, Debug)]
pub struct ChannelsRow {
    /// Elements reduced.
    pub elems: usize,
    /// Ranks participating.
    pub ranks: usize,
    /// `(channels, fastest wall seconds)` per swept width, in
    /// [`CH_WIDTHS`] order. Per-run wall = slowest rank.
    pub walls: Vec<(usize, f64)>,
    /// `(channels, rank 0 wire bytes sent)` per swept width.
    pub wire_bytes: Vec<(usize, u64)>,
    /// The analytic per-rank ring volume every width must match.
    pub analytic_bytes: u64,
    /// Whether every width's rank-0 output was bit-identical to the
    /// single-channel run.
    pub bit_identical: bool,
}

impl ChannelsRow {
    /// The single-channel wall.
    pub fn single_s(&self) -> f64 {
        self.walls
            .iter()
            .find(|&&(c, _)| c == 1)
            .expect("width 1 is swept")
            .1
    }

    /// The best multi-channel width and its wall.
    pub fn best_multi(&self) -> (usize, f64) {
        self.walls
            .iter()
            .filter(|&&(c, _)| c > 1)
            .fold(
                (0, f64::INFINITY),
                |best, &(c, s)| {
                    if s < best.1 {
                        (c, s)
                    } else {
                        best
                    }
                },
            )
    }

    /// Single-channel over best-multi-channel speedup.
    pub fn speedup(&self) -> f64 {
        self.single_s() / self.best_multi().1
    }

    /// Violations of the striping contract (empty when multi-channel
    /// wins, the wire is byte-exact at every width, and every width is
    /// bit-identical to one channel).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let (best_c, best_s) = self.best_multi();
        if best_s >= self.single_s() {
            v.push(format!(
                "no multi-channel width beat 1 channel ({:.3e}s): best was \
                 {best_c} channels at {best_s:.3e}s",
                self.single_s()
            ));
        }
        for &(c, bytes) in &self.wire_bytes {
            if bytes != self.analytic_bytes {
                v.push(format!(
                    "{c}-channel AllReduce sent {bytes} bytes per rank, \
                     analytic volume is {}",
                    self.analytic_bytes
                ));
            }
        }
        if !self.bit_identical {
            v.push("a striped width diverged bitwise from the single-channel run".into());
        }
        v
    }
}

/// Runs the sweep: `iters` timed AllReduces per width, fastest kept,
/// per-run wall-clock = slowest rank; every run's rank-0 output is
/// bit-compared against the single-channel reference.
pub fn channel_ablation_bench(elems: usize, ranks: usize, iters: usize) -> ChannelsRow {
    let mut walls = Vec::new();
    let mut wire_bytes = Vec::new();
    let mut reference: Option<Vec<u32>> = None;
    let mut bit_identical = true;
    for &channels in &CH_WIDTHS {
        let mut wall = f64::INFINITY;
        let mut bytes = 0u64;
        for _ in 0..iters.max(1) {
            let (t, b, out_bits) = timed_run(elems, ranks, channels);
            if t < wall {
                wall = t;
                bytes = b;
            }
            match &reference {
                None => reference = Some(out_bits),
                Some(want) => bit_identical &= *want == out_bits,
            }
        }
        walls.push((channels, wall));
        wire_bytes.push((channels, bytes));
    }
    ChannelsRow {
        elems,
        ranks,
        walls,
        wire_bytes,
        analytic_bytes: ring_all_reduce_wire_bytes(elems, ranks, DType::F32),
        bit_identical,
    }
}

/// One timed striped AllReduce over fresh rank threads; returns the
/// slowest rank's wall-clock, rank 0's wire bytes, and rank 0's output
/// as raw bits.
fn timed_run(elems: usize, ranks: usize, channels: usize) -> (f64, u64, Vec<u32>) {
    let results = run_ranks(ranks, move |comm| {
        let group = Group {
            start: 0,
            size: ranks,
        };
        let rank = comm.rank() as f32;
        let input = Tensor::from_fn([elems], DType::F32, move |i| rank + (i % 97) as f32);
        comm.reset_ledger();
        let start = Instant::now();
        let out = ring_all_reduce_wire_striped(
            &comm,
            group,
            &input,
            ReduceOp::Sum,
            WireFormat::Dense,
            channels,
        );
        let elapsed = start.elapsed();
        // Spot-check the reduction so no width can cheat.
        let base: f32 = (0..ranks).map(|r| r as f32).sum();
        assert_eq!(out.get(1), base + ranks as f32);
        let bits = if comm.rank() == 0 {
            (0..elems).map(|i| out.get(i).to_bits()).collect()
        } else {
            Vec::new()
        };
        (elapsed, comm.ledger().bytes_sent, bits)
    });
    let wall = results
        .iter()
        .map(|(t, _, _)| *t)
        .max()
        .unwrap_or(Duration::ZERO);
    let (_, bytes, bits) = results.into_iter().next().expect("rank 0 ran");
    (wall.as_secs_f64(), bytes, bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small-size sweep: every width bit-identical and byte-exact.
    /// The strictly-faster wall gate is meaningful only at the
    /// acceptance size under `--release` (the trajectory row), so this
    /// test checks the correctness half of the contract.
    #[test]
    fn sweep_is_bit_identical_and_byte_exact() {
        let row = channel_ablation_bench(1 << 12, 4, 1);
        assert!(row.bit_identical);
        for &(c, bytes) in &row.wire_bytes {
            assert_eq!(bytes, row.analytic_bytes, "width {c}");
        }
        assert!(row.single_s() > 0.0 && row.best_multi().1 > 0.0);
    }
}
