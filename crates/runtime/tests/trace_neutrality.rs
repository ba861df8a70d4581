//! Tracing must be a pure observer: running the streaming executor
//! with span recording enabled has to produce bit-identical outputs,
//! final parameters, and ledger counters (aggregate, per-class, and
//! switch-attributed) versus a run with tracing disabled — across
//! collective algorithms, wire formats, and schedules — and the same
//! completions: in the same order under the barrier, and as the same
//! set of jobs per rank under the priority schedule, whose completion
//! order follows message timing (two untraced runs already differ).
//! On top of neutrality, the emitted traces themselves must be well
//! formed: spans properly nested, per-thread timestamps monotone, and
//! every scheduler enqueue matched by a completion.

use coconet_compress::WireFormat;
use coconet_core::{CollAlgo, CommSched, XferSched};
use coconet_runtime::{run_ranks, BytesLedger, Group, StreamExecutor};
use coconet_tensor::{DType, Tensor};
use coconet_trace as trace;
use proptest::prelude::*;
use std::sync::Mutex;

/// The enable flag is process-global, so tests that toggle it must not
/// interleave — everything funnels through this gate.
static GATE: Mutex<()> = Mutex::new(());

/// One full observable outcome of a rank: final parameters, the
/// completion-id sequence, and the complete byte ledger.
type RankOutcome = (Vec<Tensor>, Vec<u64>, BytesLedger);

/// Runs the streaming training loop at the given configuration and
/// returns every rank's outcome.
fn run_loop(
    algo: CollAlgo,
    wire: WireFormat,
    sched: CommSched,
    channels: usize,
    xfer: XferSched,
) -> Vec<RankOutcome> {
    let k = 4usize;
    let layers = 3usize;
    let iters = 3u64;
    run_ranks(k, move |comm| {
        let rank = comm.rank();
        let params: Vec<Tensor> = (0..layers)
            .map(|l| Tensor::from_fn([19], DType::F32, move |i| (l * 31 + i) as f32 * 0.01))
            .collect();
        let mut exec = StreamExecutor::new(Group { start: 0, size: k }, params, sched, wire)
            .with_algo(algo)
            .with_channels(channels)
            .with_xfer(xfer);
        exec.run_iterations(
            &comm,
            iters,
            |_, _, _| {},
            move |l, iter, p| {
                Tensor::from_fn([19], DType::F32, |i| {
                    p.get(i) * 0.05
                        + l as f32
                        + iter as f32 * 0.1
                        + rank as f32 * 0.01
                        + i as f32 * 0.001
                })
            },
            |_, p, g| {
                let stepped = Tensor::from_fn([19], DType::F32, |i| p.get(i) - 0.1 * g.get(i));
                *p = stepped;
            },
        );
        let ids = exec.completion_events().iter().map(|c| c.id).collect();
        (exec.params(), ids, comm.ledger())
    })
}

/// The completion ids the schedule determines: the exact order under
/// the barrier; under the priority schedule, where the order follows
/// message timing, the set of completed jobs, sorted.
fn settled_ids(ids: &[u64], sched: CommSched) -> Vec<u64> {
    let mut settled = ids.to_vec();
    if sched == CommSched::Priority {
        settled.sort_unstable();
    }
    settled
}

fn assert_outcomes_identical(sched: CommSched, untraced: &[RankOutcome], traced: &[RankOutcome]) {
    assert_eq!(untraced.len(), traced.len());
    for (rank, ((pu, lu, bu), (pt, lt, bt))) in untraced.iter().zip(traced).enumerate() {
        assert_eq!(
            settled_ids(lu, sched),
            settled_ids(lt, sched),
            "rank {rank}: completions perturbed"
        );
        assert_eq!(bu, bt, "rank {rank}: ledger counters perturbed");
        assert_eq!(pu.len(), pt.len());
        for (l, (a, b)) in pu.iter().zip(pt).enumerate() {
            let (av, bv) = (a.to_f32_vec(), b.to_f32_vec());
            let bits_equal =
                av.len() == bv.len() && av.iter().zip(&bv).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(bits_equal, "rank {rank} layer {l}: parameters perturbed");
        }
    }
}

/// The configuration grid the neutrality property samples from.
const CONFIGS: &[(CollAlgo, WireFormat, CommSched, usize, XferSched)] = &[
    (
        CollAlgo::Ring,
        WireFormat::Dense,
        CommSched::Priority,
        1,
        XferSched::Fifo,
    ),
    (
        CollAlgo::Ring,
        WireFormat::Dense,
        CommSched::Barriered,
        1,
        XferSched::Fifo,
    ),
    (
        CollAlgo::Ring,
        WireFormat::Fp16,
        CommSched::Priority,
        1,
        XferSched::Aware,
    ),
    (
        CollAlgo::Ring,
        WireFormat::Dense,
        CommSched::Priority,
        4,
        XferSched::Fifo,
    ),
    (
        CollAlgo::Ring,
        WireFormat::Fp16,
        CommSched::Barriered,
        2,
        XferSched::Aware,
    ),
    (
        CollAlgo::Switch,
        WireFormat::Dense,
        CommSched::Priority,
        1,
        XferSched::Fifo,
    ),
    (
        CollAlgo::Switch,
        WireFormat::Dense,
        CommSched::Barriered,
        1,
        XferSched::Fifo,
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(7))]

    /// Bit-identical outputs, parameters, and ledgers (including
    /// per-class byte counters), and the same completions, with
    /// tracing enabled vs. disabled, across algorithms, wire formats,
    /// schedules, lane widths, and transfer disciplines.
    #[test]
    fn tracing_is_observationally_neutral(case in 0usize..CONFIGS.len()) {
        let (algo, wire, sched, channels, xfer) = CONFIGS[case];
        let _gate = GATE.lock().unwrap();
        trace::set_enabled(false);
        let untraced = run_loop(algo, wire, sched, channels, xfer);
        trace::clear();
        trace::set_enabled(true);
        let traced = run_loop(algo, wire, sched, channels, xfer);
        trace::set_enabled(false);
        trace::clear();
        assert_outcomes_identical(sched, &untraced, &traced);
    }
}

/// The FP16 wire's fused fold counts the codec bytes the separate
/// decode and encode of each hop did: a 4-rank, 64-element `F32` ring
/// AllReduce publishes 352 codec bytes per rank — the encoded step-0
/// stripe (32), three hops each decoding and encoding a 16-element
/// stripe (3 × 64), and the gathered stripes decoded into the output
/// (128). The counter is process-global, so it is read under the gate.
#[test]
fn fp16_ring_codec_bytes_count_each_hops_decode_and_encode() {
    use coconet_runtime::ring_all_reduce_wire_striped;
    use coconet_tensor::ReduceOp;
    use trace::metrics::Counter;

    let _gate = GATE.lock().unwrap();
    trace::clear();
    trace::set_enabled(true);
    let before = trace::metrics::counter(Counter::CodecBytes);
    let k = 4usize;
    run_ranks(k, move |comm| {
        let input = Tensor::from_fn([64], DType::F32, |i| (comm.rank() * 100 + i) as f32);
        let group = Group { start: 0, size: k };
        ring_all_reduce_wire_striped(&comm, group, &input, ReduceOp::Sum, WireFormat::Fp16, 1)
    });
    let codec = trace::metrics::counter(Counter::CodecBytes) - before;
    trace::set_enabled(false);
    trace::clear();
    assert_eq!(codec, 4 * 352);
}

/// A traced priority-schedule run produces a well-formed trace: spans
/// nested per thread, record timestamps monotone, every scheduler
/// enqueue matched by a completion.
#[test]
fn priority_run_emits_a_well_formed_trace() {
    let _gate = GATE.lock().unwrap();
    trace::clear();
    trace::set_enabled(true);
    let outcomes = run_loop(
        CollAlgo::Ring,
        WireFormat::Dense,
        CommSched::Priority,
        2,
        XferSched::Fifo,
    );
    trace::set_enabled(false);
    let events = trace::take_snapshot();
    trace::clear();

    assert!(!outcomes.is_empty());
    assert!(
        events.iter().any(|e| e.kind == trace::EventKind::Hop),
        "no hop events recorded"
    );
    assert!(
        events.iter().any(|e| e.kind == trace::EventKind::Compute),
        "no compute spans recorded"
    );
    trace::wellformed::check_well_formed(&events).expect("trace well-formed");
}

/// The structured completion events carry the jobs' ids in priority
/// order, monotone timestamps, and the enqueue classes.
#[test]
fn completion_events_record_priority_order() {
    use coconet_runtime::CommScheduler;
    use coconet_tensor::ReduceOp;

    let _gate = GATE.lock().unwrap();
    trace::set_enabled(false);
    let results = run_ranks(4, |comm| {
        let group = Group { start: 0, size: 4 };
        let a = Tensor::from_fn([13], DType::F32, |i| (comm.rank() + i) as f32);
        let b = Tensor::from_fn([13], DType::F32, |i| (comm.rank() * 3 + i) as f32);
        let mut sched = CommScheduler::new();
        sched.enqueue(10, 5, group, &a, ReduceOp::Sum, WireFormat::Dense);
        sched.enqueue(20, 0, group, &b, ReduceOp::Sum, WireFormat::Dense);
        sched.drain(&comm);
        sched
            .completion_events()
            .iter()
            .map(|c| (c.id, c.class, c.ts_ns))
            .collect::<Vec<(u64, u8, u64)>>()
    });
    for events in results {
        let ids: Vec<u64> = events.iter().map(|&(id, _, _)| id).collect();
        assert_eq!(ids, vec![20, 10], "priority order");
        assert_eq!(events[0].1, 0, "urgent job completed at class 0");
        assert_eq!(events[1].1, 5, "late job completed at class 5");
        assert!(events[0].2 <= events[1].2, "timestamps monotone");
    }
}
