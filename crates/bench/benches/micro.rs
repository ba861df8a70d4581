//! Criterion micro-benchmarks of the substrates: ring collectives with
//! real data movement, a tuned program step through the executor, GEMM,
//! the event engine, and plan costing.

use coconet_compress::WireFormat;
use coconet_core::{Autotuner, Binding, CommConfig, ExecPlan};
use coconet_models::optimizers::optimizer_program;
use coconet_models::{Hyper, Optimizer};
use coconet_runtime::{
    ring_all_reduce_wire_striped, run_program, Group, Inputs, RankComm, RunOptions,
};
use coconet_sim::{Simulator, TaskGraph};
use coconet_tensor::{CounterRng, DType, ReduceOp, Tensor};
use coconet_topology::MachineSpec;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::thread;

fn bench_ring_allreduce(c: &mut Criterion) {
    c.bench_function("runtime/ring_allreduce_4ranks_16k", |b| {
        b.iter(|| {
            let world = RankComm::world(4);
            let handles: Vec<_> = world
                .into_iter()
                .map(|comm| {
                    thread::spawn(move || {
                        let group = Group { start: 0, size: 4 };
                        let input = Tensor::full([16 * 1024], DType::F32, comm.rank() as f32);
                        ring_all_reduce_wire_striped(
                            &comm,
                            group,
                            &input,
                            ReduceOp::Sum,
                            WireFormat::Dense,
                            1,
                        )
                    })
                })
                .collect();
            for h in handles {
                black_box(h.join().unwrap());
            }
        })
    });
}

/// One Adam step of the schedule the autotuner picks at the paper's
/// 256-rank, N = 2^26 geometry, run on 2 rank threads at N = 2^16: the
/// executor's pointwise steps around a ReduceScatter and an AllGather.
fn bench_run_program_adam(c: &mut Criterion) {
    let (program, _) = optimizer_program(Optimizer::Adam, Hyper::default()).expect("adam");
    let sim = Simulator::new(MachineSpec::paper_testbed(), 256, 1);
    let evaluator = |plan: &ExecPlan| sim.time_plan(plan).total;
    let report = Autotuner::default()
        .tune(&program, &Binding::new(256).bind("N", 1 << 26), &evaluator)
        .expect("tunes");
    let best = report.best().expect("a winner");
    let n = 1 << 16;
    let rng = CounterRng::new(1);
    let grads = (0..2)
        .map(|r| Tensor::randn([n], DType::F16, rng, (r * n) as u64))
        .collect();
    let inputs = Inputs::new()
        .per_rank("g", grads)
        .global("p", Tensor::randn([n], DType::F32, rng, 1 << 40))
        .global("m", Tensor::zeros([n], DType::F32))
        .global("v", Tensor::full([n], DType::F32, 1e-3))
        .global("lr", Tensor::scalar(DType::F32, 0.05))
        .global("t", Tensor::scalar(DType::F32, 1.0));
    let binding = Binding::new(2).bind("N", n as u64);
    let opts = RunOptions::default().with_comm(best.config);
    c.bench_function("runtime/run_program_adam_2ranks_64k", |b| {
        b.iter(|| black_box(run_program(&best.program, &binding, &inputs, opts).expect("runs")))
    });
}

fn bench_matmul(c: &mut Criterion) {
    let a = Tensor::from_fn([128, 128], DType::F32, |i| (i % 7) as f32);
    let b = Tensor::from_fn([128, 128], DType::F32, |i| (i % 5) as f32);
    c.bench_function("tensor/matmul_128", |bch| {
        bch.iter(|| black_box(a.matmul(&b).unwrap()))
    });
}

fn bench_event_engine(c: &mut Criterion) {
    c.bench_function("sim/event_engine_pipeline_64x3", |b| {
        b.iter(|| {
            let mut g = TaskGraph::new();
            let r: Vec<_> = (0..3).map(|i| g.add_resource(format!("r{i}"))).collect();
            let mut prev: Vec<Option<coconet_sim::TaskId>> = vec![None; 3];
            for tile in 0..64 {
                for stage in 0..3 {
                    let mut deps = Vec::new();
                    if let Some(p) = prev[stage] {
                        deps.push(p);
                    }
                    if stage > 0 {
                        if let Some(p) = prev[stage - 1] {
                            deps.push(p);
                        }
                    }
                    prev[stage] =
                        Some(g.add_task(format!("t{tile}s{stage}"), r[stage], 1.0, &deps));
                }
            }
            black_box(g.schedule().makespan())
        })
    });
}

fn bench_plan_costing(c: &mut Criterion) {
    let sim = Simulator::new(MachineSpec::paper_testbed(), 256, 1);
    let plan = coconet_bench::experiments::demo_plan();
    c.bench_function("sim/time_plan", |b| {
        b.iter(|| black_box(sim.time_plan(&plan).total))
    });
    let _ = CommConfig::default();
}

criterion_group!(
    benches,
    bench_ring_allreduce,
    bench_run_program_adam,
    bench_matmul,
    bench_event_engine,
    bench_plan_costing
);
criterion_main!(benches);
