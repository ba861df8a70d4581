//! Criterion micro-benchmarks of the substrates: ring collectives with
//! real data movement, GEMM, the event engine, and plan costing.

use coconet_compress::WireFormat;
use coconet_core::CommConfig;
use coconet_runtime::{ring_all_reduce_wire_striped, Group, RankComm};
use coconet_sim::{Simulator, TaskGraph};
use coconet_tensor::{DType, ReduceOp, Tensor};
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
    bench_matmul,
    bench_event_engine,
    bench_plan_costing
);
criterion_main!(benches);
