//! # coconet-models
//!
//! The paper's workloads, expressed in the CoCoNet DSL with their
//! schedules, plus the memory and end-to-end models behind Tables 4-5:
//!
//! - [`optimizers`] — Adam and LAMB data-parallel updates (Figure 6)
//!   with the `AR-Opt` / `RS-Opt-AG` / `fuse(RS-Opt-AG)` schedules;
//! - [`model_parallel`] — Megatron-LM self-attention and MLP epilogues
//!   (Figure 3) with the Figure 11 schedules;
//! - [`pipeline`] — pipeline-parallel transformer boundaries (Figure 8)
//!   with the Figure 12 schedules;
//! - [`memory`] / [`training`] — the GPU memory model and iteration
//!   model behind Table 4, plus the *executable* data-parallel loop
//!   ([`training::train_data_parallel`]) that proves top-k gradient
//!   compression with error feedback converges like the dense wire;
//! - [`inference`] — the end-to-end inference models behind §6.2.2 and
//!   Table 5.

#![warn(missing_docs)]

pub mod configs;
pub mod inference;
pub mod memory;
pub mod model_parallel;
pub mod optimizers;
pub mod pipeline;
pub mod training;

pub use configs::ModelConfig;
pub use memory::{MemoryModel, Strategy};
pub use optimizers::{Hyper, Optimizer, OptimizerSchedule};
