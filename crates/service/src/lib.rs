//! # oram-service
//!
//! Multi-client service front-end for the Shadow Block ORAM stack: N
//! independent client streams (open-loop Poisson and closed-loop
//! think-time generators over Zipfian/uniform/hot address mixes) feed
//! bounded per-client queues with admission control; a batch scheduler
//! (FCFS / round-robin / oldest-first) drains them in batches into an
//! [`oram_sim::ShardedOram`] (one shard is the plain engine), merging
//! same-address reads MSHR-style strictly *before* the ORAM issue point
//! so the bus-visible access stream — and therefore the obliviousness
//! argument — is unchanged.
//!
//! Everything is deterministic under the master seed: identical
//! configurations produce bit-identical results, which is what lets
//! `repro serve` keep a checked-in baseline under a regression guard.
//!
//! ## Quick example
//!
//! ```
//! use oram_service::{ServiceConfig, ShardedServiceSim};
//! use oram_sim::{ShardedOram, SystemConfig};
//!
//! let cfg = ServiceConfig::symmetric_open(2, 20, 2_000.0, 256, 7);
//! // One shard served inline: the plain engine behind the dispatch front.
//! let mut backend = ShardedOram::new(SystemConfig::small_test(), 1, 1).unwrap();
//! backend.prefill_working_set(256);
//! let mut sim = ShardedServiceSim::new(cfg, backend).unwrap();
//! sim.run();
//! let (result, _backend) = sim.finish();
//! result.validate().unwrap();
//! assert_eq!(result.completed() + result.rejected(), 40);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod report;
mod sim;

pub use config::{AddressMix, ArrivalModel, ClientSpec, SchedPolicy, ServiceConfig};
pub use report::{
    compare_service_reports, percentile, LatencySummary, SchedulerSummary, ServiceMeta,
    ServiceReport,
};
pub use sim::{ClientResult, ServiceResult, ShardedServiceSim, SERVE_CLASS_NAMES};
