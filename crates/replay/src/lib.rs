//! A discrete-time machine simulator for workload replay (§5.4).
//!
//! "As workload replay is still considered the best practice when it comes
//! to validating whether a new SKU can handle a specific workloads'
//! resource needs, we verify Doppler with this strategy." The paper replays
//! synthesized workloads on four real Azure machines (Table 6) and reads
//! the resulting CPU and latency traces (Figure 13). We cannot rent those
//! machines, so this crate simulates them with the standard ingredients:
//!
//! * **CPU** is work-conserving with carry-over backlog: demand beyond the
//!   vCore capacity queues and drains later, so a saturated machine shows a
//!   clipped vCore trace that hugs its capacity — exactly the SKU1 curve of
//!   Figure 13.
//! * **IO** clips at the SKU's IOPS cap, and latency follows an
//!   M/M/1-style inflation `base / (1 - utilization)` on top of the SKU's
//!   minimum achievable latency, with a paging penalty when memory demand
//!   exceeds the cap.
//!
//! The simulator's purpose is qualitative fidelity: under-provisioned SKUs
//! must show clipped compute and inflated latency; adequately provisioned
//! SKUs must track demand. That is all §5.4's validation consumes.

#![forbid(unsafe_code)]

pub mod machine;
pub mod report;

pub use machine::Machine;
pub use report::{replay, ReplayOutcome};
