//! `orinoco-server`: simulation-as-a-service for batched campaigns.
//!
//! PRs 1–8 left every sweep, verification campaign and ffeq run as a
//! one-shot binary: each query pays full process/setup cost and nothing
//! is shared between queries. This crate turns those flows into jobs
//! against one warm process:
//!
//! * **Dispatch** — jobs shard across worker threads through the
//!   strict-FIFO-per-queue mailbox dispatcher
//!   ([`orinoco_util::mailbox`]); each worker keeps a warm
//!   [`orinoco_core::Fleet`] so core construction amortises across jobs.
//! * **Dedup + cache** — completed results are cached under a canonical
//!   hash of the job spec ([`protocol::JobSpec::cache_key`]); concurrent
//!   identical submissions compute once and everyone gets byte-identical
//!   results ([`cache`]).
//! * **Transports** — an in-process [`Client`] (tests and embedded use
//!   need no network) and a length-prefixed, checksummed TCP wire
//!   protocol ([`net`], [`protocol`]).
//! * **Streaming** — long sims report incremental cycle/commit/stall-
//!   taxonomy progress between submission and completion.
//!
//! The ordering and determinism contracts — per-queue FIFO completion
//! under contention, byte-identical results cached or fresh, serial
//! one-shot equivalence — are spelled out in DESIGN.md §14 and enforced
//! by this crate's test battery.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod digest;
pub mod net;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, ResultCache};
pub use digest::CommitDigest;
pub use net::{TcpClient, TcpFront};
pub use protocol::{
    ChunkSpec, ConfigSpec, JobResult, JobSpec, Preset, Request, Response, SampleSpec,
    SampledResult, SimResult, SimSpec, WireError,
};
pub use server::{run_one_shot, Client, Server};
