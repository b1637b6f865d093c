//! RPC-over-network model.
//!
//! Models the Sun-RPC-over-UDP transport the paper's systems used, at the
//! level of detail the results depend on:
//!
//! * a shared Ethernet-like wire ([`Network`]) with per-message transfer
//!   time (size / bandwidth, serialized on the wire) plus fixed latency;
//! * server endpoints ([`Endpoint`]) with a FIFO thread pool, per-call CPU
//!   cost on the host CPU, and a duplicate-request cache for the
//!   non-idempotent calls only (NFS retransmits are *not* idempotent
//!   without one — Juszczak 1989, cited in §2.5);
//! * client callers ([`Caller`]) with timeout + retransmission;
//! * per-procedure counters and call-rate series for the paper's tables
//!   and figures.
//!
//! Both directions use the same machinery and the same messages,
//! [`NfsRequest`](spritely_proto::NfsRequest) and
//! [`NfsReply`](spritely_proto::NfsReply): NFS/SNFS requests flow
//! client→server, and SNFS `callback` requests flow server→client to a
//! second endpoint registered at the client (paper §4.2.2: "we simply use
//! the existing NFS server code"). What a message costs and how it is
//! traced is the message's own business, in `proto`.

mod batch;
mod caller;
mod endpoint;
mod fault;
mod network;
mod shard;
mod transport;

pub use caller::{Caller, CallerParams, RpcError};
pub use endpoint::{Endpoint, EndpointParams, Handler};
pub use fault::{FaultCounts, FaultParams, FaultPlan, FaultStats, PartitionDir};
pub use network::{NetParams, Network};
pub use shard::ShardCaller;
pub use transport::{TransportParams, TransportStats};
