//! RPC-over-network model.
//!
//! Models the Sun-RPC-over-UDP transport the paper's systems used, at the
//! level of detail the results depend on:
//!
//! * a shared Ethernet-like wire ([`Network`]) with per-message transfer
//!   time (size / bandwidth, serialized on the wire) plus fixed latency;
//! * server endpoints ([`Endpoint`]) with a FIFO thread pool, per-call CPU
//!   cost on the host CPU, and a duplicate-request cache (NFS retransmits
//!   are *not* idempotent without one — Juszczak 1989, cited in §2.5);
//! * client callers ([`Caller`]) with timeout + retransmission;
//! * per-procedure counters and call-rate series for the paper's tables
//!   and figures.
//!
//! Both directions use the same machinery: NFS/SNFS requests flow
//! client→server, and SNFS `callback` RPCs flow server→client over a
//! second endpoint registered at the client (paper §4.2.2: "we simply use
//! the existing NFS server code").

mod batch;
mod caller;
mod endpoint;
mod fault;
mod network;
mod shard;
mod transport;

pub use caller::{Caller, CallerParams, RpcError};
pub use endpoint::{Endpoint, EndpointParams};
pub use fault::{FaultCounts, FaultParams, FaultPlan, FaultStats, PartitionDir};
pub use network::{NetParams, Network};
pub use shard::ShardCaller;
pub use transport::{Compoundable, TransportParams, TransportStats};

use spritely_proto::{CallbackArg, CallbackReply, FileHandle, NfsProc, NfsReply, NfsRequest};

/// Anything with a measurable wire size (drives transfer-time modelling).
pub trait Wire {
    /// Approximate bytes on the wire.
    fn wire_size(&self) -> usize;
}

/// Anything with a procedure id (drives per-procedure accounting).
pub trait Proc {
    /// The procedure this message invokes.
    fn proc_id(&self) -> NfsProc;

    /// True for procedures whose handler may block on a consistency
    /// action (a per-file lock or a callback to another client). The
    /// endpoint admits such requests to at most N−1 of its N threads
    /// (paper §3.2): a callback-induced write-back must always find a
    /// free thread, or the very operation waiting on the callback
    /// starves the traffic that would unblock it.
    fn may_block(&self) -> bool {
        false
    }

    /// The file this request concerns, if any (for tracing).
    fn trace_fh(&self) -> Option<FileHandle> {
        None
    }

    /// `(offset, len)` of the affected byte range, if any (for tracing).
    fn trace_range(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Replies that can report success/failure to the trace (the trace
/// records an `ok` flag per reply; the wire format is unaffected).
pub trait ReplyStatus {
    /// True unless the reply signals an error.
    fn trace_ok(&self) -> bool;
}

impl Wire for NfsRequest {
    fn wire_size(&self) -> usize {
        NfsRequest::wire_size(self)
    }
}

impl Proc for NfsRequest {
    fn proc_id(&self) -> NfsProc {
        NfsRequest::proc_id(self)
    }

    fn trace_fh(&self) -> Option<FileHandle> {
        self.handle()
    }

    fn trace_range(&self) -> (u64, u64) {
        match self {
            NfsRequest::Read { offset, count, .. } => (*offset, u64::from(*count)),
            NfsRequest::Write { offset, data, .. } => (*offset, data.len() as u64),
            _ => (0, 0),
        }
    }

    /// Open and close serialize on the server's per-file lock, and an
    /// open can additionally wait out a callback round; both can stack
    /// behind a file whose write-back is still in flight. (The hybrid-NFS
    /// read/write bracket also takes the lock, but classifying all reads
    /// and writes as blocking would starve the very write-backs the
    /// reserved thread exists for.)
    fn may_block(&self) -> bool {
        matches!(self, NfsRequest::Open { .. } | NfsRequest::Close { .. })
    }
}

impl Wire for NfsReply {
    fn wire_size(&self) -> usize {
        NfsReply::wire_size(self)
    }
}

impl Wire for CallbackArg {
    fn wire_size(&self) -> usize {
        CallbackArg::wire_size(self)
    }
}

impl Proc for CallbackArg {
    fn proc_id(&self) -> NfsProc {
        NfsProc::Callback
    }

    fn trace_fh(&self) -> Option<FileHandle> {
        Some(self.fh)
    }
}

impl ReplyStatus for NfsReply {
    fn trace_ok(&self) -> bool {
        !matches!(self, NfsReply::Err(_))
    }
}

impl ReplyStatus for CallbackReply {
    fn trace_ok(&self) -> bool {
        self.ok
    }
}

impl Wire for CallbackReply {
    fn wire_size(&self) -> usize {
        CallbackReply::wire_size(self)
    }
}

impl Compoundable for NfsRequest {
    fn compound(parts: Vec<Self>) -> Self {
        NfsRequest::compound(parts)
    }
}

impl Compoundable for NfsReply {
    fn compound(parts: Vec<Self>) -> Self {
        NfsReply::compound(parts)
    }

    fn into_parts(self) -> Vec<Self> {
        NfsReply::into_parts(self)
    }
}

// Callback RPCs are one-at-a-time by design (the server waits each one
// out under the N−1 bound), so batching is never enabled on callback
// callers; these impls only satisfy the caller's trait bound.
impl Compoundable for CallbackArg {
    fn compound(mut parts: Vec<Self>) -> Self {
        assert_eq!(parts.len(), 1, "callback RPCs are never batched");
        parts.pop().expect("length checked")
    }
}

impl Compoundable for CallbackReply {
    fn compound(mut parts: Vec<Self>) -> Self {
        assert_eq!(parts.len(), 1, "callback RPCs are never batched");
        parts.pop().expect("length checked")
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;

    #[test]
    fn callback_reply_wire_size_comes_from_proto() {
        // Regression: this was a hardcoded 128 that would silently
        // diverge if the protocol's header size ever changed. It must
        // track the shared header constant like every other message.
        let rep = CallbackReply { ok: true };
        assert_eq!(Wire::wire_size(&rep), CallbackReply::wire_size(&rep));
        assert_eq!(
            Wire::wire_size(&rep),
            Wire::wire_size(&NfsReply::Ok),
            "a bodyless callback reply weighs the same as any bodyless reply"
        );
        let arg = CallbackArg {
            fh: FileHandle::new(1, 1, 0),
            writeback: false,
            invalidate: false,
            relinquish: false,
            recall: false,
            seq: 0,
        };
        assert_eq!(Wire::wire_size(&rep), Wire::wire_size(&arg));
    }
}
