//! The stateless NFS server.
//!
//! A direct translation of RPC requests into [`LocalFs`] operations, with
//! the two properties the paper's analysis hinges on (§2.1):
//!
//! * **statelessness** — no per-client or per-open-file state is kept
//!   between calls; every request is self-contained;
//! * **synchronous writes** — a `write` reaches stable storage (the disk)
//!   before the reply leaves the server.
//!
//! SNFS `open`/`close` requests are rejected with `NFSERR_INVAL`, which is
//! exactly how a hybrid client discovers it is talking to a plain NFS
//! server (paper §6.1).

use std::future::Future;

use spritely_localfs::LocalFs;
use spritely_metrics::OpCounter;
use spritely_proto::{ClientId, NfsReply, NfsRequest, NfsStatus, ReadReply};
use spritely_rpcnet::{Endpoint, EndpointParams, Handler};
use spritely_sim::{Resource, Sim};

/// Builds an NFS server endpoint serving `fs`.
///
/// `cpu` is the server host's CPU; `counter` records every executed
/// procedure (the raw data behind Tables 5-2/5-4/5-6).
pub fn nfs_server(
    sim: &Sim,
    name: impl Into<String>,
    fs: LocalFs,
    cpu: Resource,
    params: EndpointParams,
    counter: OpCounter,
) -> Endpoint {
    Endpoint::new(sim, name, cpu, params, counter, Served(fs))
}

/// The stateless service: every request is [`handle`]d against one file
/// system, whoever sent it.
struct Served(LocalFs);

impl Handler for Served {
    fn serve(&self, _from: ClientId, _ctx: u64, req: NfsRequest) -> impl Future<Output = NfsReply> {
        handle(&self.0, req)
    }
}

/// Executes one NFS request against the local file system.
pub async fn handle(fs: &LocalFs, req: NfsRequest) -> NfsReply {
    match req {
        NfsRequest::Null => NfsReply::Ok,
        NfsRequest::GetAttr { fh } => match fs.getattr(fh) {
            Ok(attr) => NfsReply::Attr(attr),
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::SetAttr { fh, size } => match fs.setattr(fh, size).await {
            Ok(attr) => NfsReply::Attr(attr),
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::Lookup { dir, name } => match fs.lookup(dir, &name) {
            Ok((fh, attr)) => NfsReply::Handle { fh, attr },
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::Read { fh, offset, count } => match fs.read(fh, offset, count).await {
            Ok((data, eof, attr)) => NfsReply::Read(ReadReply { data, eof, attr }),
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::Write { fh, offset, data } => {
            // RFC 1094: the server must reach stable storage before the
            // reply. This is the write-through cost SNFS avoids.
            match fs.write_payload(fh, offset, &data, true).await {
                Ok(attr) => NfsReply::Attr(attr),
                Err(e) => NfsReply::Err(e),
            }
        }
        NfsRequest::Create { dir, name } => match fs.create(dir, &name).await {
            Ok((fh, attr)) => NfsReply::Handle { fh, attr },
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::Remove { dir, name } => match fs.remove(dir, &name).await {
            Ok(()) => NfsReply::Ok,
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::Rename {
            from_dir,
            from_name,
            to_dir,
            to_name,
        } => match fs.rename(from_dir, &from_name, to_dir, &to_name).await {
            Ok(()) => NfsReply::Ok,
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::Mkdir { dir, name } => match fs.mkdir(dir, &name).await {
            Ok((fh, attr)) => NfsReply::Handle { fh, attr },
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::Rmdir { dir, name } => match fs.rmdir(dir, &name).await {
            Ok(()) => NfsReply::Ok,
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::Readdir { dir } => match fs.readdir(dir) {
            Ok(entries) => NfsReply::Readdir { entries },
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::StatFs { fh } => match fs.getattr(fh) {
            Ok(attr) => NfsReply::Attr(attr),
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::Link {
            from,
            to_dir,
            ref to_name,
        } => match fs.link(from, to_dir, to_name).await {
            Ok(attr) => NfsReply::Attr(attr),
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::Symlink {
            dir,
            ref name,
            ref target,
        } => match fs.symlink(dir, name, target).await {
            Ok((fh, attr)) => NfsReply::Handle { fh, attr },
            Err(e) => NfsReply::Err(e),
        },
        NfsRequest::Readlink { fh } => match fs.readlink(fh) {
            Ok(target) => NfsReply::Path(target),
            Err(e) => NfsReply::Err(e),
        },
        // A stateless server has no open/close and no recovery protocol:
        // reject, so SNFS clients fall back to plain NFS (§6.1). A
        // compound is a transport artifact — the batching caller delivers
        // its inner calls individually, so one must never reach a handler.
        // A callback is for a client's callback service, not a server.
        NfsRequest::Open { .. }
        | NfsRequest::Close { .. }
        | NfsRequest::Keepalive { .. }
        | NfsRequest::Recover { .. }
        | NfsRequest::DelegReturn { .. }
        | NfsRequest::Compound { .. }
        | NfsRequest::TxPrepare { .. }
        | NfsRequest::TxCommit { .. }
        | NfsRequest::TxAbort { .. }
        | NfsRequest::Callback(_) => NfsReply::Err(NfsStatus::Inval),
    }
}
