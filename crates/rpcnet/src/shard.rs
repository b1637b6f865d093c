//! Layout-routed client-side fan-out over a sharded namespace
//! (DESIGN.md §18).
//!
//! A [`ShardCaller`] stands where a single [`Caller`] used to: the SNFS
//! and NFS clients issue every RPC through it, and it decides which
//! shard's endpoint the request goes to.
//!
//! * Handle-addressed operations route by the handle's `fsid` (shard `s`
//!   exports `fsid = s + 1`), with no map lookup at all.
//! * Root-level name operations consult the cached [`Layout`] and are
//!   rewritten to the owning shard's export root.
//! * `readdir` of the export root fans out to every shard and merges the
//!   entries; `keepalive`/`recover` broadcast and sum the shard epochs,
//!   so any single shard reboot changes the aggregate epoch a client
//!   watches.
//! * A `WrongShard` reply (stale cached layout) carries the fresh epoch
//!   plus override delta: the caller refreshes its map and re-routes.
//!   A `Busy` reply (name momentarily locked by a cross-shard
//!   transaction) is retried after a fixed backoff.
//!
//! One shard — the paper configuration — is the degenerate layout, not
//! a separate mode: the testbed builds every client over
//! [`ShardCaller::sharded`], and with a single inner caller every method
//! is a pure pass-through — no layout borrow, no rewrite, no extra
//! allocation per call, byte-identical scheduling.

use std::cell::RefCell;
use std::rc::Rc;

use spritely_proto::{
    ClientId, FileHandle, Layout, NfsReply, NfsRequest, NfsStatus, RecoveredFile,
};
use spritely_sim::{Sim, SimDuration};

use crate::caller::{Caller, RpcError};
use crate::transport::TransportParams;

/// Bound on consecutive `WrongShard` redirects for one logical call;
/// each redirect installs a strictly newer layout epoch, so hitting the
/// bound means the map is churning faster than the client can chase it.
const MAX_REDIRECTS: u32 = 8;

/// Backoff between retries of a `Busy` (name-locked) reply.
const BUSY_BACKOFF: SimDuration = SimDuration::from_millis(50);

/// Bound on `Busy` retries: 2000 × 50 ms = 100 s of simulated patience,
/// enough to ride out any scripted partition the chaos harness injects
/// while a cross-shard commit is in flight.
const MAX_BUSY_RETRIES: u32 = 2000;

struct Inner {
    callers: Vec<Caller>,
    /// Export root of each shard; `roots[0]` is the handle clients mount.
    roots: Vec<FileHandle>,
    layout: RefCell<Layout>,
    /// True when the servers run the cross-shard coordination path
    /// (SNFS). Plain NFS servers do not; the caller then fails
    /// cross-shard renames/links client-side with `XDev`.
    coordinates: bool,
    sim: Option<Sim>,
}

/// A shard-routing caller: one [`Caller`] per shard plus a cached
/// layout map. `From<Caller>` is the shorthand for the one-shard case,
/// used by hand-built rigs (unit tests, examples) that wire a client to
/// a lone endpoint without a testbed.
#[derive(Clone)]
pub struct ShardCaller {
    inner: Rc<Inner>,
}

impl From<Caller> for ShardCaller {
    fn from(caller: Caller) -> Self {
        ShardCaller {
            inner: Rc::new(Inner {
                callers: vec![caller],
                roots: Vec::new(),
                layout: RefCell::new(Layout::new(1)),
                coordinates: false,
                sim: None,
            }),
        }
    }
}

impl ShardCaller {
    /// Builds a sharded caller: `callers[s]` reaches shard `s`, whose
    /// export root is `roots[s]`. All callers must share one xid space
    /// (see [`Caller::share_xids_with`]).
    pub fn sharded(
        sim: &Sim,
        callers: Vec<Caller>,
        roots: Vec<FileHandle>,
        coordinates: bool,
    ) -> Self {
        assert_eq!(callers.len(), roots.len());
        assert!(!callers.is_empty());
        let n = callers.len() as u32;
        ShardCaller {
            inner: Rc::new(Inner {
                callers,
                roots,
                layout: RefCell::new(Layout::new(n)),
                coordinates,
                sim: Some(sim.clone()),
            }),
        }
    }

    /// The caller's client id.
    pub fn client_id(&self) -> ClientId {
        self.inner.callers[0].client_id()
    }

    /// The active transport configuration (shard 0's; the testbed
    /// configures every shard's caller identically).
    pub fn transport(&self) -> TransportParams {
        self.inner.callers[0].transport()
    }

    /// Flushes any batched background requests on every shard's caller.
    pub fn kick(&self) {
        for c in &self.inner.callers {
            c.kick();
        }
    }

    /// Issues one RPC (foreground, unparented trace span).
    pub async fn call(&self, req: NfsRequest) -> Result<NfsReply, RpcError> {
        self.call_ctx(0, req).await
    }

    /// Issues one RPC, parenting its trace events under `parent`.
    pub async fn call_ctx(&self, parent: u64, req: NfsRequest) -> Result<NfsReply, RpcError> {
        let out = self.call_flagged(parent, &req, false).await;
        out.map(|(rep, _)| rep)
    }

    /// The full form, as [`Caller::call_flagged`]: `bg` marks batchable
    /// write-behind / read-ahead traffic, and the flag returned with the
    /// reply says it arrived only after a retransmission. The request is
    /// lent, as to a [`Caller`]: only a routed one is copied, once, to be
    /// re-addressed.
    pub async fn call_flagged(
        &self,
        parent: u64,
        req: &NfsRequest,
        bg: bool,
    ) -> Result<(NfsReply, bool), RpcError> {
        let callers = &self.inner.callers;
        if callers.len() == 1 {
            // Paper configuration: pure pass-through.
            return callers[0].call_flagged(parent, req, bg).await;
        }
        match req {
            NfsRequest::Keepalive { .. } | NfsRequest::Recover { .. } => {
                self.broadcast(parent, req, bg).await
            }
            NfsRequest::Readdir { dir } if *dir == self.inner.roots[0] => {
                self.fan_readdir(parent, bg).await
            }
            _ => self.routed(parent, req.clone(), bg).await,
        }
    }

    /// Routes a request to the shard that owns it, chasing `WrongShard`
    /// redirects and backing off on `Busy` name locks.
    async fn routed(
        &self,
        parent: u64,
        mut req: NfsRequest,
        bg: bool,
    ) -> Result<(NfsReply, bool), RpcError> {
        let mut redirects = 0;
        let mut busy = 0;
        loop {
            let shard = match self.route(&mut req) {
                Ok(shard) => shard,
                Err(status) => return Ok((NfsReply::Err(status), false)),
            };
            let caller = &self.inner.callers[shard];
            match caller.call_flagged(parent, &req, bg).await? {
                (NfsReply::WrongShard { epoch, moves }, _) => {
                    self.inner.layout.borrow_mut().apply(epoch, &moves);
                    redirects += 1;
                    if redirects > MAX_REDIRECTS {
                        return Ok((NfsReply::Err(NfsStatus::Io), false));
                    }
                }
                (NfsReply::Err(NfsStatus::Busy), _) => {
                    busy += 1;
                    if busy > MAX_BUSY_RETRIES {
                        return Ok((NfsReply::Err(NfsStatus::Busy), false));
                    }
                    self.inner
                        .sim
                        .as_ref()
                        .expect("sharded callers carry a sim handle")
                        .sleep(BUSY_BACKOFF)
                        .await;
                }
                done => return Ok(done),
            }
        }
    }

    /// The shard whose store holds `fh`: shard `s` exports `fsid = s + 1`.
    /// Bounded, so a handle this caller never issued still names a shard
    /// that exists — and that shard answers `Stale`.
    fn shard_of(&self, fh: FileHandle) -> usize {
        (fh.fsid.saturating_sub(1) as usize).min(self.inner.callers.len() - 1)
    }

    /// Picks the owning shard and re-addresses root-directory handles to
    /// that shard's export root, in place. Any shard's export root counts
    /// as the root directory, so a request routed once routes again (after
    /// a redirect, under the newer layout) without a pristine copy of it
    /// being kept. Returns a status for operations the sharded namespace
    /// cannot express (deep cross-shard moves, or any cross-shard move
    /// when the servers do not coordinate).
    fn route(&self, req: &mut NfsRequest) -> Result<usize, NfsStatus> {
        let inner = &self.inner;
        let is_root = |fh: FileHandle| inner.roots.contains(&fh);
        let layout = inner.layout.borrow();
        let owner = |name: &str| layout.owner(name) as usize;
        // Where a rename or link lands, given the shard `s` its source
        // lives on.
        let land = |s: usize, to_dir: &mut FileHandle, to_name: &str| {
            if is_root(*to_dir) {
                if owner(to_name) != s && !inner.coordinates {
                    return Err(NfsStatus::XDev);
                }
                // Same owner, or the coordinating (SNFS) servers run the
                // cross-shard path: address the coordinator's root.
                *to_dir = inner.roots[s];
            } else if self.shard_of(*to_dir) != s {
                // A cross-shard move below the root would have to carry
                // file bodies between independent stores.
                return Err(NfsStatus::XDev);
            }
            Ok(s)
        };
        let shard = match req {
            NfsRequest::Rename {
                from_dir,
                from_name,
                to_dir,
                to_name,
            } => {
                let s = if is_root(*from_dir) {
                    let s = owner(from_name);
                    *from_dir = inner.roots[s];
                    s
                } else {
                    self.shard_of(*from_dir)
                };
                land(s, to_dir, to_name)?
            }
            NfsRequest::Link {
                from,
                to_dir,
                to_name,
            } => land(self.shard_of(*from), to_dir, to_name)?,
            other => match other.dir_name_mut() {
                // A root-level name lives on the shard the layout says.
                Some((dir, name)) if is_root(*dir) => {
                    let s = owner(name);
                    *dir = inner.roots[s];
                    s
                }
                // Everything else is handle-addressed: the fsid is the
                // shard.
                _ => other.handle().map_or(0, |fh| self.shard_of(fh)),
            },
        };
        Ok(shard)
    }

    /// `keepalive`/`recover` address every shard; the aggregate epoch a
    /// client tracks is the sum of the shard epochs, so any one shard's
    /// reboot perturbs it. `recover` reports each file to the shard
    /// whose store holds it.
    async fn broadcast(
        &self,
        parent: u64,
        req: &NfsRequest,
        bg: bool,
    ) -> Result<(NfsReply, bool), RpcError> {
        let n = self.inner.callers.len();
        let mut total = 0u64;
        for s in 0..n {
            let per_shard = match req {
                NfsRequest::Recover { client, files } => NfsRequest::Recover {
                    client: *client,
                    files: files
                        .iter()
                        .filter(|f| self.shard_of(f.fh) == s)
                        .copied()
                        .collect::<Vec<RecoveredFile>>(),
                },
                _ => req.clone(),
            };
            match self.inner.callers[s]
                .call_flagged(parent, &per_shard, bg)
                .await?
            {
                (NfsReply::Epoch(e), _) => total += e,
                other => return Ok(other),
            }
        }
        Ok((NfsReply::Epoch(total), false))
    }

    /// `readdir` of the export root: every shard lists its slice of the
    /// root, and the caller merges them sorted by name.
    async fn fan_readdir(&self, parent: u64, bg: bool) -> Result<(NfsReply, bool), RpcError> {
        let n = self.inner.callers.len();
        let mut entries = Vec::new();
        for s in 0..n {
            let req = NfsRequest::Readdir {
                dir: self.inner.roots[s],
            };
            match self.inner.callers[s].call_flagged(parent, &req, bg).await? {
                (NfsReply::Readdir { entries: e }, _) => entries.extend(e),
                other => return Ok(other),
            }
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Ok((NfsReply::Readdir { entries }, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caller::CallerParams;
    use crate::endpoint::{Endpoint, EndpointParams};
    use crate::network::{NetParams, Network};
    use spritely_metrics::OpCounter;
    use spritely_sim::Resource;

    /// Two shards whose handlers answer `Path("shard<s>")`.
    fn rig() -> (Sim, Network, ShardCaller) {
        let sim = Sim::new();
        let cpu = Resource::new(&sim, "cpu", 1);
        let net = Network::new(&sim, "net", NetParams::ethernet_10mbit());
        let callers = (0..2)
            .map(|s| {
                let handler =
                    Rc::new(move |_, _, _| async move { NfsReply::Path(format!("shard{s}")) });
                let ep = Endpoint::new(
                    &sim,
                    format!("nfsd{s}"),
                    cpu.clone(),
                    EndpointParams::default(),
                    OpCounter::new(),
                    handler,
                );
                Caller::new(
                    &sim,
                    net.clone(),
                    ep,
                    ClientId(1),
                    cpu.clone(),
                    CallerParams::default(),
                )
            })
            .collect();
        let roots = vec![FileHandle::new(1, 1, 0), FileHandle::new(2, 1, 0)];
        let caller = ShardCaller::sharded(&sim, callers, roots, true);
        (sim, net, caller)
    }

    #[test]
    fn background_calls_report_their_retransmission() {
        let (sim, net, caller) = rig();
        net.lose_next_reply(1, false);
        let fh = FileHandle::new(1, 7, 0);
        let out = sim.block_on(async move {
            let lost = caller
                .call_flagged(0, &NfsRequest::GetAttr { fh }, true)
                .await;
            let clean = caller
                .call_flagged(0, &NfsRequest::GetAttr { fh }, true)
                .await;
            (lost, clean)
        });
        assert_eq!(out.0, Ok((NfsReply::Path("shard0".into()), true)));
        assert_eq!(out.1, Ok((NfsReply::Path("shard0".into()), false)));
    }

    #[test]
    fn handles_of_no_shard_route_to_one_that_exists() {
        // Rename and link used to index `roots` with the raw `fsid - 1`.
        let (sim, _net, caller) = rig();
        let root = FileHandle::new(1, 1, 0);
        let alien = FileHandle::new(9, 7, 0);
        let out = sim.block_on(async move {
            let rename = NfsRequest::Rename {
                from_dir: alien,
                from_name: "a".into(),
                to_dir: root,
                to_name: "b".into(),
            };
            let link = NfsRequest::Link {
                from: alien,
                to_dir: root,
                to_name: "b".into(),
            };
            (caller.call(rename).await, caller.call(link).await)
        });
        assert_eq!(out.0, Ok(NfsReply::Path("shard1".into())));
        assert_eq!(out.1, Ok(NfsReply::Path("shard1".into())));
    }
}
