//! Testbed construction: one or more server stacks (a sharded group
//! when more than one), one or more diskful clients, a shared Ethernet,
//! and a protocol choice per experiment.

use std::cell::RefCell;
use std::rc::Rc;

use spritely_blockdev::Disk;
use spritely_core::{
    DelegationParams, Remote, ServerIoParams, SnfsClient, SnfsServer, SnfsServerParams,
    WriteBehindParams,
};
use spritely_localfs::LocalFs;
use spritely_metrics::{GaugeSeries, LatencyStats, OpCounter, RateSeries};
use spritely_nfs::{nfs_server, ClientParams, NfsClient};
use spritely_proto::{ClientId, FileHandle, Layout, Result};
use spritely_rpcnet::{
    Caller, Endpoint, FaultParams, Network, ShardCaller, TransportParams, TransportStats,
};
use spritely_sim::{Resource, Sim};
use spritely_trace::Tracer;
use spritely_vfs::{FsBackend, Mount, Proc, Vfs};

use crate::config;

/// Which file service the experiment runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Everything on the client's local disk (the paper's "local" column).
    Local,
    /// Baseline NFS with the vintage invalidate-on-close client.
    Nfs,
    /// NFS with the close bug fixed (ablation).
    NfsFixed,
    /// Spritely NFS.
    Snfs,
    /// Spritely NFS with the §6.2 delayed-close extension (ablation).
    SnfsDelayedClose,
}

impl Protocol {
    /// Display label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Local => "local",
            Protocol::Nfs => "NFS",
            Protocol::NfsFixed => "NFS(fixed)",
            Protocol::Snfs => "SNFS",
            Protocol::SnfsDelayedClose => "SNFS(dc)",
        }
    }

    /// True for the two SNFS variants.
    pub fn is_snfs(self) -> bool {
        matches!(self, Protocol::Snfs | Protocol::SnfsDelayedClose)
    }
}

/// Namespace sharding across independent server instances
/// (DESIGN.md §18): root-level names hash to one of `n` servers, each
/// with its own disk, file system, CPU, state table, and endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardParams {
    /// Number of server shards. `n = 1` — the paper configuration — is
    /// the degenerate layout of the one builder: a single server stack,
    /// no layout map, no inter-shard callers, and pass-through client
    /// routing. The paper baselines pin it byte for byte.
    pub n: usize,
}

impl ShardParams {
    /// The paper's single-server configuration.
    pub fn paper() -> Self {
        ShardParams { n: 1 }
    }

    /// An `n`-shard namespace.
    pub fn sharded(n: usize) -> Self {
        assert!(n >= 1, "need at least one shard");
        ShardParams { n }
    }
}

impl Default for ShardParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Testbed knobs beyond the protocol itself.
#[derive(Debug, Clone, Copy)]
pub struct TestbedParams {
    /// The file service under test.
    pub protocol: Protocol,
    /// Mount `/tmp` and `/usr/tmp` on the remote server instead of the
    /// client's local disk.
    pub tmp_remote: bool,
    /// Spawn the 30 s update daemons (client local FS, server FS, SNFS
    /// client). `false` = the paper's "infinite write-delay" (§5.4).
    pub update_enabled: bool,
    /// Every client host's settings, which both protocol clients read:
    /// cache size, name cache, read-ahead, the NFS probe floor and the
    /// SNFS write delay.
    pub client: ClientParams,
    /// SNFS client write-behind pool (gathering + pipelining). The
    /// default is paper-faithful: one block per RPC, one in flight.
    pub write_behind: WriteBehindParams,
    /// SNFS server state-table limit and reclaim target.
    pub snfs_server: SnfsServerParams,
    /// Server I/O pipeline: disk-arm scheduling, server block cache and
    /// RPC admission width. The default ([`ServerIoParams::paper`])
    /// reproduces the measured 1989 server byte-for-byte;
    /// [`ServerIoParams::pipelined`] turns the pipeline on.
    pub server_io: ServerIoParams,
    /// Transport pipeline: compound-RPC batching, piggybacked post-op
    /// attributes, switched network, retransmission backoff. The default
    /// ([`TransportParams::paper`]) reproduces the paper's transport
    /// byte-for-byte; [`TransportParams::pipelined`] turns it all on.
    /// Applies to client callers only — callback RPCs always use the
    /// paper transport.
    pub transport: TransportParams,
    /// Record a structured event trace of the run (client ops, RPCs,
    /// handlers, state-table transitions, callbacks, flushes). Tracing
    /// never awaits or consumes randomness, so a traced run produces the
    /// same tables as an untraced one.
    pub trace: bool,
    /// Network fault injection (drop/duplicate/delay/reply-loss). The
    /// default is provably inert: no fault state is installed, no
    /// randomness is drawn, and the run is byte-identical to one built
    /// before the fault layer existed. Scripted partitions can still be
    /// added at runtime via [`Network::partition`].
    pub faults: FaultParams,
    /// Open delegations (DESIGN.md §17): RPC-free open/close fast path
    /// with recall-on-conflict. A server switch: clients serve whatever
    /// it grants. The default ([`DelegationParams::paper`]) is provably
    /// inert — no grants, no new RPCs, byte-identical artifacts.
    pub delegation: DelegationParams,
    /// Namespace sharding (DESIGN.md §18). The default
    /// ([`ShardParams::paper`], one shard) is the single-server topology
    /// of the paper: the same construction with one server stack.
    pub shards: ShardParams,
}

impl Default for TestbedParams {
    fn default() -> Self {
        TestbedParams {
            protocol: Protocol::Snfs,
            tmp_remote: false,
            update_enabled: true,
            client: ClientParams::default(),
            write_behind: WriteBehindParams::default(),
            snfs_server: SnfsServerParams::default(),
            server_io: ServerIoParams::paper(),
            transport: TransportParams::paper(),
            trace: false,
            faults: FaultParams::default(),
            delegation: DelegationParams::paper(),
            shards: ShardParams::paper(),
        }
    }
}

impl TestbedParams {
    /// The paper's stack over `protocol`, with `/tmp` and `/usr/tmp` on
    /// the client's disk or on the server.
    pub fn paper(protocol: Protocol, tmp_remote: bool) -> Self {
        TestbedParams {
            protocol,
            tmp_remote,
            ..TestbedParams::default()
        }
    }

    /// Every opt-in layer at once over SNFS, `/usr/tmp` on the server:
    /// the write-behind pool, the server I/O and transport pipelines,
    /// open delegations and `shards` servers. The stack `benchmark/`
    /// measures on.
    pub fn composed(shards: usize) -> Self {
        TestbedParams {
            write_behind: WriteBehindParams::pipelined(),
            server_io: ServerIoParams::pipelined(),
            transport: TransportParams::pipelined(),
            delegation: DelegationParams::pipelined(),
            shards: ShardParams::sharded(shards),
            ..TestbedParams::paper(Protocol::Snfs, true)
        }
    }

    /// Column label for tables, like `"SNFS tmp-rem"`.
    pub fn label(&self) -> String {
        if self.protocol == Protocol::Local {
            "local".to_string()
        } else if self.tmp_remote {
            format!("{} tmp-rem", self.protocol.label())
        } else {
            format!("{} tmp-loc", self.protocol.label())
        }
    }
}

/// The protocol client attached to one client host.
#[derive(Clone)]
pub enum RemoteClient {
    /// Local protocol: no remote client at all.
    None,
    /// Baseline NFS client.
    Nfs(NfsClient),
    /// SNFS client.
    Snfs(SnfsClient),
}

impl RemoteClient {
    /// The SNFS client, if that is what this host runs.
    pub fn snfs(&self) -> Option<&SnfsClient> {
        match self {
            RemoteClient::Snfs(c) => Some(c),
            _ => None,
        }
    }

    /// Reboots the protocol client: flushes what it owes the server and
    /// drops every cache, so the next run starts cold. A no-op for the
    /// local protocol.
    pub async fn cold_boot(&self) -> Result<()> {
        match self {
            RemoteClient::None => Ok(()),
            RemoteClient::Nfs(c) => c.cold_boot().await,
            RemoteClient::Snfs(c) => c.cold_boot().await,
        }
    }
}

/// One client host: CPU, local disk FS, its remote-protocol client, and
/// a process factory.
pub struct ClientHost {
    /// Host CPU.
    pub cpu: Resource,
    /// Local-disk file system.
    pub local_fs: LocalFs,
    /// Protocol client (if any).
    pub remote: RemoteClient,
    /// Mount table for processes on this host.
    pub vfs: Vfs,
}

impl ClientHost {
    /// Spawns a process on this host.
    pub fn proc(&self, sim: &Sim) -> Proc {
        Proc::new(
            sim,
            self.vfs.clone(),
            self.cpu.clone(),
            config::syscall_costs(),
        )
    }
}

/// One server stack: its own CPU, disk file system, RPC counter and —
/// per protocol — endpoint and SNFS server. The testbed builds
/// `params.shards.n` of these; every other server-side handle on
/// [`Testbed`] is a cheap clone of one of them.
#[derive(Clone)]
pub struct ServerHost {
    /// Server host CPU.
    pub cpu: Resource,
    /// The server's exported file system (`fsid` = index + 1).
    pub fs: LocalFs,
    /// The SNFS server object (SNFS protocols only).
    pub server: Option<SnfsServer>,
    /// The NFS/SNFS endpoint (absent for `Protocol::Local`).
    pub endpoint: Option<Endpoint>,
    /// Per-procedure counter on this server's endpoint.
    pub counter: OpCounter,
}

/// One shard of a sharded (`n ≥ 2`, hence SNFS) testbed: the matching
/// [`ServerHost`] with its server and endpoint known to exist. All
/// handles are cheap clones of reference-counted state.
#[derive(Clone)]
pub struct ShardHost {
    /// Shard index (0-based; this shard exports `fsid = shard + 1`).
    pub shard: u32,
    /// Shard host CPU.
    pub cpu: Resource,
    /// Shard's exported file system.
    pub fs: LocalFs,
    /// Shard's SNFS server.
    pub server: SnfsServer,
    /// Shard's RPC endpoint.
    pub endpoint: Endpoint,
    /// Per-procedure counter on this shard's endpoint.
    pub counter: OpCounter,
}

/// A complete experiment topology.
pub struct Testbed {
    /// The simulation.
    pub sim: Sim,
    /// Parameters it was built with.
    pub params: TestbedParams,
    /// Server 0's host CPU.
    pub server_cpu: Resource,
    /// Server 0's exported file system.
    pub server_fs: LocalFs,
    /// Server 0's SNFS server object (present for SNFS protocols).
    pub snfs_server: Option<SnfsServer>,
    /// Per-procedure counter on server 0's endpoint.
    pub counter: OpCounter,
    /// Call-rate series feeding the figures.
    pub rates: RateSeries,
    /// End-to-end RPC latency per procedure, across all clients.
    pub latency: LatencyStats,
    /// Server CPU utilization samples (filled by
    /// [`spawn_utilization_sampler`](Self::spawn_utilization_sampler)).
    pub util: GaugeSeries,
    /// The shared network.
    pub net: Network,
    /// Aggregated transport observability across every client caller
    /// (batch sizes, saved round trips). Empty on the paper transport.
    pub transport_stats: TransportStats,
    /// The run's event tracer (present when [`TestbedParams::trace`]).
    pub tracer: Option<Tracer>,
    /// Server 0's NFS/SNFS endpoint (absent for `Protocol::Local`).
    pub endpoint: Option<Endpoint>,
    /// The per-client callback-service endpoints (SNFS only): the
    /// server's callbacks — write-back, invalidate, delegation recall —
    /// land here, so their duplicate-request caches are where a
    /// retransmitted callback is replayed from.
    pub cb_endpoints: Vec<Endpoint>,
    /// Client hosts (at least one).
    pub clients: Vec<ClientHost>,
    /// Well-known directories on the server: (src, target, tmp).
    pub server_dirs: (FileHandle, FileHandle, FileHandle),
    /// Every server stack the builder produced, in shard order (length
    /// `params.shards.n`); entry 0 is what the `server_*` fields alias.
    pub servers: Vec<ServerHost>,
    /// The same stacks viewed as shards: empty when there is one server
    /// and nothing to route between, length `n ≥ 2` otherwise.
    pub shard_hosts: Vec<ShardHost>,
    /// The authoritative layout map shared by the shard servers
    /// (`None` with one server).
    pub layout: Option<Rc<RefCell<Layout>>>,
}

impl Testbed {
    /// Builds a testbed with one client host.
    pub fn build(params: TestbedParams) -> Self {
        Self::build_with_clients(params, 1)
    }

    /// Builds a testbed with `n_clients` client hosts over
    /// `params.shards.n` server stacks (DESIGN.md §18). One server is
    /// the degenerate layout: no layout map, no peer callers, and every
    /// client's [`ShardCaller`] a pass-through to its single caller.
    pub fn build_with_clients(params: TestbedParams, n_clients: usize) -> Self {
        assert!(n_clients >= 1, "need at least one client");
        let n_shards = params.shards.n;
        if n_shards > 1 {
            assert!(
                params.protocol.is_snfs(),
                "a sharded namespace requires an SNFS protocol (got {:?})",
                params.protocol
            );
            assert!(
                !params.client.name_cache,
                "name caching is not supported over a sharded namespace: \
                 a cached root binding would bypass the layout map"
            );
        }
        let sim = Sim::new();
        // The authoritative layout map exists only when there is more
        // than one shard to route between.
        let layout = (n_shards > 1).then(|| Rc::new(RefCell::new(Layout::new(n_shards as u32))));
        // ---- per-server disk, file system, CPU, counter ---------------------
        let mut servers: Vec<ServerHost> = Vec::new();
        for s in 0..n_shards {
            let disk = Disk::with_sched(
                &sim,
                format!("server{s}-disk"),
                config::disk_params(),
                params.server_io.sched,
            );
            let fsp = config::server_fs_params(&params.server_io);
            // Server s exports fsid s + 1; handle-addressed requests
            // route on nothing else.
            let fs = LocalFs::new(&sim, s as u32 + 1, disk, fsp);
            if params.update_enabled {
                fs.spawn_update_daemon();
            }
            servers.push(ServerHost {
                cpu: Resource::new(&sim, format!("server{s}-cpu"), 1),
                fs,
                server: None,
                endpoint: None,
                counter: OpCounter::new(),
            });
        }
        let rates = RateSeries::new(config::figure_bucket());
        let util = GaugeSeries::new();
        let latency = LatencyStats::new();
        let netp = if params.transport.switched {
            config::net_params().switched_full_duplex()
        } else {
            config::net_params()
        };
        let net = Network::new(&sim, "ether", netp);
        if params.faults.any() {
            net.set_faults(params.faults);
        }
        let transport_stats = TransportStats::new();
        let tracer = params.trace.then(|| {
            let t = Tracer::new(&sim);
            t.meta("protocol", params.protocol.label());
            t.meta("clients", n_clients.to_string());
            t.meta("disk_sched", params.server_io.sched.meta_value());
            if layout.is_some() {
                t.meta("shards", n_shards.to_string());
            }
            for host in &servers {
                host.fs.disk().set_tracer(t.clone());
                host.fs.set_tracer(t.clone());
            }
            net.set_tracer(t.clone());
            t
        });
        // Well-known directories, each created on the server that owns
        // its name under the initial layout.
        let roots: Vec<FileHandle> = servers.iter().map(|host| host.fs.root()).collect();
        let home = |name: &'static str| {
            let s = layout
                .as_ref()
                .map_or(0, |l| l.borrow().owner(name) as usize);
            (servers[s].fs.clone(), roots[s], name)
        };
        let homes = [home("src"), home("target"), home("tmp")];
        let server_dirs = sim.block_on(async move {
            let mut dirs = Vec::new();
            for (fs, root, name) in homes {
                let (fh, _) = fs.mkdir(root, name).await.expect("mkdir well-known dir");
                dirs.push(fh);
            }
            (dirs[0], dirs[1], dirs[2])
        });
        // ---- per-server protocol endpoint -----------------------------------
        let ep_params = config::endpoint_params(&params.server_io);
        for (s, host) in servers.iter_mut().enumerate() {
            let (fs, cpu, counter) = (host.fs.clone(), host.cpu.clone(), host.counter.clone());
            host.endpoint = match params.protocol {
                Protocol::Local => None,
                Protocol::Nfs | Protocol::NfsFixed => Some(nfs_server(
                    &sim,
                    format!("nfsd{s}"),
                    fs,
                    cpu,
                    ep_params,
                    counter,
                )),
                Protocol::Snfs | Protocol::SnfsDelayedClose => {
                    let (sp, dp) = (params.snfs_server, params.delegation);
                    let srv = SnfsServer::new(&sim, fs, ep_params, sp, dp);
                    if let Some(t) = &tracer {
                        srv.set_tracer(t.clone());
                    }
                    if let Some(l) = &layout {
                        srv.set_shard(s as u32, roots[s], Rc::clone(l));
                    }
                    let ep = srv.endpoint(format!("snfsd{s}"), cpu, counter);
                    host.server = Some(srv);
                    Some(ep)
                }
            };
            if let Some(ep) = &host.endpoint {
                ep.set_rate_series(rates.clone());
                if let Some(t) = &tracer {
                    ep.set_tracer(t.clone());
                }
            }
        }
        // ---- inter-shard coordination callers -------------------------------
        // Coordinator shard s reaches peer p through a dedicated caller
        // carrying ClientId(10_000 + s). Their fault link is host 200 + s,
        // so a chaos script can sever one shard's coordination traffic
        // without touching any client's. (No peers at one server.)
        let endpoints: Vec<_> = servers.iter().filter_map(|h| h.endpoint.clone()).collect();
        for (s, host) in servers.iter().enumerate() {
            let peers = (0..n_shards).filter(|&p| p != s);
            let targets = peers.clone().map(|p| (&endpoints[p], &host.cpu));
            let from = ClientId(10_000 + s as u32);
            for (p, c) in peers.zip(fan_out(&sim, &net, &tracer, from, targets)) {
                c.set_fault_link(200 + s as u32, false);
                let srv = host.server.as_ref().expect("shards are SNFS servers");
                srv.register_peer(p as u32, c);
            }
        }
        // ---- clients --------------------------------------------------------
        let mut clients = Vec::new();
        let mut cb_endpoints = Vec::new();
        for i in 0..n_clients {
            let cid = ClientId(i as u32 + 1);
            let cpu = Resource::new(&sim, format!("client{}-cpu", cid.0), 1);
            let disk = Disk::new(&sim, format!("client{}-disk", cid.0), config::disk_params());
            let local_fs = LocalFs::new(&sim, 100 + cid.0, disk, config::client_fs_params());
            if params.update_enabled {
                local_fs.spawn_update_daemon();
            }
            // Local tmp directory.
            let lroot = local_fs.root();
            let ltmp = {
                let fs = local_fs.clone();
                sim.block_on(async move {
                    let (t, _) = fs.mkdir(lroot, "tmp").await.expect("mkdir local tmp");
                    t
                })
            };
            // One caller per server, all in this client's xid space.
            let shard_caller = || {
                let targets = endpoints.iter().map(|ep| (ep, &cpu));
                let callers = fan_out(&sim, &net, &tracer, cid, targets);
                for c in &callers {
                    c.set_transport(params.transport);
                    c.set_transport_stats(transport_stats.clone());
                    c.set_latency_stats(latency.clone());
                }
                ShardCaller::sharded(&sim, callers, roots.clone(), params.protocol.is_snfs())
            };
            let remote = match params.protocol {
                Protocol::Local => RemoteClient::None,
                Protocol::Nfs | Protocol::NfsFixed => {
                    let bug = params.protocol == Protocol::Nfs;
                    RemoteClient::Nfs(NfsClient::new(&sim, shard_caller(), params.client, bug))
                }
                Protocol::Snfs | Protocol::SnfsDelayedClose => {
                    let client = SnfsClient::new(
                        &sim,
                        shard_caller(),
                        params.client,
                        params.write_behind,
                        params.protocol == Protocol::SnfsDelayedClose,
                    );
                    if let Some(t) = &tracer {
                        client.set_tracer(t.clone());
                    }
                    if params.update_enabled {
                        client.spawn_update_daemon();
                    }
                    client.spawn_keepalive_daemon();
                    // One callback endpoint per client, registered with
                    // every server through that server's own caller.
                    let cb_ep = client.callback_endpoint(
                        format!("cbsrv{}", cid.0),
                        cpu.clone(),
                        config::callback_endpoint_params(),
                        servers[0].counter.clone(),
                    );
                    if let Some(t) = &tracer {
                        cb_ep.set_tracer(t.clone());
                    }
                    let targets = servers.iter().map(|host| (&cb_ep, &host.cpu));
                    let cb_callers = fan_out(&sim, &net, &tracer, ClientId(0), targets);
                    for (host, cb_caller) in servers.iter().zip(cb_callers) {
                        // Callback callers carry ClientId(0) (they originate
                        // at a server); their fault link is the *client*
                        // host in the server→client direction, so a
                        // partition of the client host severs both its
                        // request and callback legs.
                        cb_caller.set_fault_link(cid.0, true);
                        let srv = host.server.as_ref().expect("SNFS server exists");
                        srv.register_client(cid, cb_caller);
                    }
                    cb_endpoints.push(cb_ep);
                    RemoteClient::Snfs(client)
                }
            };
            // ---- mounts ----
            let local = FsBackend::Local(local_fs.clone());
            let (export, export_root) = match &remote {
                // Local protocol: "/remote" is just the local disk too.
                RemoteClient::None => (local.clone(), lroot),
                RemoteClient::Nfs(c) => (FsBackend::Remote(Remote::Nfs(c.clone())), roots[0]),
                RemoteClient::Snfs(c) => (FsBackend::Remote(Remote::Snfs(c.clone())), roots[0]),
            };
            let tmp = if params.tmp_remote && params.protocol != Protocol::Local {
                Mount::new("/usr/tmp", export.clone(), server_dirs.2)
            } else {
                Mount::new("/usr/tmp", local.clone(), ltmp)
            };
            let remote_mount = Mount::new("/remote", export, export_root);
            let vfs = Vfs::new(vec![Mount::new("/", local, lroot), remote_mount, tmp]);
            clients.push(ClientHost {
                cpu,
                local_fs,
                remote,
                vfs,
            });
        }
        let shards = servers.iter().enumerate().filter_map(|(s, host)| {
            layout.as_ref()?;
            Some(ShardHost {
                shard: s as u32,
                cpu: host.cpu.clone(),
                fs: host.fs.clone(),
                server: host.server.clone()?,
                endpoint: host.endpoint.clone()?,
                counter: host.counter.clone(),
            })
        });
        Testbed {
            sim,
            params,
            server_cpu: servers[0].cpu.clone(),
            server_fs: servers[0].fs.clone(),
            snfs_server: servers[0].server.clone(),
            counter: servers[0].counter.clone(),
            rates,
            latency,
            util,
            net,
            transport_stats,
            tracer,
            endpoint: servers[0].endpoint.clone(),
            cb_endpoints,
            clients,
            server_dirs,
            shard_hosts: shards.collect(),
            servers,
            layout,
        }
    }

    /// A process on the first client host.
    pub fn proc(&self) -> Proc {
        self.clients[0].proc(&self.sim)
    }

    /// Finishes the trace (if tracing was on) and runs the invariant
    /// checker over it. Runners call this at the end of a run.
    pub fn finish_trace(&self) -> Option<crate::snapshot::TraceReport> {
        self.tracer
            .as_ref()
            .map(|t| crate::snapshot::TraceReport::from_events(t.finish()))
    }

    /// Spawns a sampler recording server CPU utilization once per figure
    /// bucket.
    pub fn spawn_utilization_sampler(&self) {
        let sim = self.sim.clone();
        let cpu = self.server_cpu.clone();
        let util = self.util.clone();
        let bucket = config::figure_bucket();
        self.sim.spawn(async move {
            let mut last = (sim.now(), cpu.busy_permit_micros());
            loop {
                sim.sleep(bucket).await;
                util.push(sim.now(), cpu.utilization_since(last.0, last.1));
                last = (sim.now(), cpu.busy_permit_micros());
            }
        });
    }
}

/// Ends the simulation with the testbed. Two reference cycles would
/// otherwise keep every testbed alive for the life of the process: the
/// daemon tasks (update, keepalive, samplers) never finish and hold
/// clones of everything they serve, the `Sim` included; and an SNFS
/// server's callback and peer callers reach clients and peers that hold
/// callers back to it. Handles cloned out beforehand (`Tracer`,
/// counters, `LocalFs`) stay readable. Skipped while unwinding: a second
/// panic from a task's destructor would abort and hide the first.
impl Drop for Testbed {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        self.sim.shutdown();
        for server in self.servers.iter().filter_map(|h| h.server.as_ref()) {
            server.disconnect();
        }
    }
}

/// Builds one traced caller per `(endpoint, calling CPU)` target, all
/// speaking as `from` and sharing one xid space — so retransmit detection
/// and the targets' duplicate-request caches see one coherent
/// `(client, xid)` stream, and no two callers ever reuse an xid against
/// the same cache.
fn fan_out<'a>(
    sim: &Sim,
    net: &Network,
    tracer: &Option<Tracer>,
    from: ClientId,
    targets: impl Iterator<Item = (&'a Endpoint, &'a Resource)>,
) -> Vec<Caller> {
    let mut callers: Vec<Caller> = Vec::with_capacity(targets.size_hint().0);
    for (endpoint, cpu) in targets {
        let mut c = Caller::new(
            sim,
            net.clone(),
            endpoint.clone(),
            from,
            cpu.clone(),
            config::caller_params(),
        );
        if let Some(t) = tracer {
            c.set_tracer(t.clone());
        }
        if let Some(first) = callers.first() {
            c.share_xids_with(first);
        }
        callers.push(c);
    }
    callers
}
