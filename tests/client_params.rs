//! Every client setting reaches its client. Each setting a testbed hands
//! to a protocol client, set off its default, changes what that client
//! does; the testbed's own switches change what it builds: no update
//! daemon without `update_enabled`, and grants only with `delegation` on.

use std::future::Future;

use spritely::harness::{DelegationParams, Protocol, RemoteClient, Testbed, TestbedParams};
use spritely::nfs::base::ClientBase;
use spritely::proto::{NfsProc, BLOCK_SIZE};
use spritely::sim::SimDuration;
use spritely::vfs::{OpenFlags, Proc};

/// The protocol client of client host 0, as the base both clients share.
fn base(tb: &Testbed) -> &ClientBase {
    match &tb.clients[0].remote {
        RemoteClient::Nfs(c) => c,
        RemoteClient::Snfs(c) => c,
        RemoteClient::None => panic!("a remote protocol"),
    }
}

/// Runs `script` on a process of client host 0 to its end.
fn drive<F: Future<Output = ()> + 'static>(tb: &Testbed, script: impl FnOnce(Proc) -> F) {
    let h = tb.sim.spawn(script(tb.proc()));
    tb.sim.run_until(h);
}

/// Writes `blocks` whole blocks to a new `/remote/f` and closes it.
async fn write_file(p: &Proc, blocks: usize) {
    let fd = p
        .open("/remote/f", OpenFlags::create_write())
        .await
        .unwrap();
    p.write(fd, &vec![7; blocks * BLOCK_SIZE]).await.unwrap();
    p.close(fd).await.unwrap();
}

/// The most data blocks the client held at once, over a 16-block write.
fn resident_blocks(tb: &Testbed) -> u64 {
    drive(tb, |p| async move { write_file(&p, 16).await });
    base(tb).cache().peak_resident() as u64
}

/// Name-cache hits over four `stat`s of `/remote/d/f`, two names each.
fn name_hits(tb: &Testbed) -> u64 {
    drive(tb, |p| async move {
        p.mkdir("/remote/d").await.unwrap();
        let fd = p.open("/remote/d/f", OpenFlags::create_write()).await;
        p.close(fd.unwrap()).await.unwrap();
        for _ in 0..4 {
            p.stat("/remote/d/f").await.unwrap();
        }
    });
    base(tb).names().hits()
}

/// `getattr` RPCs an NFS attribute check sends 10 s after the client
/// created the file.
fn attr_probes(tb: &Testbed) -> u64 {
    let RemoteClient::Nfs(c) = tb.clients[0].remote.clone() else {
        panic!("an NFS client");
    };
    let (root, sim, counter) = (tb.server_fs.root(), tb.sim.clone(), tb.counter.clone());
    let h = tb.sim.spawn(async move {
        let (fh, _) = c.create(root, "f").await.unwrap();
        sim.sleep(SimDuration::from_secs(10)).await;
        let before = counter.get(NfsProc::GetAttr);
        c.probe_attrs(fh, false).await.unwrap();
        counter.get(NfsProc::GetAttr) - before
    });
    tb.sim.run_until(h)
}

/// `read` RPCs behind a cold client's read of the first block of a
/// 16-block file, read-aheads included.
fn reads_for_one_block(tb: &Testbed) -> u64 {
    drive(tb, |p| async move { write_file(&p, 16).await });
    let remote = tb.clients[0].remote.clone();
    tb.sim
        .block_on(async move { remote.cold_boot().await.unwrap() });
    let before = tb.counter.get(NfsProc::Read);
    let sim = tb.sim.clone();
    drive(tb, |p| async move {
        let fd = p.open("/remote/f", OpenFlags::read()).await.unwrap();
        p.read(fd, BLOCK_SIZE as u32).await.unwrap();
        sim.sleep(SimDuration::from_secs(1)).await;
        p.close(fd).await.unwrap();
    });
    tb.counter.get(NfsProc::Read) - before
}

/// Dirty blocks left 35 s after a one-block write: the SNFS update
/// daemon has made one pass.
fn dirty_after_update_pass(tb: &Testbed) -> u64 {
    let sim = tb.sim.clone();
    drive(tb, |p| async move {
        write_file(&p, 1).await;
        sim.sleep(SimDuration::from_secs(35)).await;
    });
    let c = tb.clients[0].remote.snfs().expect("an SNFS client");
    c.dirty_blocks() as u64
}

/// Tasks the testbed's build spawned.
fn tasks_at_build(tb: &Testbed) -> u64 {
    tb.sim.stats().tasks_spawned
}

/// Delegations the server granted over one write of a new file.
fn grants(tb: &Testbed) -> u64 {
    drive(tb, |p| async move { write_file(&p, 1).await });
    let s = tb.snfs_server.as_ref().expect("an SNFS server");
    let d = s.delegation_stats();
    d.grants_read + d.grants_write
}

/// One setting over one protocol.
struct Row {
    /// The field set, as `TestbedParams` spells it.
    setting: &'static str,
    protocol: Protocol,
    set: fn(&mut TestbedParams),
    /// What the client (or testbed) shows of the setting.
    probe: fn(&Testbed) -> u64,
    /// `probe` over the default testbed, and over one with `set` applied.
    want: (u64, u64),
}

#[test]
fn every_client_setting_reaches_its_client() {
    use Protocol::{Nfs, Snfs};
    let rows = [
        Row {
            setting: "client.cache_blocks",
            protocol: Nfs,
            set: |p| p.client.cache_blocks = 4,
            probe: resident_blocks,
            want: (16, 4),
        },
        Row {
            setting: "client.cache_blocks",
            protocol: Snfs,
            set: |p| p.client.cache_blocks = 4,
            probe: resident_blocks,
            want: (16, 4),
        },
        Row {
            setting: "client.name_cache",
            protocol: Nfs,
            set: |p| p.client.name_cache = true,
            probe: name_hits,
            want: (0, 8),
        },
        Row {
            setting: "client.name_cache",
            protocol: Snfs,
            set: |p| p.client.name_cache = true,
            probe: name_hits,
            want: (0, 8),
        },
        Row {
            setting: "client.attr_min",
            protocol: Nfs,
            set: |p| p.client.attr_min = SimDuration::from_secs(60),
            probe: attr_probes,
            want: (1, 0),
        },
        // NFS reads the window through the shared base too; nothing in the
        // catalogue sets it there, so its one-block default is the
        // vintage client's.
        Row {
            setting: "client.read_ahead_window",
            protocol: Nfs,
            set: |p| p.client.read_ahead_window = 8,
            probe: reads_for_one_block,
            want: (2, 9),
        },
        Row {
            setting: "client.read_ahead_window",
            protocol: Snfs,
            set: |p| p.client.read_ahead_window = 8,
            probe: reads_for_one_block,
            want: (2, 9),
        },
        Row {
            setting: "client.write_delay",
            protocol: Snfs,
            set: |p| p.client.write_delay = SimDuration::from_secs(60),
            probe: dirty_after_update_pass,
            want: (0, 1),
        },
        // Exactly the update daemons go: one per file system (the server's
        // and the client host's local one) and one per SNFS client.
        Row {
            setting: "update_enabled",
            protocol: Nfs,
            set: |p| p.update_enabled = false,
            probe: tasks_at_build,
            want: (4, 4 - 2),
        },
        Row {
            setting: "update_enabled",
            protocol: Snfs,
            set: |p| p.update_enabled = false,
            probe: tasks_at_build,
            want: (6, 6 - 3),
        },
        Row {
            setting: "delegation",
            protocol: Snfs,
            set: |p| p.delegation = DelegationParams::pipelined(),
            probe: grants,
            want: (0, 1),
        },
    ];
    let mut wrong = Vec::new();
    for row in rows {
        let seen = |set: bool| {
            let mut params = TestbedParams::paper(row.protocol, false);
            if set {
                (row.set)(&mut params);
            }
            (row.probe)(&Testbed::build(params))
        };
        let got = (seen(false), seen(true));
        if got != row.want {
            let (setting, protocol, want) = (row.setting, row.protocol, row.want);
            wrong.push(format!(
                "{setting} over {protocol:?}: {got:?}, want {want:?}"
            ));
        }
    }
    assert!(wrong.is_empty(), "(default, set):\n{}", wrong.join("\n"));
}
