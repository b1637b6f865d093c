//! Property-based tests for the SNFS server state table: arbitrary
//! interleavings of opens, closes, crashes and removals must preserve the
//! consistency invariants Table 4-1 encodes.

use proptest::prelude::*;
use spritely_core::{FileState, StateTable};
use spritely_proto::{ClientId, FileHandle, FileVersion};
use spritely_trace::transitions::{open_row, Role, Row};
use spritely_trace::Cause;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Open { file: u8, client: u8, write: bool },
    Close { file: u8, client: u8, write: bool },
    Crash { client: u8 },
    Remove { file: u8 },
    WritebackDone { file: u8, client: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..4, 0u8..3, any::<bool>())
            .prop_map(|(file, client, write)| Op::Open { file, client, write }),
        4 => (0u8..4, 0u8..3, any::<bool>())
            .prop_map(|(file, client, write)| Op::Close { file, client, write }),
        1 => (0u8..3).prop_map(|client| Op::Crash { client }),
        1 => (0u8..4).prop_map(|file| Op::Remove { file }),
        1 => (0u8..4, 0u8..3)
            .prop_map(|(file, client)| Op::WritebackDone { file, client }),
    ]
}

fn fh(n: u8) -> FileHandle {
    FileHandle::new(1, u64::from(n) + 10, 0)
}

/// One file as the model sees it.
#[derive(Default)]
struct FileModel {
    /// `(client, readers, writers)` for every host with the file open, in
    /// the order the table lists them: arrival, a host leaving when its
    /// last open closes.
    hosts: Vec<(u8, u32, u32)>,
    /// The host that may hold dirty blocks: a caching writer that closed
    /// its last write open, until its write-back is confirmed.
    dirty: Option<u8>,
}

/// A minimal reference model: per file, the opens the table *should*
/// believe in, given that we only issue closes the model considers open
/// (mirroring real clients, which never close what they did not open),
/// and the dirty holder.
#[derive(Default)]
struct Model {
    files: [FileModel; 4],
}

impl Model {
    fn counts(&mut self, file: u8, client: u8) -> Option<&mut (u8, u32, u32)> {
        let hosts = &mut self.files[usize::from(file)].hosts;
        hosts.iter_mut().find(|h| h.0 == client)
    }

    fn open(&mut self, file: u8, client: u8, write: bool) {
        if self.counts(file, client).is_none() {
            self.files[usize::from(file)].hosts.push((client, 0, 0));
        }
        let h = self.counts(file, client).expect("pushed above");
        if write {
            h.2 += 1;
        } else {
            h.1 += 1;
        }
    }

    fn can_close(&mut self, file: u8, client: u8, write: bool) -> bool {
        self.counts(file, client)
            .is_some_and(|h| if write { h.2 > 0 } else { h.1 > 0 })
    }

    /// Closes one open; `shared` says the file was WRITE_SHARED, whose
    /// writers wrote through and leave nothing dirty.
    fn close(&mut self, file: u8, client: u8, write: bool, shared: bool) {
        let h = self.counts(file, client).expect("closes only what is open");
        if write {
            h.2 -= 1;
        } else {
            h.1 -= 1;
        }
        let (left, writing) = (h.1 + h.2, h.2);
        let f = &mut self.files[usize::from(file)];
        if write && !shared && writing == 0 {
            f.dirty = Some(client);
        }
        if left == 0 {
            f.hosts.retain(|h| h.0 != client);
        }
    }

    fn crash(&mut self, client: u8) {
        for f in &mut self.files {
            f.hosts.retain(|h| h.0 != client);
            if f.dirty == Some(client) {
                f.dirty = None;
            }
        }
    }

    fn writeback_done(&mut self, file: u8, client: u8) {
        let f = &mut self.files[usize::from(file)];
        if f.dirty == Some(client) {
            f.dirty = None;
        }
    }

    fn role(&self, file: u8, client: u8) -> Role {
        let f = &self.files[usize::from(file)];
        Role::of(
            f.hosts.iter().any(|h| h.0 == client),
            f.dirty == Some(client),
        )
    }

    /// The callbacks `row` asks for when `client` opens `file`, as
    /// `(target, writeback, invalidate)`: the hosts with an open in order,
    /// then a dirty holder without one; never the opener.
    fn callbacks(&self, file: u8, client: u8, row: &Row) -> Vec<(u32, bool, bool)> {
        let f = &self.files[usize::from(file)];
        let holder = f.dirty.filter(|&d| self.role(file, d) == Role::Holder);
        let targets = f.hosts.iter().map(|h| h.0).chain(holder);
        targets
            .filter(|&t| t != client)
            .map(|t| (t, row.ask(self.role(file, t))))
            .filter(|(_, a)| a.writeback || a.invalidate)
            .map(|(t, a)| (u32::from(t), a.writeback, a.invalidate))
            .collect()
    }

    fn writers(&self, file: u8) -> u32 {
        self.files[usize::from(file)]
            .hosts
            .iter()
            .map(|h| h.2)
            .sum()
    }

    fn client_hosts(&self, file: u8) -> usize {
        self.files[usize::from(file)].hosts.len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_state_is_consistent_with_the_open_multiset(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let mut table = StateTable::new(1000);
        let mut model = Model::default();
        let mut last_version: HashMap<u8, FileVersion> = HashMap::new();
        for op in ops {
            match op {
                Op::Open { file, client, write } => {
                    // The row the model's own role classification selects.
                    let from = table.state_of(fh(file));
                    let cause = if write { Cause::OpenWrite } else { Cause::OpenRead };
                    let row = open_row(from, cause, model.role(file, client));
                    let want = model.callbacks(file, client, row);
                    let out = table.open(fh(file), ClientId(u32::from(client)), write);
                    model.open(file, client, write);
                    prop_assert_eq!(table.state_of(fh(file)), row.to, "{:?}", row);
                    let got: Vec<_> = out
                        .callbacks
                        .iter()
                        .map(|cb| (cb.target.0, cb.writeback, cb.invalidate))
                        .collect();
                    prop_assert_eq!(got, want, "{:?}", row);
                    prop_assert_eq!(out.cache_enabled, !row.uncaches());
                    // Version monotonicity: write opens strictly increase,
                    // read opens never decrease.
                    if let Some(&prev) = last_version.get(&file) {
                        if write {
                            prop_assert!(out.version > prev, "write open bumps version");
                        } else {
                            prop_assert!(out.version >= prev);
                        }
                    }
                    last_version.insert(file, out.version);
                    // A write-shared file is never cachable.
                    if model.writers(file) > 0 && model.client_hosts(file) > 1 {
                        prop_assert!(!out.cache_enabled,
                            "multiple hosts with a writer must not cache");
                    }
                }
                Op::Close { file, client, write } => {
                    // Clients only close what they opened.
                    if model.can_close(file, client, write) {
                        let shared = table.state_of(fh(file)) == FileState::WriteShared;
                        table.close(fh(file), ClientId(u32::from(client)), write);
                        model.close(file, client, write, shared);
                    }
                }
                Op::Crash { client } => {
                    table.client_crashed(ClientId(u32::from(client)));
                    model.crash(client);
                }
                Op::Remove { file } => {
                    table.file_removed(fh(file));
                    model.files[usize::from(file)] = FileModel::default();
                    last_version.remove(&file);
                }
                Op::WritebackDone { file, client } => {
                    table.writeback_done(fh(file), ClientId(u32::from(client)));
                    model.writeback_done(file, client);
                }
            }
            // Global invariants after every step.
            for file in 0..4u8 {
                let hosts = model.client_hosts(file);
                let writers = model.writers(file);
                let state = table.state_of(fh(file));
                // Host count must agree with the table's client list, and
                // the dirty holder with the table's.
                let table_hosts = table.clients_of(fh(file)).len();
                prop_assert_eq!(table_hosts, hosts, "file {} host count", file);
                let dirty = model.files[usize::from(file)].dirty.map(|c| ClientId(u32::from(c)));
                prop_assert_eq!(table.dirty_holder(fh(file)), dirty, "file {} holder", file);
                // State classification vs. the open multiset.
                match state {
                    FileState::Closed | FileState::ClosedDirty => {
                        prop_assert_eq!(hosts, 0)
                    }
                    FileState::OneReader | FileState::OneRdrDirty => {
                        prop_assert_eq!(hosts, 1);
                        prop_assert_eq!(writers, 0);
                    }
                    FileState::OneWriter => {
                        prop_assert_eq!(hosts, 1);
                        prop_assert!(writers > 0);
                    }
                    FileState::MultReaders => {
                        prop_assert!(hosts >= 2);
                        prop_assert_eq!(writers, 0);
                    }
                    FileState::WriteShared => {
                        prop_assert!(hosts >= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn reclaim_never_loses_open_files(
        n_files in 1usize..40,
        limit in 2usize..10,
    ) {
        let mut table = StateTable::new(limit.max(2));
        // Open half the files and keep them open; open+close the rest.
        let mut kept = Vec::new();
        for i in 0..n_files {
            let f = fh(i as u8);
            table.open(f, ClientId(1), i % 3 == 0);
            if i % 2 == 0 {
                kept.push((f, i % 3 == 0));
            } else {
                table.close(f, ClientId(1), i % 3 == 0);
            }
        }
        let _victims = table.reclaim(limit / 2);
        // Every still-open file must still be tracked, in its mode.
        for (f, write) in kept {
            let want = if write { FileState::OneWriter } else { FileState::OneReader };
            prop_assert_eq!(table.state_of(f), want, "open file reclaimed or moved");
        }
    }

    #[test]
    fn versions_are_never_reused_across_files(
        writes in proptest::collection::vec((0u8..6, any::<bool>()), 1..60)
    ) {
        let mut table = StateTable::new(1000);
        let mut seen = std::collections::HashSet::new();
        let mut current: HashMap<u8, FileVersion> = HashMap::new();
        for (file, write) in writes {
            let out = table.open(fh(file), ClientId(1), write);
            table.close(fh(file), ClientId(1), write);
            if write {
                // Freshly issued version must be globally unique.
                prop_assert!(seen.insert(out.version), "version reuse");
            } else if let Some(&v) = current.get(&file) {
                prop_assert_eq!(out.version, v);
            } else {
                // First contact: unique issue as well.
                prop_assert!(seen.insert(out.version), "version reuse");
            }
            current.insert(file, out.version);
        }
    }
}

/// One step of the bounded enumeration: a client's open or close in a
/// mode, a confirmed write-back, or the client declared dead.
#[derive(Debug, Clone, Copy)]
enum Step {
    Open(u32, bool),
    Close(u32, bool),
    WritebackDone(u32),
    Crash(u32),
}

/// FNV-1a, 64 bits.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Replays `prefix` on a fresh table, applies `step` and feeds what it
/// did into `hash`: `(from, cause, to, callbacks in order, cache_enabled,
/// inconsistent, version moved)`.
fn hash_step(prefix: &[Step], step: Step, hash: &mut u64) {
    let f = fh(0);
    let mut t = StateTable::new(1000);
    let apply = |t: &mut StateTable, s: Step| match s {
        Step::Open(c, w) => Some(t.open(f, ClientId(c), w)),
        Step::Close(c, w) => {
            t.close(f, ClientId(c), w);
            None
        }
        Step::WritebackDone(c) => {
            t.writeback_done(f, ClientId(c));
            None
        }
        Step::Crash(c) => {
            t.client_crashed(ClientId(c));
            None
        }
    };
    for &s in prefix {
        apply(&mut t, s);
    }
    let (from, version) = (t.state_of(f), t.version_of(f));
    let cause = match step {
        Step::Open(_, false) => Cause::OpenRead,
        Step::Open(_, true) => Cause::OpenWrite,
        Step::Close(_, false) => Cause::CloseRead,
        Step::Close(_, true) => Cause::CloseWrite,
        Step::WritebackDone(_) => Cause::WritebackDone,
        Step::Crash(_) => Cause::ClientCrash,
    };
    let out = apply(&mut t, step);
    for name in [from.name(), cause.name(), t.state_of(f).name()] {
        fnv(hash, name.as_bytes());
        fnv(hash, b"|");
    }
    if let Some(out) = out {
        for cb in &out.callbacks {
            fnv(hash, &cb.target.0.to_le_bytes());
            fnv(hash, &[u8::from(cb.writeback), u8::from(cb.invalidate)]);
        }
        fnv(
            hash,
            &[u8::from(out.cache_enabled), u8::from(out.inconsistent)],
        );
    }
    fnv(hash, &[u8::from(t.version_of(f) != version), b';']);
}

/// True if `prefix` opened `(c, w)` more often than it closed it.
fn still_open(prefix: &[Step], c: u32, w: bool) -> bool {
    let mut n = 0;
    for &p in prefix {
        match p {
            Step::Open(pc, pw) if (pc, pw) == (c, w) => n += 1,
            Step::Close(pc, pw) if (pc, pw) == (c, w) => n -= 1,
            _ => {}
        }
    }
    n > 0
}

/// Depth-first over every sequence of up to `depth` more steps after
/// `prefix`; a close is only of an open the sequence made and has not
/// closed (a crash does not cancel it: the server declares a client dead
/// without the client knowing). Returns the number of steps hashed.
fn enumerate(prefix: &mut Vec<Step>, depth: usize, hash: &mut u64) -> usize {
    if depth == 0 {
        return 0;
    }
    let mut steps = 0;
    for c in 1..=3 {
        for s in [
            Step::Open(c, false),
            Step::Open(c, true),
            Step::Close(c, false),
            Step::Close(c, true),
            Step::WritebackDone(c),
            Step::Crash(c),
        ] {
            if let Step::Close(c, w) = s {
                if !still_open(prefix, c, w) {
                    continue;
                }
            }
            hash_step(prefix, s, hash);
            prefix.push(s);
            steps += 1 + enumerate(prefix, depth - 1, hash);
            prefix.pop();
        }
    }
    steps
}

/// Every sequence of up to four steps on one file by three clients,
/// digested step by step: a change to what any open, close, write-back
/// or crash does to the state, the callbacks, caching or the version
/// moves the digest.
#[test]
fn bounded_enumeration_digest_is_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let steps = enumerate(&mut Vec::new(), 4, &mut hash);
    assert_eq!(
        (steps, hash),
        (27_840, 0x63d0_27c1_97c2_3ba0),
        "the enumeration moved"
    );
}
