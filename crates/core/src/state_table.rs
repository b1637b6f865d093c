//! The SNFS server state table (paper §4.3).
//!
//! "Most of the code added to support SNFS is in the state table manager
//! module" — and the same is true here. The table tracks, per file: the
//! version number, which clients have it open (with per-client reader and
//! writer counts, since one client host may have several processes using
//! the file), whether a closed file's last writer may still hold dirty
//! blocks, and the sticky non-cachable flag for write-shared files.
//!
//! This module is pure state (no I/O, no timing): `open`/`close` return
//! the callbacks the *service layer* must perform, and the service reports
//! back with [`StateTable::writeback_done`] / [`StateTable::client_crashed`].
//! That split makes the Table 4-1 transition rules directly testable.

use spritely_proto::{ClientId, Delegation, FileHandle, FileVersion};
use spritely_sim::Map;
use spritely_trace::transitions::{open_row, Role};
use spritely_trace::Cause;

/// The seven file states of paper §4.3.4: the trace's own enum, so a
/// transition is recorded as the table computes it.
pub use spritely_trace::FState as FileState;

/// Per-client open counts within one entry (the "client information
/// block" of §4.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOpens {
    /// The client host.
    pub client: ClientId,
    /// Processes with the file open for reading at that host.
    pub readers: u32,
    /// Processes with the file open for writing at that host.
    pub writers: u32,
}

/// A callback the service layer must perform before replying to an open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallbackNeeded {
    /// Which client to call back.
    pub target: ClientId,
    /// Ask the client to write its dirty blocks back first.
    pub writeback: bool,
    /// Ask the client to invalidate its cache and stop caching.
    pub invalidate: bool,
}

/// What [`StateTable::reclaim`] did and what it still needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReclaimOutcome {
    /// Cleanly-closed entries dropped outright.
    pub dropped: Vec<FileHandle>,
    /// Closed-dirty entries that need a write-back callback before they
    /// can be dropped.
    pub writebacks: Vec<(FileHandle, ClientId)>,
}

/// The table's answer to an `open` RPC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenOutcome {
    /// May the opener cache the file?
    pub cache_enabled: bool,
    /// Version after this open.
    pub version: FileVersion,
    /// Version before the most recent open-for-write.
    pub prev_version: FileVersion,
    /// True if a crashed client may have lost dirty data for this file.
    pub inconsistent: bool,
    /// Callbacks the service must perform before replying.
    pub callbacks: Vec<CallbackNeeded>,
}

/// One live delegation recorded against an entry (DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deleg {
    /// The client holding the delegation.
    pub holder: ClientId,
    /// True for a write (exclusive) delegation.
    pub write: bool,
}

#[derive(Debug)]
struct Entry {
    version: FileVersion,
    prev_version: FileVersion,
    clients: Vec<ClientOpens>,
    /// Client that may hold dirty blocks (set when a caching writer
    /// closes; cleared by a confirmed write-back).
    dirty: Option<ClientId>,
    /// Sticky while the file is write-shared: cleared only when the file
    /// is fully closed (clients cannot be told to *resume* caching).
    uncached: bool,
    /// Set when a client holding dirty blocks crashed.
    inconsistent: bool,
    /// Live delegations: any number of read delegations, or exactly one
    /// write delegation (DESIGN.md §17).
    delegs: Vec<Deleg>,
    /// Holders whose delegation was revoked after a recall timeout. A late
    /// return from a fenced holder must be discarded, not applied.
    fenced: Vec<ClientId>,
}

impl Entry {
    fn new(version: FileVersion) -> Entry {
        Entry {
            version,
            prev_version: version,
            clients: Vec::new(),
            dirty: None,
            uncached: false,
            inconsistent: false,
            delegs: Vec::new(),
            fenced: Vec::new(),
        }
    }

    fn state(&self) -> FileState {
        if self.clients.is_empty() {
            if self.dirty.is_some() {
                FileState::ClosedDirty
            } else {
                FileState::Closed
            }
        } else if self.uncached {
            FileState::WriteShared
        } else if self.clients.len() == 1 {
            let c = &self.clients[0];
            if c.writers > 0 {
                FileState::OneWriter
            } else if self.dirty.is_some() {
                FileState::OneRdrDirty
            } else {
                FileState::OneReader
            }
        } else {
            // Multiple caching clients can only be readers; a writer would
            // have set `uncached`.
            FileState::MultReaders
        }
    }

    /// `client`'s role in this entry's Table 4-1 rows.
    fn role(&self, client: ClientId) -> Role {
        let open = self.clients.iter().any(|c| c.client == client);
        Role::of(open, self.dirty == Some(client))
    }

    fn opens_of(&mut self, client: ClientId) -> &mut ClientOpens {
        if let Some(i) = self.clients.iter().position(|c| c.client == client) {
            &mut self.clients[i]
        } else {
            self.clients.push(ClientOpens {
                client,
                readers: 0,
                writers: 0,
            });
            self.clients.last_mut().expect("just pushed")
        }
    }
}

/// The SNFS server state table.
///
/// # Examples
///
/// ```
/// use spritely_core::{FileState, StateTable};
/// use spritely_proto::{ClientId, FileHandle};
///
/// let mut table = StateTable::new(100);
/// let fh = FileHandle::new(1, 10, 0);
///
/// // A lone writer may cache.
/// let open = table.open(fh, ClientId(1), true);
/// assert!(open.cache_enabled);
/// assert_eq!(table.state_of(fh), FileState::OneWriter);
///
/// // A second host arrives: write-shared, caching disabled, and the
/// // writer owes a write-back + invalidate callback.
/// let open2 = table.open(fh, ClientId(2), false);
/// assert!(!open2.cache_enabled);
/// assert_eq!(open2.callbacks.len(), 1);
/// assert!(open2.callbacks[0].writeback && open2.callbacks[0].invalidate);
/// ```
pub struct StateTable {
    entries: Map<FileHandle, Entry>,
    /// Global version counter (paper §4.3.3 chose a global counter rather
    /// than per-file stable storage; we follow it).
    next_version: u64,
    limit: usize,
}

impl StateTable {
    /// Creates a table bounded to `limit` entries (paper §4.3.1: "we limit
    /// the number of entries in this table"; each entry was 68 bytes).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn new(limit: usize) -> Self {
        assert!(limit > 0, "state table needs at least one entry");
        StateTable {
            entries: Map::default(),
            next_version: 1,
            limit,
        }
    }

    fn fresh_version(&mut self) -> FileVersion {
        let v = FileVersion(self.next_version);
        self.next_version += 1;
        v
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drops every entry *and* the global version counter — the volatile
    /// state lost in a server crash. The counter is one of the "obvious
    /// problems" §4.3.3 concedes about a global in-memory counter; during
    /// recovery, [`restore`](Self::restore) raises it back above every
    /// version any surviving client reports.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.next_version = 1;
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the table is at or over its configured limit.
    pub fn over_limit(&self) -> bool {
        self.entries.len() >= self.limit
    }

    /// Current state of a file ([`FileState::Closed`] if untracked).
    pub fn state_of(&self, fh: FileHandle) -> FileState {
        self.entries
            .get(&fh)
            .map_or(FileState::Closed, Entry::state)
    }

    /// Current version of a file, if tracked.
    pub fn version_of(&self, fh: FileHandle) -> Option<FileVersion> {
        self.entries.get(&fh).map(|e| e.version)
    }

    /// The client recorded as possibly holding dirty blocks for `fh`.
    pub fn dirty_holder(&self, fh: FileHandle) -> Option<ClientId> {
        self.entries.get(&fh).and_then(|e| e.dirty)
    }

    /// Per-client open counts (for tests and debugging).
    pub fn clients_of(&self, fh: FileHandle) -> Vec<ClientOpens> {
        self.entries
            .get(&fh)
            .map(|e| e.clients.clone())
            .unwrap_or_default()
    }

    /// Handles an `open` RPC: computes the Table 4-1 transition, returning
    /// the callbacks that must complete before the reply is sent.
    pub fn open(&mut self, fh: FileHandle, client: ClientId, write: bool) -> OpenOutcome {
        if !self.entries.contains_key(&fh) {
            let v = self.fresh_version();
            self.entries.insert(fh, Entry::new(v));
        }
        // Version bump for write opens (paper §4.3.3: "increases every
        // time the file is opened for writing").
        let v = write.then(|| self.fresh_version());
        // The row the opener's role selects from the pre-open state, and
        // its asks of every other host: the openers in table order, then
        // a dirty holder with no open.
        let cause = [Cause::OpenRead, Cause::OpenWrite][usize::from(write)];
        let e = self.entries.get_mut(&fh).expect("inserted above");
        let row = open_row(e.state(), cause, e.role(client));
        let others = e.clients.iter().map(|c| c.client);
        let holder = e.dirty.filter(|&h| e.role(h) == Role::Holder);
        let mut callbacks = Vec::new();
        for target in others.chain(holder).filter(|&t| t != client) {
            let ask = row.ask(e.role(target));
            if ask.writeback || ask.invalidate {
                callbacks.push(CallbackNeeded {
                    target,
                    writeback: ask.writeback,
                    invalidate: ask.invalidate,
                });
            }
        }
        e.uncached |= row.uncaches();
        if let Some(v) = v {
            e.prev_version = e.version;
            e.version = v;
            // A new version supersedes whatever a crashed writer lost.
            e.inconsistent = false;
        }
        // Record the opener.
        let opens = e.opens_of(client);
        if write {
            opens.writers += 1;
        } else {
            opens.readers += 1;
        }
        debug_assert_eq!(e.state(), row.to, "{fh}: {client:?} took another row");
        OpenOutcome {
            cache_enabled: !e.uncached,
            version: e.version,
            prev_version: e.prev_version,
            inconsistent: e.inconsistent,
            callbacks,
        }
    }

    /// True if `client` is touching a tracked, active file it has no open
    /// for and no dirty claim on — i.e. a plain-NFS access to an
    /// SNFS-managed file (the §6.1 coexistence case).
    pub fn is_foreign_access(&self, fh: FileHandle, client: ClientId) -> bool {
        match self.entries.get(&fh) {
            None => false,
            Some(e) => {
                e.state() != FileState::Closed
                    && e.dirty != Some(client)
                    && !e.clients.iter().any(|c| c.client == client)
            }
        }
    }

    /// Handles a `close` RPC. `write` must match the mode of the
    /// corresponding open (paper §3.1).
    ///
    /// Returns the new state, for observability.
    pub fn close(&mut self, fh: FileHandle, client: ClientId, write: bool) -> FileState {
        self.close_with(fh, client, write, true)
    }

    /// [`close`](Self::close) with control over the dirty marking: a
    /// client that wrote *through* (an implicit §6.1 open by a plain NFS
    /// client) holds no delayed blocks, so it must not be recorded as a
    /// dirty last-writer.
    pub fn close_with(
        &mut self,
        fh: FileHandle,
        client: ClientId,
        write: bool,
        may_cache_dirty: bool,
    ) -> FileState {
        let Some(e) = self.entries.get_mut(&fh) else {
            return FileState::Closed;
        };
        let Some(i) = e.clients.iter().position(|c| c.client == client) else {
            return e.state();
        };
        let was_uncached = e.uncached;
        {
            let c = &mut e.clients[i];
            if write {
                c.writers = c.writers.saturating_sub(1);
            } else {
                c.readers = c.readers.saturating_sub(1);
            }
        }
        // A caching writer that drops its last write-open may still hold
        // dirty blocks (delayed write-back!). Record it as the last
        // writer. Uncached (write-shared) clients wrote through, so there
        // is nothing dirty.
        if write && !was_uncached && may_cache_dirty && e.clients[i].writers == 0 {
            e.dirty = Some(client);
        }
        if e.clients[i].readers == 0 && e.clients[i].writers == 0 {
            e.clients.remove(i);
        }
        if e.clients.is_empty() {
            e.uncached = false;
        }
        e.state()
    }

    /// The service confirms that `client` wrote its dirty blocks back.
    pub fn writeback_done(&mut self, fh: FileHandle, client: ClientId) {
        if let Some(e) = self.entries.get_mut(&fh) {
            if e.dirty == Some(client) {
                e.dirty = None;
            }
        }
    }

    /// Decides whether the open just recorded for `client` can carry a
    /// delegation (DESIGN.md §17). Call *after* [`open`](Self::open), once
    /// its callbacks have completed.
    ///
    /// A write delegation requires the opener to be the file's only user
    /// (`OneWriter`); read delegations may be held by any number of
    /// clients as long as nobody writes. Uncachable or inconsistent files
    /// never carry delegations, and foreign dirty data (a different
    /// client's unflushed blocks) blocks a grant.
    pub fn grantable_delegation(
        &self,
        fh: FileHandle,
        client: ClientId,
        write: bool,
    ) -> Option<Delegation> {
        let e = self.entries.get(&fh)?;
        if e.uncached || e.inconsistent {
            return None;
        }
        if e.dirty.is_some_and(|d| d != client) {
            return None;
        }
        let held = e.delegs.iter().find(|d| d.holder == client).copied();
        if write {
            let sole = e.clients.len() == 1 && e.clients[0].client == client;
            let foreign_deleg = e.delegs.iter().any(|d| d.holder != client);
            if sole && !foreign_deleg {
                Some(Delegation::Write)
            } else {
                None
            }
        } else {
            let any_writer = e.clients.iter().any(|c| c.writers > 0);
            let foreign_write_deleg = e.delegs.iter().any(|d| d.write && d.holder != client);
            if any_writer || foreign_write_deleg {
                return None;
            }
            // Already holding a covering delegation: nothing new to grant.
            if held.is_some() {
                return None;
            }
            Some(Delegation::Read)
        }
    }

    /// Records a delegation grant for `client` (replacing any delegation
    /// it already holds on the file) and lifts its fence, if any.
    pub fn grant_delegation(&mut self, fh: FileHandle, client: ClientId, write: bool) {
        if let Some(e) = self.entries.get_mut(&fh) {
            e.delegs.retain(|d| d.holder != client);
            e.delegs.push(Deleg {
                holder: client,
                write,
            });
            e.fenced.retain(|&c| c != client);
        }
    }

    /// The delegation `client` holds on `fh`, if any.
    pub fn delegation_of(&self, fh: FileHandle, client: ClientId) -> Option<Deleg> {
        self.entries
            .get(&fh)?
            .delegs
            .iter()
            .find(|d| d.holder == client)
            .copied()
    }

    /// Delegations held by *other* clients that conflict with `client`
    /// opening in the given mode and must be recalled first: a write open
    /// conflicts with every foreign delegation, a read open only with a
    /// foreign write delegation. Sorted by holder for determinism.
    pub fn conflicting_delegations(
        &self,
        fh: FileHandle,
        client: ClientId,
        write: bool,
    ) -> Vec<Deleg> {
        let Some(e) = self.entries.get(&fh) else {
            return Vec::new();
        };
        let mut out: Vec<Deleg> = e
            .delegs
            .iter()
            .filter(|d| d.holder != client && (write || d.write))
            .copied()
            .collect();
        out.sort_unstable_by_key(|d| d.holder);
        out
    }

    /// Applies a returned delegation: replaces the holder's recorded open
    /// counts with the state it accumulated while serving opens locally,
    /// and bumps the file version if it wrote (so other clients' cached
    /// copies stop validating). Returns the resulting version, or `None`
    /// if the holder was fenced (revoked after a recall timeout) or the
    /// entry is gone — in both cases the reported state is discarded.
    pub fn return_delegation(
        &mut self,
        fh: FileHandle,
        client: ClientId,
        readers: u32,
        writers: u32,
        wrote: bool,
    ) -> Option<FileVersion> {
        let fenced = self
            .entries
            .get(&fh)
            .is_some_and(|e| e.fenced.contains(&client));
        if fenced {
            let e = self.entries.get_mut(&fh).expect("checked above");
            e.fenced.retain(|&c| c != client);
            return None;
        }
        self.entries.get(&fh)?;
        let v = wrote.then(|| self.fresh_version());
        let e = self.entries.get_mut(&fh).expect("checked above");
        let had = e.delegs.iter().any(|d| d.holder == client);
        e.delegs.retain(|d| d.holder != client);
        if !had {
            return Some(e.version);
        }
        if let Some(v) = v {
            e.prev_version = e.version;
            e.version = v;
            // The holder's (flushed) data supersedes whatever a crashed
            // writer may have lost.
            e.inconsistent = false;
        }
        if let Some(i) = e.clients.iter().position(|c| c.client == client) {
            if readers == 0 && writers == 0 {
                e.clients.remove(i);
            } else {
                e.clients[i].readers = readers;
                e.clients[i].writers = writers;
            }
        } else if readers > 0 || writers > 0 {
            e.clients.push(ClientOpens {
                client,
                readers,
                writers,
            });
        }
        if e.clients.is_empty() {
            e.uncached = false;
        }
        Some(e.version)
    }

    /// Revokes `client`'s delegation after a recall timed out: the holder
    /// is treated as crashed *for this file* — its delegation, open counts
    /// and dirty claim are dropped, and it is fenced so a late return is
    /// discarded. A revoked write delegation may have lost locally-buffered
    /// writes, so the file is flagged inconsistent (paper §3.2 semantics).
    ///
    /// Returns true if a delegation was actually revoked.
    pub fn revoke_delegation(&mut self, fh: FileHandle, client: ClientId) -> bool {
        let Some(e) = self.entries.get_mut(&fh) else {
            return false;
        };
        let Some(i) = e.delegs.iter().position(|d| d.holder == client) else {
            return false;
        };
        let was_write = e.delegs[i].write;
        e.delegs.remove(i);
        if !e.fenced.contains(&client) {
            e.fenced.push(client);
        }
        e.clients.retain(|c| c.client != client);
        if e.dirty == Some(client) {
            e.dirty = None;
            e.inconsistent = true;
        }
        if was_write {
            e.inconsistent = true;
        }
        if e.clients.is_empty() {
            e.uncached = false;
        }
        true
    }

    /// True if `client` was fenced on `fh` (revoked, return pending).
    pub fn is_fenced(&self, fh: FileHandle, client: ClientId) -> bool {
        self.entries
            .get(&fh)
            .is_some_and(|e| e.fenced.contains(&client))
    }

    /// Number of live delegations across all entries.
    pub fn delegation_count(&self) -> usize {
        self.entries.values().map(|e| e.delegs.len()).sum()
    }

    /// A file was removed: its state is no longer meaningful.
    pub fn file_removed(&mut self, fh: FileHandle) {
        self.entries.remove(&fh);
    }

    /// A client is unreachable: drop all of its opens. Files for which it
    /// held dirty blocks are flagged inconsistent (reported on the next
    /// open, cleared by the next open-for-write). Returns the affected
    /// files with their before/after states, sorted by handle (a
    /// deterministic order, independent of hash-map iteration).
    pub fn client_crashed(&mut self, client: ClientId) -> Vec<(FileHandle, FileState, FileState)> {
        let mut affected = Vec::new();
        for (&fh, e) in self.entries.iter_mut() {
            let state_before = e.state();
            let before = e.clients.len();
            e.clients.retain(|c| c.client != client);
            let mut touched = before != e.clients.len();
            if e.dirty == Some(client) {
                e.dirty = None;
                e.inconsistent = true;
                touched = true;
            }
            // A crashed write-delegation holder may have lost local writes
            // it never reported; a crashed read holder just disappears.
            if let Some(i) = e.delegs.iter().position(|d| d.holder == client) {
                if e.delegs[i].write {
                    e.inconsistent = true;
                }
                e.delegs.remove(i);
                touched = true;
            }
            e.fenced.retain(|&c| c != client);
            if e.clients.is_empty() {
                e.uncached = false;
            }
            if touched {
                affected.push((fh, state_before, e.state()));
            }
        }
        affected.sort_unstable_by_key(|&(fh, _, _)| fh);
        affected
    }

    /// Frees cleanly-closed entries and returns the write-back callbacks
    /// needed to free closed-dirty ones (paper §4.3.1: "when entries run
    /// low, those recording closed files may be reclaimed by sending
    /// callbacks"). Reclaims down toward `target` entries. The outcome
    /// lists both what was dropped and what still needs a write-back.
    pub fn reclaim(&mut self, target: usize) -> ReclaimOutcome {
        // Pass 1: drop Closed entries outright.
        let mut to_drop: Vec<FileHandle> = self
            .entries
            .iter()
            .filter(|(_, e)| e.state() == FileState::Closed && e.delegs.is_empty())
            .map(|(&fh, _)| fh)
            .collect();
        to_drop.sort_unstable(); // deterministic order
        let mut dropped = Vec::new();
        for fh in to_drop {
            if self.entries.len() <= target {
                break;
            }
            self.entries.remove(&fh);
            dropped.push(fh);
        }
        if self.entries.len() <= target {
            return ReclaimOutcome {
                dropped,
                writebacks: Vec::new(),
            };
        }
        // Pass 2: closed-dirty entries need a write-back callback first.
        let mut writebacks: Vec<(FileHandle, ClientId)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.state() == FileState::ClosedDirty)
            .map(|(&fh, e)| (fh, e.dirty.expect("ClosedDirty implies holder")))
            .collect();
        writebacks.sort_unstable();
        writebacks.truncate(self.entries.len() - target);
        ReclaimOutcome {
            dropped,
            writebacks,
        }
    }

    /// Rebuilds table state from one client's recovery report (§2.4:
    /// "the clients together 'know' who is caching the file, and the
    /// server can reconstruct its state from the clients").
    ///
    /// Safe to apply reports from several clients in any order: opens
    /// accumulate, the version floor only rises, and the write-shared
    /// stickiness re-derives once a writer plus another host coexist.
    pub fn restore(&mut self, client: ClientId, files: &[spritely_proto::RecoveredFile]) {
        for f in files {
            // The version counter must never re-issue a number a client
            // still holds.
            if let Some(v) = f.cached_version {
                if v.0 >= self.next_version {
                    self.next_version = v.0 + 1;
                }
            }
            let needs_entry = f.readers > 0 || f.writers > 0 || f.dirty;
            if !needs_entry {
                continue;
            }
            let version = f.cached_version.unwrap_or_else(|| self.fresh_version());
            let e = self.entries.entry(f.fh).or_insert(Entry::new(version));
            if e.version < version {
                e.prev_version = e.version;
                e.version = version;
            }
            if f.readers > 0 || f.writers > 0 {
                let opens = e.opens_of(client);
                opens.readers = f.readers;
                opens.writers = f.writers;
            }
            if f.dirty {
                e.dirty = Some(client);
            }
            // Re-derive write-shared stickiness: a writer coexisting with
            // any other host means nobody was caching before the crash.
            let hosts = e.clients.len();
            let writers: u32 = e.clients.iter().map(|c| c.writers).sum();
            if writers > 0 && hosts > 1 {
                e.uncached = true;
            }
        }
    }

    /// Drops an entry if it is now cleanly closed (used after a reclaim
    /// write-back completes).
    pub fn drop_if_closed(&mut self, fh: FileHandle) -> bool {
        if self
            .entries
            .get(&fh)
            .is_some_and(|e| e.state() == FileState::Closed && e.delegs.is_empty())
        {
            self.entries.remove(&fh);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C1: ClientId = ClientId(1);
    const C2: ClientId = ClientId(2);
    const C3: ClientId = ClientId(3);

    fn fh(n: u64) -> FileHandle {
        FileHandle::new(1, n, 0)
    }

    fn table() -> StateTable {
        StateTable::new(1000)
    }

    #[test]
    fn closed_to_one_reader_cacheable() {
        let mut t = table();
        let o = t.open(fh(1), C1, false);
        assert!(o.cache_enabled);
        assert!(o.callbacks.is_empty());
        assert_eq!(t.state_of(fh(1)), FileState::OneReader);
    }

    #[test]
    fn closed_to_one_writer_bumps_version() {
        let mut t = table();
        let o1 = t.open(fh(1), C1, false);
        t.close(fh(1), C1, false);
        let o2 = t.open(fh(1), C1, true);
        assert!(o2.cache_enabled);
        assert_eq!(t.state_of(fh(1)), FileState::OneWriter);
        assert!(o2.version > o1.version, "write open bumps version");
        assert_eq!(o2.prev_version, o1.version);
    }

    #[test]
    fn reader_cache_valid_across_reopen() {
        // The crucial difference from the buggy NFS client: versions let a
        // reader keep its cache across close/reopen.
        let mut t = table();
        let o1 = t.open(fh(1), C1, false);
        t.close(fh(1), C1, false);
        let o2 = t.open(fh(1), C1, false);
        assert_eq!(o1.version, o2.version, "no writer → same version");
    }

    #[test]
    fn writer_cache_valid_via_prev_version() {
        let mut t = table();
        let o1 = t.open(fh(1), C1, true);
        t.close(fh(1), C1, true);
        // Reopen for write: version bumps, but prev matches the writer's
        // cached version, so its cache is valid (paper §3.1).
        let o2 = t.open(fh(1), C1, true);
        assert!(o2.version > o1.version);
        assert_eq!(o2.prev_version, o1.version);
    }

    #[test]
    fn second_reader_makes_mult_readers() {
        let mut t = table();
        t.open(fh(1), C1, false);
        let o = t.open(fh(1), C2, false);
        assert!(o.cache_enabled);
        assert!(o.callbacks.is_empty());
        assert_eq!(t.state_of(fh(1)), FileState::MultReaders);
    }

    #[test]
    fn same_client_second_read_open_no_transition() {
        let mut t = table();
        t.open(fh(1), C1, false);
        t.open(fh(1), C1, false);
        assert_eq!(t.state_of(fh(1)), FileState::OneReader);
        assert_eq!(t.clients_of(fh(1))[0].readers, 2);
        t.close(fh(1), C1, false);
        assert_eq!(t.state_of(fh(1)), FileState::OneReader);
        t.close(fh(1), C1, false);
        assert_eq!(t.state_of(fh(1)), FileState::Closed);
    }

    #[test]
    fn writer_arriving_on_readers_invalidates_them() {
        let mut t = table();
        t.open(fh(1), C1, false);
        t.open(fh(1), C2, false);
        let o = t.open(fh(1), C3, true);
        assert!(!o.cache_enabled, "write-shared: nobody caches");
        let mut targets: Vec<ClientId> = o.callbacks.iter().map(|c| c.target).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![C1, C2]);
        assert!(o.callbacks.iter().all(|c| c.invalidate && !c.writeback));
        assert_eq!(t.state_of(fh(1)), FileState::WriteShared);
    }

    #[test]
    fn reader_arriving_on_writer_forces_writeback_and_invalidate() {
        let mut t = table();
        t.open(fh(1), C1, true);
        let o = t.open(fh(1), C2, false);
        assert!(!o.cache_enabled);
        assert_eq!(
            o.callbacks,
            vec![CallbackNeeded {
                target: C1,
                writeback: true,
                invalidate: true
            }]
        );
        assert_eq!(t.state_of(fh(1)), FileState::WriteShared);
    }

    #[test]
    fn reader_upgrading_to_writer_keeps_cache() {
        let mut t = table();
        t.open(fh(1), C1, false);
        let o = t.open(fh(1), C1, true);
        assert!(o.cache_enabled, "sole client may keep caching");
        assert!(o.callbacks.is_empty());
        assert_eq!(t.state_of(fh(1)), FileState::OneWriter);
    }

    #[test]
    fn writer_close_leaves_closed_dirty() {
        let mut t = table();
        t.open(fh(1), C1, true);
        let st = t.close(fh(1), C1, true);
        assert_eq!(st, FileState::ClosedDirty);
    }

    #[test]
    fn close_write_while_still_reading_gives_one_rdr_dirty() {
        // The garbled Table 4-1 row: a client with both read and write
        // opens closes the write but keeps reading.
        let mut t = table();
        t.open(fh(1), C1, false);
        t.open(fh(1), C1, true);
        let st = t.close(fh(1), C1, true);
        assert_eq!(st, FileState::OneRdrDirty);
        let st = t.close(fh(1), C1, false);
        assert_eq!(st, FileState::ClosedDirty);
    }

    #[test]
    fn closed_dirty_reopen_by_last_writer_is_quiet() {
        let mut t = table();
        t.open(fh(1), C1, true);
        t.close(fh(1), C1, true);
        let o = t.open(fh(1), C1, false);
        assert!(o.cache_enabled);
        assert!(o.callbacks.is_empty(), "own dirty data needs no callback");
        assert_eq!(t.state_of(fh(1)), FileState::OneRdrDirty);
    }

    #[test]
    fn closed_dirty_read_by_other_client_forces_writeback() {
        let mut t = table();
        t.open(fh(1), C1, true);
        t.close(fh(1), C1, true);
        let o = t.open(fh(1), C2, false);
        assert!(o.cache_enabled, "after write-back the reader may cache");
        assert_eq!(
            o.callbacks,
            vec![CallbackNeeded {
                target: C1,
                writeback: true,
                invalidate: false
            }]
        );
        t.writeback_done(fh(1), C1);
        assert_eq!(t.state_of(fh(1)), FileState::OneReader);
    }

    #[test]
    fn closed_dirty_write_by_other_client_also_invalidates() {
        let mut t = table();
        t.open(fh(1), C1, true);
        t.close(fh(1), C1, true);
        let o = t.open(fh(1), C2, true);
        assert!(o.cache_enabled, "sole writer may cache");
        assert_eq!(
            o.callbacks,
            vec![CallbackNeeded {
                target: C1,
                writeback: true,
                invalidate: true
            }]
        );
        t.writeback_done(fh(1), C1);
        assert_eq!(t.state_of(fh(1)), FileState::OneWriter);
    }

    #[test]
    fn one_rdr_dirty_other_reader_forces_writeback_then_mult_readers() {
        let mut t = table();
        t.open(fh(1), C1, true);
        t.close(fh(1), C1, true);
        t.open(fh(1), C1, false); // OneRdrDirty
        let o = t.open(fh(1), C2, false);
        assert!(o.cache_enabled);
        assert_eq!(
            o.callbacks,
            vec![CallbackNeeded {
                target: C1,
                writeback: true,
                invalidate: false
            }]
        );
        t.writeback_done(fh(1), C1);
        assert_eq!(t.state_of(fh(1)), FileState::MultReaders);
    }

    #[test]
    fn one_rdr_dirty_other_writer_goes_write_shared() {
        let mut t = table();
        t.open(fh(1), C1, true);
        t.close(fh(1), C1, true);
        t.open(fh(1), C1, false); // OneRdrDirty
        let o = t.open(fh(1), C2, true);
        assert!(!o.cache_enabled);
        assert_eq!(
            o.callbacks,
            vec![CallbackNeeded {
                target: C1,
                writeback: true,
                invalidate: true
            }]
        );
        assert_eq!(t.state_of(fh(1)), FileState::WriteShared);
    }

    #[test]
    fn write_shared_is_sticky_until_fully_closed() {
        let mut t = table();
        t.open(fh(1), C1, true);
        t.open(fh(1), C2, false); // → WriteShared
        t.close(fh(1), C1, true); // writer leaves...
        assert_eq!(
            t.state_of(fh(1)),
            FileState::WriteShared,
            "remaining reader cannot resume caching"
        );
        // A third open while sticky is still uncached, no callbacks.
        let o = t.open(fh(1), C3, false);
        assert!(!o.cache_enabled);
        assert!(o.callbacks.is_empty());
        t.close(fh(1), C2, false);
        t.close(fh(1), C3, false);
        assert_eq!(t.state_of(fh(1)), FileState::Closed);
        // After full close the stickiness resets.
        let o = t.open(fh(1), C1, false);
        assert!(o.cache_enabled);
    }

    #[test]
    fn uncached_writer_close_leaves_no_dirt() {
        let mut t = table();
        t.open(fh(1), C1, true);
        t.open(fh(1), C2, true); // write-shared
        t.close(fh(1), C1, true);
        t.close(fh(1), C2, true);
        assert_eq!(
            t.state_of(fh(1)),
            FileState::Closed,
            "write-through left nothing dirty"
        );
    }

    #[test]
    fn file_removed_drops_entry() {
        let mut t = table();
        t.open(fh(1), C1, true);
        t.file_removed(fh(1));
        assert_eq!(t.state_of(fh(1)), FileState::Closed);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn client_crash_clears_opens_and_flags_dirty_files() {
        let mut t = table();
        t.open(fh(1), C1, true);
        t.close(fh(1), C1, true); // ClosedDirty (C1 holds dirt)
        t.open(fh(2), C1, false);
        t.open(fh(2), C2, false);
        let affected = t.client_crashed(C1);
        assert_eq!(affected.len(), 2);
        assert_eq!(
            affected[0],
            (fh(1), FileState::ClosedDirty, FileState::Closed),
            "dirty claim dropped"
        );
        assert_eq!(
            affected[1],
            (fh(2), FileState::MultReaders, FileState::OneReader),
            "C1's read open dropped"
        );
        // fh(1) lost its dirty data → next open reports inconsistent.
        let o = t.open(fh(1), C2, false);
        assert!(o.inconsistent);
        // A write-open supersedes the lost data.
        t.close(fh(1), C2, false);
        let o = t.open(fh(1), C2, true);
        assert!(!o.inconsistent || o.version > o.prev_version);
        t.close(fh(1), C2, true);
        let o = t.open(fh(1), C3, true);
        assert!(!o.inconsistent, "cleared by the earlier write open");
        // fh(2) still has C2 reading.
        assert_eq!(t.state_of(fh(2)), FileState::OneReader);
    }

    #[test]
    fn reclaim_drops_closed_first_then_asks_for_writebacks() {
        let mut t = StateTable::new(4);
        // Two cleanly closed, one closed-dirty, one open.
        t.open(fh(1), C1, false);
        t.close(fh(1), C1, false);
        t.open(fh(2), C1, false);
        t.close(fh(2), C1, false);
        t.open(fh(3), C1, true);
        t.close(fh(3), C1, true);
        t.open(fh(4), C1, false);
        assert!(t.over_limit());
        let out = t.reclaim(2);
        assert_eq!(t.len(), 2, "closed entries dropped");
        assert_eq!(out.dropped, vec![fh(1), fh(2)]);
        assert!(
            out.writebacks.is_empty(),
            "target met without touching dirty"
        );
        let out = t.reclaim(1);
        assert!(out.dropped.is_empty());
        assert_eq!(out.writebacks, vec![(fh(3), C1)]);
        // Service performs the write-back, confirms, drops.
        t.writeback_done(fh(3), C1);
        assert!(t.drop_if_closed(fh(3)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn versions_are_globally_unique_and_increasing() {
        let mut t = table();
        let a = t.open(fh(1), C1, true);
        let b = t.open(fh(2), C1, true);
        assert!(b.version > a.version, "global counter");
    }

    #[test]
    fn close_of_unknown_file_is_harmless() {
        let mut t = table();
        assert_eq!(t.close(fh(9), C1, false), FileState::Closed);
    }

    #[test]
    fn mult_readers_partial_close_returns_to_one_reader() {
        let mut t = table();
        t.open(fh(1), C1, false);
        t.open(fh(1), C2, false);
        t.close(fh(1), C1, false);
        assert_eq!(t.state_of(fh(1)), FileState::OneReader);
    }

    #[test]
    fn write_delegation_only_for_sole_writer() {
        let mut t = table();
        t.open(fh(1), C1, true);
        assert_eq!(
            t.grantable_delegation(fh(1), C1, true),
            Some(Delegation::Write)
        );
        t.grant_delegation(fh(1), C1, true);
        assert_eq!(
            t.delegation_of(fh(1), C1),
            Some(Deleg {
                holder: C1,
                write: true
            })
        );
        // A second host's open must first recall C1's delegation.
        assert_eq!(
            t.conflicting_delegations(fh(1), C2, false),
            vec![Deleg {
                holder: C1,
                write: true
            }]
        );
    }

    #[test]
    fn many_read_delegations_coexist() {
        let mut t = table();
        t.open(fh(1), C1, false);
        t.grant_delegation(fh(1), C1, false);
        t.open(fh(1), C2, false);
        assert_eq!(
            t.grantable_delegation(fh(1), C2, false),
            Some(Delegation::Read)
        );
        t.grant_delegation(fh(1), C2, false);
        assert_eq!(t.delegation_count(), 2);
        // Read opens don't conflict with read delegations...
        assert!(t.conflicting_delegations(fh(1), C3, false).is_empty());
        // ...but a write open recalls all of them, in holder order.
        let conflicts = t.conflicting_delegations(fh(1), C3, true);
        assert_eq!(conflicts.len(), 2);
        assert_eq!(conflicts[0].holder, C1);
        assert_eq!(conflicts[1].holder, C2);
    }

    #[test]
    fn no_read_delegation_while_a_writer_is_open() {
        let mut t = table();
        t.open(fh(1), C1, true);
        t.open(fh(1), C2, false); // write-shared
        assert_eq!(t.grantable_delegation(fh(1), C2, false), None);
        assert_eq!(t.grantable_delegation(fh(1), C1, true), None, "uncached");
    }

    #[test]
    fn return_applies_batched_state_and_bumps_version_on_write() {
        let mut t = table();
        let o = t.open(fh(1), C1, true);
        t.grant_delegation(fh(1), C1, true);
        // The holder locally closed its writer and opened two readers.
        let v = t.return_delegation(fh(1), C1, 2, 0, true).expect("applied");
        assert!(v > o.version, "local writes bump the version");
        assert_eq!(t.clients_of(fh(1))[0].readers, 2);
        assert_eq!(t.clients_of(fh(1))[0].writers, 0);
        assert_eq!(t.delegation_count(), 0);
    }

    #[test]
    fn return_with_no_opens_leaves_entry_closed_and_reclaimable() {
        let mut t = table();
        t.open(fh(1), C1, false);
        t.grant_delegation(fh(1), C1, false);
        // While delegated the entry must survive reclaim even though the
        // server-side counts could look stale.
        assert!(!t.drop_if_closed(fh(1)));
        t.return_delegation(fh(1), C1, 0, 0, false);
        assert_eq!(t.state_of(fh(1)), FileState::Closed);
        assert!(t.drop_if_closed(fh(1)));
    }

    #[test]
    fn revoke_fences_holder_and_discards_late_return() {
        let mut t = table();
        let o = t.open(fh(1), C1, true);
        t.grant_delegation(fh(1), C1, true);
        assert!(t.revoke_delegation(fh(1), C1));
        assert!(t.is_fenced(fh(1), C1));
        assert_eq!(t.delegation_count(), 0);
        // Revoked write delegation may have lost buffered writes.
        let o2 = t.open(fh(1), C2, false);
        assert!(o2.inconsistent);
        assert_eq!(o2.version, o.version, "no bump from the dead holder");
        // The late return is discarded and lifts the fence.
        assert_eq!(t.return_delegation(fh(1), C1, 1, 1, true), None);
        assert!(!t.is_fenced(fh(1), C1));
        assert_eq!(t.clients_of(fh(1)).len(), 1, "only C2's open survives");
    }

    #[test]
    fn crashed_client_loses_delegations() {
        let mut t = table();
        t.open(fh(1), C1, true);
        t.grant_delegation(fh(1), C1, true);
        let affected = t.client_crashed(C1);
        assert_eq!(affected.len(), 1);
        assert_eq!(t.delegation_count(), 0);
        let o = t.open(fh(1), C2, false);
        assert!(o.inconsistent, "write-delegated holder crashed");
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use spritely_proto::RecoveredFile;

    const C1: ClientId = ClientId(1);
    const C2: ClientId = ClientId(2);

    fn fh(n: u64) -> FileHandle {
        FileHandle::new(1, n, 0)
    }

    #[test]
    fn restore_rebuilds_opens_and_dirty_claims() {
        let mut t = StateTable::new(100);
        t.clear(); // fresh post-crash state
        t.restore(
            C1,
            &[
                RecoveredFile {
                    fh: fh(1),
                    readers: 0,
                    writers: 1,
                    cached_version: Some(FileVersion(7)),
                    dirty: false,
                },
                RecoveredFile {
                    fh: fh(2),
                    readers: 0,
                    writers: 0,
                    cached_version: Some(FileVersion(5)),
                    dirty: true,
                },
            ],
        );
        assert_eq!(t.state_of(fh(1)), FileState::OneWriter);
        assert_eq!(t.state_of(fh(2)), FileState::ClosedDirty);
        // The version counter resumed above the highest reported value.
        let o = t.open(fh(3), C1, true);
        assert!(o.version > FileVersion(7), "counter floor restored");
    }

    #[test]
    fn restore_reports_from_two_clients_commute() {
        let report_a = [RecoveredFile {
            fh: fh(1),
            readers: 1,
            writers: 0,
            cached_version: Some(FileVersion(3)),
            dirty: false,
        }];
        let report_b = [RecoveredFile {
            fh: fh(1),
            readers: 0,
            writers: 1,
            cached_version: Some(FileVersion(3)),
            dirty: false,
        }];
        let build = |first: &[RecoveredFile],
                     second: &[RecoveredFile],
                     c_first: ClientId,
                     c_second: ClientId| {
            let mut t = StateTable::new(100);
            t.clear();
            t.restore(c_first, first);
            t.restore(c_second, second);
            t.state_of(fh(1))
        };
        let ab = build(&report_a, &report_b, C1, C2);
        let ba = build(&report_b, &report_a, C2, C1);
        assert_eq!(ab, ba);
        assert_eq!(ab, FileState::WriteShared, "writer + reader on two hosts");
    }

    #[test]
    fn restored_write_shared_is_uncachable() {
        let mut t = StateTable::new(100);
        t.clear();
        t.restore(
            C1,
            &[RecoveredFile {
                fh: fh(1),
                readers: 1,
                writers: 0,
                cached_version: None,
                dirty: false,
            }],
        );
        t.restore(
            C2,
            &[RecoveredFile {
                fh: fh(1),
                readers: 0,
                writers: 1,
                cached_version: None,
                dirty: false,
            }],
        );
        // A third open must come back uncachable.
        let o = t.open(fh(1), ClientId(3), false);
        assert!(!o.cache_enabled);
    }

    #[test]
    fn restore_ignores_empty_reports() {
        let mut t = StateTable::new(100);
        t.restore(
            C1,
            &[RecoveredFile {
                fh: fh(9),
                readers: 0,
                writers: 0,
                cached_version: None,
                dirty: false,
            }],
        );
        assert_eq!(t.len(), 0, "nothing to remember");
    }
}
