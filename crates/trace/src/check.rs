//! Offline protocol-invariant checking over a recorded trace.
//!
//! The checker replays the event stream and asserts the properties the
//! paper's protocol argument rests on:
//!
//! 1. **Legal transitions** — every server state-table transition is an
//!    edge of [`TABLE_4_1`](crate::transitions::TABLE_4_1), the 7-state
//!    machine of §4.3.4 (Figure 4-2) that the state table runs.
//! 2. **Callback bound** — at most N−1 consistency callbacks are in
//!    flight at once, N = server service threads (§3.2).
//! 3. **No stale reads** — a read served from a client cache carries a
//!    version no older than the latest version granted to a write open
//!    (§3.1: version numbers detect stale data at reopen).
//! 4. **Cancelled writes** — delayed writes for a removed file are
//!    cancelled, never flushed to the server (§2: "data ... never
//!    written to the server at all" for short-lived files).
//! 5. **fsync claims** — an fsync OK is preceded by write RPCs (with OK
//!    replies) covering every block dirtied before it.
//! 6. **Disk scheduling bound** — every disk completion matches a
//!    queued request, and no queued request is bypassed more often than
//!    the active scheduler allows (FIFO: never; C-LOOK: at most its
//!    aging limit K, from the `disk_sched` meta event).
//! 7. **Batch conservation** — a compound's reply carries exactly as
//!    many inner replies as the request carried inner calls, per
//!    `(from, batch id)`.
//! 8. **At-most-once execution** — the endpoint's duplicate cache must
//!    suppress re-execution of a non-idempotent call: no two of its
//!    `handler_begin` events share a `(from, xid)` pair. An idempotent
//!    one may execute again, but no two of its executions overlap
//!    (server-originated callbacks, `from` 0, are exempt — each callback
//!    endpoint has its own xid space).
//! 9. **Delegation safety** (DESIGN.md §17) — no two conflicting live
//!    delegations on one file (a write delegation is exclusive); a client
//!    serves no local open from a delegation it does not hold (which
//!    covers use-after-return and use-after-revoke) or while it has a
//!    recall in hand; and every recall a client receives is eventually
//!    matched by a return or a revoke.
//! 10. **Shard ownership** (DESIGN.md §18) — every root-level name
//!     operation is served by the shard that owns the name at that layout
//!     epoch (the checker mirrors the authority layout by replaying
//!     `shard_move` events over the deterministic default placement);
//!     move epochs are strictly increasing; and cross-shard transactions
//!     are atomic: no shard serves either name between `shard_tx_begin`
//!     and the ownership move, a committed end implies the move happened
//!     (and an aborted end implies it did not), and every begun
//!     transaction resolves by the end of the run.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use spritely_proto::{default_shard, ClientId, NfsProc, BLOCK_SIZE};
use spritely_sim::{Map, Set};

use crate::transitions::legal;
use crate::{Event, FState, FhId, Name, Tag, TraceEvent};

/// One invariant violation, anchored to the offending event.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub seq: u64,
    pub t_us: u64,
    pub invariant: &'static str,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] seq {} t={}us: {}",
            self.invariant, self.seq, self.t_us, self.detail
        )
    }
}

/// `table[fh]`, the table grown to hold it. Handles are interned densely
/// ([`FhId`]), so what is tracked per file sits in a `Vec`, and a file
/// past its end reads as the default.
fn at<T: Clone + Default>(table: &mut Vec<T>, fh: FhId) -> &mut T {
    if table.len() <= fh.index() {
        table.resize(fh.index() + 1, T::default());
    }
    &mut table[fh.index()]
}

#[derive(Default)]
struct CheckState {
    /// Tracked server state per file.
    states: Vec<FState>,
    /// N from the `server_threads` meta event.
    threads: Option<u64>,
    cb_depth: u64,
    /// Latest cache grant per (client, file): Some(v) = may cache at
    /// version v, None = open granted with caching disabled.
    granted: Map<(ClientId, FhId), Option<u64>>,
    /// Highest version ever granted to a write open, per file.
    latest_write_v: Vec<u64>,
    /// (client, file) pairs whose delayed writes were cancelled whole
    /// (file removed): no Write RPC may follow.
    removed: Map<(ClientId, FhId), u64>,
    /// Blocks dirtied but not yet acknowledged by an OK Write reply.
    dirty: Map<(ClientId, FhId), BTreeSet<u64>>,
    /// In-flight Write RPCs: (caller, xid) -> (file, first_blk, last_blk).
    pending_writes: Map<(ClientId, u64), (FhId, u64, u64)>,
    /// Reordering bound K from the `disk_sched` meta event ("fifo" = 0,
    /// "clook:K" = K). Absent = traces without the meta are unchecked.
    disk_bound: Option<u64>,
    /// Queued-but-uncompleted disk requests per disk, in arrival order:
    /// (req id, times bypassed).
    disk_pending: Map<Name, Vec<(u64, u64)>>,
    /// Open compound batches: (from, batch id) -> inner request count.
    batches: Map<(ClientId, u64), u64>,
    /// Non-idempotent `(from, xid)` pairs that had a handler execution.
    executed: Executed,
    /// Idempotent `(from, xid)` pairs whose handler is running.
    running: Set<(ClientId, u64)>,
    /// Live delegations per file: (holder, is-write).
    deleg_live: Vec<Vec<(ClientId, bool)>>,
    /// Recalls a client has received but not yet resolved, keyed by
    /// (holder, file) -> (seq, t_us) of the recall event.
    deleg_recalls: Map<(ClientId, FhId), (u64, u64)>,
    /// Shard count from the `shards` meta event (absent = 1, unsharded).
    shards: u64,
    /// Mirrored layout overrides (name -> owner), replayed from
    /// `shard_move` events exactly as the authority applies them.
    shard_overrides: Map<Name, u32>,
    /// Highest `shard_move` epoch seen (epochs must strictly increase).
    shard_epoch: u64,
    /// Open cross-shard transactions (BTreeMap: deterministic iteration).
    shard_txs: BTreeMap<u64, ShardTx>,
}

/// Rule 8's executed `(from, xid)` pairs. A caller counts its xids up from
/// 0, so each caller's are a bitset grown a word at a time, by at most one
/// word per execution: bounded by the trace's length. An xid past the word
/// after the set's end (a forged trace, or one 64 calls out of order) goes
/// to `sparse`, where an xid is looked for too once it has an entry.
#[derive(Default)]
struct Executed {
    dense: Map<ClientId, Vec<u64>>,
    sparse: Set<(ClientId, u64)>,
}

impl Executed {
    /// Records an execution of `(from, xid)`; false if it had one.
    fn insert(&mut self, from: ClientId, xid: u64) -> bool {
        let words = self.dense.entry(from).or_default();
        let (word, bit) = (
            usize::try_from(xid / 64).unwrap_or(usize::MAX),
            1 << (xid % 64),
        );
        if word > words.len() {
            return self.sparse.insert((from, xid));
        }
        if word == words.len() {
            words.push(0);
        }
        let fresh = words[word] & bit == 0;
        words[word] |= bit;
        fresh && !self.sparse.contains(&(from, xid))
    }
}

/// One open cross-shard transaction, from its begin event.
struct ShardTx {
    from_name: Name,
    to_name: Name,
    seq: u64,
    t_us: u64,
    /// The ownership move for this tx has been published.
    moved: bool,
}

/// Replay `events` and return every invariant violation found (empty =
/// the run upheld the protocol).
pub fn check_trace(events: &[TraceEvent]) -> Vec<Violation> {
    let mut st = CheckState::default();
    let mut out = Vec::new();
    for e in events {
        let (seq, t_us) = (u64::from(e.seq), e.t_us);
        let mut flag = |invariant: &'static str, detail: String| {
            out.push(Violation {
                seq,
                t_us,
                invariant,
                detail,
            });
        };
        match e.view() {
            Event::Meta { key, value } => match (key.as_str(), value.as_str()) {
                ("server_threads", n) => st.threads = n.parse().ok(),
                ("shards", n) => st.shards = n.parse().unwrap_or(1),
                ("disk_sched", "fifo") => st.disk_bound = Some(0),
                ("disk_sched", sched) => {
                    st.disk_bound = sched.strip_prefix("clook:").and_then(|k| k.parse().ok());
                }
                _ => {}
            },
            Event::DiskQueue { disk, req, .. } => {
                st.disk_pending.entry(disk).or_default().push((req, 0));
            }
            Event::DiskDone { disk, req, .. } => {
                let pending = st.disk_pending.entry(disk).or_default();
                match pending.iter().position(|&(r, _)| r == req) {
                    None => flag(
                        "disk-complete",
                        format!("{disk}: completion of req {req} that was never queued"),
                    ),
                    Some(p) => {
                        pending.remove(p);
                        // Everything that arrived earlier and is still
                        // pending was just bypassed once more.
                        for (r, bypass) in pending.iter_mut().take(p) {
                            *bypass += 1;
                            if let Some(k) = st.disk_bound {
                                if *bypass == k + 1 {
                                    flag(
                                        "disk-reorder",
                                        format!(
                                            "{disk}: req {r} bypassed {} times, \
                                             over the scheduler bound K = {k}",
                                            *bypass
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
            }
            Event::Transition {
                fh,
                cause,
                from,
                to,
                ..
            } => {
                let tracked = st.states.get(fh.index()).copied().unwrap_or_default();
                if tracked != from {
                    flag(
                        "legal-transition",
                        format!(
                            "{fh}: transition claims from={} but tracked state is {}",
                            from.name(),
                            tracked.name()
                        ),
                    );
                }
                if !legal(cause, from, to) {
                    flag(
                        "legal-transition",
                        format!(
                            "{fh}: {} -> {} is not a legal {} edge",
                            from.name(),
                            to.name(),
                            cause.name()
                        ),
                    );
                }
                *at(&mut st.states, fh) = to;
            }
            Event::CallbackBegin { target, fh, .. } => {
                st.cb_depth += 1;
                if let Some(n) = st.threads {
                    // With S shards each server enforces N−1 locally, so
                    // the trace-wide bound is S × (N−1).
                    let bound = st.shards.max(1) * n.saturating_sub(1);
                    if st.cb_depth > bound {
                        flag(
                            "callback-bound",
                            format!(
                                "{} callbacks in flight (to c{} for {fh}) exceeds the \
                                 bound {bound} ({} shard(s) x N-1)",
                                st.cb_depth,
                                target.0,
                                st.shards.max(1)
                            ),
                        );
                    }
                }
            }
            Event::CallbackEnd { .. } => {
                st.cb_depth = st.cb_depth.saturating_sub(1);
            }
            Event::OpenGrant {
                client,
                fh,
                version,
                cache_enabled,
                write,
                ..
            } => {
                if write {
                    let v = at(&mut st.latest_write_v, fh);
                    *v = (*v).max(version);
                }
                st.granted
                    .insert((client, fh), cache_enabled.then_some(version));
            }
            Event::Invalidate { client, fh } => {
                st.granted.remove(&(client, fh));
                st.dirty.remove(&(client, fh));
            }
            Event::CacheRead {
                client,
                fh,
                version,
            } => match st.granted.get(&(client, fh)) {
                None => flag(
                    "stale-read",
                    format!("c{} read {fh} from cache without a live grant", client.0),
                ),
                Some(None) => flag(
                    "stale-read",
                    format!(
                        "c{} read {fh} from cache while caching was disabled",
                        client.0
                    ),
                ),
                Some(&Some(g)) => {
                    if version != g {
                        flag(
                            "stale-read",
                            format!("c{} read {fh} at v{version} but was granted v{g}", client.0),
                        );
                    }
                    let latest = st.latest_write_v.get(fh.index()).copied().unwrap_or(0);
                    if version < latest {
                        flag(
                            "stale-read",
                            format!(
                                "c{} read {fh} at v{version}, older than latest write-open v{latest}",
                                client.0
                            ),
                        );
                    }
                }
            },
            Event::WriteCancel {
                client,
                fh,
                from_blk,
                blocks,
            } => {
                if from_blk == 0 {
                    st.removed.insert((client, fh), blocks);
                }
                if let Some(d) = st.dirty.get_mut(&(client, fh)) {
                    d.retain(|&b| b < from_blk);
                }
            }
            Event::BlockDirty { client, fh, blk } => {
                st.dirty.entry((client, fh)).or_default().insert(blk);
            }
            Event::RpcCall {
                from,
                xid,
                proc: NfsProc::Write,
                fh: Some(fh),
                offset,
                len,
            } => {
                if st.removed.contains_key(&(from, fh)) {
                    flag(
                        "cancelled-write",
                        format!(
                            "c{} flushed a delayed write to removed file {fh} \
                             (off {offset} len {len}) instead of cancelling it",
                            from.0
                        ),
                    );
                }
                if len > 0 {
                    let first = offset / BLOCK_SIZE as u64;
                    let last = (offset + len - 1) / BLOCK_SIZE as u64;
                    st.pending_writes.insert((from, xid), (fh, first, last));
                }
            }
            Event::RpcReply {
                from,
                xid,
                proc: NfsProc::Write,
                ok,
            } => {
                if let Some((fh, first, last)) = st.pending_writes.remove(&(from, xid)) {
                    if ok {
                        if let Some(d) = st.dirty.get_mut(&(from, fh)) {
                            d.retain(|&b| b < first || b > last);
                        }
                    }
                }
            }
            Event::FsyncOk { client, fh } => {
                if let Some(d) = st.dirty.get(&(client, fh)) {
                    if !d.is_empty() {
                        let blks: Vec<String> = d.iter().take(8).map(|b| b.to_string()).collect();
                        flag(
                            "fsync-claims",
                            format!(
                                "c{} fsync({fh}) returned OK with {} block(s) not yet \
                                 acknowledged by Write replies: [{}]",
                                client.0,
                                d.len(),
                                blks.join(",")
                            ),
                        );
                    }
                }
            }
            Event::HandlerBegin { from, xid, proc } if from.0 != 0 => {
                let (fresh, invariant) = if proc.idempotent() {
                    (st.running.insert((from, xid)), "dup-overlap")
                } else {
                    (st.executed.insert(from, xid), "dup-execution")
                };
                if !fresh {
                    let detail = format!("second handler execution for (c{}, xid {xid})", from.0);
                    flag(invariant, detail);
                }
            }
            Event::HandlerEnd {
                from, xid, proc, ..
            } if proc.idempotent() => {
                st.running.remove(&(from, xid));
            }
            Event::Batch {
                from,
                id,
                count,
                reply,
            } => {
                if reply {
                    match st.batches.remove(&(from, id)) {
                        None => flag(
                            "batch-conservation",
                            format!(
                                "c{} batch {id} reply of {count} without a matching request",
                                from.0
                            ),
                        ),
                        Some(sent) if sent != count => flag(
                            "batch-conservation",
                            format!(
                                "c{} batch {id} sent {sent} inner call(s) but the reply \
                                 carries {count}",
                                from.0
                            ),
                        ),
                        Some(_) => {}
                    }
                } else {
                    st.batches.insert((from, id), count);
                }
            }
            Event::DelegGrant { client, fh, write } => {
                let live = at(&mut st.deleg_live, fh);
                for &(h, w) in live.iter() {
                    if h != client && (write || w) {
                        flag(
                            "deleg-conflict",
                            format!(
                                "{fh}: {} delegation granted to c{} while c{} holds a {} one",
                                if write { "write" } else { "read" },
                                client.0,
                                h.0,
                                if w { "write" } else { "read" }
                            ),
                        );
                    }
                }
                live.retain(|&(h, _)| h != client);
                live.push((client, write));
            }
            Event::DelegRecall { client, fh } => {
                // A recall may legitimately reach a holder the server
                // already revoked (delayed delivery), so holding no live
                // delegation here is not itself a violation — but the
                // recall must still resolve via a return or revoke.
                st.deleg_recalls.insert((client, fh), (seq, t_us));
            }
            Event::DelegReturn { client, fh, .. } => {
                at(&mut st.deleg_live, fh).retain(|&(h, _)| h != client);
                st.deleg_recalls.remove(&(client, fh));
            }
            Event::DelegLocalOpen { client, fh, write } => {
                let covering = st
                    .deleg_live
                    .get(fh.index())
                    .is_some_and(|l| l.iter().any(|&(h, w)| h == client && (w || !write)));
                if !covering {
                    flag(
                        "deleg-local-open",
                        format!(
                            "c{} served a local {} open of {fh} without a covering live \
                             delegation (returned or revoked?)",
                            client.0,
                            if write { "write" } else { "read" }
                        ),
                    );
                }
                if st.deleg_recalls.contains_key(&(client, fh)) {
                    flag(
                        "deleg-local-open",
                        format!(
                            "c{} served a local open of {fh} while a recall is outstanding",
                            client.0
                        ),
                    );
                }
            }
            Event::ShardRoute { shard, name, .. } => {
                let n = st.shards.max(1) as u32;
                let owner = st
                    .shard_overrides
                    .get(&name)
                    .copied()
                    .unwrap_or_else(|| default_shard(name.as_str(), n));
                if owner != shard {
                    flag(
                        "shard-owner",
                        format!(
                            "shard {shard} served \"{name}\" but the layout owner is \
                             shard {owner}"
                        ),
                    );
                }
                for (txid, tx) in &st.shard_txs {
                    if !tx.moved && (tx.from_name == name || tx.to_name == name) {
                        flag(
                            "shard-atomicity",
                            format!(
                                "shard {shard} served \"{name}\" inside the window of \
                                 open cross-shard tx {txid}"
                            ),
                        );
                    }
                }
            }
            Event::ShardMove {
                from_name,
                to_name,
                shard,
                epoch,
            } => {
                if epoch <= st.shard_epoch {
                    flag(
                        "shard-epoch",
                        format!(
                            "move of \"{to_name}\" carries epoch {epoch}, not above the \
                             previous epoch {}",
                            st.shard_epoch
                        ),
                    );
                }
                st.shard_epoch = epoch;
                // Replay exactly what Layout::record_move does: the source
                // name ceases to exist; the target's override collapses
                // when the new owner is its default placement.
                if !from_name.as_str().is_empty() {
                    st.shard_overrides.remove(&from_name);
                }
                let n = st.shards.max(1) as u32;
                if default_shard(to_name.as_str(), n) == shard {
                    st.shard_overrides.remove(&to_name);
                } else {
                    st.shard_overrides.insert(to_name, shard);
                }
                if let Some(tx) = st
                    .shard_txs
                    .values_mut()
                    .find(|tx| !tx.moved && tx.to_name == to_name)
                {
                    tx.moved = true;
                }
            }
            Event::ShardTxBegin {
                txid,
                from_name,
                to_name,
                ..
            } => {
                if st.shard_txs.contains_key(&txid) {
                    flag("shard-tx", format!("cross-shard tx {txid} begun twice"));
                }
                st.shard_txs.insert(
                    txid,
                    ShardTx {
                        from_name,
                        to_name,
                        seq,
                        t_us,
                        moved: false,
                    },
                );
            }
            Event::ShardTxEnd { txid, committed } => match st.shard_txs.remove(&txid) {
                None => flag(
                    "shard-tx",
                    format!("cross-shard tx {txid} ended without a begin"),
                ),
                Some(tx) => {
                    if committed && !tx.moved {
                        flag(
                            "shard-tx",
                            format!(
                                "cross-shard tx {txid} committed but no ownership move \
                                 was published"
                            ),
                        );
                    }
                    if !committed && tx.moved {
                        flag(
                            "shard-tx",
                            format!(
                                "cross-shard tx {txid} aborted after publishing an \
                                 ownership move"
                            ),
                        );
                    }
                }
            },
            Event::ServerCrash => {
                st.states.clear();
                // Delegation state is NOT cleared here: the reboot discards
                // it server-side, but each holder must still explicitly
                // stop using its copy — clients emit a revoked deleg_return
                // when the recovery path discards their delegations, and
                // any local open served before that discard is checked
                // against the delegation they (still) hold.
            }
            _ => {}
        }
    }
    // A recall a client received must be resolved (returned or revoked)
    // by the end of the run.
    let mut unresolved: Vec<((ClientId, FhId), (u64, u64))> =
        st.deleg_recalls.into_iter().collect();
    unresolved.sort_unstable_by_key(|&(_, (seq, _))| seq);
    for ((client, fh), (seq, t_us)) in unresolved {
        out.push(Violation {
            seq,
            t_us,
            invariant: "deleg-recall-unresolved",
            detail: format!(
                "c{} never returned the recalled delegation on {fh} and it was never revoked",
                client.0
            ),
        });
    }
    // Every cross-shard transaction must resolve (commit or abort) by
    // the end of the run.
    for (txid, tx) in st.shard_txs {
        out.push(Violation {
            seq: tx.seq,
            t_us: tx.t_us,
            invariant: "shard-tx-unresolved",
            detail: format!(
                "cross-shard tx {txid} (\"{}\" -> \"{}\") never committed or aborted",
                tx.from_name, tx.to_name
            ),
        });
    }
    out
}

/// Count events of each kind, in order of first appearance — handy for
/// summaries.
pub fn kind_counts(events: &[TraceEvent]) -> Vec<(&'static str, usize)> {
    let mut order: Vec<Tag> = Vec::new();
    let mut counts = vec![0; Tag::NAMES.len()];
    for e in events {
        if counts[e.tag as usize] == 0 {
            order.push(e.tag);
        }
        counts[e.tag as usize] += 1;
    }
    let counted = order
        .into_iter()
        .map(|tag| (tag.name(), counts[tag as usize]));
    counted.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cause, EventKind};
    use spritely_proto::FileHandle;

    fn fh(i: u64) -> FileHandle {
        FileHandle::new(1, i, 1)
    }

    fn ev(seq: u64, kind: EventKind) -> TraceEvent {
        TraceEvent::new(seq, seq, 0, kind)
    }

    #[test]
    fn legal_open_close_cycle_passes() {
        let c = ClientId(1);
        let events = vec![
            ev(
                1,
                EventKind::Transition {
                    fh: fh(1),
                    cause: Cause::OpenWrite,
                    client: c,
                    from: FState::Closed,
                    to: FState::OneWriter,
                    version: 2,
                },
            ),
            ev(
                2,
                EventKind::Transition {
                    fh: fh(1),
                    cause: Cause::CloseWrite,
                    client: c,
                    from: FState::OneWriter,
                    to: FState::ClosedDirty,
                    version: 2,
                },
            ),
            ev(
                3,
                EventKind::Transition {
                    fh: fh(1),
                    cause: Cause::WritebackDone,
                    client: c,
                    from: FState::ClosedDirty,
                    to: FState::Closed,
                    version: 2,
                },
            ),
        ];
        assert!(check_trace(&events).is_empty());
    }

    #[test]
    fn illegal_transition_is_flagged() {
        let events = vec![ev(
            1,
            EventKind::Transition {
                fh: fh(1),
                cause: Cause::OpenRead,
                client: ClientId(1),
                from: FState::Closed,
                to: FState::WriteShared,
                version: 1,
            },
        )];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "legal-transition");
    }

    /// `legal` over every cause and pair of states: one line per
    /// `(cause, from)`, a column per `to` in [`FState::ALL`] order.
    const LEGAL: &str = "\
open_read      CLOSED        ..x....
open_read      CLOSED_DIRTY  ...x...
open_read      ONE_RDR       ..x.x..
open_read      ONE_RDR_DIRTY ...xx..
open_read      MULT_RDRS     ....x..
open_read      ONE_WRTR      .....xx
open_read      WRITE_SHARED  ......x
open_write     CLOSED        .....x.
open_write     CLOSED_DIRTY  .....x.
open_write     ONE_RDR       .....xx
open_write     ONE_RDR_DIRTY .....xx
open_write     MULT_RDRS     ......x
open_write     ONE_WRTR      .....xx
open_write     WRITE_SHARED  ......x
close_read     CLOSED        x......
close_read     CLOSED_DIRTY  .x.....
close_read     ONE_RDR       x.x....
close_read     ONE_RDR_DIRTY .x.x...
close_read     MULT_RDRS     ..xxx..
close_read     ONE_WRTR      .....x.
close_read     WRITE_SHARED  xx....x
close_write    CLOSED        x......
close_write    CLOSED_DIRTY  .x.....
close_write    ONE_RDR       ..x....
close_write    ONE_RDR_DIRTY ...x...
close_write    MULT_RDRS     ....x..
close_write    ONE_WRTR      xxxx.x.
close_write    WRITE_SHARED  xx....x
writeback_done CLOSED        x......
writeback_done CLOSED_DIRTY  xx.....
writeback_done ONE_RDR       ..x....
writeback_done ONE_RDR_DIRTY ..xx...
writeback_done MULT_RDRS     ....x..
writeback_done ONE_WRTR      .....x.
writeback_done WRITE_SHARED  ......x
client_crash   CLOSED        xxxxxxx
client_crash   CLOSED_DIRTY  xxxxxxx
client_crash   ONE_RDR       xxxxxxx
client_crash   ONE_RDR_DIRTY xxxxxxx
client_crash   MULT_RDRS     xxxxxxx
client_crash   ONE_WRTR      xxxxxxx
client_crash   WRITE_SHARED  xxxxxxx
removed        CLOSED        x......
removed        CLOSED_DIRTY  x......
removed        ONE_RDR       x......
removed        ONE_RDR_DIRTY x......
removed        MULT_RDRS     x......
removed        ONE_WRTR      x......
removed        WRITE_SHARED  x......
reclaim        CLOSED        x......
reclaim        CLOSED_DIRTY  x......
reclaim        ONE_RDR       x......
reclaim        ONE_RDR_DIRTY x......
reclaim        MULT_RDRS     x......
reclaim        ONE_WRTR      x......
reclaim        WRITE_SHARED  x......
restore        CLOSED        xxxxxxx
restore        CLOSED_DIRTY  xxxxxxx
restore        ONE_RDR       xxxxxxx
restore        ONE_RDR_DIRTY xxxxxxx
restore        MULT_RDRS     xxxxxxx
restore        ONE_WRTR      xxxxxxx
restore        WRITE_SHARED  xxxxxxx
deleg_return   CLOSED        xxxxxxx
deleg_return   CLOSED_DIRTY  xxxxxxx
deleg_return   ONE_RDR       xxxxxxx
deleg_return   ONE_RDR_DIRTY xxxxxxx
deleg_return   MULT_RDRS     xxxxxxx
deleg_return   ONE_WRTR      xxxxxxx
deleg_return   WRITE_SHARED  xxxxxxx
";

    #[test]
    fn legal_truth_table_is_pinned() {
        let mut table = String::new();
        for &cause in Cause::ALL {
            for &from in FState::ALL {
                table += &format!("{:<14} {:<13} ", cause.name(), from.name());
                for &to in FState::ALL {
                    table.push(if legal(cause, from, to) { 'x' } else { '.' });
                }
                table.push('\n');
            }
        }
        assert!(
            table == LEGAL,
            "legal() moved; this revision's table:\n{table}"
        );
    }

    #[test]
    fn transition_discontinuity_is_flagged() {
        // Claims from=ONE_WRTR but nothing ever opened the file.
        let events = vec![ev(
            1,
            EventKind::Transition {
                fh: fh(1),
                cause: Cause::CloseWrite,
                client: ClientId(1),
                from: FState::OneWriter,
                to: FState::Closed,
                version: 1,
            },
        )];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("tracked state"));
    }

    #[test]
    fn callback_bound_uses_meta_thread_count() {
        let mut events = vec![ev(
            1,
            EventKind::Meta {
                key: "server_threads",
                value: "3".into(),
            },
        )];
        for i in 0..3u64 {
            events.push(ev(
                2 + i,
                EventKind::CallbackBegin {
                    target: ClientId(i as u32 + 1),
                    fh: fh(1),
                    writeback: false,
                    invalidate: true,
                },
            ));
        }
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "third concurrent callback breaks N-1 = 2");
        assert_eq!(v[0].invariant, "callback-bound");
    }

    #[test]
    fn stale_version_read_is_flagged() {
        let c = ClientId(1);
        let events = vec![
            ev(
                1,
                EventKind::OpenGrant {
                    client: c,
                    fh: fh(1),
                    version: 3,
                    prev_version: 2,
                    cache_enabled: true,
                    write: false,
                },
            ),
            ev(
                2,
                EventKind::OpenGrant {
                    client: ClientId(2),
                    fh: fh(1),
                    version: 7,
                    prev_version: 3,
                    cache_enabled: true,
                    write: true,
                },
            ),
            // Client 1 was never invalidated in this forged trace and
            // keeps serving v3 — stale relative to the write open at v7.
            ev(
                3,
                EventKind::CacheRead {
                    client: c,
                    fh: fh(1),
                    version: 3,
                },
            ),
        ];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "stale-read");
        assert!(v[0].detail.contains("older than latest write-open"));
    }

    #[test]
    fn read_after_invalidate_is_flagged() {
        let c = ClientId(1);
        let events = vec![
            ev(
                1,
                EventKind::OpenGrant {
                    client: c,
                    fh: fh(1),
                    version: 3,
                    prev_version: 2,
                    cache_enabled: true,
                    write: false,
                },
            ),
            ev(
                2,
                EventKind::Invalidate {
                    client: c,
                    fh: fh(1),
                },
            ),
            ev(
                3,
                EventKind::CacheRead {
                    client: c,
                    fh: fh(1),
                    version: 3,
                },
            ),
        ];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("without a live grant"));
    }

    #[test]
    fn write_after_cancel_is_flagged_and_fsync_claims_checked() {
        let c = ClientId(1);
        let events = vec![
            ev(
                1,
                EventKind::BlockDirty {
                    client: c,
                    fh: fh(1),
                    blk: 0,
                },
            ),
            ev(
                2,
                EventKind::WriteCancel {
                    client: c,
                    fh: fh(1),
                    from_blk: 0,
                    blocks: 1,
                },
            ),
            ev(
                3,
                EventKind::RpcCall {
                    from: c,
                    xid: 9,
                    proc: NfsProc::Write,
                    fh: Some(fh(1)),
                    offset: 0,
                    len: BLOCK_SIZE as u64,
                },
            ),
            // And an fsync claiming a block that never got a Write reply.
            ev(
                4,
                EventKind::BlockDirty {
                    client: c,
                    fh: fh(2),
                    blk: 5,
                },
            ),
            ev(
                5,
                EventKind::FsyncOk {
                    client: c,
                    fh: fh(2),
                },
            ),
        ];
        let v = check_trace(&events);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].invariant, "cancelled-write");
        assert_eq!(v[1].invariant, "fsync-claims");
    }

    fn disk_q(seq: u64, req: u64) -> TraceEvent {
        ev(
            seq,
            EventKind::DiskQueue {
                disk: "d0".into(),
                req,
                block: req * 100,
                write: false,
            },
        )
    }

    fn disk_done(seq: u64, req: u64) -> TraceEvent {
        ev(
            seq,
            EventKind::DiskDone {
                disk: "d0".into(),
                req,
                block: req * 100,
                write: false,
                wait_us: 0,
                pos_us: 0,
            },
        )
    }

    fn sched_meta(value: &str) -> TraceEvent {
        ev(
            1,
            EventKind::Meta {
                key: "disk_sched",
                value: value.into(),
            },
        )
    }

    #[test]
    fn fifo_disk_completions_in_order_pass() {
        let events = vec![
            sched_meta("fifo"),
            disk_q(2, 1),
            disk_q(3, 2),
            disk_done(4, 1),
            disk_done(5, 2),
        ];
        assert!(check_trace(&events).is_empty());
    }

    #[test]
    fn fifo_disk_reorder_is_flagged() {
        let events = vec![
            sched_meta("fifo"),
            disk_q(2, 1),
            disk_q(3, 2),
            disk_done(4, 2), // bypasses req 1 under a FIFO scheduler
            disk_done(5, 1),
        ];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "disk-reorder");
    }

    #[test]
    fn clook_reorder_within_bound_passes_and_over_bound_is_flagged() {
        // K = 1: req 1 may be bypassed once but not twice.
        let within = vec![
            sched_meta("clook:1"),
            disk_q(2, 1),
            disk_q(3, 2),
            disk_done(4, 2),
            disk_done(5, 1),
        ];
        assert!(check_trace(&within).is_empty());
        let over = vec![
            sched_meta("clook:1"),
            disk_q(2, 1),
            disk_q(3, 2),
            disk_q(4, 3),
            disk_done(5, 2),
            disk_done(6, 3), // second bypass of req 1
            disk_done(7, 1),
        ];
        let v = check_trace(&over);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "disk-reorder");
        assert!(v[0].detail.contains("bypassed 2 times"));
    }

    #[test]
    fn unqueued_disk_completion_is_flagged() {
        let events = vec![sched_meta("fifo"), disk_done(2, 7)];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "disk-complete");
    }

    #[test]
    fn batch_conservation_checked_per_from_and_id() {
        let c = ClientId(1);
        let good = vec![
            ev(
                1,
                EventKind::Batch {
                    from: c,
                    id: 0,
                    count: 3,
                    reply: false,
                },
            ),
            ev(
                2,
                EventKind::Batch {
                    from: c,
                    id: 0,
                    count: 3,
                    reply: true,
                },
            ),
        ];
        assert!(check_trace(&good).is_empty());
        let short = vec![
            ev(
                1,
                EventKind::Batch {
                    from: c,
                    id: 0,
                    count: 3,
                    reply: false,
                },
            ),
            ev(
                2,
                EventKind::Batch {
                    from: c,
                    id: 0,
                    count: 2,
                    reply: true,
                },
            ),
        ];
        let v = check_trace(&short);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "batch-conservation");
        let orphan = vec![ev(
            1,
            EventKind::Batch {
                from: c,
                id: 7,
                count: 1,
                reply: true,
            },
        )];
        let v = check_trace(&orphan);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("without a matching request"));
    }

    #[test]
    fn duplicate_handler_execution_is_flagged() {
        let begin = |seq, from: u32, xid| {
            ev(
                seq,
                EventKind::HandlerBegin {
                    from: ClientId(from),
                    xid,
                    proc: NfsProc::Write,
                },
            )
        };
        // Same (from, xid) twice: the dup cache failed. An xid in the
        // first word of the caller's set, or far past its end.
        for xid in [5, (1 << 31) + 5, 1 << 33] {
            let v = check_trace(&[begin(1, 1, xid), begin(2, 1, xid)]);
            assert_eq!(v.len(), 1, "xid {xid}");
            assert_eq!(v[0].invariant, "dup-execution");
        }
        // Executed far ahead of the set, then again once it has grown
        // there.
        let mut trace: Vec<TraceEvent> = (0..200).map(|x| begin(x + 1, 1, x)).collect();
        trace.insert(0, begin(0, 1, 150));
        let v = check_trace(&trace);
        assert_eq!((v.len(), v[0].seq), (1, 151));
        // Distinct xids, and server-originated callbacks (from 0), pass.
        let ok = check_trace(&[
            begin(1, 1, 5),
            begin(2, 1, 6),
            begin(3, 0, 0),
            begin(4, 0, 0),
            begin(5, 0, 1 << 33),
            begin(6, 0, 1 << 33),
        ]);
        assert!(ok.is_empty());
        // A forged pair is flagged like any other (`tests/zero_copy.rs`
        // holds what checking it costs).
        let (forged, to) = (begin(1, u32::MAX, u64::MAX), begin(2, u32::MAX, u64::MAX));
        let v = check_trace(&[forged, to]);
        assert_eq!((v.len(), v[0].invariant), (1, "dup-execution"));
        // An idempotent call executes again once its execution has ended,
        // but never while it runs.
        let (from, xid, proc) = (ClientId(1), 5, NfsProc::Read);
        let read = |seq| ev(seq, EventKind::HandlerBegin { from, xid, proc });
        let end = |seq| {
            let ok = true;
            ev(
                seq,
                EventKind::HandlerEnd {
                    from,
                    xid,
                    proc,
                    ok,
                },
            )
        };
        assert!(check_trace(&[read(1), end(2), read(3), end(4)]).is_empty());
        let v = check_trace(&[read(1), read(2), end(3), end(4)]);
        assert_eq!((v.len(), v[0].seq, v[0].invariant), (1, 2, "dup-overlap"));
    }

    #[test]
    fn conflicting_delegations_are_flagged() {
        let grant = |seq, client: u32, write| {
            ev(
                seq,
                EventKind::DelegGrant {
                    client: ClientId(client),
                    fh: fh(1),
                    write,
                },
            )
        };
        // Two read delegations coexist fine.
        assert!(check_trace(&[grant(1, 1, false), grant(2, 2, false)]).is_empty());
        // A write delegation while a read one is live conflicts.
        let v = check_trace(&[grant(1, 1, false), grant(2, 2, true)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "deleg-conflict");
        // Anything granted while a write delegation is live conflicts.
        let v = check_trace(&[grant(1, 1, true), grant(2, 2, false)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "deleg-conflict");
        // ...but returning it first is fine.
        let ok = check_trace(&[
            grant(1, 1, true),
            ev(
                2,
                EventKind::DelegReturn {
                    client: ClientId(1),
                    fh: fh(1),
                    revoked: false,
                },
            ),
            grant(3, 2, false),
        ]);
        assert!(ok.is_empty());
    }

    #[test]
    fn local_open_needs_a_covering_live_delegation() {
        let c = ClientId(1);
        let local = |seq, write| {
            ev(
                seq,
                EventKind::DelegLocalOpen {
                    client: c,
                    fh: fh(1),
                    write,
                },
            )
        };
        // No grant at all.
        let v = check_trace(&[local(1, false)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "deleg-local-open");
        // A read delegation does not cover a local write open.
        let v = check_trace(&[
            ev(
                1,
                EventKind::DelegGrant {
                    client: c,
                    fh: fh(1),
                    write: false,
                },
            ),
            local(2, true),
        ]);
        assert_eq!(v.len(), 1);
        // Use after revoke is flagged.
        let v = check_trace(&[
            ev(
                1,
                EventKind::DelegGrant {
                    client: c,
                    fh: fh(1),
                    write: true,
                },
            ),
            local(2, true),
            ev(
                3,
                EventKind::DelegReturn {
                    client: c,
                    fh: fh(1),
                    revoked: true,
                },
            ),
            local(4, false),
        ]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("returned or revoked"));
    }

    #[test]
    fn local_open_during_outstanding_recall_is_flagged() {
        let c = ClientId(1);
        let events = vec![
            ev(
                1,
                EventKind::DelegGrant {
                    client: c,
                    fh: fh(1),
                    write: true,
                },
            ),
            ev(
                2,
                EventKind::DelegRecall {
                    client: c,
                    fh: fh(1),
                },
            ),
            ev(
                3,
                EventKind::DelegLocalOpen {
                    client: c,
                    fh: fh(1),
                    write: false,
                },
            ),
            ev(
                4,
                EventKind::DelegReturn {
                    client: c,
                    fh: fh(1),
                    revoked: false,
                },
            ),
        ];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("recall is outstanding"));
    }

    #[test]
    fn unresolved_recall_is_flagged_resolved_is_not() {
        let c = ClientId(1);
        let grant = ev(
            1,
            EventKind::DelegGrant {
                client: c,
                fh: fh(1),
                write: false,
            },
        );
        let recall = ev(
            2,
            EventKind::DelegRecall {
                client: c,
                fh: fh(1),
            },
        );
        let v = check_trace(&[grant, recall]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "deleg-recall-unresolved");
        // A revoke resolves it just as a return does.
        let resolved = check_trace(&[
            grant,
            recall,
            ev(
                3,
                EventKind::DelegReturn {
                    client: c,
                    fh: fh(1),
                    revoked: true,
                },
            ),
        ]);
        assert!(resolved.is_empty());
    }

    fn shards_meta(n: u64) -> TraceEvent {
        ev(
            1,
            EventKind::Meta {
                key: "shards",
                value: n.to_string().as_str().into(),
            },
        )
    }

    fn route(seq: u64, shard: u32, name: &str) -> TraceEvent {
        ev(
            seq,
            EventKind::ShardRoute {
                shard,
                name: name.into(),
                epoch: 1,
            },
        )
    }

    #[test]
    fn shard_route_must_match_layout_owner() {
        let n = 4;
        let name = "alpha";
        let owner = default_shard(name, n as u32);
        let wrong = (owner + 1) % n as u32;
        assert!(check_trace(&[shards_meta(n), route(2, owner, name)]).is_empty());
        let v = check_trace(&[shards_meta(n), route(2, wrong, name)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "shard-owner");
    }

    #[test]
    fn shard_move_retargets_ownership_and_epochs_increase() {
        let n = 4u64;
        let name = "beta";
        let owner = default_shard(name, n as u32);
        let new_owner = (owner + 1) % n as u32;
        let mv = |seq, epoch| {
            ev(
                seq,
                EventKind::ShardMove {
                    from_name: "".into(),
                    to_name: name.into(),
                    shard: new_owner,
                    epoch,
                },
            )
        };
        // After the move, the new owner serves the name; the old one must not.
        let ok = check_trace(&[shards_meta(n), mv(2, 2), route(3, new_owner, name)]);
        assert!(ok.is_empty());
        let v = check_trace(&[shards_meta(n), mv(2, 2), route(3, owner, name)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "shard-owner");
        // A stale epoch on a second move is flagged.
        let v = check_trace(&[shards_meta(n), mv(2, 2), mv(3, 2)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "shard-epoch");
    }

    #[test]
    fn shard_tx_window_is_atomic() {
        let n = 2u64;
        let name = "gamma";
        let owner = default_shard(name, n as u32);
        let begin = ev(
            2,
            EventKind::ShardTxBegin {
                txid: 1,
                from_shard: 0,
                to_shard: 1,
                from_name: "src".into(),
                to_name: name.into(),
                link: false,
            },
        );
        let mv = ev(
            4,
            EventKind::ShardMove {
                from_name: "src".into(),
                to_name: name.into(),
                shard: owner,
                epoch: 2,
            },
        );
        let end = |seq, committed| ev(seq, EventKind::ShardTxEnd { txid: 1, committed });
        // Serving either name inside the begin..move window is flagged.
        let v = check_trace(&[
            shards_meta(n),
            begin,
            route(3, owner, name),
            mv,
            end(5, true),
        ]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "shard-atomicity");
        // After the move the name is served freely again.
        let ok = check_trace(&[
            shards_meta(n),
            begin,
            mv,
            route(5, owner, name),
            end(6, true),
        ]);
        assert!(ok.is_empty());
        // A committed end without a move, and an unresolved begin, are flagged.
        let v = check_trace(&[shards_meta(n), begin, end(3, true)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "shard-tx");
        let v = check_trace(&[shards_meta(n), begin]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "shard-tx-unresolved");
    }

    #[test]
    fn callback_bound_scales_with_shard_count() {
        // 2 shards x (3-1) threads = 4 concurrent callbacks allowed.
        let mut events = vec![
            ev(
                1,
                EventKind::Meta {
                    key: "server_threads",
                    value: "3".into(),
                },
            ),
            ev(
                2,
                EventKind::Meta {
                    key: "shards",
                    value: "2".into(),
                },
            ),
        ];
        for i in 0..5u64 {
            events.push(ev(
                3 + i,
                EventKind::CallbackBegin {
                    target: ClientId(i as u32 + 1),
                    fh: fh(1),
                    writeback: false,
                    invalidate: true,
                },
            ));
        }
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "fifth concurrent callback breaks 2 x (N-1) = 4");
        assert_eq!(v[0].invariant, "callback-bound");
    }

    #[test]
    fn ok_write_replies_discharge_fsync_claims() {
        let c = ClientId(1);
        let events = vec![
            ev(
                1,
                EventKind::BlockDirty {
                    client: c,
                    fh: fh(1),
                    blk: 0,
                },
            ),
            ev(
                2,
                EventKind::BlockDirty {
                    client: c,
                    fh: fh(1),
                    blk: 1,
                },
            ),
            ev(
                3,
                EventKind::RpcCall {
                    from: c,
                    xid: 1,
                    proc: NfsProc::Write,
                    fh: Some(fh(1)),
                    offset: 0,
                    len: 2 * BLOCK_SIZE as u64,
                },
            ),
            ev(
                4,
                EventKind::RpcReply {
                    from: c,
                    xid: 1,
                    proc: NfsProc::Write,
                    ok: true,
                },
            ),
            ev(
                5,
                EventKind::FsyncOk {
                    client: c,
                    fh: fh(1),
                },
            ),
        ];
        assert!(check_trace(&events).is_empty());
    }
}
