//! Table 4-1, stated once: the server state machine of paper §4.3.4
//! (Figure 4-2) as one relation, [`TABLE_4_1`]. The state table expands
//! an open's row into its callbacks ([`open_row`]), the trace checker
//! holds every recorded transition to the rows ([`legal`]), and the state
//! table's proptest checks each open against the row it selects.

use crate::{Cause, FState};
use Cause::{CloseRead, CloseWrite, OpenRead, OpenWrite, WritebackDone};
use FState::{Closed, ClosedDirty, MultReaders, OneRdrDirty, OneReader, OneWriter, WriteShared};
use Role::{Holder, NewHost, OpenHolder, Opener};

/// Who a host is to a file's table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Neither has the file open nor holds its dirty blocks.
    NewHost,
    /// Has the file open and holds no dirty blocks.
    Opener,
    /// Holds the dirty blocks of the last caching write, with no open.
    Holder,
    /// Has the file open and holds its dirty blocks.
    OpenHolder,
}

impl Role {
    /// The role of a host that has the file `open` and `holds` its dirty
    /// blocks, or not.
    pub fn of(open: bool, holds: bool) -> Role {
        [[NewHost, Holder], [Opener, OpenHolder]][usize::from(open)][usize::from(holds)]
    }
}

/// What a callback asks of its target; neither is no callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ask {
    pub writeback: bool,
    pub invalidate: bool,
}

#[rustfmt::skip]
const NO: Ask = Ask { writeback: false, invalidate: false };
#[rustfmt::skip]
const INV: Ask = Ask { writeback: false, invalidate: true };
#[rustfmt::skip]
const WB: Ask = Ask { writeback: true, invalidate: false };
#[rustfmt::skip]
const BOTH: Ask = Ask { writeback: true, invalidate: true };

/// Every role: a close or a write-back moves the same whoever sends it.
const ANY: &[Role] = &[NewHost, Opener, Holder, OpenHolder];
const OPEN: &[Role] = &[Opener, OpenHolder];
/// A host without an open: it is not called back for its own blocks.
const NOT_OPEN: &[Role] = &[NewHost, Holder];

/// One row of Table 4-1: `cause`, from a host in one of the `opener`
/// roles, moves the entry from `from` to `to`; before an open's reply,
/// every other host is asked what `asks` holds for its role, in the
/// order [`Opener`], [`Holder`], [`OpenHolder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub from: FState,
    pub cause: Cause,
    pub opener: &'static [Role],
    pub to: FState,
    pub asks: [Ask; 3],
}

impl Row {
    /// What the row asks of a host in `role` other than the opener.
    pub fn ask(&self, role: Role) -> Ask {
        match role {
            NewHost => NO,
            Opener => self.asks[0],
            Holder => self.asks[1],
            OpenHolder => self.asks[2],
        }
    }

    /// True if nobody may cache the file after the open: WRITE_SHARED,
    /// which lasts until every host has closed it.
    pub fn uncaches(&self) -> bool {
        self.to == WriteShared
    }
}

#[rustfmt::skip]
const fn open(from: FState, cause: Cause, opener: &'static [Role], to: FState, asks: [Ask; 3]) -> Row {
    Row { from, cause, opener, to, asks }
}

#[rustfmt::skip]
const fn edge(from: FState, cause: Cause, to: FState) -> Row {
    Row { from, cause, opener: ANY, to, asks: [NO; 3] }
}

/// The relation. An open's `to` is the state once it is recorded, before
/// any write-back it asks for; a role no other host can hold there reads NO.
#[rustfmt::skip]
pub const TABLE_4_1: &[Row] = &[
    //   from         cause      opener          to           opener holder open-holder
    open(Closed,      OpenRead,  ANY,            OneReader,   [NO,   NO,   NO  ]), // Table 4-1: first open, may cache
    open(Closed,      OpenWrite, ANY,            OneWriter,   [NO,   NO,   NO  ]), // Table 4-1: first open, may cache
    open(ClosedDirty, OpenRead,  ANY,            OneRdrDirty, [NO,   WB,   NO  ]), // Table 4-1: another host needs the last writer's blocks
    open(ClosedDirty, OpenWrite, ANY,            OneWriter,   [NO,   BOTH, NO  ]), // Table 4-1: ...and the new version makes its copy stale
    open(OneReader,   OpenRead,  OPEN,           OneReader,   [NO,   NO,   NO  ]), // §4.3.4: another open by the same host
    open(OneReader,   OpenRead,  NOT_OPEN,       MultReaders, [NO,   NO,   NO  ]), // Table 4-1: readers share the cache
    open(OneReader,   OpenWrite, OPEN,           OneWriter,   [NO,   NO,   NO  ]), // Table 4-1: the sole reader writes, keeps its cache
    open(OneReader,   OpenWrite, NOT_OPEN,       WriteShared, [INV,  NO,   NO  ]), // Table 4-1: a writer joins a reader
    open(OneRdrDirty, OpenRead,  &[OpenHolder],  OneRdrDirty, [NO,   NO,   NO  ]), // §4.3.4: the holder reads again
    open(OneRdrDirty, OpenRead,  &[Opener],      OneRdrDirty, [NO,   WB,   NO  ]), // §4.3.4: the reader needs another host's blocks
    open(OneRdrDirty, OpenRead,  NOT_OPEN,       MultReaders, [NO,   WB,   WB  ]), // Table 4-1: a second reader needs the blocks
    open(OneRdrDirty, OpenWrite, &[OpenHolder],  OneWriter,   [NO,   NO,   NO  ]), // Table 4-1: the holder writes again
    open(OneRdrDirty, OpenWrite, &[Opener],      WriteShared, [NO,   BOTH, NO  ]), // §4.3.4: the reader writes over another host's blocks
    open(OneRdrDirty, OpenWrite, NOT_OPEN,       WriteShared, [INV,  BOTH, BOTH]), // Table 4-1: a writer joins
    open(MultReaders, OpenRead,  ANY,            MultReaders, [NO,   NO,   NO  ]), // Table 4-1: one more reader
    open(MultReaders, OpenWrite, ANY,            WriteShared, [INV,  NO,   INV ]), // Table 4-1: a writer joins the readers
    open(OneWriter,   OpenRead,  OPEN,           OneWriter,   [NO,   NO,   NO  ]), // §4.3.4: the writer also reads
    open(OneWriter,   OpenRead,  NOT_OPEN,       WriteShared, [BOTH, NO,   BOTH]), // Table 4-1: a reader joins the writer
    open(OneWriter,   OpenWrite, OPEN,           OneWriter,   [NO,   NO,   NO  ]), // §4.3.4: another write open by the writer
    open(OneWriter,   OpenWrite, NOT_OPEN,       WriteShared, [BOTH, NO,   BOTH]), // Table 4-1: a second writer joins
    open(WriteShared, OpenRead,  ANY,            WriteShared, [NO,   NO,   NO  ]), // Table 4-1: uncached until every host closes
    open(WriteShared, OpenWrite, ANY,            WriteShared, [NO,   NO,   NO  ]), // Table 4-1: uncached until every host closes
    edge(OneReader,   CloseRead,     Closed),      // Table 4-1: last close
    edge(OneRdrDirty, CloseRead,     ClosedDirty), // Table 4-1: last close, blocks still dirty
    edge(MultReaders, CloseRead,     OneReader),   // Table 4-1: one reader left
    edge(MultReaders, CloseRead,     OneRdrDirty), // §4.3.4: one reader left, another host's blocks dirty
    edge(WriteShared, CloseRead,     Closed),      // Table 4-1: last close ends write sharing
    edge(WriteShared, CloseRead,     ClosedDirty), // §4.3.4: last close, an earlier writer's blocks dirty
    edge(OneWriter,   CloseWrite,    Closed),      // §4.3.4: a writer that wrote through (§6.1) leaves nothing dirty
    edge(OneWriter,   CloseWrite,    ClosedDirty), // Table 4-1: last close, delayed writes dirty
    edge(OneWriter,   CloseWrite,    OneReader),   // §4.3.4: a writer that wrote through (§6.1) keeps reading
    edge(OneWriter,   CloseWrite,    OneRdrDirty), // Table 4-1: the writer keeps reading, blocks dirty
    edge(WriteShared, CloseWrite,    Closed),      // Table 4-1: last close ends write sharing
    edge(WriteShared, CloseWrite,    ClosedDirty), // §4.3.4: last close, an earlier writer's blocks dirty
    edge(ClosedDirty, WritebackDone, Closed),      // Table 4-1: the last writer wrote back
    edge(OneRdrDirty, WritebackDone, OneReader),   // Table 4-1: the holder wrote back
];

/// Causes that may also leave any state as it was: a close while the host
/// keeps another open (or holds none the table counts), a write-back of
/// blocks the state does not show (§4.3.4).
const STAYS: &[Cause] = &[CloseRead, CloseWrite, WritebackDone];

/// The row an open (`cause` is [`OpenRead`] or [`OpenWrite`]) by a host in
/// `role` takes from `from`; the relation has one for each.
pub fn open_row(from: FState, cause: Cause, role: Role) -> &'static Row {
    TABLE_4_1
        .iter()
        .find(|r| r.from == from && r.cause == cause && r.opener.contains(&role))
        .expect("Table 4-1 has a row for every open")
}

/// Is `from --cause--> to` an edge of the server state machine? A crash,
/// a recovery or a delegation's return (a whole queued open/close history
/// at once) may land anywhere; a removal or a reclaim drops the entry,
/// which reads as CLOSED.
pub fn legal(cause: Cause, from: FState, to: FState) -> bool {
    match cause {
        Cause::ClientCrash | Cause::Restore | Cause::DelegReturn => true,
        Cause::Removed | Cause::Reclaim => to == Closed,
        _ if to == from && STAYS.contains(&cause) => true,
        _ => TABLE_4_1
            .iter()
            .any(|r| (r.from, r.cause, r.to) == (from, cause, to)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `open_row` takes the first match, so a second row for one open
    /// would never be read: every open has exactly one.
    #[test]
    fn every_open_has_exactly_one_row() {
        for &from in FState::ALL {
            for cause in [OpenRead, OpenWrite] {
                for role in ANY {
                    let rows = TABLE_4_1
                        .iter()
                        .filter(|r| r.from == from && r.cause == cause && r.opener.contains(role));
                    assert_eq!(rows.count(), 1, "{from} {} {role:?}", cause.name());
                }
            }
        }
    }
}
