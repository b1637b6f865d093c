//! Shared protocol types for NFS and Spritely NFS (SNFS).
//!
//! Both the baseline NFS implementation (`spritely-nfs`) and the Spritely
//! NFS implementation (`spritely-core`) speak in terms of the types defined
//! here: opaque file handles, file attributes, procedure identifiers,
//! status codes, and the request/reply message bodies carried by the RPC
//! layer.
//!
//! The split mirrors the paper's implementation: SNFS reuses the NFS wire
//! vocabulary and *adds* three operations — `open`, `close` (client→server)
//! and `callback` (server→client) — plus a per-file version number.
//!
//! File data travels in the refcounted buffers of [`Buf`] and [`Payload`],
//! never in a `Vec<u8>` (DESIGN.md "Buffer ownership").
//!
//! This crate is dependency-free; times inside attributes are raw virtual
//! microseconds (see `spritely-sim::SimTime`).

mod attr;
mod buf;
mod handle;
mod layout;
mod message;
mod name;
mod procs;
mod status;

pub use attr::{Fattr, FileType};
pub use buf::{Buf, Payload};
pub use handle::{ClientId, FileHandle, FileVersion};
pub use layout::{default_shard, Fnv, Layout};
pub use message::{
    CallbackArg, Delegation, DirEntry, NfsReply, NfsRequest, OpenReply, ReadReply, RecoveredFile,
    COMPOUND_OP_BYTES,
};
pub use name::Name;
pub use procs::{NfsProc, ProcClass};
pub use status::{NfsStatus, Result};

/// The file system block size used throughout the simulation, in bytes.
///
/// The paper's experiments used a 4 KB "natural" server block size (§5.2);
/// every cache and transfer in this reproduction is block-granular at this
/// size.
pub const BLOCK_SIZE: usize = 4096;

/// Returns the block index containing byte `offset`.
pub const fn block_of(offset: u64) -> u64 {
    offset / BLOCK_SIZE as u64
}

/// Returns the number of blocks needed to hold `size` bytes.
pub const fn blocks_for(size: u64) -> u64 {
    size.div_ceil(BLOCK_SIZE as u64)
}

/// The blocks a transfer of bytes `[offset, end)` touches, `end > offset`:
/// each logical block with the byte range of it the transfer covers. The
/// spans' lengths add up to `end - offset`, in order.
pub fn block_spans(offset: u64, end: u64) -> impl Iterator<Item = (u64, usize, usize)> {
    (block_of(offset)..=block_of(end - 1)).map(move |lblk| {
        let start = lblk * BLOCK_SIZE as u64;
        let from = (offset.max(start) - start) as usize;
        let to = (end - start).min(BLOCK_SIZE as u64) as usize;
        (lblk, from, to)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_math() {
        assert_eq!(block_of(0), 0);
        assert_eq!(block_of(4095), 0);
        assert_eq!(block_of(4096), 1);
        assert_eq!(blocks_for(0), 0);
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(4096), 1);
        assert_eq!(blocks_for(4097), 2);
    }

    #[test]
    fn spans_cover_a_transfer_exactly() {
        let b = BLOCK_SIZE as u64;
        let spans: Vec<_> = block_spans(b - 10, 2 * b + 5).collect();
        assert_eq!(
            spans,
            vec![
                (0, BLOCK_SIZE - 10, BLOCK_SIZE),
                (1, 0, BLOCK_SIZE),
                (2, 0, 5)
            ]
        );
        // The shapes the write paths walk: a span ending exactly on a
        // block boundary touches no block past it, a single byte (the
        // last of a block) is one span, a span starting mid-block and
        // ending mid-block of the same block stays inside it.
        let spans = |a, z| block_spans(a, z).collect::<Vec<_>>();
        assert_eq!(
            spans(100, 2 * b),
            vec![(0, 100, BLOCK_SIZE), (1, 0, BLOCK_SIZE)]
        );
        assert_eq!(spans(3, 4), vec![(0, 3, 4)]);
        assert_eq!(spans(b - 1, b), vec![(0, BLOCK_SIZE - 1, BLOCK_SIZE)]);
        assert_eq!(spans(b + 7, b + 9), vec![(1, 7, 9)]);
        assert_eq!(spans(b, 2 * b), vec![(1, 0, BLOCK_SIZE)]);
    }
}
