//! The one buffer file data lives in, from `write(2)` to the platter.
//!
//! [`Buf`] is an immutable, refcounted, sliceable run of bytes; a
//! [`Payload`] is an ordered list of them. Every layer that holds or
//! moves file data — message bodies, the three block caches, the stable
//! store — holds these, so handing a block from one layer to the next
//! (or cloning a request for a batch, an attempt or a retransmission)
//! bumps a reference count instead of copying 4 KB. DESIGN.md "Buffer
//! ownership" has the rules; the short form:
//!
//! * bytes are copied **in** once ([`Buf::from`] a `&[u8]`,
//!   [`Payload::copy_in`]) and **out** once ([`Payload::to_vec`], or
//!   `extend_from_slice` of a `Buf`);
//! * nothing mutates a `Buf`. A partial overwrite builds a new buffer
//!   ([`Buf::patched`]), so every earlier holder keeps the old bytes;
//! * holes and never-written blocks are slices of one shared zero block
//!   ([`Buf::zeros`]).
//!
//! `Rc`, not `Arc`: a simulation never leaves its thread.

use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

use crate::BLOCK_SIZE;

thread_local! {
    /// The zero block every hole, and the empty buffer, are slices of.
    static ZERO_BLOCK: Rc<[u8]> = Rc::from([0u8; BLOCK_SIZE].as_slice());
}

/// An immutable, refcounted byte buffer: a range of a shared allocation.
/// Cloning bumps a reference count; [`slice`](Self::slice) shares the
/// allocation.
///
/// The range is two `u32`s so that a `Buf`, and with it a one-segment
/// [`Payload`], is the size of the `Vec<u8>` it replaced: messages did
/// not grow, and moving one through rpcnet costs what it did.
#[derive(Clone)]
pub struct Buf {
    bytes: Rc<[u8]>,
    start: u32,
    end: u32,
}

impl Buf {
    /// The empty buffer (allocates nothing).
    pub fn empty() -> Buf {
        Buf::zeros(0)
    }

    /// `len` zero bytes. Up to a block they are a slice of the shared
    /// zero block; longer runs allocate.
    pub fn zeros(len: usize) -> Buf {
        if len <= BLOCK_SIZE {
            Buf {
                bytes: ZERO_BLOCK.with(Rc::clone),
                start: 0,
                end: len as u32,
            }
        } else {
            Buf::filled(len, |_| {})
        }
    }

    /// All of a fresh allocation.
    ///
    /// # Panics
    ///
    /// Panics if it is 4 GiB or longer (file data moves in blocks).
    fn whole(bytes: Rc<[u8]>) -> Buf {
        let end = u32::try_from(bytes.len()).expect("buffer shorter than 4 GiB");
        Buf {
            bytes,
            start: 0,
            end,
        }
    }

    /// A fresh `len`-byte buffer, zeroed and then written by `fill`: the
    /// one place a buffer is ever written, before anyone else can hold it.
    fn filled(len: usize, fill: impl FnOnce(&mut [u8])) -> Buf {
        let mut bytes: Rc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        fill(Rc::get_mut(&mut bytes).expect("fresh allocation is unshared"));
        Buf::whole(bytes)
    }

    /// `a` followed by `b`, in one new allocation.
    pub fn concat(a: &[u8], b: &[u8]) -> Buf {
        Buf::filled(a.len() + b.len(), |dst| {
            dst[..a.len()].copy_from_slice(a);
            dst[a.len()..].copy_from_slice(b);
        })
    }

    /// The sub-range `range` of this buffer, sharing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: Range<usize>) -> Buf {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} of a {}-byte buffer",
            self.len()
        );
        // In bounds of a range that fits `u32`, so the casts are exact.
        Buf {
            bytes: Rc::clone(&self.bytes),
            start: self.start + range.start as u32,
            end: self.start + range.end as u32,
        }
    }

    /// Copy-on-write: a new buffer holding this one's bytes with `chunk`
    /// written at `at`, zero-extended if `chunk` reaches past the end.
    /// `self` — and everyone else holding it — keeps the old bytes.
    pub fn patched(&self, at: usize, chunk: &[u8]) -> Buf {
        let len = self.len().max(at + chunk.len());
        Buf::filled(len, |dst| {
            dst[..self.len()].copy_from_slice(self);
            dst[at..at + chunk.len()].copy_from_slice(chunk);
        })
    }

    /// True if both buffers are views of one allocation (tests use this
    /// to tell a shared block from a copy of it).
    pub fn shares_allocation(&self, other: &Buf) -> bool {
        Rc::ptr_eq(&self.bytes, &other.bytes)
    }
}

impl Deref for Buf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[self.start as usize..self.end as usize]
    }
}

impl Default for Buf {
    fn default() -> Buf {
        Buf::empty()
    }
}

/// Copy-in: the bytes are copied into a fresh allocation.
impl From<&[u8]> for Buf {
    fn from(src: &[u8]) -> Buf {
        Buf::whole(Rc::from(src))
    }
}

/// Copies, like every `Vec` → `Rc<[T]>` conversion (the reference counts
/// live in front of the bytes). For callers that already own a `Vec`.
impl From<Vec<u8>> for Buf {
    fn from(src: Vec<u8>) -> Buf {
        Buf::from(src.as_slice())
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Buf) -> bool {
        **self == **other
    }
}

impl Eq for Buf {}

impl fmt::Debug for Buf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// File data on the move: an ordered list of [`Buf`] segments, read as
/// their concatenation. A gathered 16-block write is sixteen segments,
/// each the cache's own buffer; a read reply is slices of the server's
/// cached blocks. [`len`](Self::len) is the sum, so wire sizes do not
/// depend on how the bytes are segmented — and neither does equality.
/// A clone allocates nothing, however many segments: it shares the list,
/// and a [`push`](Self::push) onto a shared list copies it first, so a
/// request waiting to be retransmitted keeps the bytes it was built with.
#[derive(Clone, Default)]
pub struct Payload(Repr);

/// Most payloads are one block: that segment is held inline and costs no
/// allocation; only a second segment moves the list to the heap, behind
/// an `Rc`. (The `Rc` hides in the niche of `Buf`'s pointer, so a
/// `Payload` is 24 bytes, as a `Vec<u8>` was.)
#[derive(Clone)]
enum Repr {
    /// The only segment; empty exactly when the payload is.
    One(Buf),
    Many(Rc<Segments>),
}

#[derive(Clone)]
struct Segments {
    /// Two or more, none empty.
    segs: Vec<Buf>,
    len: usize,
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::One(Buf::empty())
    }
}

impl Payload {
    /// The empty payload.
    pub fn new() -> Payload {
        Payload::default()
    }

    /// Total bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::One(seg) => seg.len(),
            Repr::Many(m) => m.len,
        }
    }

    /// True if there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a segment (an empty one is dropped).
    pub fn push(&mut self, seg: Buf) {
        if seg.is_empty() {
            return;
        }
        match &mut self.0 {
            Repr::One(only) if only.is_empty() => *only = seg,
            Repr::One(first) => {
                let len = first.len() + seg.len();
                let segs = vec![std::mem::take(first), seg];
                self.0 = Repr::Many(Rc::new(Segments { segs, len }));
            }
            Repr::Many(m) => {
                let m = Rc::make_mut(m);
                m.len += seg.len();
                m.segs.push(seg);
            }
        }
    }

    /// The segments, in order; none is empty.
    pub fn segments(&self) -> &[Buf] {
        match &self.0 {
            Repr::One(only) if only.is_empty() => &[],
            Repr::One(only) => std::slice::from_ref(only),
            Repr::Many(m) => &m.segs,
        }
    }

    /// Copy-in for data that will be written at file offset `offset`:
    /// one fresh buffer per file block touched, so a block that stays
    /// cached pins 4 KB and not the whole `write(2)`.
    pub fn copy_in(offset: u64, data: &[u8]) -> Payload {
        let mut out = Payload::new();
        let mut rest = data;
        let mut room = BLOCK_SIZE - (offset % BLOCK_SIZE as u64) as usize;
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(room.min(rest.len()));
            out.push(Buf::from(piece));
            rest = tail;
            room = BLOCK_SIZE;
        }
        out
    }

    /// The bytes of `range` as one buffer: a shared slice when they lie
    /// inside one segment (the only case block-aligned producers ever
    /// create), copied together otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn range(&self, range: Range<usize>) -> Buf {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "range {range:?} of a {}-byte payload",
            self.len()
        );
        let mut seg_start = 0;
        for seg in self.segments() {
            let seg_end = seg_start + seg.len();
            if range.start >= seg_start && range.end <= seg_end {
                return seg.slice(range.start - seg_start..range.end - seg_start);
            }
            seg_start = seg_end;
        }
        Buf::filled(range.len(), |dst| self.copy_range(range, dst))
    }

    /// The whole payload as one buffer; see [`range`](Self::range).
    pub fn to_buf(&self) -> Buf {
        self.range(0..self.len())
    }

    fn copy_range(&self, range: Range<usize>, dst: &mut [u8]) {
        let mut seg_start = 0;
        let mut written = 0;
        for seg in self.segments() {
            let seg_end = seg_start + seg.len();
            let from = range.start.max(seg_start);
            let to = range.end.min(seg_end);
            if from < to {
                let n = to - from;
                dst[written..written + n].copy_from_slice(&seg[from - seg_start..to - seg_start]);
                written += n;
            }
            seg_start = seg_end;
        }
    }

    fn bytes(&self) -> impl Iterator<Item = &u8> {
        self.segments().iter().flat_map(|s| s.iter())
    }

    /// Copy-out: the bytes as a `Vec`, for the caller of `read(2)`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for seg in self.segments() {
            out.extend_from_slice(seg);
        }
        out
    }
}

impl From<Buf> for Payload {
    fn from(seg: Buf) -> Payload {
        Payload(Repr::One(seg))
    }
}

impl From<Vec<u8>> for Payload {
    fn from(src: Vec<u8>) -> Payload {
        Payload::from(Buf::from(src))
    }
}

/// Equal when the concatenated bytes are, however they are segmented.
impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.len() == other.len() && self.bytes().eq(other.bytes())
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.bytes()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_the_allocation() {
        let a = Buf::from(&[1u8, 2, 3, 4, 5][..]);
        let b = a.clone();
        let c = a.slice(1..4);
        assert!(a.shares_allocation(&b) && a.shares_allocation(&c));
        assert_eq!(&*c, &[2, 3, 4]);
        assert_eq!(&*c.slice(1..2), &[3]);
        assert_eq!(a, b);
    }

    #[test]
    fn zeros_and_empty_are_the_shared_zero_block() {
        let hole = Buf::zeros(BLOCK_SIZE);
        assert!(hole.iter().all(|&b| b == 0));
        assert!(hole.shares_allocation(&Buf::zeros(17)));
        assert!(hole.shares_allocation(&Buf::empty()));
        assert!(Buf::empty().is_empty());
        let big = Buf::zeros(BLOCK_SIZE + 1);
        assert_eq!(big.len(), BLOCK_SIZE + 1);
        assert!(!big.shares_allocation(&hole));
    }

    #[test]
    fn patched_copies_and_leaves_the_original_alone() {
        let old = Buf::from(vec![7u8; 8]);
        let holder = old.clone();
        let new = old.patched(2, &[1, 2]);
        assert_eq!(&*new, &[7, 7, 1, 2, 7, 7, 7, 7]);
        assert_eq!(&*holder, &[7u8; 8]);
        assert!(!new.shares_allocation(&old));
        // Reaching past the end zero-extends.
        let grown = Buf::from(&[9u8, 9][..]).patched(4, &[5]);
        assert_eq!(&*grown, &[9, 9, 0, 0, 5]);
        assert_eq!(&*Buf::empty().patched(0, &[3]), &[3]);
    }

    #[test]
    fn concat_joins_two_runs() {
        assert_eq!(&*Buf::concat(&[1, 2], &[3]), &[1, 2, 3]);
        assert!(Buf::concat(&[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "slice")]
    fn out_of_range_slice_panics() {
        Buf::from(&[0u8; 4][..]).slice(2..5);
    }

    #[test]
    fn buffers_and_messages_stayed_the_size_of_the_vecs_they_replaced() {
        assert_eq!(std::mem::size_of::<Buf>(), std::mem::size_of::<Vec<u8>>());
        assert_eq!(
            std::mem::size_of::<Payload>(),
            std::mem::size_of::<Vec<u8>>()
        );
        assert!(std::mem::size_of::<crate::NfsRequest>() <= 80);
        assert!(std::mem::size_of::<crate::NfsReply>() <= 80);
    }

    #[test]
    fn payload_len_is_the_sum_and_skips_empty_segments() {
        let mut p = Payload::new();
        assert!(p.is_empty());
        p.push(Buf::empty());
        p.push(Buf::from(&[1u8, 2][..]));
        p.push(Buf::empty());
        p.push(Buf::from(&[3u8][..]));
        assert_eq!(p.len(), 3);
        assert_eq!(p.segments().len(), 2);
        assert_eq!(p.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn a_clone_shares_the_segment_list_until_a_push() {
        let mut p = Payload::from(Buf::from(&[1u8][..]));
        p.push(Buf::from(&[2u8][..]));
        let held = p.clone();
        assert!(std::ptr::eq(held.segments(), p.segments()));
        p.push(Buf::from(&[3u8][..]));
        assert_eq!((held.to_vec(), p.to_vec()), (vec![1, 2], vec![1, 2, 3]));
    }

    #[test]
    fn payload_equality_ignores_segmentation() {
        let whole = Payload::from(vec![1u8, 2, 3, 4]);
        let mut split = Payload::from(Buf::from(&[1u8][..]));
        split.push(Buf::from(&[2u8, 3, 4][..]));
        assert_eq!(whole, split);
        assert_eq!(split, whole);
        assert_ne!(whole, Payload::from(vec![1u8, 2, 3, 5]));
        assert_ne!(whole, Payload::from(vec![1u8, 2, 3]));
        assert_eq!(Payload::new(), Payload::from(Vec::new()));
    }

    #[test]
    fn copy_in_splits_at_file_block_boundaries() {
        let data: Vec<u8> = (0..2 * BLOCK_SIZE + 10).map(|i| i as u8).collect();
        let p = Payload::copy_in(BLOCK_SIZE as u64 - 6, &data);
        let lens: Vec<usize> = p.segments().iter().map(|s| s.len()).collect();
        assert_eq!(lens, [6, BLOCK_SIZE, BLOCK_SIZE, 4]);
        assert_eq!(p.to_vec(), data);
        // Aligned data: one buffer per block, none spanning two.
        let p = Payload::copy_in(0, &data[..2 * BLOCK_SIZE]);
        assert_eq!(p.segments().len(), 2);
        assert!(Payload::copy_in(5, &[]).is_empty());
    }

    #[test]
    fn range_shares_inside_a_segment_and_copies_across() {
        let a = Buf::from(vec![1u8; 4]);
        let b = Buf::from(vec![2u8; 4]);
        let mut p = Payload::from(a.clone());
        p.push(b.clone());
        assert!(p.range(4..8).shares_allocation(&b));
        assert!(p.range(1..3).shares_allocation(&a));
        let across = p.range(2..6);
        assert_eq!(&*across, &[1, 1, 2, 2]);
        assert!(!across.shares_allocation(&a) && !across.shares_allocation(&b));
        assert!(Payload::from(a.clone()).to_buf().shares_allocation(&a));
        assert!(p.range(8..8).is_empty());
    }
}
