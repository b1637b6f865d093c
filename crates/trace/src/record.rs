//! The trace record: what [`TraceEvent`] stores, how each field type of
//! [`EventKind`] is packed into it, and the per-thread tables that hold
//! what does not fit — every string, every file handle, every number past
//! 31 bits — once, under a `u32`.
//!
//! A record is 40 bytes and `Copy`: time, sequence number, parent, a tag,
//! three bytes and five `u32` slots. A kind's bools and small enums take
//! the bytes and everything else the slots, each in the order the event
//! table in `lib.rs` declares the fields ([`Cursor`]); a sixth slot or a
//! fourth byte is an index out of bounds the first time the kind is built.
//!
//! The tables are per thread because the passes that read a trace
//! ([`crate::check_trace`], [`crate::profile_trace`], the exporters) are
//! handed a bare `&[TraceEvent]`: there is no log or tracer to ask, only
//! the thread the events were built on. `TraceEvent`, [`Name`] and
//! [`FhId`] are `!Send` for that reason. Entries are never dropped: a
//! thread holds one copy of each distinct string, handle and wide number
//! it has traced, however many tracers came and went.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;

use spritely_proto::{ClientId, FileHandle, NfsProc};
use spritely_sim::Map;

use crate::{Cause, EventKind, FState, Tag, Val};

/// Ids are only good on the thread that interned them.
type ThisThread = PhantomData<*const ()>;

/// One recorded event. `parent` is the sequence number of the causally
/// preceding event (0 = root). Sequence numbers start at 1 and are
/// assigned in emission order, which — in a single-threaded
/// deterministic simulator — is a total order consistent with
/// causality. [`TraceEvent::view`] hands the fields back.
#[derive(Clone, Copy, PartialEq)]
pub struct TraceEvent {
    pub t_us: u64,
    pub seq: u32,
    pub parent: u32,
    pub(crate) tag: Tag,
    bytes: [u8; 3],
    slots: [u32; 5],
    thread: ThisThread,
}

impl TraceEvent {
    /// Packs `kind`, interning its strings and handles on this thread.
    ///
    /// # Panics
    ///
    /// If `seq` or `parent` does not fit the record's 32 bits.
    #[inline(always)]
    pub fn new(seq: u64, t_us: u64, parent: u64, kind: EventKind) -> Self {
        let fit = |n: u64, what: &str| {
            u32::try_from(n)
                .unwrap_or_else(|_| panic!("trace {what} {n} does not fit a record's 32 bits"))
        };
        let mut event = TraceEvent {
            t_us,
            seq: fit(seq, "seq"),
            parent: fit(parent, "parent"),
            tag: Tag::ServerCrash, // until `pack` says
            bytes: [0; 3],
            slots: [0; 5],
            thread: PhantomData,
        };
        kind.pack(&mut event);
        event
    }

    /// The `ev` value of the JSONL line.
    pub fn name(&self) -> &'static str {
        self.tag.name()
    }
}

/// An event prints as its JSONL line.
impl fmt::Debug for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(crate::to_jsonl(std::slice::from_ref(self)).trim_end())
    }
}

/// Where the next field of a kind goes: bytes and slots are handed out
/// in declaration order, to the packer and the reader alike.
#[derive(Default)]
pub struct Cursor {
    byte: usize,
    slot: usize,
}

impl Cursor {
    #[inline]
    fn byte(&mut self) -> usize {
        self.byte += 1;
        self.byte - 1
    }

    #[inline]
    fn slot(&mut self) -> usize {
        self.slot += 1;
        self.slot - 1
    }
}

/// How one field type of [`EventKind`] is stored in a record.
pub trait Field {
    /// What the record hands back: the value, or the id it was interned
    /// under.
    type Read: Copy;
    fn put(&self, e: &mut TraceEvent, at: &mut Cursor);
    fn get(e: &TraceEvent, at: &mut Cursor) -> Self::Read;
}

/// How a field, as built or as read back, is serialized; `None` is a
/// field left out of the line (an `rpc_call` without a handle).
pub trait Show {
    fn val(&self) -> Option<Val<'_>>;
}

impl Field for u32 {
    type Read = u32;
    #[inline]
    fn put(&self, e: &mut TraceEvent, at: &mut Cursor) {
        e.slots[at.slot()] = *self;
    }
    fn get(e: &TraceEvent, at: &mut Cursor) -> u32 {
        e.slots[at.slot()]
    }
}

impl Show for u32 {
    fn val(&self) -> Option<Val<'_>> {
        Some(Val::Num((*self).into()))
    }
}

impl Field for ClientId {
    type Read = ClientId;
    #[inline]
    fn put(&self, e: &mut TraceEvent, at: &mut Cursor) {
        self.0.put(e, at);
    }
    fn get(e: &TraceEvent, at: &mut Cursor) -> ClientId {
        ClientId(u32::get(e, at))
    }
}

impl Show for ClientId {
    fn val(&self) -> Option<Val<'_>> {
        self.0.val()
    }
}

/// Set in a `u64`'s slot when the slot holds not the number but where
/// the wide table keeps it: any number of 31 bits or fewer is stored as
/// itself.
const WIDE: u32 = 1 << 31;

impl Field for u64 {
    type Read = u64;
    #[inline]
    fn put(&self, e: &mut TraceEvent, at: &mut Cursor) {
        e.slots[at.slot()] = match u32::try_from(*self) {
            Ok(n) if n < WIDE => n,
            _ => WIDE | intern_wide(*self),
        };
    }
    fn get(e: &TraceEvent, at: &mut Cursor) -> u64 {
        match e.slots[at.slot()] {
            n if n < WIDE => n.into(),
            id => TABLES.with_borrow(|tables| tables.wide.keys[(id & !WIDE) as usize]),
        }
    }
}

impl Show for u64 {
    fn val(&self) -> Option<Val<'_>> {
        Some(Val::Num(*self))
    }
}

impl Field for bool {
    type Read = bool;
    #[inline]
    fn put(&self, e: &mut TraceEvent, at: &mut Cursor) {
        e.bytes[at.byte()] = (*self).into();
    }
    fn get(e: &TraceEvent, at: &mut Cursor) -> bool {
        e.bytes[at.byte()] != 0
    }
}

impl Show for bool {
    fn val(&self) -> Option<Val<'_>> {
        Some(Val::Bool(*self))
    }
}

macro_rules! byte_enums {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            type Read = $ty;
            #[inline]
            fn put(&self, e: &mut TraceEvent, at: &mut Cursor) {
                e.bytes[at.byte()] = *self as u8;
            }
            fn get(e: &TraceEvent, at: &mut Cursor) -> $ty {
                <$ty>::ALL[usize::from(e.bytes[at.byte()])]
            }
        }
        impl Show for $ty {
            fn val(&self) -> Option<Val<'_>> {
                Some(Val::Str(self.name()))
            }
        }
    )*};
}
byte_enums!(NfsProc, Cause, FState);

/// An interned string: a `u32` that is equal exactly when the text is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Name(u32, ThisThread);

impl Name {
    pub fn as_str(self) -> &'static str {
        TABLES.with_borrow(|tables| tables.names.keys[self.0 as usize])
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Self {
        Name(intern_text(text), PhantomData)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Field for Name {
    type Read = Name;
    #[inline]
    fn put(&self, e: &mut TraceEvent, at: &mut Cursor) {
        e.slots[at.slot()] = self.0;
    }
    fn get(e: &TraceEvent, at: &mut Cursor) -> Name {
        Name(e.slots[at.slot()], PhantomData)
    }
}

impl Show for Name {
    fn val(&self) -> Option<Val<'_>> {
        Some(Val::Str(self.as_str()))
    }
}

/// Op names, meta keys and fault kinds: text that lives as long as the
/// program, so the text table keeps it uncopied.
impl Field for &'static str {
    type Read = Name;
    #[inline]
    fn put(&self, e: &mut TraceEvent, at: &mut Cursor) {
        e.slots[at.slot()] = intern_static(self);
    }
    fn get(e: &TraceEvent, at: &mut Cursor) -> Name {
        Name::get(e, at)
    }
}

impl Show for &'static str {
    fn val(&self) -> Option<Val<'_>> {
        Some(Val::Str(self))
    }
}

/// An interned file handle: dense from 0 in the order this thread first
/// traced each handle, so a pass may index a table by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FhId(u32, ThisThread);

impl FhId {
    pub fn get(self) -> FileHandle {
        TABLES.with_borrow(|tables| tables.handles.keys[self.index()])
    }

    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Prints as the handle does.
impl fmt::Display for FhId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

impl Show for FhId {
    fn val(&self) -> Option<Val<'_>> {
        Some(Val::Fh(self.get()))
    }
}

impl Show for FileHandle {
    fn val(&self) -> Option<Val<'_>> {
        Some(Val::Fh(*self))
    }
}

impl<T: Show> Show for Option<T> {
    fn val(&self) -> Option<Val<'_>> {
        self.as_ref().and_then(T::val)
    }
}

/// The slot of an `Option<FileHandle>` that is `None`; no table reaches
/// this id (see [`Table::id`]).
const NO_HANDLE: u32 = u32::MAX;

impl Field for Option<FileHandle> {
    type Read = Option<FhId>;
    #[inline]
    fn put(&self, e: &mut TraceEvent, at: &mut Cursor) {
        e.slots[at.slot()] = self.map_or(NO_HANDLE, |fh| intern_handle(&fh));
    }
    fn get(e: &TraceEvent, at: &mut Cursor) -> Option<FhId> {
        let id = e.slots[at.slot()];
        (id != NO_HANDLE).then_some(FhId(id, PhantomData))
    }
}

impl Field for FileHandle {
    type Read = FhId;
    #[inline]
    fn put(&self, e: &mut TraceEvent, at: &mut Cursor) {
        e.slots[at.slot()] = intern_handle(self);
    }
    fn get(e: &TraceEvent, at: &mut Cursor) -> FhId {
        FhId(e.slots[at.slot()], PhantomData)
    }
}

/// One intern table: `keys[id]` is the key interned under `id`, and
/// `ids` maps a key back to its id.
pub struct Table<K> {
    ids: Map<K, u32>,
    keys: Vec<K>,
}

impl<K> Default for Table<K> {
    fn default() -> Self {
        Table {
            ids: Map::default(),
            keys: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash> Table<K> {
    /// The id of `key`; the first time it is seen, `own(key)` is stored
    /// under the next id. Ids stay below 2³¹: clear of [`WIDE`] and
    /// [`NO_HANDLE`].
    fn id<Q>(&mut self, key: &Q, own: impl FnOnce(&Q) -> K) -> u32
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = u32::try_from(self.keys.len()).ok().filter(|&id| id < WIDE);
        let id = id.expect("fewer than 2^31 distinct keys in a trace table");
        let key = own(key);
        self.ids.insert(key, id);
        self.keys.push(key);
        id
    }
}

/// This thread's tables.
#[derive(Default)]
pub struct Tables {
    names: Table<&'static str>,
    handles: Table<FileHandle>,
    wide: Table<u64>,
}

thread_local! {
    static TABLES: RefCell<Tables> = RefCell::default();
}

fn intern_wide(n: u64) -> u32 {
    TABLES.with_borrow_mut(|tables| tables.wide.id(&n, |&n| n))
}

fn intern_handle(fh: &FileHandle) -> u32 {
    TABLES.with_borrow_mut(|tables| tables.handles.id(fh, |&fh| fh))
}

/// Text that outlives the thread is stored as itself, uncopied.
fn intern_static(text: &'static str) -> u32 {
    TABLES.with_borrow_mut(|tables| tables.names.id(&text, |&t| t))
}

/// The text is copied, and the copy leaked, the first time it is seen.
fn intern_text(text: &str) -> u32 {
    TABLES.with_borrow_mut(|tables| {
        tables
            .names
            .id(text, |text| &*Box::leak(Box::<str>::from(text)))
    })
}
