//! Property-based tests for compound (batched) message accounting: the
//! wire-size bookkeeping must conserve every payload byte, charge exactly
//! one shared header, and collapse a batch of one to the plain message.

use proptest::prelude::*;
use spritely_proto::{
    DirEntry, Fattr, FileHandle, FileType, NfsProc, NfsReply, NfsRequest, Payload,
    COMPOUND_OP_BYTES,
};

fn fh() -> FileHandle {
    FileHandle::new(1, 2, 0)
}

fn attr() -> Fattr {
    Fattr {
        fileid: 2,
        ftype: FileType::Regular,
        size: 10,
        nlink: 1,
        mtime: 0,
        ctime: 0,
        atime: 0,
    }
}

/// The shared header size, recovered from a bodyless message (the
/// constant itself is private to the proto crate).
fn header_bytes() -> usize {
    NfsRequest::Null.wire_size()
}

fn arb_request() -> impl Strategy<Value = NfsRequest> {
    prop_oneof![
        Just(NfsRequest::Null),
        Just(NfsRequest::GetAttr { fh: fh() }),
        (0usize..8192).prop_map(|n| NfsRequest::Write {
            fh: fh(),
            offset: 0,
            // Block-aligned copy-in: up to three segments, one wire size.
            data: Payload::copy_in(0, &vec![0xa5; n]),
        }),
        (1usize..14).prop_map(|n| NfsRequest::Lookup {
            dir: fh(),
            name: "n".repeat(n).as_str().into(),
        }),
        (0u64..1 << 20, 1u32..65536).prop_map(|(offset, count)| NfsRequest::Read {
            fh: fh(),
            offset,
            count,
        }),
    ]
}

fn arb_reply() -> impl Strategy<Value = NfsReply> {
    prop_oneof![
        Just(NfsReply::Ok),
        Just(NfsReply::Attr(attr())),
        (0usize..8192).prop_map(|n| NfsReply::Read(spritely_proto::ReadReply {
            data: vec![0x5a; n].into(),
            eof: false,
            attr: attr(),
        })),
        proptest::collection::vec(1usize..12, 0..8).prop_map(|lens| NfsReply::Readdir {
            entries: lens
                .into_iter()
                .enumerate()
                .map(|(i, len)| DirEntry {
                    name: "e".repeat(len),
                    fileid: i as u64,
                })
                .collect(),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Compounding conserves payload bytes exactly: the batch costs the
    /// standalone total, minus one full header per inner call, plus one
    /// shared header and slim per-op framing. Batching multiple calls
    /// always wins on the wire.
    #[test]
    fn compound_request_accounting_round_trips(
        calls in proptest::collection::vec(arb_request(), 2..12),
    ) {
        let header = header_bytes();
        let standalone: usize = calls.iter().map(|c| c.wire_size()).sum();
        let n = calls.len();
        let compound = NfsRequest::compound(calls.clone());
        prop_assert_eq!(compound.proc_id(), NfsProc::Compound);
        prop_assert_eq!(
            compound.wire_size(),
            standalone - n * header + header + n * COMPOUND_OP_BYTES,
        );
        prop_assert!(compound.wire_size() < standalone, "batching must save bytes");
        // Round trip: unwrapping the compound recovers the calls verbatim.
        match compound {
            NfsRequest::Compound { calls: inner } => prop_assert_eq!(inner, calls),
            other => prop_assert!(false, "expected a compound, got {other:?}"),
        }
    }

    /// Same invariants on the reply side.
    #[test]
    fn compound_reply_accounting_round_trips(
        replies in proptest::collection::vec(arb_reply(), 2..12),
    ) {
        let header = header_bytes();
        let standalone: usize = replies.iter().map(|r| r.wire_size()).sum();
        let n = replies.len();
        let compound = NfsReply::compound(replies.clone());
        prop_assert_eq!(
            compound.wire_size(),
            standalone - n * header + header + n * COMPOUND_OP_BYTES,
        );
        match compound {
            NfsReply::Compound { replies: inner } => prop_assert_eq!(inner, replies),
            other => prop_assert!(false, "expected a compound, got {other:?}"),
        }
    }

    /// A batch of one is byte-identical to the unbatched message, so the
    /// paper transport's wire traffic is untouched by the batching layer.
    #[test]
    fn compound_of_one_is_transparent(req in arb_request(), rep in arb_reply()) {
        prop_assert_eq!(NfsRequest::compound(vec![req.clone()]), req);
        prop_assert_eq!(NfsReply::compound(vec![rep.clone()]), rep);
    }
}
