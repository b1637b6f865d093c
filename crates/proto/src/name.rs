//! The names a request carries: path components and link targets.

use std::hash::{Hash, Hasher};
use std::{borrow::Borrow, cmp::Ordering, fmt, ops::Deref, rc::Rc, str};

/// A name on the wire, the size of the `String` it replaced: up to 22
/// bytes inline, a longer name in a shared `Rc<str>`, so a clone never
/// allocates. It derefs to, compares, orders, hashes and prints as `str`.
#[derive(Clone, PartialEq, Eq)]
pub struct Name(Repr);

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// Zero-padded, so a text has one representation: derived `Eq` is `str`'s.
    Inline(u8, [u8; 22]),
    Heap(Rc<str>),
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        let mut bytes = [0; 22];
        let Some(head) = bytes.get_mut(..text.len()) else {
            return Name(Repr::Heap(Rc::from(text)));
        };
        head.copy_from_slice(text.as_bytes());
        Name(Repr::Inline(text.len() as u8, bytes))
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        match &self.0 {
            // SAFETY: `From<&str>`, the only constructor, copied a whole `str`.
            Repr::Inline(n, bytes) => unsafe { str::from_utf8_unchecked(&bytes[..*n as usize]) },
            Repr::Heap(text) => text,
        }
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NfsRequest, Payload};
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn inline(name: &Name) -> bool {
        matches!(name.0, Repr::Inline(..))
    }

    fn hash<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn up_to_22_bytes_is_inline_and_a_longer_name_is_shared() {
        let (short, long) = ("n".repeat(22), "n".repeat(23));
        assert!(inline(&Name::from(short.as_str())));
        assert!(inline(&Name::from("é".repeat(11).as_str())), "22 bytes");
        assert!(!inline(&Name::from("é".repeat(12).as_str())), "24 bytes");
        let heap = Name::from(long.as_str());
        assert!(!inline(&heap));
        match (&heap.0, &heap.clone().0) {
            (Repr::Heap(a), Repr::Heap(b)) => assert!(Rc::ptr_eq(a, b), "a clone shares"),
            _ => unreachable!(),
        }
        assert_eq!((&*heap, &*Name::from(short.as_str())), (&*long, &*short));
        assert!(inline(&Name::from("")) && Name::from("").is_empty());
    }

    #[test]
    fn a_255_byte_name_round_trips() {
        let text: String = (0..255).map(|i| char::from(b'a' + i as u8 % 26)).collect();
        let name = Name::from(text.as_str());
        assert!(!inline(&name));
        assert_eq!((name.len(), &*name), (255, text.as_str()));
        assert_eq!(name.clone(), name);
        assert_eq!(format!("{name:?}"), format!("{text:?}"));
    }

    #[test]
    fn names_and_payloads_left_the_messages_their_size() {
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
        assert_eq!(std::mem::size_of::<NfsRequest>(), 80);
        assert_eq!(std::mem::size_of::<Payload>(), 24);
    }

    /// Texts of 0 to 29 characters, some of them two bytes long, so that
    /// both sides of the inline limit come up.
    fn text() -> impl Strategy<Value = String> {
        let chars = proptest::collection::vec(0usize..4, 0..30);
        chars.prop_map(|picks| picks.iter().map(|&i| ['a', 'b', 'é', '~'][i]).collect())
    }

    proptest! {
        #[test]
        fn eq_ord_and_hash_agree_with_str(a in text(), b in text(), same in any::<bool>()) {
            let b = if same { a.clone() } else { b };
            let (na, nb) = (Name::from(a.as_str()), Name::from(b.as_str()));
            prop_assert_eq!(&*na, a.as_str());
            prop_assert_eq!(na == nb, a == b);
            prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
            prop_assert_eq!(na.partial_cmp(&nb), a.partial_cmp(&b));
            prop_assert_eq!(hash(&na), hash(a.as_str()));
            prop_assert_eq!(format!("{na:?}"), format!("{a:?}"));
        }
    }
}
