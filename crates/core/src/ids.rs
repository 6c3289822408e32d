//! Typed identifiers.

use beliefdb_storage::{Cell, Value};
use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The identifier as a storage [`Value`].
            pub fn value(self) -> Value {
                Value::Int(self.0 as i64)
            }

            /// The identifier as a table [`Cell`].
            pub fn cell(self) -> Cell<'static> {
                Cell::Int(self.0 as i64)
            }

            /// Recover the identifier from a storage [`Value`].
            pub fn from_value(v: &Value) -> Option<Self> {
                Self::from_cell(v.as_cell())
            }

            /// Recover the identifier from a table [`Cell`].
            pub fn from_cell(cell: Cell<'_>) -> Option<Self> {
                cell.as_int().and_then(|i| u32::try_from(i).ok()).map($name)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_type! {
    /// A user id (the paper's `U = {1, ..., m}`).
    UserId
}

id_type! {
    /// An external relation id (position in the external schema).
    RelId
}

id_type! {
    /// A belief-world id (`wid` in the internal schema, Fig. 5).
    /// The root world `ε` always has id 0.
    Wid
}

id_type! {
    /// An internal tuple id (`tid` in the internal schema, Fig. 5).
    Tid
}

impl Wid {
    /// The root world `ε`.
    pub const ROOT: Wid = Wid(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip() {
        let u = UserId(42);
        assert_eq!(u.value(), Value::Int(42));
        assert_eq!(UserId::from_value(&u.value()), Some(u));
        assert_eq!(UserId::from_value(&Value::str("x")), None);
        assert_eq!(UserId::from_value(&Value::Int(-1)), None);
    }

    #[test]
    fn root_world() {
        assert_eq!(Wid::ROOT, Wid(0));
        assert_eq!(Wid::ROOT.value(), Value::Int(0));
    }

    #[test]
    fn ids_are_distinct_types() {
        // Won't compile if the macro generated a shared type:
        let _: UserId = UserId(1);
        let _: Wid = Wid(1);
        let _: Tid = Tid(1);
        let _: RelId = RelId(1);
        assert_eq!(format!("{}", Tid(7)), "7");
    }
}
