//! Typed identifiers for application-level entities.

use core::fmt;
use serde::{Deserialize, Serialize};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty), $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// The identifier as a plain index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        simcore::snap_fields!($name { 0 });
    };
}

id_type!(
    /// A service (e.g. "webui", "persistence").
    ServiceId(u32),
    "svc"
);
id_type!(
    /// One deployed instance of a service.
    InstanceId(u32),
    "inst"
);
id_type!(
    /// A request class (e.g. "product-view").
    RequestClassId(u32),
    "class"
);
id_type!(
    /// One end-to-end request.
    RequestId(u64),
    "req"
);
id_type!(
    /// A simulated client (one closed-loop user or one open-loop source).
    ClientId(u64),
    "client"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(ServiceId(2).to_string(), "svc2");
        assert_eq!(InstanceId(4).index(), 4);
        assert_eq!(RequestId(9).to_string(), "req9");
        assert!(ClientId(1) < ClientId(2));
    }
}
