//! Offline stand-in for `serde`, **type-check only**: every type implements
//! `Serialize` and `Deserialize`, and both fail at run time with a typed
//! error. Nothing on the serve or grow path serializes through serde — the
//! repo's durable formats use `saga_core::persist::codec` — so the ledger
//! never reaches these bodies; if a later change does, the run fails loudly
//! instead of measuring a no-op.

pub use serde_derive::{Deserialize, Serialize};

/// The one error the stand-in produces.
pub const UNSUPPORTED: &str = "serde stand-in: (de)serialization is not available offline";

pub trait Serializer: Sized {
    type Ok;
    type Error: ser::Error;
}

pub trait Deserializer<'de>: Sized {
    type Error: de::Error;
}

pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

impl<T: ?Sized> Serialize for T {
    fn serialize<S: Serializer>(&self, _serializer: S) -> Result<S::Ok, S::Error> {
        Err(<S::Error as ser::Error>::custom(UNSUPPORTED))
    }
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

impl<'de, T> Deserialize<'de> for T {
    fn deserialize<D: Deserializer<'de>>(_deserializer: D) -> Result<Self, D::Error> {
        Err(<D::Error as de::Error>::custom(UNSUPPORTED))
    }
}

pub mod ser {
    pub use super::{Serialize, Serializer};

    pub trait Error: Sized + std::error::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

pub mod de {
    pub use super::{Deserialize, Deserializer};

    pub trait Error: Sized + std::error::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}
