//! Offline stand-in for `serde_json`, **type-check only**: every entry point
//! returns [`Error`]. See the stand-in `serde` for why that is safe here.

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn unsupported() -> Self {
        Error(serde::UNSUPPORTED.to_string())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error::unsupported())
}

pub fn to_string_pretty<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error::unsupported())
}

pub fn to_vec<T: ?Sized + Serialize>(_value: &T) -> Result<Vec<u8>> {
    Err(Error::unsupported())
}

pub fn from_str<'a, T: Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error::unsupported())
}

pub fn from_slice<'a, T: Deserialize<'a>>(_v: &'a [u8]) -> Result<T> {
    Err(Error::unsupported())
}

pub fn from_reader<R: std::io::Read, T: DeserializeOwned>(_rdr: R) -> Result<T> {
    Err(Error::unsupported())
}
