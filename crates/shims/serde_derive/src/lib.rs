//! Offline stand-in for `serde_derive`.
//!
//! The workspace derives `Serialize`/`Deserialize` on its public data
//! types so they are serialization-ready, but nothing in the tree actually
//! serializes (there is no `serde_json` and no wire format). Since the
//! build environment cannot reach crates.io, these derives expand to
//! nothing: the attribute remains valid and the types stay source-
//! compatible with the real serde, at zero dependency cost.

#![forbid(unsafe_code)]

use proc_macro::TokenStream;

/// No-op `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
