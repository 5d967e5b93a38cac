//! Stand-in for `serde_derive`: the repository derives `Serialize` and
//! `Deserialize` on its model types but the benchmark never serializes
//! through serde, so the derives expand to nothing. `#[serde(...)]`
//! helper attributes are accepted and ignored.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
