// Scanned as another served crate's source file: a `use` list names
// both fns, a call names one.

pub use ceg_graph::fixture::{reexported_and_called, reexported_only};

pub(crate) fn caller() -> u32 {
    reexported_and_called()
}
