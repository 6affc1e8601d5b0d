// Scanned as a served crate's source file.

/// Another file re-exports it and calls it.
pub fn reexported_and_called() -> u32 {
    1
}

/// Another file only re-exports it: this one fires.
pub fn reexported_only() -> u32 {
    2
}
