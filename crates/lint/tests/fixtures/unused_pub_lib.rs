// Scanned as a served crate's source file.

pub fn called() -> u32 {
    1
}

/// Its only other mentions are a comment and a string: this one fires.
pub fn only_in_comment() -> u32 {
    2
}

pub(crate) fn crate_only() -> u32 {
    called() + only_in_comment()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn test_helper() -> u32 {
        only_in_comment()
    }

    #[test]
    fn uses_everything() {
        assert_eq!(test_helper() + crate_only(), 5);
    }
}
