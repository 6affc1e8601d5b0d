// Scanned as an integration test. `only_in_comment` is named here in
// this comment only, and in a string below.

#[test]
fn calls_the_library() {
    assert_eq!(fixture::called(), 1, "only_in_comment is not called");
}
