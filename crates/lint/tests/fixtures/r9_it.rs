//! R9 companion: an integration test, which keeps nothing alive.

#[test]
fn it() {
    demo::seen_only_by_tests();
    demo::force_workers(2);
}
