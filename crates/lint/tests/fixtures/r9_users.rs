//! R9 companion: another crate's non-test code, and its unit tests.

fn caller() {
    let _ = demo::used();
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        demo::seen_only_by_tests();
    }
}
