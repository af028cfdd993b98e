//! R9 violation fixture: public items no other file's non-test code names.

pub fn only_here() -> u8 {
    3
}

pub fn seen_only_by_tests() {}

pub const UNUSED: u8 = only_here();

pub struct Orphan;

fn private_helper(_: Orphan) {}
