//! R9 clean fixture: every public item is named elsewhere or exempt.

pub mod shapes;
pub use shapes::Square;

pub fn used() -> Returned {
    Returned { pub_field: 1 }
}

pub struct Returned {
    pub pub_field: u8,
}

pub fn measured_by_the_benchmark() {}

pub(crate) fn narrow() {}

impl Default for Returned {
    fn default() -> Self {
        used()
    }
}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
