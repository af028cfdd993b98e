//! Experiment drivers — one module per paper artifact.
//!
//! Naming follows DESIGN.md's experiment index: `fig1`/`fig2` for the
//! figures, `tables` for Tables I–V, `n1`…`n8` for the narrative
//! performance claims. Every driver takes a [`Scale`]: `Quick` keeps test
//! suites fast; `Paper` sizes the virtual experiment like the course did
//! (full dataset sizes in virtual time, more rows of real data where the
//! answer is computed for real).

pub mod fig1;
pub mod fig2;
pub mod jummp;
pub mod n1;
pub mod n2;
pub mod n3;
pub mod n4;
pub mod n5;
pub mod n6;
pub mod n7;
pub mod n8;
pub mod platforms;
pub mod tables;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Milliseconds-fast, used by the test suite.
    Quick,
    /// Course-scale (virtual sizes matching the paper).
    Paper,
}

impl Scale {
    /// Pick a value by scale.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Paper.pick(1, 2), 2);
    }
}
