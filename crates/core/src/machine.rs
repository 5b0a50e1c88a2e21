//! Machine identifiers.
//!
//! Machines are identical (`P` environment in Graham's notation); only
//! their indices matter, including for the *interval* structures where
//! machine order is significant. Following the paper, machines are named
//! `M₁ … Mₘ`; internally we store zero-based indices and convert at the
//! display boundary.

use std::fmt;

/// Zero-based machine index. `MachineId(0)` is the paper's `M₁`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub usize);

impl MachineId {
    /// Zero-based index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// One-based index as used in the paper (`M₁ … Mₘ`).
    #[inline]
    pub fn paper_index(self) -> usize {
        self.0 + 1
    }

    /// Builds a machine id from the paper's one-based numbering.
    ///
    /// # Panics
    /// Panics if `one_based == 0`.
    #[inline]
    pub fn from_paper_index(one_based: usize) -> Self {
        assert!(one_based >= 1, "paper machine indices start at 1");
        MachineId(one_based - 1)
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Widened: a schedule file can name machine `usize::MAX`, and
        // the error reporting it must not overflow.
        write!(f, "M{}", self.0 as u128 + 1)
    }
}

impl From<usize> for MachineId {
    fn from(i: usize) -> Self {
        MachineId(i)
    }
}

/// Iterator over all machine ids of an `m`-machine cluster.
pub fn all_machines(m: usize) -> impl DoubleEndedIterator<Item = MachineId> + ExactSizeIterator {
    (0..m).map(MachineId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_based() {
        assert_eq!(MachineId(0).to_string(), "M1");
        assert_eq!(MachineId(14).to_string(), "M15");
        assert_eq!(MachineId(usize::MAX).to_string(), "M18446744073709551616");
    }

    #[test]
    fn paper_index_round_trips() {
        for i in 1..=20 {
            assert_eq!(MachineId::from_paper_index(i).paper_index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "start at 1")]
    fn paper_index_zero_rejected() {
        let _ = MachineId::from_paper_index(0);
    }

    #[test]
    fn all_machines_enumerates() {
        let v: Vec<_> = all_machines(3).collect();
        assert_eq!(v, vec![MachineId(0), MachineId(1), MachineId(2)]);
        assert_eq!(all_machines(5).len(), 5);
    }
}
