//! Architectural and physical register identifiers.
//!
//! The synthetic ISA exposes 32 integer and 32 floating-point architectural
//! registers (64 total, matching the 64-entry Register Alias Table the paper
//! extends in Section 3.2). The out-of-order back-end renames them onto a
//! physical register file whose size is configured per register class
//! (168 + 168 for the Haswell-like baseline of Table 1).

use std::fmt;

/// Number of integer architectural registers.
pub const NUM_INT_ARCH_REGS: usize = 32;
/// Number of floating-point architectural registers.
pub const NUM_FP_ARCH_REGS: usize = 32;
/// Total number of architectural registers (the RAT has one entry per register).
pub const NUM_ARCH_REGS: usize = NUM_INT_ARCH_REGS + NUM_FP_ARCH_REGS;

/// Register class: integer or floating point.
///
/// The two classes have independent physical register files and free lists,
/// as in the paper's baseline (168 integer + 168 floating-point registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// 64-bit integer register.
    Int,
    /// 128-bit floating-point / SIMD register.
    Fp,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Fp => write!(f, "fp"),
        }
    }
}

/// An architectural register: a class and an index within that class.
///
/// # Example
///
/// ```
/// use pre_model::reg::{ArchReg, RegClass};
///
/// let r3 = ArchReg::int(3);
/// assert_eq!(r3.class(), RegClass::Int);
/// assert_eq!(r3.flat_index(), 3);
/// let f0 = ArchReg::fp(0);
/// assert_eq!(f0.flat_index(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg {
    class: RegClass,
    index: u8,
}

impl ArchReg {
    /// Creates an integer architectural register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_INT_ARCH_REGS`.
    pub fn int(index: u8) -> Self {
        assert!(
            (index as usize) < NUM_INT_ARCH_REGS,
            "integer architectural register index {index} out of range"
        );
        ArchReg {
            class: RegClass::Int,
            index,
        }
    }

    /// Creates a floating-point architectural register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_FP_ARCH_REGS`.
    pub fn fp(index: u8) -> Self {
        assert!(
            (index as usize) < NUM_FP_ARCH_REGS,
            "floating-point architectural register index {index} out of range"
        );
        ArchReg {
            class: RegClass::Fp,
            index,
        }
    }

    /// The register class of this register.
    pub fn class(&self) -> RegClass {
        self.class
    }

    /// A flat index in `0..NUM_ARCH_REGS`, suitable for indexing the RAT.
    ///
    /// Integer registers occupy `0..32`, floating-point registers `32..64`.
    pub fn flat_index(&self) -> usize {
        match self.class {
            RegClass::Int => self.index as usize,
            RegClass::Fp => NUM_INT_ARCH_REGS + self.index as usize,
        }
    }

    /// Reconstructs an architectural register from a flat RAT index.
    ///
    /// # Panics
    ///
    /// Panics if `flat >= NUM_ARCH_REGS`.
    pub fn from_flat_index(flat: usize) -> Self {
        assert!(
            flat < NUM_ARCH_REGS,
            "flat register index {flat} out of range"
        );
        if flat < NUM_INT_ARCH_REGS {
            ArchReg::int(flat as u8)
        } else {
            ArchReg::fp((flat - NUM_INT_ARCH_REGS) as u8)
        }
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "r{}", self.index),
            RegClass::Fp => write!(f, "f{}", self.index),
        }
    }
}

/// A physical register tag.
///
/// Physical registers are plain indices into a per-class physical register
/// file; the class is implied by context (the renamer never mixes classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysReg(pub u16);

impl PhysReg {
    /// The raw index of this physical register.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_index_roundtrip() {
        for flat in 0..NUM_ARCH_REGS {
            let r = ArchReg::from_flat_index(flat);
            assert_eq!(r.flat_index(), flat);
        }
    }

    #[test]
    fn int_and_fp_do_not_alias() {
        assert_ne!(ArchReg::int(5), ArchReg::fp(5));
        assert_ne!(ArchReg::int(5).flat_index(), ArchReg::fp(5).flat_index());
    }

    #[test]
    fn display_names() {
        assert_eq!(ArchReg::int(7).to_string(), "r7");
        assert_eq!(ArchReg::fp(2).to_string(), "f2");
        assert_eq!(PhysReg(11).to_string(), "p11");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_index_out_of_range_panics() {
        let _ = ArchReg::int(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flat_index_out_of_range_panics() {
        let _ = ArchReg::from_flat_index(NUM_ARCH_REGS);
    }
}
