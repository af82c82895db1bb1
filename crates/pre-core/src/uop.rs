//! Dynamic micro-ops: the front-end's handle for one dynamic instance of a
//! static instruction.
//!
//! A micro-op carries only its program counter and the PC the front end
//! followed after it. The static instruction lives once in the core's
//! PC-indexed instruction table (`insts[pc]`), and every stage that needs
//! the opcode or operands reads it from there: the front end, the EMQ and
//! the ROB then copy 8 bytes per micro-op instead of a full decoded record.

/// A dynamic micro-op travelling down the front end: an 8-byte PC handle
/// into the core's instruction table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynUop {
    /// Program counter of the instruction (its index in the instruction
    /// table).
    pub pc: u32,
    /// The PC the front-end followed after this micro-op.
    pub predicted_next_pc: u32,
}

impl DynUop {
    /// Creates a non-control micro-op whose predicted successor is `pc + 1`.
    pub fn sequential(pc: u32) -> Self {
        DynUop {
            pc,
            predicted_next_pc: pc + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_uop_predicts_fallthrough() {
        let uop = DynUop::sequential(7);
        assert_eq!(uop.pc, 7);
        assert_eq!(uop.predicted_next_pc, 8);
    }

    #[test]
    fn uop_is_an_eight_byte_handle() {
        assert_eq!(std::mem::size_of::<DynUop>(), 8);
    }
}
