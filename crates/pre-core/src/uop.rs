//! Dynamic micro-ops: the front-end's handle for one dynamic instance of a
//! static instruction.
//!
//! A micro-op carries only its program counter and the PC the front end
//! followed after it. The static instruction lives once in the core's
//! PC-indexed instruction table (`insts[pc]`), and every stage that needs
//! the opcode or operands reads it from there: the front end and the EMQ
//! then copy 8 bytes per micro-op instead of a full decoded record, and the
//! ROB keeps the `pc` in its hot entry and the predicted next PC in its cold
//! one.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uop_is_an_eight_byte_handle() {
        assert_eq!(std::mem::size_of::<DynUop>(), 8);
    }
}
