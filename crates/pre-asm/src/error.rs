//! Actionable assembler diagnostics.
//!
//! Every error produced while assembling carries the 1-based source line and
//! column plus the offending token, so a failing kernel points straight at
//! the broken text instead of at an instruction index deep inside the
//! lowered program.

use pre_model::error::ProgramError;
use std::error::Error;
use std::fmt;

/// What went wrong while assembling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmErrorKind {
    /// The mnemonic is not part of the supported RV64I subset.
    UnknownMnemonic,
    /// The register name is not a valid RV64I register.
    UnknownRegister,
    /// The register is reserved by the assembler for lowering scratch
    /// (`gp`/`tp` hold intermediate values for signed branches and `jalr`
    /// return dispatch).
    ReservedRegister,
    /// An immediate operand did not parse as a 64-bit integer.
    BadImmediate,
    /// A referenced label was never defined.
    UndefinedLabel,
    /// The same label was defined twice.
    DuplicateLabel,
    /// An instruction has the wrong number or shape of operands.
    BadOperands {
        /// What the instruction expects, e.g. `"rd, rs1, imm"`.
        expected: &'static str,
    },
    /// An unknown or malformed directive.
    BadDirective,
    /// An instruction appeared in `.data`, or data in `.text`.
    WrongSection,
    /// The lowered program failed [`pre_model::Program::validate`]; this
    /// indicates an assembler bug, not bad input, but is surfaced rather
    /// than panicking.
    Program(ProgramError),
}

impl fmt::Display for AsmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmErrorKind::UnknownMnemonic => write!(f, "unknown mnemonic"),
            AsmErrorKind::UnknownRegister => write!(f, "unknown register"),
            AsmErrorKind::ReservedRegister => {
                write!(f, "register is reserved as assembler scratch (gp/tp)")
            }
            AsmErrorKind::BadImmediate => write!(f, "malformed immediate"),
            AsmErrorKind::UndefinedLabel => write!(f, "undefined label"),
            AsmErrorKind::DuplicateLabel => write!(f, "duplicate label"),
            AsmErrorKind::BadOperands { expected } => {
                write!(f, "bad operands, expected `{expected}`")
            }
            AsmErrorKind::BadDirective => write!(f, "unknown or malformed directive"),
            AsmErrorKind::WrongSection => write!(f, "not allowed in this section"),
            AsmErrorKind::Program(e) => write!(f, "lowered program failed validation: {e}"),
        }
    }
}

/// An assembly error: the kind, the 1-based source position and the
/// offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// What went wrong.
    pub kind: AsmErrorKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based column of the offending token (best effort: the column where
    /// the token starts).
    pub col: u32,
    /// The offending token text (empty for whole-line problems).
    pub token: String,
}

impl AsmError {
    /// Creates an error at the given position.
    pub(crate) fn new(kind: AsmErrorKind, line: u32, col: u32, token: impl Into<String>) -> Self {
        AsmError {
            kind,
            line,
            col,
            token: token.into(),
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.token.is_empty() {
            write!(f, "line {}:{}: {}", self.line, self.col, self.kind)
        } else {
            write!(
                f,
                "line {}:{}: {} `{}`",
                self.line, self.col, self.kind, self.token
            )
        }
    }
}

impl Error for AsmError {}

impl From<AsmError> for String {
    fn from(e: AsmError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position_and_token() {
        let e = AsmError::new(AsmErrorKind::UnknownMnemonic, 12, 9, "frobnicate");
        let text = e.to_string();
        assert!(text.contains("line 12:9"), "{text}");
        assert!(text.contains("`frobnicate`"), "{text}");
        assert!(text.contains("unknown mnemonic"), "{text}");
    }

    #[test]
    fn display_without_token_omits_backticks() {
        let e = AsmError::new(AsmErrorKind::BadDirective, 3, 1, "");
        let text = e.to_string();
        assert!(text.contains("line 3:1"), "{text}");
        assert!(!text.contains('`'), "{text}");
    }

    #[test]
    fn bad_operands_names_the_expected_shape() {
        let e = AsmError::new(
            AsmErrorKind::BadOperands {
                expected: "rd, off(rs1)",
            },
            7,
            4,
            "ld",
        );
        assert!(e.to_string().contains("rd, off(rs1)"), "{e}");
    }

    #[test]
    fn program_errors_are_wrapped_verbatim() {
        let inner = ProgramError::Empty;
        let e = AsmError::new(AsmErrorKind::Program(inner.clone()), 1, 1, "");
        assert!(e.to_string().contains(&inner.to_string()), "{e}");
    }

    #[test]
    fn asm_error_is_a_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<AsmError>();
    }
}
