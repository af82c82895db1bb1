//! The two-pass RV64I-subset assembler.
//!
//! Pass 1 parses the source into normalized instructions and data items,
//! binds labels (text labels to micro-op indices, data labels to byte
//! addresses) and sizes every instruction's lowering. Pass 2 encodes each
//! instruction into [`StaticInst`] micro-ops with all labels resolved and
//! emits a ready-to-run [`Program`].
//!
//! # Lowering rules
//!
//! The micro-op ISA is smaller than RV64I, so a few constructs expand:
//!
//! * **`x0`** is not hardwired in the micro-op register file. The assembler
//!   guarantees its semantics structurally: `x0` (flat integer register 0)
//!   is never used as a destination — instructions that write `x0` have
//!   their destination redirected to the `tp` scratch register — so reads
//!   of `x0` always observe the initial value 0.
//! * **Signed branches** (`blt`/`bge` and friends): the micro-op ISA
//!   compares unsigned, so both operands are XORed with the sign bit into
//!   the `gp`/`tp` scratch registers first (`a <s b  ⟺  a^2⁶³ <u b^2⁶³`),
//!   3 micro-ops total.
//! * **`jal rd, label`** with `rd != x0` becomes `li rd, return_index`
//!   followed by a jump — the return address is a micro-op *index*, since
//!   program counters are indices into the program.
//! * **`jalr`**: the micro-op ISA has no indirect jump, so an indirect
//!   target is dispatched over the finite set of return addresses the
//!   program can produce (every `jal`/`jalr` link value): a chain of
//!   compare-and-branch pairs, falling through to the halt pad when the
//!   register matches no call site. This keeps returns — including
//!   recursion — fully executable on the existing ISA at a modelled cost
//!   proportional to the number of call sites.
//! * **Sub-word loads and stores** are first class: the functional memory
//!   is byte-addressable, so `lb`/`lbu`/`lh`/`lhu`/`lw`/`lwu` and
//!   `sb`/`sh`/`sw` lower to micro-ops carrying their true access width
//!   and sign/zero extension ([`pre_model::isa::MemAccess`]). Accesses are
//!   naturally aligned (the effective address is aligned down to the
//!   access width). `.byte` and `.half` place byte-granular data;
//!   `.align`/`.p2align` (power-of-two) and `.balign` (byte count) align
//!   the data cursor.
//!
//! Because of the scratch lowering, `gp` (x3) and `tp` (x4) are **reserved**
//! — using them in source text is an [`AsmError`] — and `div`/`rem` are not
//! in the subset (the micro-op ALU has no division; `sra`/`srai` lower to
//! the ALU's arithmetic shift).

use crate::error::{AsmError, AsmErrorKind};
use pre_model::isa::{AluOp, BranchCond, MemAccess, MemWidth, StaticInst};
use pre_model::program::Program;
use pre_model::reg::ArchReg;
use std::collections::HashMap;

/// Scratch register used for lowered intermediate values (`gp`, x3).
pub(crate) const SCRATCH_GP: u8 = 3;
/// Scratch register used for lowered intermediate values and discarded
/// destinations (`tp`, x4).
pub(crate) const SCRATCH_TP: u8 = 4;
/// The stack pointer (`sp`, x2), initialized to [`AsmOptions::stack_top`].
pub(crate) const REG_SP: u8 = 2;

const SIGN_BIT: i64 = i64::MIN;

/// Loader/layout options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AsmOptions {
    /// Byte address where the `.data` section is placed.
    pub data_base: u64,
    /// Initial value of `sp` (the stack grows down from here).
    pub stack_top: u64,
}

impl Default for AsmOptions {
    fn default() -> Self {
        AsmOptions {
            data_base: 0x10_0000,
            stack_top: 0x8_0000,
        }
    }
}

/// Assembles `source` into a validated [`Program`] with the default
/// `.data` base and initial `sp`.
///
/// # Errors
///
/// Returns an [`AsmError`] pointing at the offending line/column/token.
pub fn assemble(name: &str, source: &str) -> Result<Program, AsmError> {
    assemble_with(name, source, &AsmOptions::default())
}

/// A normalized, label-unresolved instruction (pass-1 output).
#[derive(Debug, Clone)]
enum PInst {
    AluReg {
        op: AluOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    MulReg {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    AluImm {
        op: AluOp,
        rd: u8,
        rs1: u8,
        imm: i64,
    },
    Li {
        rd: u8,
        imm: i64,
    },
    La {
        rd: u8,
        label: String,
    },
    Load {
        rd: u8,
        rs1: u8,
        imm: i64,
        access: MemAccess,
    },
    Store {
        rs2: u8,
        rs1: u8,
        imm: i64,
        width: MemWidth,
    },
    /// Direct (unsigned or equality) conditional branch.
    BranchU {
        cond: BranchCond,
        rs1: u8,
        rs2: u8,
        label: String,
    },
    /// Signed conditional branch, lowered via the sign-bit XOR trick.
    BranchS {
        cond: BranchCond,
        rs1: u8,
        rs2: u8,
        label: String,
    },
    Jump {
        label: String,
    },
    /// `jal` with a live link register (`rd != x0`).
    Jal {
        rd: u8,
        label: String,
    },
    Jalr {
        rd: u8,
        rs1: u8,
        imm: i64,
    },
    Nop,
}

/// Where a label points.
#[derive(Debug, Clone, Copy)]
enum LabelVal {
    /// Micro-op index in the text section.
    Text(u32),
    /// Byte address in the data section.
    Data(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// One parsed text instruction plus its source position (for late errors).
#[derive(Debug, Clone)]
struct TextItem {
    inst: PInst,
    line: u32,
    col: u32,
}

/// Assembles `source` into a validated [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] pointing at the offending line/column/token.
pub(crate) fn assemble_with(
    name: &str,
    source: &str,
    opts: &AsmOptions,
) -> Result<Program, AsmError> {
    // ---- pass 1: parse ---------------------------------------------------
    let mut items: Vec<TextItem> = Vec::new();
    let mut data: Vec<(u64, u64)> = Vec::new();
    let mut data_bytes: Vec<(u64, u8)> = Vec::new();
    let mut labels: HashMap<String, LabelVal> = HashMap::new();
    // Text labels bind to *instruction ordinals* first; converted to micro-op
    // indices once lowered sizes are known.
    let mut text_labels: Vec<(String, usize, u32, u32)> = Vec::new();
    let mut section = Section::Text;
    let mut data_cursor = opts.data_base;

    for (line_no, raw_line) in source.lines().enumerate() {
        let line_no = line_no as u32 + 1;
        // Columns are computed against the comment-stripped line: every
        // remainder below is a suffix of it, so the length difference is the
        // 0-based offset of that remainder within the line.
        let stripped = strip_comment(raw_line);
        let mut rest = stripped;
        // Bind any leading labels.
        loop {
            let trimmed = rest.trim_start();
            let col = (stripped.len() - trimmed.len()) as u32 + 1;
            match split_label(trimmed) {
                Some((label, tail)) => {
                    if !is_valid_label(label) {
                        return Err(AsmError::new(
                            AsmErrorKind::BadDirective,
                            line_no,
                            col,
                            label,
                        ));
                    }
                    let value = match section {
                        Section::Text => {
                            text_labels.push((label.to_string(), items.len(), line_no, col));
                            rest = tail;
                            continue;
                        }
                        Section::Data => LabelVal::Data(data_cursor),
                    };
                    if labels.insert(label.to_string(), value).is_some() {
                        return Err(AsmError::new(
                            AsmErrorKind::DuplicateLabel,
                            line_no,
                            col,
                            label,
                        ));
                    }
                    rest = tail;
                }
                None => break,
            }
        }
        let trimmed = rest.trim();
        if trimmed.is_empty() {
            continue;
        }
        let col = (stripped.len() - rest.trim_start().len()) as u32 + 1;
        if let Some(directive) = trimmed.strip_prefix('.') {
            match parse_directive(directive, line_no, col)? {
                Directive::Text => section = Section::Text,
                Directive::Data => section = Section::Data,
                Directive::Ignored => {}
                Directive::Words(words) => {
                    if section != Section::Data {
                        return Err(AsmError::new(
                            AsmErrorKind::WrongSection,
                            line_no,
                            col,
                            trimmed,
                        ));
                    }
                    for w in words {
                        data.push((data_cursor, w));
                        data_cursor += 8;
                    }
                }
                Directive::Bytes(bytes) => {
                    if section != Section::Data {
                        return Err(AsmError::new(
                            AsmErrorKind::WrongSection,
                            line_no,
                            col,
                            trimmed,
                        ));
                    }
                    for b in bytes {
                        data_bytes.push((data_cursor, b));
                        data_cursor += 1;
                    }
                }
                Directive::Align(bytes) => {
                    if section == Section::Data {
                        data_cursor = data_cursor.next_multiple_of(bytes);
                    }
                }
                Directive::Fill { repeat, value } => {
                    if section != Section::Data {
                        return Err(AsmError::new(
                            AsmErrorKind::WrongSection,
                            line_no,
                            col,
                            trimmed,
                        ));
                    }
                    for _ in 0..repeat {
                        data.push((data_cursor, value));
                        data_cursor += 8;
                    }
                }
            }
            continue;
        }
        if section != Section::Text {
            return Err(AsmError::new(
                AsmErrorKind::WrongSection,
                line_no,
                col,
                trimmed,
            ));
        }
        let inst = parse_inst(trimmed, line_no, col)?;
        items.push(TextItem {
            inst,
            line: line_no,
            col,
        });
    }

    // ---- sizing: micro-op index of every instruction ---------------------
    // The jalr dispatch size depends only on the *count* of call sites,
    // which is known after parsing.
    let call_sites = items
        .iter()
        .filter(|i| match i.inst {
            PInst::Jal { .. } => true, // `jal x0` is parsed as a plain jump
            PInst::Jalr { rd, .. } => rd != 0,
            _ => false,
        })
        .count();
    let mut starts = Vec::with_capacity(items.len());
    let mut pc: u32 = 0;
    for item in &items {
        starts.push(pc);
        pc += lowered_len(&item.inst, call_sites);
    }
    let halt_idx = pc; // one trailing nop is appended as the halt pad
    let text_len = pc + 1;

    for (label, ordinal, line, col) in text_labels {
        // A label at the very end of the text section binds to the halt pad.
        let idx = starts.get(ordinal).copied().unwrap_or(halt_idx);
        if labels.insert(label.clone(), LabelVal::Text(idx)).is_some() {
            return Err(AsmError::new(
                AsmErrorKind::DuplicateLabel,
                line,
                col,
                label,
            ));
        }
    }

    // Link values: the return addresses produced by every call site, in
    // ascending order (the dispatch chain probes them in this order).
    let mut links: Vec<u32> = items
        .iter()
        .zip(&starts)
        .filter_map(|(item, &start)| match item.inst {
            PInst::Jal { rd, .. } if rd != 0 => Some(start + 2),
            PInst::Jalr { rd, .. } if rd != 0 => Some(start + lowered_len(&item.inst, call_sites)),
            _ => None,
        })
        .collect();
    links.sort_unstable();
    links.dedup();

    // ---- pass 2: encode --------------------------------------------------
    let mut program = Program::new(name);
    for (item, &start) in items.iter().zip(&starts) {
        encode(
            &item.inst,
            start,
            &labels,
            &links,
            halt_idx,
            item.line,
            item.col,
            &mut program.insts,
        )?;
        debug_assert_eq!(
            program.insts.len() as u32,
            start + lowered_len(&item.inst, call_sites),
            "lowered size mismatch at line {}",
            item.line
        );
    }
    program.insts.push(StaticInst::nop()); // halt pad
    debug_assert_eq!(program.insts.len() as u32, text_len);

    program.entry = match labels.get("_start").or_else(|| labels.get("main")) {
        Some(LabelVal::Text(idx)) => *idx,
        _ => 0,
    };
    program.initial_mem = data;
    program.initial_mem_bytes = data_bytes;
    program.initial_regs = vec![(ArchReg::int(REG_SP), opts.stack_top)];

    program
        .validate()
        .map_err(|e| AsmError::new(AsmErrorKind::Program(e), 0, 0, ""))?;
    Ok(program)
}

/// Number of micro-ops `inst` lowers to, given the program's call-site count.
fn lowered_len(inst: &PInst, call_sites: usize) -> u32 {
    match inst {
        PInst::BranchS { .. } => 3,
        PInst::Jal { .. } => 2,
        PInst::Jalr { rd, .. } => {
            // tp = rs1 + imm, optional link write, two micro-ops per probed
            // return address, final jump to the halt pad.
            1 + u32::from(*rd != 0) + 2 * call_sites as u32 + 1
        }
        _ => 1,
    }
}

/// Destination register with `x0` writes redirected to the `tp` scratch.
fn dest(rd: u8) -> ArchReg {
    ArchReg::int(if rd == 0 { SCRATCH_TP } else { rd })
}

fn reg(r: u8) -> ArchReg {
    ArchReg::int(r)
}

#[allow(clippy::too_many_arguments)]
fn encode(
    inst: &PInst,
    start: u32,
    labels: &HashMap<String, LabelVal>,
    links: &[u32],
    halt_idx: u32,
    line: u32,
    col: u32,
    out: &mut Vec<StaticInst>,
) -> Result<(), AsmError> {
    let text_target = |label: &str| -> Result<u32, AsmError> {
        match labels.get(label) {
            Some(LabelVal::Text(idx)) => Ok(*idx),
            _ => Err(AsmError::new(
                AsmErrorKind::UndefinedLabel,
                line,
                col,
                label,
            )),
        }
    };
    match inst {
        PInst::AluReg { op, rd, rs1, rs2 } => {
            out.push(StaticInst::int_alu(*op, dest(*rd), reg(*rs1), reg(*rs2)));
        }
        PInst::MulReg { rd, rs1, rs2 } => {
            out.push(StaticInst::int_mul(dest(*rd), reg(*rs1), reg(*rs2)));
        }
        PInst::AluImm { op, rd, rs1, imm } => {
            out.push(StaticInst::int_alu_imm(*op, dest(*rd), reg(*rs1), *imm));
        }
        PInst::Li { rd, imm } => out.push(StaticInst::load_imm(dest(*rd), *imm)),
        PInst::La { rd, label } => {
            let value = match labels.get(label.as_str()) {
                Some(LabelVal::Data(addr)) => *addr as i64,
                Some(LabelVal::Text(idx)) => *idx as i64,
                None => {
                    return Err(AsmError::new(
                        AsmErrorKind::UndefinedLabel,
                        line,
                        col,
                        label.as_str(),
                    ))
                }
            };
            out.push(StaticInst::load_imm(dest(*rd), value));
        }
        PInst::Load {
            rd,
            rs1,
            imm,
            access,
        } => out.push(StaticInst::load_width(dest(*rd), reg(*rs1), *imm, *access)),
        PInst::Store {
            rs2,
            rs1,
            imm,
            width,
        } => out.push(StaticInst::store_width(reg(*rs2), reg(*rs1), *imm, *width)),
        PInst::BranchU {
            cond,
            rs1,
            rs2,
            label,
        } => {
            let target = text_target(label)?;
            out.push(StaticInst::branch(*cond, reg(*rs1), reg(*rs2), target));
        }
        PInst::BranchS {
            cond,
            rs1,
            rs2,
            label,
        } => {
            let target = text_target(label)?;
            out.push(StaticInst::int_alu_imm(
                AluOp::Xor,
                reg(SCRATCH_TP),
                reg(*rs1),
                SIGN_BIT,
            ));
            out.push(StaticInst::int_alu_imm(
                AluOp::Xor,
                reg(SCRATCH_GP),
                reg(*rs2),
                SIGN_BIT,
            ));
            out.push(StaticInst::branch(
                *cond,
                reg(SCRATCH_TP),
                reg(SCRATCH_GP),
                target,
            ));
        }
        PInst::Jump { label } => {
            let target = text_target(label)?;
            out.push(StaticInst::jump(target));
        }
        PInst::Jal { rd, label } => {
            let target = text_target(label)?;
            out.push(StaticInst::load_imm(dest(*rd), (start + 2) as i64));
            out.push(StaticInst::jump(target));
        }
        PInst::Jalr { rd, rs1, imm } => {
            // tp = rs1 + imm (computed first so a link write to rs1 — e.g.
            // `jalr ra, ra, 0` — cannot clobber the dispatch operand).
            out.push(StaticInst::int_alu_imm(
                AluOp::Add,
                reg(SCRATCH_TP),
                reg(*rs1),
                *imm,
            ));
            let size = 1 + u32::from(*rd != 0) + 2 * links.len() as u32 + 1;
            if *rd != 0 {
                out.push(StaticInst::load_imm(reg(*rd), (start + size) as i64));
            }
            for &link in links {
                out.push(StaticInst::load_imm(reg(SCRATCH_GP), link as i64));
                out.push(StaticInst::branch(
                    BranchCond::Eq,
                    reg(SCRATCH_TP),
                    reg(SCRATCH_GP),
                    link,
                ));
            }
            // No call site matched: land on the halt pad (program ends).
            out.push(StaticInst::jump(halt_idx));
        }
        PInst::Nop => out.push(StaticInst::nop()),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Line-level parsing.
// ---------------------------------------------------------------------------

/// Strips `#`, `;` and `//` comments.
fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for (i, c) in line.char_indices() {
        if c == '#' || c == ';' {
            end = i;
            break;
        }
        if c == '/' && line[i + 1..].starts_with('/') {
            end = i;
            break;
        }
    }
    &line[..end]
}

/// Splits a leading `label:` off `s` (already trimmed at the start).
fn split_label(s: &str) -> Option<(&str, &str)> {
    let colon = s.find(':')?;
    let label = &s[..colon];
    // Only treat it as a label when the text before ':' looks like one
    // (avoids mis-splitting operands, which never contain ':').
    if !is_valid_label(label) {
        return None;
    }
    Some((label, &s[colon + 1..]))
}

fn is_valid_label(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '.' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$')
}

/// Upper bound on one `.fill`/`.zero`/`.space` repeat count (16 Mi 8-byte
/// words = 128 MiB of image), so a negative count — which wraps to a huge
/// `u64` — errors instead of exhausting memory.
const MAX_FILL_WORDS: u64 = 1 << 24;

#[derive(Debug)]
enum Directive {
    Text,
    Data,
    Ignored,
    Words(Vec<u64>),
    /// Byte-granular data items (`.byte` = 1 byte each, `.half` = 2), stored
    /// little-endian at the running data cursor.
    Bytes(Vec<u8>),
    /// Align the data cursor up to a multiple of this many bytes.
    Align(u64),
    Fill {
        repeat: u64,
        value: u64,
    },
}

fn parse_directive(body: &str, line: u32, col: u32) -> Result<Directive, AsmError> {
    let (name, rest) = match body.find(char::is_whitespace) {
        Some(i) => (&body[..i], body[i..].trim()),
        None => (body, ""),
    };
    let imm = |tok: &str| -> Result<u64, AsmError> {
        parse_imm(tok)
            .map(|v| v as u64)
            .ok_or_else(|| AsmError::new(AsmErrorKind::BadImmediate, line, col, tok))
    };
    // Comma-separated immediates constrained to `bytes`-byte range, emitted
    // little-endian.
    let byte_list = |bytes: u32| -> Result<Directive, AsmError> {
        let mut out = Vec::new();
        for tok in rest.split(',') {
            let tok = tok.trim();
            if tok.is_empty() {
                return Err(AsmError::new(AsmErrorKind::BadDirective, line, col, body));
            }
            let v = parse_imm(tok)
                .ok_or_else(|| AsmError::new(AsmErrorKind::BadImmediate, line, col, tok))?;
            let bits = bytes * 8;
            let min = -(1i64 << (bits - 1));
            let max = (1i64 << bits) - 1;
            if v < min || v > max {
                return Err(AsmError::new(AsmErrorKind::BadImmediate, line, col, tok));
            }
            out.extend_from_slice(&(v as u64).to_le_bytes()[..bytes as usize]);
        }
        if out.is_empty() {
            return Err(AsmError::new(AsmErrorKind::BadDirective, line, col, body));
        }
        Ok(Directive::Bytes(out))
    };
    match name {
        "text" => Ok(Directive::Text),
        "data" => Ok(Directive::Data),
        "globl" | "global" => Ok(Directive::Ignored),
        "align" | "p2align" | "balign" => {
            let tok = rest.split(',').next().unwrap_or("").trim();
            if tok.is_empty() {
                // A bare `.align` is accepted as a no-op, as before.
                return Ok(Directive::Ignored);
            }
            let n = imm(tok)?;
            let bytes = if name == "balign" {
                if n == 0 || !n.is_power_of_two() || n > 4096 {
                    return Err(AsmError::new(AsmErrorKind::BadImmediate, line, col, tok));
                }
                n
            } else {
                if n > 12 {
                    return Err(AsmError::new(AsmErrorKind::BadImmediate, line, col, tok));
                }
                1 << n
            };
            Ok(Directive::Align(bytes))
        }
        "byte" => byte_list(1),
        "half" | "short" => byte_list(2),
        "word" | "dword" | "quad" => {
            let mut words = Vec::new();
            for tok in rest.split(',') {
                let tok = tok.trim();
                if tok.is_empty() {
                    return Err(AsmError::new(AsmErrorKind::BadDirective, line, col, body));
                }
                words.push(imm(tok)?);
            }
            if words.is_empty() {
                return Err(AsmError::new(AsmErrorKind::BadDirective, line, col, body));
            }
            Ok(Directive::Words(words))
        }
        "fill" | "zero" | "space" => {
            let mut parts = rest.split(',').map(str::trim);
            let repeat = match parts.next() {
                Some(tok) if !tok.is_empty() => {
                    let repeat = imm(tok)?;
                    // Negative counts wrap to huge u64s; bound the image so a
                    // typo returns an error instead of exhausting memory.
                    if repeat > MAX_FILL_WORDS {
                        return Err(AsmError::new(AsmErrorKind::BadImmediate, line, col, tok));
                    }
                    repeat
                }
                _ => {
                    return Err(AsmError::new(AsmErrorKind::BadDirective, line, col, body));
                }
            };
            let value = match parts.next() {
                Some(tok) if !tok.is_empty() => imm(tok)?,
                _ => 0,
            };
            Ok(Directive::Fill { repeat, value })
        }
        _ => Err(AsmError::new(AsmErrorKind::BadDirective, line, col, name)),
    }
}

/// Parses a register name (`x0`..`x31` or an ABI name).
fn parse_reg(tok: &str) -> Option<u8> {
    let t = tok.trim();
    if let Some(num) = t.strip_prefix('x') {
        if let Ok(n) = num.parse::<u8>() {
            if n < 32 {
                return Some(n);
            }
        }
    }
    let idx = match t {
        "zero" => 0,
        "ra" => 1,
        "sp" => 2,
        "gp" => 3,
        "tp" => 4,
        "t0" => 5,
        "t1" => 6,
        "t2" => 7,
        "s0" | "fp" => 8,
        "s1" => 9,
        "a0" => 10,
        "a1" => 11,
        "a2" => 12,
        "a3" => 13,
        "a4" => 14,
        "a5" => 15,
        "a6" => 16,
        "a7" => 17,
        "t3" => 28,
        "t4" => 29,
        "t5" => 30,
        "t6" => 31,
        _ => {
            if let Some(num) = t.strip_prefix('s') {
                // s2..s11 -> x18..x27
                if let Ok(n) = num.parse::<u8>() {
                    if (2..=11).contains(&n) {
                        return Some(16 + n);
                    }
                }
            }
            return None;
        }
    };
    Some(idx)
}

/// Parses a decimal or `0x` hexadecimal immediate (optionally signed).
fn parse_imm(tok: &str) -> Option<i64> {
    let t = tok.trim();
    let (neg, body) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t.strip_prefix('+').unwrap_or(t)),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()? as i64
    } else {
        body.replace('_', "").parse::<u64>().ok()? as i64
    };
    Some(if neg { value.wrapping_neg() } else { value })
}

/// One comma-separated operand with its 1-based column in the line.
#[derive(Debug, Clone, Copy)]
struct Operand<'a> {
    text: &'a str,
    col: u32,
}

fn parse_inst(text: &str, line: u32, col: u32) -> Result<PInst, AsmError> {
    let (mnemonic, rest) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    let mnemonic = mnemonic.to_ascii_lowercase();
    let operands: Vec<Operand> = if rest.is_empty() {
        Vec::new()
    } else {
        let rest_col = col + (text.len() - rest.len()) as u32;
        let mut ops = Vec::new();
        let mut offset = 0usize;
        for piece in rest.split(',') {
            let lead = piece.len() - piece.trim_start().len();
            ops.push(Operand {
                text: piece.trim(),
                col: rest_col + (offset + lead) as u32,
            });
            offset += piece.len() + 1;
        }
        ops
    };
    Parser {
        line,
        col,
        mnemonic: &mnemonic,
        operands,
    }
    .parse()
}

struct Parser<'a> {
    line: u32,
    col: u32,
    mnemonic: &'a str,
    operands: Vec<Operand<'a>>,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: AsmErrorKind, op: Option<&Operand>) -> AsmError {
        match op {
            Some(op) => AsmError::new(kind, self.line, op.col, op.text),
            None => AsmError::new(kind, self.line, self.col, self.mnemonic),
        }
    }

    fn bad_operands(&self, expected: &'static str) -> AsmError {
        self.err(AsmErrorKind::BadOperands { expected }, None)
    }

    fn expect_count(&self, n: usize, expected: &'static str) -> Result<(), AsmError> {
        if self.operands.len() == n {
            Ok(())
        } else {
            Err(self.bad_operands(expected))
        }
    }

    fn reg_at(&self, i: usize) -> Result<u8, AsmError> {
        let op = &self.operands[i];
        let r =
            parse_reg(op.text).ok_or_else(|| self.err(AsmErrorKind::UnknownRegister, Some(op)))?;
        if r == SCRATCH_GP || r == SCRATCH_TP {
            return Err(self.err(AsmErrorKind::ReservedRegister, Some(op)));
        }
        Ok(r)
    }

    fn imm_at(&self, i: usize) -> Result<i64, AsmError> {
        let op = &self.operands[i];
        parse_imm(op.text).ok_or_else(|| self.err(AsmErrorKind::BadImmediate, Some(op)))
    }

    fn label_at(&self, i: usize) -> Result<String, AsmError> {
        let op = &self.operands[i];
        if is_valid_label(op.text) {
            Ok(op.text.to_string())
        } else {
            Err(self.err(AsmErrorKind::UndefinedLabel, Some(op)))
        }
    }

    /// Parses a `off(rs)` memory operand.
    fn mem_at(&self, i: usize) -> Result<(u8, i64), AsmError> {
        let op = &self.operands[i];
        let open = op.text.find('(').ok_or_else(|| {
            self.err(
                AsmErrorKind::BadOperands {
                    expected: "off(rs1)",
                },
                Some(op),
            )
        })?;
        let close = op.text.rfind(')').filter(|&c| c > open).ok_or_else(|| {
            self.err(
                AsmErrorKind::BadOperands {
                    expected: "off(rs1)",
                },
                Some(op),
            )
        })?;
        let off_text = op.text[..open].trim();
        let imm = if off_text.is_empty() {
            0
        } else {
            parse_imm(off_text).ok_or_else(|| self.err(AsmErrorKind::BadImmediate, Some(op)))?
        };
        let reg_text = op.text[open + 1..close].trim();
        let r =
            parse_reg(reg_text).ok_or_else(|| self.err(AsmErrorKind::UnknownRegister, Some(op)))?;
        if r == SCRATCH_GP || r == SCRATCH_TP {
            return Err(self.err(AsmErrorKind::ReservedRegister, Some(op)));
        }
        Ok((r, imm))
    }

    fn parse(self) -> Result<PInst, AsmError> {
        let alu_reg = |op| -> Result<PInst, AsmError> {
            self.expect_count(3, "rd, rs1, rs2")?;
            Ok(PInst::AluReg {
                op,
                rd: self.reg_at(0)?,
                rs1: self.reg_at(1)?,
                rs2: self.reg_at(2)?,
            })
        };
        let alu_imm = |op| -> Result<PInst, AsmError> {
            self.expect_count(3, "rd, rs1, imm")?;
            Ok(PInst::AluImm {
                op,
                rd: self.reg_at(0)?,
                rs1: self.reg_at(1)?,
                imm: self.imm_at(2)?,
            })
        };
        // Branches: direct for equality/unsigned, sign-bit lowering for
        // signed, operand swap for the gt/le spellings.
        let branch = |signed: bool, cond, swap: bool| -> Result<PInst, AsmError> {
            self.expect_count(3, "rs1, rs2, label")?;
            let (a, b) = (self.reg_at(0)?, self.reg_at(1)?);
            let (rs1, rs2) = if swap { (b, a) } else { (a, b) };
            let label = self.label_at(2)?;
            Ok(if signed {
                PInst::BranchS {
                    cond,
                    rs1,
                    rs2,
                    label,
                }
            } else {
                PInst::BranchU {
                    cond,
                    rs1,
                    rs2,
                    label,
                }
            })
        };
        let branch_zero = |signed: bool, cond, swap: bool| -> Result<PInst, AsmError> {
            self.expect_count(2, "rs1, label")?;
            let r = self.reg_at(0)?;
            let (rs1, rs2) = if swap { (0, r) } else { (r, 0) };
            let label = self.label_at(1)?;
            Ok(if signed {
                PInst::BranchS {
                    cond,
                    rs1,
                    rs2,
                    label,
                }
            } else {
                PInst::BranchU {
                    cond,
                    rs1,
                    rs2,
                    label,
                }
            })
        };
        match self.mnemonic {
            "add" => alu_reg(AluOp::Add),
            "sub" => alu_reg(AluOp::Sub),
            "and" => alu_reg(AluOp::And),
            "or" => alu_reg(AluOp::Or),
            "xor" => alu_reg(AluOp::Xor),
            "sll" => alu_reg(AluOp::Shl),
            "srl" => alu_reg(AluOp::Shr),
            "sra" => alu_reg(AluOp::Sra),
            "mul" => {
                self.expect_count(3, "rd, rs1, rs2")?;
                Ok(PInst::MulReg {
                    rd: self.reg_at(0)?,
                    rs1: self.reg_at(1)?,
                    rs2: self.reg_at(2)?,
                })
            }
            "addi" => alu_imm(AluOp::Add),
            "andi" => alu_imm(AluOp::And),
            "ori" => alu_imm(AluOp::Or),
            "xori" => alu_imm(AluOp::Xor),
            "slli" => alu_imm(AluOp::Shl),
            "srli" => alu_imm(AluOp::Shr),
            "srai" => alu_imm(AluOp::Sra),
            "li" => {
                self.expect_count(2, "rd, imm")?;
                Ok(PInst::Li {
                    rd: self.reg_at(0)?,
                    imm: self.imm_at(1)?,
                })
            }
            "la" => {
                self.expect_count(2, "rd, label")?;
                Ok(PInst::La {
                    rd: self.reg_at(0)?,
                    label: self.label_at(1)?,
                })
            }
            "mv" => {
                self.expect_count(2, "rd, rs")?;
                Ok(PInst::AluImm {
                    op: AluOp::Add,
                    rd: self.reg_at(0)?,
                    rs1: self.reg_at(1)?,
                    imm: 0,
                })
            }
            "neg" => {
                self.expect_count(2, "rd, rs")?;
                Ok(PInst::AluReg {
                    op: AluOp::Sub,
                    rd: self.reg_at(0)?,
                    rs1: 0,
                    rs2: self.reg_at(1)?,
                })
            }
            "not" => {
                self.expect_count(2, "rd, rs")?;
                Ok(PInst::AluImm {
                    op: AluOp::Xor,
                    rd: self.reg_at(0)?,
                    rs1: self.reg_at(1)?,
                    imm: -1,
                })
            }
            "ld" | "lw" | "lwu" | "lh" | "lhu" | "lb" | "lbu" => {
                self.expect_count(2, "rd, off(rs1)")?;
                let rd = self.reg_at(0)?;
                let (rs1, imm) = self.mem_at(1)?;
                let access = match self.mnemonic {
                    "ld" => MemAccess::D,
                    "lw" => MemAccess::signed(MemWidth::W),
                    "lwu" => MemAccess::unsigned(MemWidth::W),
                    "lh" => MemAccess::signed(MemWidth::H),
                    "lhu" => MemAccess::unsigned(MemWidth::H),
                    "lb" => MemAccess::signed(MemWidth::B),
                    _ => MemAccess::unsigned(MemWidth::B),
                };
                Ok(PInst::Load {
                    rd,
                    rs1,
                    imm,
                    access,
                })
            }
            "sd" | "sw" | "sh" | "sb" => {
                self.expect_count(2, "rs2, off(rs1)")?;
                let rs2 = self.reg_at(0)?;
                let (rs1, imm) = self.mem_at(1)?;
                let width = match self.mnemonic {
                    "sd" => MemWidth::D,
                    "sw" => MemWidth::W,
                    "sh" => MemWidth::H,
                    _ => MemWidth::B,
                };
                Ok(PInst::Store {
                    rs2,
                    rs1,
                    imm,
                    width,
                })
            }
            "beq" => branch(false, BranchCond::Eq, false),
            "bne" => branch(false, BranchCond::Ne, false),
            "bltu" => branch(false, BranchCond::Lt, false),
            "bgeu" => branch(false, BranchCond::Ge, false),
            "bgtu" => branch(false, BranchCond::Lt, true),
            "bleu" => branch(false, BranchCond::Ge, true),
            "blt" => branch(true, BranchCond::Lt, false),
            "bge" => branch(true, BranchCond::Ge, false),
            "bgt" => branch(true, BranchCond::Lt, true),
            "ble" => branch(true, BranchCond::Ge, true),
            "beqz" => branch_zero(false, BranchCond::Eq, false),
            "bnez" => branch_zero(false, BranchCond::Ne, false),
            "bltz" => branch_zero(true, BranchCond::Lt, false),
            "bgez" => branch_zero(true, BranchCond::Ge, false),
            "bgtz" => branch_zero(true, BranchCond::Lt, true),
            "blez" => branch_zero(true, BranchCond::Ge, true),
            "j" => {
                self.expect_count(1, "label")?;
                Ok(PInst::Jump {
                    label: self.label_at(0)?,
                })
            }
            "jal" => match self.operands.len() {
                1 => Ok(PInst::Jal {
                    rd: 1,
                    label: self.label_at(0)?,
                }),
                2 => {
                    let rd = self.reg_at(0)?;
                    let label = self.label_at(1)?;
                    Ok(if rd == 0 {
                        PInst::Jump { label }
                    } else {
                        PInst::Jal { rd, label }
                    })
                }
                _ => Err(self.bad_operands("[rd,] label")),
            },
            "call" => {
                self.expect_count(1, "label")?;
                Ok(PInst::Jal {
                    rd: 1,
                    label: self.label_at(0)?,
                })
            }
            "jr" => {
                self.expect_count(1, "rs1")?;
                Ok(PInst::Jalr {
                    rd: 0,
                    rs1: self.reg_at(0)?,
                    imm: 0,
                })
            }
            "jalr" => match self.operands.len() {
                1 => Ok(PInst::Jalr {
                    rd: 1,
                    rs1: self.reg_at(0)?,
                    imm: 0,
                }),
                3 => Ok(PInst::Jalr {
                    rd: self.reg_at(0)?,
                    rs1: self.reg_at(1)?,
                    imm: self.imm_at(2)?,
                }),
                _ => Err(self.bad_operands("rd, rs1, imm")),
            },
            "ret" => {
                self.expect_count(0, "(no operands)")?;
                Ok(PInst::Jalr {
                    rd: 0,
                    rs1: 1,
                    imm: 0,
                })
            }
            "nop" => {
                self.expect_count(0, "(no operands)")?;
                Ok(PInst::Nop)
            }
            _ => Err(AsmError::new(
                AsmErrorKind::UnknownMnemonic,
                self.line,
                self.col,
                self.mnemonic,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pre_model::program::Interpreter;

    fn run(source: &str) -> Interpreter {
        let program = assemble("test", source).expect("assembles");
        let mut interp = Interpreter::new(&program);
        interp.run(1_000_000);
        assert!(interp.halted(), "program did not halt");
        interp
    }

    #[test]
    fn straight_line_alu() {
        let interp = run("li a0, 5\naddi a0, a0, 7\nslli a1, a0, 2\nsub a2, a1, a0");
        assert_eq!(interp.reg(ArchReg::int(10)), 12);
        assert_eq!(interp.reg(ArchReg::int(11)), 48);
        assert_eq!(interp.reg(ArchReg::int(12)), 36);
    }

    #[test]
    fn x0_reads_zero_and_writes_are_discarded() {
        let interp = run("li a0, 9\nadd x0, a0, a0\nadd a1, zero, x0\naddi a2, x0, 3");
        assert_eq!(interp.reg(ArchReg::int(0)), 0);
        assert_eq!(interp.reg(ArchReg::int(11)), 0);
        assert_eq!(interp.reg(ArchReg::int(12)), 3);
    }

    #[test]
    fn loads_and_stores_roundtrip_through_data() {
        let interp = run(concat!(
            "main:\n",
            "  la a0, buf\n",
            "  ld a1, 0(a0)\n",
            "  addi a1, a1, 1\n",
            "  sd a1, 8(a0)\n",
            "  lw a2, 8(a0)\n",
            ".data\n",
            "buf: .word 41\n",
            "     .word 0\n",
        ));
        assert_eq!(interp.reg(ArchReg::int(12)), 42);
        let base = AsmOptions::default().data_base;
        assert_eq!(interp.memory().load_u64(base + 8), 42);
    }

    #[test]
    fn sub_word_loads_extend_and_stores_truncate() {
        let interp = run(concat!(
            "main:\n",
            "  la a0, buf\n",
            "  lb a1, 0(a0)\n",  // 0x80 sign-extends to -128
            "  lbu a2, 0(a0)\n", // 0x80 zero-extends to 128
            "  lh a3, 2(a0)\n",  // 0xFFFF -> -1
            "  lhu a4, 2(a0)\n", // 0xFFFF -> 65535
            "  lw a5, 4(a0)\n",  // 0xFFFF_FFFF -> -1
            "  lwu a6, 4(a0)\n",
            "  li t0, 0x1122334455667788\n",
            "  sb t0, 8(a0)\n",
            "  sh t0, 10(a0)\n",
            "  sw t0, 12(a0)\n",
            "  ld a7, 8(a0)\n",
            ".data\n",
            "buf: .byte 0x80, 0\n",
            "     .half -1\n",
            "     .word 0xFFFFFFFF\n",
            "     .word 0\n",
        ));
        assert_eq!(interp.reg(ArchReg::int(11)) as i64, -128);
        assert_eq!(interp.reg(ArchReg::int(12)), 128);
        assert_eq!(interp.reg(ArchReg::int(13)) as i64, -1);
        assert_eq!(interp.reg(ArchReg::int(14)), 65535);
        assert_eq!(interp.reg(ArchReg::int(15)) as i64, -1);
        assert_eq!(interp.reg(ArchReg::int(16)), 0xFFFF_FFFF);
        // sb wrote byte 0x88 at +8, sh wrote 0x7788 at +10, sw wrote
        // 0x55667788 at +12; byte +9 keeps the zero from the first .word's
        // high bytes.
        assert_eq!(interp.reg(ArchReg::int(17)), 0x5566_7788_7788_0088);
    }

    #[test]
    fn sra_is_an_arithmetic_shift() {
        let interp = run(concat!(
            "li a0, -64\n",
            "srai a1, a0, 3\n",
            "li a2, 2\n",
            "sra a3, a0, a2\n",
            "li a4, 64\n",
            "srai a5, a4, 3\n",
        ));
        assert_eq!(interp.reg(ArchReg::int(11)) as i64, -8);
        assert_eq!(interp.reg(ArchReg::int(13)) as i64, -16);
        assert_eq!(interp.reg(ArchReg::int(15)), 8);
    }

    #[test]
    fn byte_and_half_directives_pack_and_align() {
        let program = assemble(
            "t",
            ".data\na: .byte 1, 2, 3\nb: .half 0x0504\n.align 3\nc: .word 9\n.text\nmain: nop",
        )
        .expect("assembles");
        let base = AsmOptions::default().data_base;
        assert_eq!(
            program.initial_mem_bytes,
            vec![
                (base, 1),
                (base + 1, 2),
                (base + 2, 3),
                (base + 3, 0x04),
                (base + 4, 0x05)
            ]
        );
        // `.align 3` advanced the cursor from base+5 to the next 8-byte
        // boundary before the .word.
        assert_eq!(program.initial_mem, vec![(base + 8, 9)]);
        let mem = program.build_memory();
        assert_eq!(mem.load_bytes(base, 2), 0x0201);
        assert_eq!(mem.load_bytes(base + 3, 2), 0x0504);
    }

    #[test]
    fn byte_directive_range_checks() {
        let e = assemble("t", ".data\na: .byte 256").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::BadImmediate);
        let e = assemble("t", ".data\na: .byte -129").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::BadImmediate);
        let e = assemble("t", ".data\na: .half 65536").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::BadImmediate);
        assert!(assemble("t", ".data\na: .byte -128, 255").is_ok());
        let e = assemble("t", ".text\n.byte 1").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::WrongSection);
        let e = assemble("t", ".data\n.align 99").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::BadImmediate);
    }

    #[test]
    fn unsigned_and_equality_branches() {
        // Count down from 5.
        let interp = run("li a0, 5\nloop: addi a0, a0, -1\nbnez a0, loop\nli a1, 77");
        assert_eq!(interp.reg(ArchReg::int(10)), 0);
        assert_eq!(interp.reg(ArchReg::int(11)), 77);
    }

    #[test]
    fn signed_branches_compare_signed() {
        // -1 <s 1 is true (unsigned it would be false).
        let interp = run(concat!(
            "li a0, -1\n",
            "li a1, 1\n",
            "li a2, 0\n",
            "blt a0, a1, took\n",
            "li a2, 111\n",
            "j end\n",
            "took: li a2, 222\n",
            "end: nop\n",
        ));
        assert_eq!(interp.reg(ArchReg::int(12)), 222);
    }

    #[test]
    fn ble_and_bgt_swap_operands() {
        let interp = run(concat!(
            "li a0, 3\n",
            "li a1, 3\n",
            "li a2, 0\n",
            "ble a0, a1, le\n",
            "j end\n",
            "le: li a2, 1\n",
            "bgt a0, a1, gt\n",
            "j end\n",
            "gt: li a2, 2\n",
            "end: nop\n",
        ));
        assert_eq!(interp.reg(ArchReg::int(12)), 1);
    }

    #[test]
    fn call_and_ret_link_through_the_dispatch() {
        let interp = run(concat!(
            "main:\n",
            "  li a0, 10\n",
            "  call double\n",
            "  call double\n",
            "  j end\n",
            "double:\n",
            "  add a0, a0, a0\n",
            "  ret\n",
            "end: nop\n",
        ));
        assert_eq!(interp.reg(ArchReg::int(10)), 40);
    }

    #[test]
    fn recursion_with_a_stack() {
        // Triangular number via recursion: f(n) = n + f(n-1), f(0) = 0.
        let interp = run(concat!(
            "main:\n",
            "  li a0, 5\n",
            "  call tri\n",
            "  j end\n",
            "tri:\n",
            "  bnez a0, rec\n",
            "  ret\n",
            "rec:\n",
            "  addi sp, sp, -16\n",
            "  sd ra, 0(sp)\n",
            "  sd a0, 8(sp)\n",
            "  addi a0, a0, -1\n",
            "  call tri\n",
            "  ld a1, 8(sp)\n",
            "  add a0, a0, a1\n",
            "  ld ra, 0(sp)\n",
            "  addi sp, sp, 16\n",
            "  ret\n",
            "end: nop\n",
        ));
        assert_eq!(interp.reg(ArchReg::int(10)), 15);
        // sp is restored.
        assert_eq!(
            interp.reg(ArchReg::int(REG_SP)),
            AsmOptions::default().stack_top
        );
    }

    #[test]
    fn fill_and_word_layout_data() {
        let program = assemble(
            "t",
            ".data\na: .fill 3, 7\nb: .word 1, 2\n.text\nmain: la a0, b\nld a1, 0(a0)",
        )
        .expect("assembles");
        let base = AsmOptions::default().data_base;
        assert_eq!(
            program.initial_mem,
            vec![
                (base, 7),
                (base + 8, 7),
                (base + 16, 7),
                (base + 24, 1),
                (base + 32, 2)
            ]
        );
    }

    #[test]
    fn entry_prefers_start_then_main() {
        let p = assemble("t", "nop\nmain: li a0, 1").unwrap();
        assert_eq!(p.entry, 1);
        let p = assemble("t", "nop\n_start: li a0, 1\nmain: li a0, 2").unwrap();
        assert_eq!(p.entry, 1);
        let p = assemble("t", "li a0, 1").unwrap();
        assert_eq!(p.entry, 0);
    }

    #[test]
    fn errors_carry_line_and_token() {
        let e = assemble("t", "nop\nfrob a0, a1").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.kind, AsmErrorKind::UnknownMnemonic);
        assert_eq!(e.token, "frob");

        let e = assemble("t", "add a0, a1, q9").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::UnknownRegister);
        assert_eq!(e.token, "q9");
        assert!(e.col > 1);

        let e = assemble("t", "li a0, banana").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::BadImmediate);

        let e = assemble("t", "j nowhere").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::UndefinedLabel);

        let e = assemble("t", "x: nop\nx: nop").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::DuplicateLabel);

        let e = assemble("t", "add a0, a1, gp").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::ReservedRegister);

        let e = assemble("t", ".data\n.word 1\nadd a0, a0, a0").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::WrongSection);

        let e = assemble("t", ".frobnicate 12").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::BadDirective);
    }

    #[test]
    fn error_columns_ignore_trailing_comments() {
        let e = assemble("t", "frob a0 # a very long trailing comment").unwrap_err();
        assert_eq!((e.line, e.col), (1, 1), "{e}");
        let e = assemble("t", "  add a0, a1, q9 ; note").unwrap_err();
        assert_eq!(e.token, "q9");
        assert_eq!(e.col, 15, "{e}");
    }

    #[test]
    fn fill_with_negative_or_huge_repeat_errors() {
        let e = assemble("t", ".data\nbuf: .fill -1").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::BadImmediate);
        assert_eq!(e.line, 2);
        let e = assemble("t", ".data\nbuf: .fill 0x7FFFFFFFFFFF, 3").unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::BadImmediate);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let p = assemble(
            "t",
            "# header\n  ; another\nli a0, 1 // trailing\n\n   \nnop # done",
        )
        .unwrap();
        // li + nop + halt pad.
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn assembly_is_deterministic() {
        let src = "main: li a0, 3\nloop: addi a0, a0, -1\nbnez a0, loop\ncall f\nj e\nf: ret\ne: nop\n.data\nd: .fill 4, 9";
        let a = assemble("t", src).unwrap();
        let b = assemble("t", src).unwrap();
        assert_eq!(a.insts, b.insts);
        assert_eq!(a.initial_mem, b.initial_mem);
        assert_eq!(a.initial_regs, b.initial_regs);
        assert_eq!(a.entry, b.entry);
    }

    #[test]
    fn register_names_cover_abi_and_numeric() {
        for (name, idx) in [
            ("zero", 0),
            ("ra", 1),
            ("sp", 2),
            ("t0", 5),
            ("s0", 8),
            ("fp", 8),
            ("s1", 9),
            ("a0", 10),
            ("a7", 17),
            ("s2", 18),
            ("s11", 27),
            ("t3", 28),
            ("t6", 31),
            ("x13", 13),
        ] {
            assert_eq!(parse_reg(name), Some(idx), "{name}");
        }
        assert_eq!(parse_reg("x32"), None);
        assert_eq!(parse_reg("s12"), None);
        assert_eq!(parse_reg("q1"), None);
    }

    #[test]
    fn immediates_parse_hex_and_negative() {
        assert_eq!(parse_imm("42"), Some(42));
        assert_eq!(parse_imm("-8"), Some(-8));
        assert_eq!(parse_imm("0x10"), Some(16));
        assert_eq!(parse_imm("0xFFFF_FFFF_FFFF_FFFF"), Some(-1));
        assert_eq!(parse_imm("1_000"), Some(1000));
        assert_eq!(parse_imm("zzz"), None);
    }
}
