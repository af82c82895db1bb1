//! Deterministic fault injection for the degradation-path test suite.
//!
//! The `PRE_FAULT` environment variable arms seeded injection points on the
//! run path, so the integration tests (and CI's fault-injection job) can
//! prove each failure-containment path end-to-end instead of hoping the
//! code would have worked:
//!
//! * `panic:cell=<N>` — the N-th cell of a matrix, sweep or `quick_check`
//!   run (0-based, grid order) panics at the start of each attempt,
//!   exercising the batch executor ([`crate::runner::run_batch`], the only
//!   injection point) and partial-failure reporting. The hook fires once
//!   per cell attempt, never per slice: the batch runs a sampled cell's
//!   representative slices as separate work items, but they are parts of
//!   that one cell;
//! * `corrupt-cache:key=<16-hex>` (or `corrupt-cache:key=*`) — result-cache
//!   files for that key (or every key) are corrupted right after being
//!   written, exercising checksum verification, quarantine and the
//!   recompute-on-miss path;
//! * `truncate-snapshot` — persisted snapshot files are truncated after
//!   writing, exercising the cold-run fallback.
//!
//! Several directives combine with `;`
//! (`PRE_FAULT="panic:cell=3;truncate-snapshot"`). A malformed spec panics
//! loudly at the first injection point: a fault harness that silently
//! injects nothing would make the degradation tests vacuously green.
//!
//! Everything here is deterministic — no randomness, no time — so an
//! injected failure reproduces exactly with fast-forward off, under
//! `PRE_THREADS=1`, and across reruns. With `PRE_FAULT` unset every helper
//! is a single `env::var_os` miss on a cold path (cell start, cache-file
//! write), never per-cycle.

use std::fmt;

/// Environment variable holding the fault spec.
pub const FAULT_ENV: &str = "PRE_FAULT";

/// One armed fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the start of the given cell index (grid/matrix order).
    PanicCell(usize),
    /// Corrupt result-cache files after writing: for one key, or for every
    /// key (`None`, the `key=*` form).
    CorruptCache(Option<u64>),
    /// Truncate persisted snapshot files after writing.
    TruncateSnapshot,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::PanicCell(idx) => write!(f, "panic:cell={idx}"),
            Fault::CorruptCache(Some(key)) => write!(f, "corrupt-cache:key={key:016x}"),
            Fault::CorruptCache(None) => write!(f, "corrupt-cache:key=*"),
            Fault::TruncateSnapshot => write!(f, "truncate-snapshot"),
        }
    }
}

/// Parses a `PRE_FAULT` spec (`;`-separated directives).
///
/// # Errors
///
/// Returns a description of the first malformed directive.
pub fn parse_spec(spec: &str) -> Result<Vec<Fault>, String> {
    let mut faults = Vec::new();
    for directive in spec.split(';') {
        let directive = directive.trim();
        if directive.is_empty() {
            continue;
        }
        let (name, arg) = match directive.split_once(':') {
            Some((name, arg)) => (name.trim(), Some(arg.trim())),
            None => (directive, None),
        };
        match name {
            "panic" => {
                let arg = arg.ok_or_else(|| format!("`{directive}`: expected panic:cell=<N>"))?;
                let idx = arg
                    .strip_prefix("cell=")
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| format!("`{directive}`: expected panic:cell=<N>"))?;
                faults.push(Fault::PanicCell(idx));
            }
            "corrupt-cache" => {
                let key = match arg.and_then(|a| a.strip_prefix("key=")) {
                    None | Some("*") => None,
                    Some(hex) => Some(u64::from_str_radix(hex, 16).map_err(|_| {
                        format!("`{directive}`: bad key (expected 16 hex digits or *)")
                    })?),
                };
                faults.push(Fault::CorruptCache(key));
            }
            "truncate-snapshot" => {
                if arg.is_some() {
                    return Err(format!(
                        "`{directive}`: truncate-snapshot takes no argument"
                    ));
                }
                faults.push(Fault::TruncateSnapshot);
            }
            other => {
                return Err(format!(
                    "unknown fault directive `{other}` (expected panic, corrupt-cache, truncate-snapshot)"
                ));
            }
        }
    }
    Ok(faults)
}

/// The faults currently armed through [`FAULT_ENV`]. Re-reads the
/// environment on every call (injection points are per-cell / per-file,
/// never per-cycle), so tests can arm and disarm faults without process
/// restarts. Panics on a malformed spec — see the module docs.
pub fn active_faults() -> Vec<Fault> {
    let Some(spec) = std::env::var_os(FAULT_ENV) else {
        return Vec::new();
    };
    let spec = spec.to_string_lossy();
    match parse_spec(&spec) {
        Ok(faults) => faults,
        Err(e) => panic!("malformed {FAULT_ENV} spec: {e}"),
    }
}

/// Injection point at the start of each attempt at batch cell `index`
/// (called only by [`crate::runner::run_batch`], once per cell attempt and
/// never per slice): panics when a `panic:cell=<index>` fault is armed.
pub fn panic_if_cell_faulted(index: usize) {
    for fault in active_faults() {
        if fault == Fault::PanicCell(index) {
            panic!("injected fault: {fault}");
        }
    }
}

/// `true` when a `corrupt-cache` fault is armed for `key`.
pub fn should_corrupt_cache(key: u64) -> bool {
    active_faults()
        .iter()
        .any(|f| matches!(f, Fault::CorruptCache(k) if k.is_none() || *k == Some(key)))
}

/// `true` when a `truncate-snapshot` fault is armed.
pub fn should_truncate_snapshot() -> bool {
    active_faults().contains(&Fault::TruncateSnapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_directive() {
        assert_eq!(parse_spec("panic:cell=3"), Ok(vec![Fault::PanicCell(3)]));
        assert_eq!(
            parse_spec("corrupt-cache:key=00000000deadbeef"),
            Ok(vec![Fault::CorruptCache(Some(0xdead_beef))])
        );
        assert_eq!(
            parse_spec("corrupt-cache:key=*"),
            Ok(vec![Fault::CorruptCache(None)])
        );
        assert_eq!(
            parse_spec("corrupt-cache"),
            Ok(vec![Fault::CorruptCache(None)])
        );
        assert_eq!(
            parse_spec("truncate-snapshot"),
            Ok(vec![Fault::TruncateSnapshot])
        );
    }

    #[test]
    fn parses_combined_specs_and_tolerates_spacing() {
        let faults = parse_spec(" panic:cell=0 ; truncate-snapshot ;; corrupt-cache:key=* ")
            .expect("parses");
        assert_eq!(
            faults,
            vec![
                Fault::PanicCell(0),
                Fault::TruncateSnapshot,
                Fault::CorruptCache(None),
            ]
        );
        assert_eq!(parse_spec(""), Ok(Vec::new()));
    }

    #[test]
    fn rejects_malformed_directives() {
        assert!(parse_spec("panic").is_err());
        assert!(parse_spec("panic:cell=x").is_err());
        assert!(parse_spec("corrupt-cache:key=zz").is_err());
        assert!(parse_spec("truncate-snapshot:now").is_err());
        assert!(parse_spec("explode").is_err());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for fault in [
            Fault::PanicCell(7),
            Fault::CorruptCache(Some(0x1234)),
            Fault::CorruptCache(None),
            Fault::TruncateSnapshot,
        ] {
            assert_eq!(parse_spec(&fault.to_string()), Ok(vec![fault]));
        }
    }
}
