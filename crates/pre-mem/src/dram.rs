//! DDR3-like main-memory timing model.
//!
//! Matches the last row of Table 1: DDR3-1600 (800 MHz bus), 4 ranks,
//! 32 banks, 4 KB pages (row buffers), a 64-bit data bus and
//! tRP-tCL-tRCD = 11-11-11. The model tracks per-bank open rows and busy
//! windows plus data-bus occupancy, all converted into core cycles, so that
//! bursts of runahead prefetches experience realistic bank-level parallelism
//! and queueing rather than a fixed latency.

use pre_model::config::DramConfig;

/// DRAM activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read requests serviced.
    pub reads: u64,
    /// Write requests serviced.
    pub writes: u64,
    /// Accesses that hit an open row buffer.
    pub row_hits: u64,
    /// Accesses that required an activate (row was closed).
    pub row_misses: u64,
    /// Accesses that required precharge + activate (row conflict).
    pub row_conflicts: u64,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// The DRAM device + channel model.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    core_ghz: f64,
    banks: Vec<Bank>,
    bus_busy_until: u64,
    stats: DramStats,
}

impl Dram {
    /// Creates the DRAM model for a core running at `core_ghz` GHz.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks.
    pub fn new(cfg: DramConfig, core_ghz: f64) -> Self {
        assert!(cfg.banks > 0, "DRAM must have at least one bank");
        Dram {
            banks: vec![
                Bank {
                    open_row: None,
                    busy_until: 0
                };
                cfg.banks
            ],
            cfg,
            core_ghz,
            bus_busy_until: 0,
            stats: DramStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    fn to_core(&self, bus_cycles: u64) -> u64 {
        self.cfg.bus_to_core_cycles(self.core_ghz, bus_cycles)
    }

    fn bank_and_row(&self, line_addr: u64) -> (usize, u64) {
        let row = line_addr / self.cfg.page_bytes as u64;
        // Permutation-based bank interleaving: fold higher row bits into the
        // bank index so that regular region strides (arrays allocated at
        // power-of-two offsets) do not all collapse onto one bank.
        let hashed = row ^ (row >> 5) ^ (row >> 11) ^ (row >> 17);
        let bank = (hashed % self.cfg.banks as u64) as usize;
        (bank, row)
    }

    /// Issues a request for the line at `line_addr` arriving at core cycle
    /// `now`. Returns the core cycle at which the data transfer completes.
    ///
    /// `is_write` distinguishes write-backs (they occupy the bank and bus but
    /// callers typically ignore the completion time).
    pub fn access(&mut self, line_addr: u64, now: u64, is_write: bool) -> u64 {
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let (bank_idx, row) = self.bank_and_row(line_addr);
        let bank = self.banks[bank_idx];

        // The command can start once the bank is free.
        let start = now.max(bank.busy_until);

        // Row-buffer state machine (open-page policy).
        let access_bus_cycles = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                self.cfg.t_cl
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cl
            }
            None => {
                self.stats.row_misses += 1;
                self.cfg.t_rcd + self.cfg.t_cl
            }
        };
        let access_done = start + self.to_core(access_bus_cycles);

        // Data burst on the shared channel: DDR transfers two beats per bus
        // cycle, so a burst of `burst_length` beats takes burst_length / 2
        // bus cycles.
        let burst_core = self.to_core(self.cfg.burst_length.div_ceil(2));
        let burst_start = access_done.max(self.bus_busy_until);
        // Controller overhead (queue arbitration, scheduling, I/O) delays the
        // data return but does not occupy the bank or the data bus.
        let done = burst_start + burst_core + self.to_core(self.cfg.t_controller);

        self.bus_busy_until = burst_start + burst_core;
        // The bank is free to accept the next column command once the access
        // completes; the data burst only occupies the shared bus.
        self.banks[bank_idx] = Bank {
            open_row: Some(row),
            busy_until: access_done,
        };
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default(), 2.66)
    }

    #[test]
    fn unloaded_latency_in_expected_range() {
        // A cold access to an idle DRAM sees the unloaded, row-closed latency.
        let lat = dram().access(0x10_000, 0, false);
        // Array timing (~22 bus cycles) plus burst plus the controller
        // overhead: together with the L1/L2/L3 lookup latencies this puts an
        // isolated LLC miss at "a couple hundred cycles" as the paper states.
        assert!(lat > 150 && lat < 300, "unexpected unloaded latency {lat}");
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut d = dram();
        let first = d.access(0x10_000, 0, false);
        // Same row, issued long after the first completes: row hit.
        let second_start = first + 1000;
        let second = d.access(0x10_040, second_start, false) - second_start;
        assert!(
            second < first,
            "row hit {second} should beat cold access {first}"
        );
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn row_conflict_is_slowest() {
        let mut d = dram();
        let cfg = DramConfig::default();
        // Row 0 maps to bank 0; row 33 also maps to bank 0 under the
        // permutation-based interleaving (33 ^ (33 >> 5) = 32 ≡ 0 mod 32).
        let conflicting_row = 33 * cfg.page_bytes as u64;
        let t0 = d.access(0x0, 0, false);
        // Different row, same bank, long after: conflict (needs precharge).
        let start = t0 + 1000;
        let conflict = d.access(conflicting_row, start, false) - start;
        assert!(conflict > t0, "conflict {conflict} should exceed cold {t0}");
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = dram();
        let cfg = DramConfig::default();
        // Two requests to different banks issued at the same cycle should
        // overlap: the second finishes well before 2x the isolated latency.
        let a = d.access(0, 0, false);
        let b = d.access(cfg.page_bytes as u64, 0, false);
        assert!(b < a * 2, "bank parallelism missing: {a} then {b}");
    }

    #[test]
    fn same_bank_requests_serialize() {
        let mut d = dram();
        let a = d.access(0, 0, false);
        let b = d.access(64, 0, false);
        assert!(b > a, "same-bank back-to-back requests must serialize");
    }

    #[test]
    fn writes_are_counted() {
        let mut d = dram();
        d.access(0, 0, true);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 0);
    }
}
