//! The execute-and-stall memory controller.
//!
//! [`MemController::issue`] is the only way to learn what a command costs:
//! it stalls the stream to the command's earliest legal cycle, applies the
//! command to the bank state machines, and returns when it issued. There
//! is deliberately **no side-effect-free latency query** — the lesson from
//! the hwgc-soft/DRAMsim3 integration (ROADMAP item 2) is that "ask then
//! execute" APIs drift: the answer depends on bank state, refresh phase,
//! and pacing gates, all of which the question itself would have to
//! mutate. Estimation is done by *executing* the stream on a scratch
//! controller (see [`crate::campaign`]).
//!
//! Refresh is part of the executed stream, not bookkeeping: while refresh
//! is enabled the controller injects a REFab every `tREFI` (stalling the
//! stream for `tRFC`), and a retention experiment's refresh window is
//! whatever span of simulated time the stream actually spent between
//! [`MemController::pause_refresh`] and [`MemController::resume_refresh`]
//! — the emergent window `beer_core`'s timed backend feeds to
//! [`beer_dram::RetentionModel`]-backed chips.

use crate::bank::{BankPhase, BankState};
use crate::params::TimingParams;
use std::fmt;

/// A DDR4-style command addressed to the modeled device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Open `row` in `bank`.
    Act {
        /// Target bank.
        bank: usize,
        /// Row within the bank.
        row: usize,
    },
    /// Read one burst from the open row of `bank`.
    Rd {
        /// Target bank.
        bank: usize,
    },
    /// Write one burst to the open row of `bank`.
    Wr {
        /// Target bank.
        bank: usize,
    },
    /// Close the open row of `bank`.
    Pre {
        /// Target bank.
        bank: usize,
    },
    /// Close every open row.
    PreAll,
    /// Refresh one bank (LPDDR4-style per-bank refresh).
    Ref {
        /// Target bank.
        bank: usize,
    },
    /// Refresh all banks (requires every bank precharged).
    RefAb,
}

/// A typed protocol violation: the command is illegal in the current bank
/// state (timing is never an error — illegal *state* is).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingError {
    /// The command addressed a bank the device does not have.
    NoSuchBank {
        /// Requested bank.
        bank: usize,
        /// Banks the device has.
        banks: usize,
    },
    /// RD/WR/PRE addressed a bank with no open row.
    RowNotOpen {
        /// The idle bank.
        bank: usize,
    },
    /// ACT addressed a bank that already has a row open.
    RowAlreadyOpen {
        /// The busy bank.
        bank: usize,
        /// The row currently open.
        row: usize,
    },
    /// REF/REFab (or a refresh pause) with a row still open.
    RefreshWithOpenRow {
        /// The offending bank.
        bank: usize,
    },
    /// `resume_refresh` without a matching `pause_refresh`.
    RefreshNotPaused,
    /// `pause_refresh` while already paused.
    RefreshAlreadyPaused,
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::NoSuchBank { bank, banks } => {
                write!(f, "bank {bank} out of range (device has {banks})")
            }
            TimingError::RowNotOpen { bank } => {
                write!(f, "bank {bank} has no open row")
            }
            TimingError::RowAlreadyOpen { bank, row } => {
                write!(f, "bank {bank} already has row {row} open")
            }
            TimingError::RefreshWithOpenRow { bank } => {
                write!(
                    f,
                    "refresh requires all banks precharged (bank {bank} open)"
                )
            }
            TimingError::RefreshNotPaused => write!(f, "refresh is not paused"),
            TimingError::RefreshAlreadyPaused => write!(f, "refresh is already paused"),
        }
    }
}

impl std::error::Error for TimingError {}

/// When a command actually issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IssueInfo {
    /// The cycle the command went out on the command bus.
    pub issued_at: u64,
    /// Cycles the stream stalled waiting for the earliest legal cycle
    /// (0 when the command was immediately legal).
    pub stalled: u64,
}

/// Command/stall accounting of one controller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// ACT commands issued.
    pub acts: u64,
    /// RD commands issued.
    pub reads: u64,
    /// WR commands issued.
    pub writes: u64,
    /// PRE/PREab commands issued.
    pub precharges: u64,
    /// Explicit REF/REFab commands issued.
    pub refreshes: u64,
    /// REFab commands the controller injected to honor tREFI.
    pub auto_refreshes: u64,
    /// Total cycles spent stalled on timing constraints.
    pub stall_cycles: u64,
}

impl ControllerStats {
    /// Total commands issued (explicit + injected refresh).
    pub fn commands(&self) -> u64 {
        self.acts
            + self.reads
            + self.writes
            + self.precharges
            + self.refreshes
            + self.auto_refreshes
    }
}

/// One command as the log records it (see [`MemController::record_log`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IssuedCommand {
    /// The command.
    pub command: Command,
    /// The cycle it issued.
    pub issued_at: u64,
}

/// The execute-and-stall controller over one device's bank population
/// (see the module docs).
#[derive(Clone, Debug)]
pub struct MemController {
    params: TimingParams,
    banks: Vec<BankState>,
    /// Current cycle: the next command slot.
    now: u64,
    /// Global column-to-column pacing gate (tCCD).
    next_col_ok: u64,
    /// Global activate-to-activate pacing gate (tRRD).
    next_act_ok: u64,
    /// Cycle the last data burst finishes on the data bus.
    data_busy_until: u64,
    refresh_enabled: bool,
    next_ref_due: u64,
    /// Cycle the current refresh pause began (None when refresh runs).
    pause_started: Option<u64>,
    /// Total cycles spent with refresh paused (all pauses).
    refresh_paused_cycles: u64,
    stats: ControllerStats,
    log: Option<Vec<IssuedCommand>>,
}

impl MemController {
    /// A controller over `banks` banks at power-up (cycle 0, refresh
    /// enabled, first REFab due one tREFI out).
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or the parameter table is inconsistent
    /// (see [`TimingParams::validate`]).
    pub fn new(params: TimingParams, banks: usize) -> Self {
        params.validate();
        assert!(banks > 0, "device must have at least one bank");
        MemController {
            next_ref_due: params.trefi,
            params,
            banks: vec![BankState::new(); banks],
            now: 0,
            next_col_ok: 0,
            next_act_ok: 0,
            data_busy_until: 0,
            refresh_enabled: true,
            pause_started: None,
            refresh_paused_cycles: 0,
            stats: ControllerStats::default(),
            log: None,
        }
    }

    /// The parameter table.
    pub fn params(&self) -> &TimingParams {
        &self.params
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// One bank's state (for inspection; mutation goes through `issue`).
    ///
    /// # Panics
    ///
    /// Panics if the bank is out of range.
    pub fn bank(&self, bank: usize) -> &BankState {
        &self.banks[bank]
    }

    /// Current cycle.
    pub fn now_cycles(&self) -> u64 {
        self.now
    }

    /// Simulated time elapsed since power-up, in nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        self.params.cycles_to_ns(self.now)
    }

    /// Total cycles spent with refresh paused so far.
    pub fn refresh_paused_cycles(&self) -> u64 {
        self.refresh_paused_cycles
    }

    /// Command/stall accounting.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Turns command logging on or off (off by default; the property
    /// tests replay the log against an independent constraint checker).
    pub fn record_log(&mut self, on: bool) {
        self.log = if on { Some(Vec::new()) } else { None };
    }

    /// The recorded command log (empty unless `record_log(true)`).
    pub fn issue_log(&self) -> &[IssuedCommand] {
        self.log.as_deref().unwrap_or(&[])
    }

    fn check_bank(&self, bank: usize) -> Result<(), TimingError> {
        if bank >= self.banks.len() {
            return Err(TimingError::NoSuchBank {
                bank,
                banks: self.banks.len(),
            });
        }
        Ok(())
    }

    fn first_open_bank(&self) -> Option<usize> {
        self.banks.iter().position(|b| b.open_row().is_some())
    }

    /// Serves every REFab that came due at or before the current cycle,
    /// once all banks are precharged. Refresh due while a row is open is
    /// *postponed* (the JEDEC debt allowance) and caught up at the next
    /// all-banks-idle command slot, so an in-progress row sweep is never
    /// torn; the injected REFab then stalls the stream for tRFC like any
    /// other command — the tREFI/tRFC interplay the stream pays for while
    /// refresh is enabled.
    fn maintain_refresh(&mut self) {
        while self.refresh_enabled
            && self.next_ref_due <= self.now
            && self.first_open_bank().is_none()
        {
            let t = self
                .banks
                .iter()
                .map(|b| b.earliest_act)
                .max()
                .unwrap_or(0)
                .max(self.now);
            for b in &mut self.banks {
                b.earliest_act = t + self.params.trfc;
            }
            self.stats.auto_refreshes += 1;
            self.stats.stall_cycles += t - self.now;
            self.now = t + 1;
            self.next_ref_due += self.params.trefi;
        }
    }

    /// Executes one command: stalls to its earliest legal cycle, applies
    /// it, and reports when it issued. This is the only latency oracle
    /// the crate has — see the module docs for why.
    ///
    /// # Errors
    ///
    /// Returns a [`TimingError`] if the command is illegal in the current
    /// bank state (wrong bank, row not open / already open, refresh with
    /// an open row). Timing constraints never fail — they stall.
    pub fn issue(&mut self, command: Command) -> Result<IssueInfo, TimingError> {
        self.maintain_refresh();
        let p = self.params;
        let before = self.now;
        let issued_at = match command {
            Command::Act { bank, row } => {
                self.check_bank(bank)?;
                if let Some(open) = self.banks[bank].open_row() {
                    return Err(TimingError::RowAlreadyOpen { bank, row: open });
                }
                let t = self
                    .now
                    .max(self.banks[bank].earliest_act)
                    .max(self.next_act_ok);
                self.banks[bank].apply_act(t, row, &p);
                self.next_act_ok = t + p.trrd;
                self.stats.acts += 1;
                t
            }
            Command::Rd { bank } => {
                self.check_bank(bank)?;
                if self.banks[bank].open_row().is_none() {
                    return Err(TimingError::RowNotOpen { bank });
                }
                let t = self
                    .now
                    .max(self.banks[bank].earliest_col)
                    .max(self.next_col_ok);
                self.banks[bank].apply_rd(t, &p);
                self.next_col_ok = t + p.tccd;
                self.data_busy_until = self.data_busy_until.max(t + p.cl + p.burst_cycles);
                self.stats.reads += 1;
                t
            }
            Command::Wr { bank } => {
                self.check_bank(bank)?;
                if self.banks[bank].open_row().is_none() {
                    return Err(TimingError::RowNotOpen { bank });
                }
                let t = self
                    .now
                    .max(self.banks[bank].earliest_col)
                    .max(self.next_col_ok);
                self.banks[bank].apply_wr(t, &p);
                self.next_col_ok = t + p.tccd;
                self.data_busy_until = self.data_busy_until.max(t + p.cwl + p.burst_cycles);
                self.stats.writes += 1;
                t
            }
            Command::Pre { bank } => {
                self.check_bank(bank)?;
                if self.banks[bank].open_row().is_none() {
                    return Err(TimingError::RowNotOpen { bank });
                }
                let t = self.now.max(self.banks[bank].earliest_pre);
                self.banks[bank].apply_pre(t, &p);
                self.stats.precharges += 1;
                t
            }
            Command::PreAll => {
                let t = self
                    .banks
                    .iter()
                    .filter(|b| b.open_row().is_some())
                    .map(|b| b.earliest_pre)
                    .max()
                    .unwrap_or(self.now)
                    .max(self.now);
                for b in &mut self.banks {
                    if b.open_row().is_some() {
                        b.apply_pre(t, &p);
                    }
                }
                self.stats.precharges += 1;
                t
            }
            Command::Ref { bank } => {
                self.check_bank(bank)?;
                if self.banks[bank].open_row().is_some() {
                    return Err(TimingError::RefreshWithOpenRow { bank });
                }
                let t = self.now.max(self.banks[bank].earliest_act);
                self.banks[bank].earliest_act = t + p.trfc;
                self.stats.refreshes += 1;
                t
            }
            Command::RefAb => {
                if let Some(bank) = self.first_open_bank() {
                    return Err(TimingError::RefreshWithOpenRow { bank });
                }
                let t = self
                    .banks
                    .iter()
                    .map(|b| b.earliest_act)
                    .max()
                    .unwrap_or(0)
                    .max(self.now);
                for b in &mut self.banks {
                    b.earliest_act = t + p.trfc;
                }
                self.stats.refreshes += 1;
                t
            }
        };
        let stalled = issued_at - before;
        self.stats.stall_cycles += stalled;
        self.now = issued_at + 1;
        if let Some(log) = &mut self.log {
            log.push(IssuedCommand { command, issued_at });
        }
        Ok(IssueInfo { issued_at, stalled })
    }

    /// Advances the stream by `cycles` idle cycles (NOPs). With refresh
    /// enabled and all banks precharged, the REFab commands due inside
    /// the window are batch-accounted — they complete within the wait and
    /// only gate ACTs that follow too closely after it.
    pub fn wait_cycles(&mut self, cycles: u64) {
        let target = self.now + cycles;
        if self.refresh_enabled && self.first_open_bank().is_none() && self.next_ref_due < target {
            let missed = (target - 1 - self.next_ref_due) / self.params.trefi + 1;
            let last_start = self.next_ref_due + (missed - 1) * self.params.trefi;
            let busy_end = last_start + self.params.trfc;
            for b in &mut self.banks {
                b.earliest_act = b.earliest_act.max(busy_end);
            }
            self.stats.auto_refreshes += missed;
            self.next_ref_due += missed * self.params.trefi;
        }
        self.now = target;
    }

    /// Stops injecting refresh — the start of a retention window. The
    /// array must be fully precharged: retention decay is defined over
    /// idle cells.
    ///
    /// # Errors
    ///
    /// [`TimingError::RefreshWithOpenRow`] if a row is open,
    /// [`TimingError::RefreshAlreadyPaused`] if already paused.
    pub fn pause_refresh(&mut self) -> Result<(), TimingError> {
        if self.pause_started.is_some() {
            return Err(TimingError::RefreshAlreadyPaused);
        }
        if let Some(bank) = self.first_open_bank() {
            return Err(TimingError::RefreshWithOpenRow { bank });
        }
        self.refresh_enabled = false;
        self.pause_started = Some(self.now);
        Ok(())
    }

    /// Re-enables refresh and returns the **emergent refresh window** in
    /// seconds: the simulated time the stream actually spent since
    /// [`MemController::pause_refresh`] — commands executed inside the
    /// pause widen it, exactly as they would on hardware. The next
    /// injected REFab is due one tREFI from now.
    ///
    /// # Errors
    ///
    /// [`TimingError::RefreshNotPaused`] if refresh is running.
    pub fn resume_refresh(&mut self) -> Result<f64, TimingError> {
        let started = self
            .pause_started
            .take()
            .ok_or(TimingError::RefreshNotPaused)?;
        let cycles = self.now - started;
        self.refresh_paused_cycles += cycles;
        self.refresh_enabled = true;
        self.next_ref_due = self.now + self.params.trefi;
        Ok(self.params.cycles_to_seconds(cycles))
    }

    /// The refresh-disabled wait loop of a retention experiment: pauses
    /// refresh, idles for the smallest whole-cycle count covering
    /// `seconds`, resumes refresh, and returns the emergent window
    /// actually executed (`>= seconds`, within one clock period).
    ///
    /// # Errors
    ///
    /// The conditions of [`MemController::pause_refresh`].
    pub fn refresh_paused_wait(&mut self, seconds: f64) -> Result<f64, TimingError> {
        self.pause_refresh()?;
        self.wait_cycles(self.params.cycles_for_seconds(seconds));
        self.resume_refresh()
    }

    /// Stalls until the data bus drains (the last RD/WR burst lands).
    /// Call at the end of a sweep so elapsed time covers data return.
    pub fn drain_data(&mut self) {
        if self.data_busy_until > self.now {
            self.stats.stall_cycles += self.data_busy_until - self.now;
            self.now = self.data_busy_until;
        }
    }

    /// True if `bank` has an open row.
    pub fn is_open(&self, bank: usize) -> bool {
        self.banks
            .get(bank)
            .is_some_and(|b| matches!(b.phase, BankPhase::Active { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> MemController {
        MemController::new(TimingParams::ddr4_3200(), 2)
    }

    #[test]
    fn act_rd_pre_honors_trcd_and_tras() {
        let p = TimingParams::ddr4_3200();
        let mut c = ctrl();
        let act = c.issue(Command::Act { bank: 0, row: 3 }).unwrap();
        let rd = c.issue(Command::Rd { bank: 0 }).unwrap();
        assert!(rd.issued_at >= act.issued_at + p.trcd);
        let pre = c.issue(Command::Pre { bank: 0 }).unwrap();
        assert!(pre.issued_at >= act.issued_at + p.tras);
        let act2 = c.issue(Command::Act { bank: 0, row: 4 }).unwrap();
        assert!(act2.issued_at >= act.issued_at + p.trc);
        assert!(act2.issued_at >= pre.issued_at + p.trp);
    }

    #[test]
    fn column_commands_pace_at_tccd() {
        let p = TimingParams::ddr4_3200();
        let mut c = ctrl();
        c.issue(Command::Act { bank: 0, row: 0 }).unwrap();
        let w1 = c.issue(Command::Wr { bank: 0 }).unwrap();
        let w2 = c.issue(Command::Wr { bank: 0 }).unwrap();
        assert_eq!(w2.issued_at, w1.issued_at + p.tccd);
    }

    #[test]
    fn protocol_violations_are_typed_errors() {
        let mut c = ctrl();
        assert_eq!(
            c.issue(Command::Rd { bank: 0 }),
            Err(TimingError::RowNotOpen { bank: 0 })
        );
        c.issue(Command::Act { bank: 0, row: 1 }).unwrap();
        assert_eq!(
            c.issue(Command::Act { bank: 0, row: 2 }),
            Err(TimingError::RowAlreadyOpen { bank: 0, row: 1 })
        );
        assert_eq!(
            c.issue(Command::RefAb),
            Err(TimingError::RefreshWithOpenRow { bank: 0 })
        );
        assert_eq!(
            c.issue(Command::Wr { bank: 9 }),
            Err(TimingError::NoSuchBank { bank: 9, banks: 2 })
        );
    }

    #[test]
    fn auto_refresh_stalls_the_stream() {
        let p = TimingParams::ddr4_3200();
        let mut c = ctrl();
        // Jump past one tREFI; the next command pays for the missed REFab.
        c.wait_cycles(p.trefi + 1);
        assert_eq!(c.stats().auto_refreshes, 1);
        let act = c.issue(Command::Act { bank: 0, row: 0 }).unwrap();
        // The ACT cannot issue before the refresh completes.
        assert!(act.issued_at >= p.trefi + p.trfc);
    }

    #[test]
    fn emergent_window_covers_requested_wait() {
        let p = TimingParams::ddr4_3200();
        let mut c = ctrl();
        let requested = 0.064; // 64 ms
        let window = c.refresh_paused_wait(requested).unwrap();
        assert!(window >= requested);
        assert!(window - requested < 2.0 * p.tck_ps as f64 / 1e12);
        assert_eq!(c.stats().auto_refreshes, 0, "no refresh during the pause");
        assert!(c.refresh_paused_cycles() > 0);
    }

    #[test]
    fn commands_inside_pause_widen_the_window() {
        let mut c = ctrl();
        c.pause_refresh().unwrap();
        let wait = c.params().cycles_for_seconds(1e-6);
        c.wait_cycles(wait);
        c.issue(Command::Act { bank: 0, row: 0 }).unwrap();
        c.issue(Command::Rd { bank: 0 }).unwrap();
        c.issue(Command::Pre { bank: 0 }).unwrap();
        let window = c.resume_refresh().unwrap();
        assert!(window > c.params().cycles_to_seconds(wait));
    }

    #[test]
    fn refresh_pause_requires_precharged_array() {
        let mut c = ctrl();
        c.issue(Command::Act { bank: 1, row: 0 }).unwrap();
        assert_eq!(
            c.pause_refresh(),
            Err(TimingError::RefreshWithOpenRow { bank: 1 })
        );
        c.issue(Command::PreAll).unwrap();
        c.pause_refresh().unwrap();
        assert_eq!(c.pause_refresh(), Err(TimingError::RefreshAlreadyPaused));
    }
}
