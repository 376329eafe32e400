//! Simulation statistics, including the activity-event counters the
//! power model consumes (Figure 17).

use std::collections::BTreeMap;
use std::fmt;

use straight_isa::Trap;
use straight_json::{read_field, FromJson, Json, JsonError, ToJson};

use crate::json_record;
use crate::mem::MemStats;

/// Activity events for the power model: every counter corresponds to
/// a physical structure access in one of the modeled modules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct PowerEvents {
    // Rename logic (the module STRAIGHT removes).
    pub rmt_reads: u64,
    pub rmt_writes: u64,
    pub freelist_ops: u64,
    pub rob_walk_reads: u64,
    // STRAIGHT's counterpart: the operand-determination adders.
    pub rp_adds: u64,
    // Register file.
    pub prf_reads: u64,
    pub prf_writes: u64,
    // Other core modules.
    pub fetched: u64,
    pub decoded: u64,
    pub iq_wakeups: u64,
    pub iq_inserts: u64,
    pub fu_ops: u64,
    pub rob_writes: u64,
    pub rob_commits: u64,
    pub lsq_searches: u64,
}

json_record!(PowerEvents {
    rmt_reads,
    rmt_writes,
    freelist_ops,
    rob_walk_reads,
    rp_adds,
    prf_reads,
    prf_writes,
    fetched,
    decoded,
    iq_wakeups,
    iq_inserts,
    fu_ops,
    rob_writes,
    rob_commits,
    lsq_searches,
});

/// Full statistics of one simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Retired (committed) instructions.
    pub retired: u64,
    /// Retired counts per category, indexed like [`KIND_NAMES`]
    /// (Figure 15 categories). A fixed array rather than a map: the
    /// retire path bumps one of these per instruction, so the counter
    /// must be O(1) with no string hashing.
    pub retired_kinds: [u64; KIND_NAMES.len()],
    /// Retired conditional branches.
    pub branches: u64,
    /// Retired conditional branches whose fetch-time prediction was
    /// wrong.
    pub branch_mispredicts: u64,
    /// Retired conditional branches an in-order twin of the direction
    /// predictor (predict, train, then repair history on a miss, one
    /// branch at a time) mispredicts: the reference the pipeline's
    /// rate is held to.
    pub replay_mispredicts: u64,
    /// Indirect-jump mispredicts (wrong RAS/unknown target), counted
    /// when they resolve, wrong path included.
    pub indirect_mispredicts: u64,
    /// Memory-order violations (store-load replays).
    pub memory_violations: u64,
    /// Total instructions squashed by recoveries.
    pub squashed: u64,
    /// Cycles the rename stage was blocked by recovery (ROB walking
    /// for SS; the single ROB read for STRAIGHT).
    pub recovery_stall_cycles: u64,
    /// Cycles rename stalled for a free physical register.
    pub freelist_stall_cycles: u64,
    /// Cycles dispatch stalled on a full ROB/IQ/LSQ.
    pub backpressure_stall_cycles: u64,
    /// Power-model activity events.
    pub events: PowerEvents,
    /// Memory hierarchy statistics.
    pub mem: MemStats,
}

impl SimStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Mispredicts per retired conditional branch.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        ratio(self.branch_mispredicts, self.branches)
    }

    /// The in-order replay's mispredicts per retired conditional
    /// branch.
    #[must_use]
    pub fn replay_mispredict_rate(&self) -> f64 {
        ratio(self.replay_mispredicts, self.branches)
    }

    /// Conditional-branch mispredicts per thousand retired
    /// instructions.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        1000.0 * ratio(self.branch_mispredicts, self.retired)
    }

    /// Bumps a retired-kind counter. `kind` must be one of
    /// [`KIND_NAMES`]; anything else is counted as `"other"`.
    pub fn bump_kind(&mut self, kind: &'static str) {
        let slot = kind_slot(kind);
        debug_assert_eq!(KIND_NAMES[slot], kind, "unknown retired-instruction kind");
        self.retired_kinds[slot] += 1;
        self.retired += 1;
    }

    /// Bumps a retired-kind counter by its [`KIND_NAMES`] index — the
    /// pipeline's hot path, which carries the category pre-encoded as
    /// an index (the crate-internal `kind_idx` constants) instead of a
    /// string.
    #[inline]
    pub fn bump_kind_idx(&mut self, idx: u8) {
        debug_assert!((idx as usize) < KIND_NAMES.len(), "kind index out of range");
        self.retired_kinds[idx as usize] += 1;
        self.retired += 1;
    }

    /// The retired count for one [`KIND_NAMES`] category.
    #[must_use]
    pub fn kind_count(&self, name: &str) -> u64 {
        KIND_NAMES
            .iter()
            .position(|&k| k == name)
            .map_or(0, |i| self.retired_kinds[i])
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// O(1) category dispatch: every [`KIND_NAMES`] entry starts with a
/// distinct byte, so one byte identifies the slot.
#[inline]
fn kind_slot(kind: &str) -> usize {
    match kind.as_bytes().first() {
        Some(b'j') => 0,
        Some(b'a') => 1,
        Some(b'l') => 2,
        Some(b's') => 3,
        Some(b'r') => 4,
        Some(b'n') => 5,
        _ => 6,
    }
}

/// The closed vocabulary of retired-instruction categories (the
/// Figure 15 legend). [`SimStats`] keys its per-kind counters with
/// these `&'static str`s, so deserialization interns incoming keys
/// against this list.
pub const KIND_NAMES: [&str; 7] = ["jump+branch", "alu", "ld", "st", "rmov", "nop", "other"];

/// [`KIND_NAMES`] indices, for code that carries a category as a
/// compact `u8` (the `UOp::kind` encoding) rather than a string.
pub(crate) mod kind_idx {
    /// `"jump+branch"`.
    pub const JUMP_BRANCH: u8 = 0;
    /// `"alu"`.
    pub const ALU: u8 = 1;
    /// `"ld"`.
    pub const LD: u8 = 2;
    /// `"st"`.
    pub const ST: u8 = 3;
    /// `"rmov"`.
    pub const RMOV: u8 = 4;
    /// `"nop"`.
    pub const NOP: u8 = 5;
    /// `"other"`.
    pub const OTHER: u8 = 6;
}

/// Interns a category name against [`KIND_NAMES`].
#[must_use]
pub fn intern_kind(name: &str) -> Option<&'static str> {
    KIND_NAMES.iter().find(|&&k| k == name).copied()
}

impl ToJson for SimStats {
    fn to_json(&self) -> Json {
        // Emitted exactly as the former `BTreeMap` representation did:
        // categories with a non-zero count, in lexicographic order.
        let mut lex: Vec<usize> = (0..KIND_NAMES.len()).collect();
        lex.sort_by_key(|&i| KIND_NAMES[i]);
        let kinds = Json::Obj(
            lex.into_iter()
                .filter(|&i| self.retired_kinds[i] != 0)
                .map(|i| (KIND_NAMES[i].to_string(), self.retired_kinds[i].to_json()))
                .collect(),
        );
        straight_json::obj()
            .field("cycles", &self.cycles)
            .field("retired", &self.retired)
            .field("ipc", &self.ipc())
            .field("retired_kinds", &kinds)
            .field("branches", &self.branches)
            .field("branch_mispredicts", &self.branch_mispredicts)
            .field("mispredict_rate", &self.mispredict_rate())
            .field("mpki", &self.mpki())
            .field("replay_mispredicts", &self.replay_mispredicts)
            .field("replay_mispredict_rate", &self.replay_mispredict_rate())
            .field("indirect_mispredicts", &self.indirect_mispredicts)
            .field("memory_violations", &self.memory_violations)
            .field("squashed", &self.squashed)
            .field("recovery_stall_cycles", &self.recovery_stall_cycles)
            .field("freelist_stall_cycles", &self.freelist_stall_cycles)
            .field("backpressure_stall_cycles", &self.backpressure_stall_cycles)
            .field("events", &self.events)
            .field("mem", &self.mem)
            .build()
    }
}

impl FromJson for SimStats {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let kinds_value: BTreeMap<String, u64> = read_field(value, "retired_kinds")?;
        let mut retired_kinds = [0u64; KIND_NAMES.len()];
        for (name, count) in kinds_value {
            let slot = KIND_NAMES.iter().position(|&k| k == name).ok_or_else(|| {
                JsonError::Shape(format!("unknown retired-instruction kind `{name}`"))
            })?;
            retired_kinds[slot] = count;
        }
        let stats = SimStats {
            cycles: read_field(value, "cycles")?,
            retired: read_field(value, "retired")?,
            retired_kinds,
            branches: read_field(value, "branches")?,
            branch_mispredicts: read_field(value, "branch_mispredicts")?,
            replay_mispredicts: read_field(value, "replay_mispredicts")?,
            indirect_mispredicts: read_field(value, "indirect_mispredicts")?,
            memory_violations: read_field(value, "memory_violations")?,
            squashed: read_field(value, "squashed")?,
            recovery_stall_cycles: read_field(value, "recovery_stall_cycles")?,
            freelist_stall_cycles: read_field(value, "freelist_stall_cycles")?,
            backpressure_stall_cycles: read_field(value, "backpressure_stall_cycles")?,
            events: read_field(value, "events")?,
            mem: read_field(value, "mem")?,
        };
        stats.check_branch_fields(value)?;
        Ok(stats)
    }
}

impl SimStats {
    /// Rejects branch counters that cannot come from one run, and
    /// derived rates that disagree with the counters they derive from.
    fn check_branch_fields(&self, value: &Json) -> Result<(), JsonError> {
        let counts = [
            ("branch_mispredicts", self.branch_mispredicts),
            ("replay_mispredicts", self.replay_mispredicts),
        ];
        for (name, count) in counts {
            if count > self.branches {
                return Err(JsonError::Shape(format!(
                    "{name} {count} exceeds the {} retired branches",
                    self.branches
                )));
            }
        }
        if self.branches > self.retired {
            return Err(JsonError::Shape(format!(
                "{} retired branches exceed the {} retired instructions",
                self.branches, self.retired
            )));
        }
        for (name, expected) in [
            ("mispredict_rate", self.mispredict_rate()),
            ("mpki", self.mpki()),
            ("replay_mispredict_rate", self.replay_mispredict_rate()),
        ] {
            let stored: f64 = read_field(value, name)?;
            if (stored - expected).abs() > 1e-9 * expected.abs().max(1.0) {
                return Err(JsonError::Shape(format!(
                    "field `{name}` is {stored}, but its counters give {expected}"
                )));
            }
        }
        Ok(())
    }
}

/// Why a simulation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimExit {
    /// The program ran to completion.
    Completed {
        /// Exit code.
        code: i32,
    },
    /// The cycle budget was exhausted.
    CycleLimit,
    /// A typed trap — architectural, sanitizer-detected, or the
    /// forward-progress watchdog ([`straight_isa::TrapKind::Watchdog`],
    /// in which case [`SimResult::watchdog`] carries the full
    /// diagnostic).
    Trap(Trap),
}

/// Structured diagnostic dumped when the forward-progress watchdog
/// fires: enough pipeline state to see *where* progress stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Commit-free cycles observed when the watchdog fired.
    pub stalled_cycles: u64,
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Instructions retired before the stall.
    pub retired: u64,
    /// ROB head: (sequence number, PC, a short state description), if
    /// the ROB is non-empty.
    pub rob_head: Option<(u64, u32, &'static str)>,
    /// ROB occupancy.
    pub rob_len: usize,
    /// Scheduler occupancy.
    pub iq_len: usize,
    /// In-flight (issued, not yet completed) count.
    pub inflight_len: usize,
    /// Load/store-queue occupancy.
    pub lsq_len: usize,
    /// Front-end queue occupancy.
    pub front_len: usize,
    /// Next fetch PC.
    pub fetch_pc: u32,
    /// Cycle until which fetch is stalled.
    pub fetch_stall_until: u64,
    /// Cycle until which rename is stalled.
    pub rename_stall_until: u64,
}

impl fmt::Display for WatchdogReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "watchdog: no commit for {} cycles (cycle {}, {} retired)",
            self.stalled_cycles, self.cycle, self.retired
        )?;
        match self.rob_head {
            Some((seq, pc, state)) => {
                writeln!(f, "  rob head: seq {seq} pc {pc:#x} [{state}], {} entries", self.rob_len)?;
            }
            None => writeln!(f, "  rob: empty")?,
        }
        writeln!(
            f,
            "  iq {} / inflight {} / lsq {} / front {}",
            self.iq_len, self.inflight_len, self.lsq_len, self.front_len
        )?;
        write!(
            f,
            "  fetch_pc {:#x}, fetch stalled until {}, rename stalled until {}",
            self.fetch_pc, self.fetch_stall_until, self.rename_stall_until
        )
    }
}

/// Result of simulating a program to completion.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Why simulation stopped.
    pub exit: SimExit,
    /// Exit code, if the program completed (`exit` in convenient
    /// form for the common case).
    pub exit_code: Option<i32>,
    /// Watchdog diagnostic, when `exit` is a watchdog trap.
    pub watchdog: Option<WatchdogReport>,
    /// Console output.
    pub stdout: String,
    /// Statistics.
    pub stats: SimStats,
}

impl SimResult {
    /// The trap, if simulation ended in one.
    #[must_use]
    pub fn trap(&self) -> Option<Trap> {
        match self.exit {
            SimExit::Trap(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_rates() {
        let mut s = SimStats { cycles: 100, ..SimStats::default() };
        for _ in 0..150 {
            s.bump_kind("alu");
        }
        s.branches = 10;
        s.branch_mispredicts = 3;
        s.replay_mispredicts = 1;
        assert!((s.ipc() - 1.5).abs() < 1e-9);
        assert!((s.mispredict_rate() - 0.3).abs() < 1e-9);
        assert!((s.replay_mispredict_rate() - 0.1).abs() < 1e-9);
        assert!((s.mpki() - 20.0).abs() < 1e-9);
        assert_eq!(s.kind_count("alu"), 150);
        assert_eq!(s.kind_count("ld"), 0);
    }

    #[test]
    fn kind_slots_cover_all_names() {
        // The one-byte dispatch must stay in lockstep with KIND_NAMES.
        for (i, name) in KIND_NAMES.iter().enumerate() {
            assert_eq!(kind_slot(name), i, "kind {name} maps to the wrong slot");
        }
    }

    #[test]
    fn kind_idx_constants_match_names() {
        // The compact `u8` encoding must stay in lockstep with
        // KIND_NAMES too.
        let pairs = [
            (kind_idx::JUMP_BRANCH, "jump+branch"),
            (kind_idx::ALU, "alu"),
            (kind_idx::LD, "ld"),
            (kind_idx::ST, "st"),
            (kind_idx::RMOV, "rmov"),
            (kind_idx::NOP, "nop"),
            (kind_idx::OTHER, "other"),
        ];
        assert_eq!(pairs.len(), KIND_NAMES.len());
        for (idx, name) in pairs {
            assert_eq!(KIND_NAMES[idx as usize], name);
        }
    }

    #[test]
    fn zero_cycles_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
    }
}
