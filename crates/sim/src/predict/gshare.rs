//! Gshare: global history XOR PC indexing a table of 2-bit counters.
//! Table I: 10-bit global history, 32 K entries.

use super::{DirectionPredictor, HistoryRing, DEFAULT_IN_FLIGHT};

const TABLE_BITS: u32 = 15; // 32 K entries
const HISTORY_BITS: u32 = 10;

/// Gshare direction predictor with speculative history and
/// per-branch history repair.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    /// Architectural (retire-consistent) history, which training uses.
    history: u32,
    /// Speculative history updated at predict time.
    spec_history: u32,
    /// `spec_history` before each prediction in flight.
    ring: HistoryRing<u32>,
}

impl Gshare {
    /// Builds a weakly-not-taken-initialized predictor with room for
    /// a few dozen predictions in flight.
    #[must_use]
    pub fn new() -> Gshare {
        Gshare::with_in_flight(DEFAULT_IN_FLIGHT)
    }

    /// As [`Gshare::new`], keeping up to `in_flight` predictions in
    /// flight.
    #[must_use]
    pub fn with_in_flight(in_flight: usize) -> Gshare {
        Gshare {
            table: vec![1; 1 << TABLE_BITS],
            history: 0,
            spec_history: 0,
            ring: HistoryRing::new(in_flight),
        }
    }

    fn index(&self, pc: u32, history: u32) -> usize {
        let mask = (1u32 << TABLE_BITS) - 1;
        (((pc >> 2) ^ (history << (TABLE_BITS - HISTORY_BITS))) & mask) as usize
    }
}

fn push(history: u32, taken: bool) -> u32 {
    ((history << 1) | u32::from(taken)) & ((1 << HISTORY_BITS) - 1)
}

impl Default for Gshare {
    fn default() -> Self {
        Gshare::new()
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&mut self, pc: u32) -> bool {
        let idx = self.index(pc, self.spec_history);
        let taken = self.table[idx] >= 2;
        self.ring.push(self.spec_history);
        self.spec_history = push(self.spec_history, taken);
        taken
    }

    fn update(&mut self, pc: u32, taken: bool, _pred: bool) {
        let idx = self.index(pc, self.history);
        let c = &mut self.table[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = push(self.history, taken);
        self.ring.retire();
    }

    fn recover(&mut self) {
        self.spec_history = self.history;
        self.ring.clear();
    }

    fn history_pos(&self) -> u64 {
        self.ring.next
    }

    fn predicted_with_retired_history(&self, pos: u64) -> bool {
        self.ring.get(pos) == Some(self.history)
    }

    fn rewind(&mut self, pos: u64, outcome: Option<bool>) {
        if let Some(history) = self.ring.rewind(pos) {
            self.spec_history = history;
        }
        if let Some(taken) = outcome {
            // The resolved branch keeps its position and checkpoint.
            self.ring.push(self.spec_history);
            self.spec_history = push(self.spec_history, taken);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_bias() {
        let mut g = Gshare::new();
        for _ in 0..8 {
            let p = g.predict(0x1000);
            g.update(0x1000, true, p);
        }
        assert!(g.predict(0x1000));
    }

    #[test]
    fn learns_alternation_through_history() {
        let mut g = Gshare::new();
        let mut correct = 0;
        let mut toggle = false;
        for i in 0..2000 {
            let p = g.predict(0x2000);
            if i >= 1000 && p == toggle {
                correct += 1;
            }
            g.update(0x2000, toggle, p);
            if p != toggle {
                // The pipeline squashes and repairs speculative
                // history on every mispredict; model that here.
                g.recover();
            }
            toggle = !toggle;
        }
        assert!(correct > 900, "gshare should learn a period-2 pattern, got {correct}/1000");
    }

    #[test]
    fn recover_resets_speculative_history() {
        let mut g = Gshare::new();
        let p0 = g.predict(0x1000);
        let _ = g.predict(0x1004);
        let _ = g.predict(0x1008);
        g.update(0x1000, !p0, p0);
        g.recover();
        assert_eq!(g.spec_history, g.history);
        assert_eq!(g.history_pos(), 1, "the next prediction reuses the discarded position");
    }

    #[test]
    fn rewind_restores_the_checkpoint_and_pushes_the_outcome() {
        let mut g = Gshare::new();
        let _ = g.predict(0x1000);
        let before = g.spec_history;
        let p = g.predict(0x1004);
        let _ = g.predict(0x1008);
        g.rewind(1, Some(!p));
        assert_eq!(g.spec_history, push(before, !p));
        assert_eq!(g.history_pos(), 2);
        g.rewind(2, None);
        assert_eq!(g.spec_history, push(before, !p));
        g.rewind(1, None);
        assert_eq!(g.spec_history, before);
    }

    #[test]
    fn rewinds_keep_each_branch_checkpoint_equal_to_the_retired_history() {
        for depth in [1, 2, 8, 64] {
            let mut g = Gshare::new();
            let counts = crate::predict::repair_model::drive(&mut g, depth);
            assert!(counts.retired_branches > 15_000, "{counts:?}");
            if depth > 1 {
                assert!(counts.branch_rewinds > 1_000 && counts.other_rewinds > 500, "{counts:?}");
                assert_eq!(counts.max_in_flight, depth, "{counts:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflow a history ring")]
    fn more_predictions_in_flight_than_the_ring_holds_panic() {
        let mut g = Gshare::with_in_flight(4);
        for i in 0..5 {
            let _ = g.predict(0x1000 + 4 * i);
        }
    }
}
