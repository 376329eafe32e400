//! Branch direction predictors (gshare and 8-component TAGE), the
//! return-address stack, and a store-set memory-dependence predictor.

mod gshare;
mod memdep;
mod ras;
mod tage;

pub use gshare::Gshare;
pub use memdep::StoreSets;
pub use ras::{Ras, RasCheckpoint};
pub use tage::Tage;

/// A conditional-branch direction predictor.
///
/// Predictions are numbered by a *history position*: the first
/// prediction gets 0 and each later one the next number. Before each
/// prediction the predictor checkpoints its speculative history under
/// that position, so an out-of-order core can repair the history of
/// any branch still in flight ([`DirectionPredictor::rewind`]). A
/// rewind hands the discarded positions out again, like the sequence
/// numbers of a squashed ROB tail, so the k-th branch of the
/// correct path always has position k.
pub trait DirectionPredictor {
    /// Predicts taken/not-taken for the branch at `pc`, taking the
    /// next history position.
    fn predict(&mut self, pc: u32) -> bool;
    /// Trains with the resolved outcome, in program order at retire.
    /// `pred` is what was predicted at fetch.
    fn update(&mut self, pc: u32, taken: bool, pred: bool);
    /// Discards every prediction not yet trained: the speculative
    /// history becomes the retired history. Exact for in-order use,
    /// where nothing younger than the trained branch is in flight.
    fn recover(&mut self);
    /// The position the next prediction will get.
    fn history_pos(&self) -> u64;
    /// Restores the speculative history checkpointed before prediction
    /// `pos` (a no-op when `pos` is the next position), discarding the
    /// predictions from `pos` on, then pushes `outcome` when one is
    /// given (as the resolved direction of the branch at `pos`, which
    /// then keeps its position).
    fn rewind(&mut self, pos: u64, outcome: Option<bool>);
    /// True when the history checkpointed before prediction `pos` is
    /// the retired history: the repair invariant, checked as the
    /// branch at `pos` trains.
    fn predicted_with_retired_history(&self, pos: u64) -> bool;
}

/// Which predictor a machine uses (Figures 11–13 use gshare; Figure
/// 14 swaps in TAGE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Gshare, 10-bit global history, 32 K entries (Table I).
    Gshare,
    /// 8-component CBP-TAGE (Figure 14).
    Tage,
}

/// Builds the configured predictor, able to keep at least `in_flight`
/// predictions in flight (fetched but not yet trained).
#[must_use]
pub fn build(kind: PredictorKind, in_flight: usize) -> Box<dyn DirectionPredictor> {
    match kind {
        PredictorKind::Gshare => Box::new(Gshare::with_in_flight(in_flight)),
        PredictorKind::Tage => Box::new(Tage::with_in_flight(in_flight)),
    }
}

/// Speculative-history checkpoints, one per prediction in flight,
/// indexed by history position. Position `p` lives in slot `p mod
/// len`; the live positions run from `retired` (the next branch to
/// train) up to `next`, so a checkpoint is only overwritten once its
/// branch has trained or been discarded.
#[derive(Debug, Clone)]
struct HistoryRing<H> {
    slots: Box<[H]>,
    /// Position the next prediction gets.
    next: u64,
    /// Trained predictions (every one has a position below `next`).
    retired: u64,
}

/// In-flight capacity of [`Gshare::new`] and [`Tage::new`].
const DEFAULT_IN_FLIGHT: usize = 64;

impl<H: Copy + Default> HistoryRing<H> {
    fn new(in_flight: usize) -> HistoryRing<H> {
        let len = in_flight.max(1).next_power_of_two();
        HistoryRing { slots: vec![H::default(); len].into_boxed_slice(), next: 0, retired: 0 }
    }

    fn slot(&self, pos: u64) -> usize {
        (pos as usize) & (self.slots.len() - 1)
    }

    /// Checkpoints `history` as the state before the next prediction
    /// and takes its position.
    fn push(&mut self, history: H) {
        assert!(
            self.next - self.retired < self.slots.len() as u64,
            "{} predictions in flight overflow a history ring of {}",
            self.next - self.retired + 1,
            self.slots.len()
        );
        let slot = self.slot(self.next);
        self.slots[slot] = history;
        self.next += 1;
    }

    /// The history checkpointed before prediction `pos`, if `pos` is
    /// in flight.
    fn get(&self, pos: u64) -> Option<H> {
        (self.retired..self.next).contains(&pos).then(|| self.slots[self.slot(pos)])
    }

    /// Counts one trained prediction.
    fn retire(&mut self) {
        self.retired += 1;
        debug_assert!(self.retired <= self.next, "trained a branch that was never predicted");
    }

    /// Discards the predictions from `pos` on and returns the history
    /// checkpointed before `pos`, or `None` when `pos` is the next
    /// position (no prediction to undo).
    fn rewind(&mut self, pos: u64) -> Option<H> {
        debug_assert!(
            pos >= self.retired && pos <= self.next,
            "rewind to {pos} outside the in-flight positions {}..={}",
            self.retired,
            self.next
        );
        let restored = (pos < self.next).then(|| self.slots[self.slot(pos)]);
        self.next = pos;
        restored
    }

    /// Discards every untrained prediction.
    fn clear(&mut self) {
        self.next = self.retired;
    }
}

/// A synthetic out-of-order front end for the history-repair tests of
/// both predictors.
#[cfg(test)]
pub(crate) mod repair_model {
    use std::collections::VecDeque;

    use super::DirectionPredictor;

    /// xorshift32.
    struct Rng(u32);

    impl Rng {
        fn next(&mut self) -> u32 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 17;
            self.0 ^= self.0 << 5;
            self.0
        }

        fn below(&mut self, n: u32) -> u32 {
            self.next() % n
        }
    }

    /// A correct-path instruction: a conditional branch `(pc, taken)`
    /// or anything else.
    type Inst = Option<(u32, bool)>;

    /// A program's correct path: branches that are biased, periodic,
    /// correlated with recent outcomes or random, between runs of other
    /// instructions.
    fn program(len: usize) -> Vec<Inst> {
        let mut rng = Rng(0x2545_f491);
        let mut recent = 0u32;
        let mut visits = [0u32; 32];
        let mut site = 0usize;
        let mut prog = Vec::with_capacity(len);
        while prog.len() < len {
            for _ in 0..rng.below(4) {
                prog.push(None);
            }
            site = if rng.below(4) == 0 { rng.below(32) as usize } else { (site + 1) % 32 };
            visits[site] += 1;
            let n = visits[site];
            let taken = match site % 4 {
                0 => rng.below(16) != 0,
                1 => n % (3 + site as u32 % 13) != 0,
                2 => (recent >> (site % 5)) & 1 == (recent >> (site % 3 + 2)) & 1,
                _ => rng.next() & 1 == 1,
            };
            recent = (recent << 1) | u32::from(taken);
            prog.push(Some((0x1000 + 28 * site as u32, taken)));
        }
        prog
    }

    #[derive(Clone, Copy)]
    struct Entry {
        /// `history_pos()` when fetched.
        pos: u64,
        /// Index into the program; `None` on a wrong path.
        at: Option<usize>,
        /// A branch: (pc, predicted, resolved).
        branch: Option<(u32, bool, bool)>,
    }

    /// What [`drive`] exercised.
    #[derive(Debug, Default)]
    pub(crate) struct Counts {
        pub retired_branches: u64,
        pub branch_rewinds: u64,
        pub other_rewinds: u64,
        pub max_in_flight: usize,
    }

    /// Runs a program through `p` with 1..=`max_depth` instructions in
    /// flight. Mispredicted branches (on either path) resolve early or
    /// at retire and rewind to their own position with their outcome;
    /// replays of correct-path non-branch instructions (memory-order
    /// violations) rewind to the position of the first squashed
    /// instruction. Each branch must have been predicted with the
    /// history it trains with.
    pub(crate) fn drive(p: &mut impl DirectionPredictor, max_depth: usize) -> Counts {
        let prog = program(40_000);
        let mut rng = Rng(0x6a09_e667);
        let mut counts = Counts::default();
        let mut window: VecDeque<Entry> = VecDeque::new();
        // Next correct-path index, or None while fetch is on a wrong path.
        let mut fetch = Some(0usize);
        let mut retired = 0usize;
        while retired < prog.len() {
            let depth = 1 + rng.below(max_depth as u32) as usize;
            while window.len() < depth {
                let pos = p.history_pos();
                let (at, inst) = match fetch {
                    Some(i) if i < prog.len() => (Some(i), prog[i]),
                    Some(_) => break,
                    // Wrong-path instructions: random, a third of them
                    // branches.
                    None => {
                        let branch = rng.below(3) == 0;
                        (None, branch.then(|| (0x8000 + 4 * rng.below(64), false)))
                    }
                };
                let branch = inst.map(|(pc, taken)| {
                    let pred = p.predict(pc);
                    if at.is_some() && pred != taken {
                        fetch = None;
                    }
                    (pc, pred, false)
                });
                if let Some(i) = fetch.as_mut() {
                    *i += 1;
                }
                window.push_back(Entry { pos, at, branch });
            }
            counts.max_in_flight = counts.max_in_flight.max(window.len());
            match rng.below(6) {
                // A branch resolves early: on the correct path it may
                // be mispredicted; on a wrong path it redirects to
                // another wrong path.
                0 => {
                    let k = rng.below(window.len() as u32) as usize;
                    let e = &mut window[k];
                    if let Some((pc, pred, false)) = e.branch {
                        let actual = match e.at {
                            Some(i) => prog[i].map_or(pred, |(_, t)| t),
                            None => rng.next() & 1 == 1,
                        };
                        e.branch = Some((pc, pred, true));
                        if actual != pred {
                            p.rewind(e.pos, Some(actual));
                            counts.branch_rewinds += 1;
                            fetch = e.at.map(|i| i + 1);
                            window.truncate(k + 1);
                        }
                    }
                }
                // A correct-path non-branch replays: it and everything
                // younger are squashed and refetched.
                1 => {
                    let k = rng.below(window.len() as u32) as usize;
                    if let (Some(i), None) = (window[k].at, &window[k].branch) {
                        p.rewind(window[k].pos, None);
                        counts.other_rewinds += 1;
                        fetch = Some(i);
                        window.truncate(k);
                    }
                }
                _ => {}
            }
            let Some(&head) = window.front() else { continue };
            let at = head.at.expect("the oldest instruction is on the correct path");
            if let Some((pc, pred, resolved)) = head.branch {
                let taken = prog[at].expect("a branch").1;
                if pred != taken && !resolved {
                    p.rewind(head.pos, Some(taken));
                    counts.branch_rewinds += 1;
                    fetch = Some(at + 1);
                    window.truncate(1);
                }
                assert_eq!(head.pos, counts.retired_branches, "correct-path branch position");
                assert!(
                    p.predicted_with_retired_history(head.pos),
                    "branch {} was predicted with a history other than the retired one",
                    head.pos
                );
                p.update(pc, taken, pred);
                counts.retired_branches += 1;
            }
            window.pop_front();
            retired += 1;
        }
        counts
    }
}
