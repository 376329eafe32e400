//! An 8-component TAGE predictor (Seznec, "A new case for the TAGE
//! branch predictor", MICRO 2011) — the configuration Figure 14 of the
//! STRAIGHT paper swaps in for gshare.
//!
//! One bimodal base table plus seven tagged components with
//! geometrically increasing history lengths. Each tagged entry holds a
//! partial tag, a 3-bit signed counter, and a 2-bit useful counter.
//!
//! The global history is a small `Copy` value: the outcome bits packed
//! into words, plus one folded-history register per (component, hash
//! width) that each push updates in O(1) (Seznec & Michaud, JILP 2006).
//! The registers hold exactly the chunked XOR fold of the history (see
//! [`Fold`]), so lookups never walk the history bits.

use super::{DirectionPredictor, HistoryRing, DEFAULT_IN_FLIGHT};

const NUM_TAGGED: usize = 7;
const HIST_LENGTHS: [u32; NUM_TAGGED] = [5, 9, 15, 25, 44, 76, 130];
const TAGGED_BITS: u32 = 10; // 1 K entries per component
const TAG_BITS: u32 = 9;
const BASE_BITS: u32 = 13; // 8 K bimodal entries
/// Widths of the three folds each component hashes its history into:
/// the table index, then the two terms of the tag.
const FOLD_WIDTHS: [u32; 3] = [TAGGED_BITS, TAG_BITS, TAG_BITS - 1];
/// Packed history words. A push reads bit 130, the one leaving the
/// longest component's window.
const HIST_WORDS: usize = 3;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TaggedEntry {
    tag: u16,
    ctr: i8, // -4..=3
    useful: u8,
}

/// How a fold of `len` history bits into `width` bits splits: `len /
/// width` full chunks cover history indices below `split`, and the
/// remaining `tail = len % width` bits form one shorter chunk.
#[derive(Debug, Clone, Copy)]
struct FoldShape {
    width: u32,
    split: u32,
    tail: u32,
}

const FOLD_SHAPES: [[FoldShape; FOLD_WIDTHS.len()]; NUM_TAGGED] = fold_shapes();

const fn fold_shapes() -> [[FoldShape; FOLD_WIDTHS.len()]; NUM_TAGGED] {
    let mut shapes = [[FoldShape { width: 1, split: 0, tail: 0 }; FOLD_WIDTHS.len()]; NUM_TAGGED];
    let mut comp = 0;
    while comp < NUM_TAGGED {
        let mut w = 0;
        while w < FOLD_WIDTHS.len() {
            let (len, width) = (HIST_LENGTHS[comp], FOLD_WIDTHS[w]);
            shapes[comp][w] = FoldShape { width, split: len / width * width, tail: len % width };
            w += 1;
        }
        comp += 1;
    }
    shapes
}

/// A folded-history register: the XOR of the newest `len` history
/// bits cut, newest first, into `width`-bit chunks, each chunk read
/// with its newest bit as the most significant, and a final `len %
/// width`-bit chunk read the same way.
///
/// The full chunks and the short tail move differently on a push, so
/// they are kept apart. In the full chunks every bit steps one position
/// down, and a bit leaving one chunk enters the next at the top: a
/// rotate right by one, with the new bit entering and the bit leaving
/// the last full chunk both landing on the top position. In the tail
/// every bit steps down and the oldest falls off: a shift right by one,
/// with the bit leaving the full chunks entering at the top.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Fold {
    chunks: u16,
    tail: u16,
}

impl Fold {
    fn value(self) -> u32 {
        u32::from(self.chunks ^ self.tail)
    }

    /// `new` is the pushed bit; `crossing` is the bit now at history
    /// index `shape.split`, which has just left the full chunks (or is
    /// `new` itself when there are none, so it cancels out there).
    fn push(&mut self, shape: FoldShape, new: u16, crossing: u16) {
        let top = shape.width - 1;
        let rotated = (self.chunks >> 1) | ((self.chunks & 1) << top);
        self.chunks = rotated ^ ((new ^ crossing) << top);
        if shape.tail > 0 {
            self.tail = (self.tail >> 1) | (crossing << (shape.tail - 1));
        }
    }
}

/// Global branch history: packed outcome bits and their folds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct History {
    /// Outcome bits, newest at bit 0 of word 0.
    bits: [u64; HIST_WORDS],
    /// Per component, its history folded to each of `FOLD_WIDTHS`.
    folds: [[Fold; FOLD_WIDTHS.len()]; NUM_TAGGED],
}

impl History {
    fn bit(&self, i: u32) -> u16 {
        ((self.bits[(i / 64) as usize] >> (i % 64)) & 1) as u16
    }

    fn push(&mut self, taken: bool) {
        let w = &mut self.bits;
        w[2] = (w[2] << 1) | (w[1] >> 63);
        w[1] = (w[1] << 1) | (w[0] >> 63);
        w[0] = (w[0] << 1) | u64::from(taken);
        let new = u16::from(taken);
        // The folds read the bits after the push while they change.
        let pushed = *self;
        for (folds, shapes) in self.folds.iter_mut().zip(&FOLD_SHAPES) {
            for (fold, &shape) in folds.iter_mut().zip(shapes) {
                fold.push(shape, new, pushed.bit(shape.split));
            }
        }
    }

    fn index_hash(&self, comp: usize) -> u32 {
        self.folds[comp][0].value()
    }

    fn tag_hash(&self, comp: usize) -> u32 {
        self.folds[comp][1].value() ^ (self.folds[comp][2].value() << 1)
    }
}

/// Table index and partial tag of one branch in every tagged component.
type Slots = [(usize, u16); NUM_TAGGED];

/// The TAGE predictor with speculative global history and per-branch
/// history repair.
#[derive(Debug)]
pub struct Tage {
    base: Vec<u8>,
    tagged: Vec<[TaggedEntry; 1 << TAGGED_BITS]>,
    /// Retired history, which training uses.
    history: History,
    spec_history: History,
    /// `spec_history` before each prediction in flight.
    ring: HistoryRing<History>,
    /// Deterministic LFSR for the allocation tie-breaking.
    rng: u32,
    /// Periodic useful-bit reset counter.
    tick: u32,
}

impl Tage {
    /// Builds an empty predictor with room for a few dozen predictions
    /// in flight.
    #[must_use]
    pub fn new() -> Tage {
        Tage::with_in_flight(DEFAULT_IN_FLIGHT)
    }

    /// As [`Tage::new`], keeping up to `in_flight` predictions in
    /// flight.
    #[must_use]
    pub fn with_in_flight(in_flight: usize) -> Tage {
        Tage {
            base: vec![1; 1 << BASE_BITS],
            tagged: vec![[TaggedEntry::default(); 1 << TAGGED_BITS]; NUM_TAGGED],
            history: History::default(),
            spec_history: History::default(),
            ring: HistoryRing::new(in_flight),
            rng: 0x1234_5678,
            tick: 0,
        }
    }

    fn next_rand(&mut self) -> u32 {
        // xorshift32
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.rng = x;
        x
    }

    fn slots(pc: u32, history: &History) -> Slots {
        let mut slots = [(0, 0); NUM_TAGGED];
        for (comp, slot) in slots.iter_mut().enumerate() {
            let idx = (pc >> 2) ^ (pc >> (2 + comp as u32 + 1)) ^ history.index_hash(comp);
            let tag = (pc >> 2) ^ history.tag_hash(comp);
            *slot =
                ((idx & ((1 << TAGGED_BITS) - 1)) as usize, (tag & ((1 << TAG_BITS) - 1)) as u16);
        }
        slots
    }

    fn base_index(&self, pc: u32) -> usize {
        ((pc >> 2) & ((1 << BASE_BITS) - 1)) as usize
    }

    /// (provider component or None=base, prediction, alternate pred).
    fn lookup(&self, pc: u32, slots: &Slots) -> (Option<usize>, bool, bool) {
        let mut provider = None;
        let mut alt: Option<bool> = None;
        let base = self.base[self.base_index(pc)] >= 2;
        let mut pred = base;
        // Search longest history first.
        for comp in (0..NUM_TAGGED).rev() {
            let (idx, tag) = slots[comp];
            let e = &self.tagged[comp][idx];
            if e.tag == tag {
                if provider.is_none() {
                    provider = Some(comp);
                    pred = e.ctr >= 0;
                } else if alt.is_none() {
                    alt = Some(e.ctr >= 0);
                }
            }
        }
        (provider, pred, alt.unwrap_or(base))
    }
}

impl Default for Tage {
    fn default() -> Self {
        Tage::new()
    }
}

impl DirectionPredictor for Tage {
    fn predict(&mut self, pc: u32) -> bool {
        let slots = Self::slots(pc, &self.spec_history);
        let (_, pred, _) = self.lookup(pc, &slots);
        self.ring.push(self.spec_history);
        self.spec_history.push(pred);
        pred
    }

    fn update(&mut self, pc: u32, taken: bool, _fetch_pred: bool) {
        let slots = Self::slots(pc, &self.history);
        let (provider, pred, alt) = self.lookup(pc, &slots);
        match provider {
            Some(comp) => {
                let (idx, tag) = slots[comp];
                let e = &mut self.tagged[comp][idx];
                debug_assert_eq!(e.tag, tag);
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                if pred != alt {
                    if pred == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
            None => {
                let idx = self.base_index(pc);
                let c = &mut self.base[idx];
                if taken {
                    *c = (*c + 1).min(3);
                } else {
                    *c = c.saturating_sub(1);
                }
            }
        }
        // Allocate on misprediction in a longer component.
        if pred != taken {
            let start = provider.map(|p| p + 1).unwrap_or(0);
            if start < NUM_TAGGED {
                // Find a not-useful entry among the longer components,
                // preferring shorter ones with a random skip.
                let skip = (self.next_rand() & 1) as usize;
                let first = if NUM_TAGGED - start > 1 { start + skip } else { start };
                let free =
                    (first..NUM_TAGGED).find(|&comp| self.tagged[comp][slots[comp].0].useful == 0);
                match free {
                    Some(comp) => {
                        let (idx, tag) = slots[comp];
                        self.tagged[comp][idx] =
                            TaggedEntry { tag, ctr: if taken { 0 } else { -1 }, useful: 0 };
                    }
                    None => {
                        for (entries, &(idx, _)) in self.tagged.iter_mut().zip(&slots).skip(start) {
                            entries[idx].useful = entries[idx].useful.saturating_sub(1);
                        }
                    }
                }
            }
        }
        // Periodic graceful useful-bit aging.
        self.tick += 1;
        if self.tick.is_multiple_of(256 * 1024) {
            for comp in &mut self.tagged {
                for e in comp.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }
        self.history.push(taken);
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
            self.spec_history.push(taken);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_bias() {
        let mut t = Tage::new();
        for _ in 0..16 {
            let p = t.predict(0x400);
            t.update(0x400, true, p);
        }
        assert!(t.predict(0x400));
    }

    #[test]
    fn learns_long_period_pattern_better_than_gshare_style_history() {
        // Period-24 pattern: 23 taken, 1 not-taken — the long-history
        // components should capture it.
        let mut t = Tage::new();
        let mut correct = 0;
        let mut total = 0;
        for i in 0..24 * 400 {
            let outcome = i % 24 != 23;
            let p = t.predict(0x800);
            if i >= 24 * 200 {
                total += 1;
                if p == outcome {
                    correct += 1;
                }
            }
            t.update(0x800, outcome, p);
            if p != outcome {
                t.recover(); // pipeline repairs history on mispredicts
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.97, "TAGE accuracy on period-24 pattern: {acc}");
    }

    #[test]
    fn recover_restores_history() {
        let mut t = Tage::new();
        let p = t.predict(0x100);
        let _ = t.predict(0x104);
        t.update(0x100, !p, p);
        t.recover();
        assert_eq!(t.spec_history, t.history);
        assert_eq!(t.history_pos(), 1, "the next prediction reuses the discarded position");
        let before = t.spec_history;
        let _ = t.predict(0x104);
        assert_eq!(t.ring.slots[t.ring.slot(1)], before);
    }

    #[test]
    fn rewind_restores_the_checkpoint_and_pushes_the_outcome() {
        let mut t = Tage::new();
        let _ = t.predict(0x100);
        let before = t.spec_history;
        let p = t.predict(0x104);
        let _ = t.predict(0x108);
        t.rewind(1, Some(!p));
        let mut expected = before;
        expected.push(!p);
        assert_eq!(t.spec_history, expected);
        assert_eq!(t.history_pos(), 2);
        // A non-branch rewind to a position before any prediction
        // restores that checkpoint; to the next position, nothing.
        t.rewind(2, None);
        assert_eq!(t.spec_history, expected);
        t.rewind(1, None);
        assert_eq!(t.spec_history, before);
    }

    #[test]
    fn rewinds_keep_each_branch_checkpoint_equal_to_the_retired_history() {
        for depth in [1, 2, 8, 64] {
            let mut t = Tage::new();
            let counts = crate::predict::repair_model::drive(&mut t, depth);
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
        let mut t = Tage::with_in_flight(4);
        for i in 0..5 {
            let _ = t.predict(0x100 + 4 * i);
        }
    }

    /// The bit-serial fold the incremental registers must reproduce:
    /// the first `len` bits of `history` (newest first), cut into
    /// `out_bits`-bit chunks, XORed together.
    fn fold(history: &[bool], len: u32, out_bits: u32) -> u32 {
        let mut acc = 0u32;
        let mut chunk = 0u32;
        let mut nbits = 0;
        for &b in history.iter().take(len as usize) {
            chunk = (chunk << 1) | u32::from(b);
            nbits += 1;
            if nbits == out_bits {
                acc ^= chunk;
                chunk = 0;
                nbits = 0;
            }
        }
        acc ^= chunk;
        acc & ((1 << out_bits) - 1)
    }

    /// xorshift32 for test streams.
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

    #[test]
    fn incremental_folds_equal_the_bit_serial_fold_after_every_push() {
        let shapes = FOLD_SHAPES.iter().flatten();
        assert!(shapes.clone().any(|s| s.split == 0), "no fold without full chunks");
        assert!(shapes.clone().any(|s| s.tail == 0), "no fold without a tail");
        let mut rng = Rng(0x9e37_79b9);
        let mut packed = History::default();
        let mut reference = vec![false; HIST_WORDS * 64];
        for step in 0..12_000 {
            // Alternate random bits with long runs of one value.
            let taken = if (step / 500) % 3 == 2 { step % 1000 < 500 } else { rng.next() & 1 == 1 };
            packed.push(taken);
            reference.insert(0, taken);
            reference.truncate(HIST_WORDS * 64);
            for (i, &b) in reference.iter().enumerate() {
                assert_eq!(packed.bit(i as u32), u16::from(b), "bit {i} at step {step}");
            }
            for (comp, &len) in HIST_LENGTHS.iter().enumerate() {
                for (w, &width) in FOLD_WIDTHS.iter().enumerate() {
                    assert_eq!(
                        packed.folds[comp][w].value(),
                        fold(&reference, len, width),
                        "len {len} width {width} at step {step}"
                    );
                }
            }
        }
    }

    /// The predictor as it was before its history was packed: a
    /// `Vec<bool>` history, newest first, folded bit by bit on every
    /// lookup. The differential test below holds [`Tage`] to it.
    struct VecTage {
        base: Vec<u8>,
        tagged: Vec<Vec<TaggedEntry>>,
        history: Vec<bool>,
        spec_history: Vec<bool>,
        rng: u32,
        tick: u32,
    }

    impl VecTage {
        const MAX_HIST: usize = 160;

        fn new() -> VecTage {
            VecTage {
                base: vec![1; 1 << BASE_BITS],
                tagged: vec![vec![TaggedEntry::default(); 1 << TAGGED_BITS]; NUM_TAGGED],
                history: vec![false; Self::MAX_HIST],
                spec_history: vec![false; Self::MAX_HIST],
                rng: 0x1234_5678,
                tick: 0,
            }
        }

        fn next_rand(&mut self) -> u32 {
            let mut x = self.rng;
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            self.rng = x;
            x
        }

        fn tagged_index(pc: u32, comp: usize, history: &[bool]) -> usize {
            let h = fold(history, HIST_LENGTHS[comp], TAGGED_BITS);
            ((((pc >> 2) ^ (pc >> (2 + comp as u32 + 1))) ^ h) & ((1 << TAGGED_BITS) - 1)) as usize
        }

        fn tag_of(pc: u32, comp: usize, history: &[bool]) -> u16 {
            let h1 = fold(history, HIST_LENGTHS[comp], TAG_BITS);
            let h2 = fold(history, HIST_LENGTHS[comp], TAG_BITS - 1) << 1;
            (((pc >> 2) ^ h1 ^ h2) & ((1 << TAG_BITS) - 1)) as u16
        }

        fn base_index(pc: u32) -> usize {
            ((pc >> 2) & ((1 << BASE_BITS) - 1)) as usize
        }

        fn lookup(&self, pc: u32, history: &[bool]) -> (Option<usize>, bool, bool) {
            let mut provider = None;
            let mut alt: Option<bool> = None;
            let mut pred = self.base[Self::base_index(pc)] >= 2;
            for comp in (0..NUM_TAGGED).rev() {
                let idx = Self::tagged_index(pc, comp, history);
                let e = &self.tagged[comp][idx];
                if e.tag == Self::tag_of(pc, comp, history) {
                    if provider.is_none() {
                        provider = Some(comp);
                        pred = e.ctr >= 0;
                    } else if alt.is_none() {
                        alt = Some(e.ctr >= 0);
                    }
                }
            }
            let alt = alt.unwrap_or(self.base[Self::base_index(pc)] >= 2);
            (provider, pred, alt)
        }

        fn push_history(history: &mut Vec<bool>, taken: bool) {
            history.insert(0, taken);
            history.truncate(Self::MAX_HIST);
        }
    }

    impl VecTage {
        fn predict(&mut self, pc: u32) -> bool {
            let (_, pred, _) = self.lookup(pc, &self.spec_history.clone());
            Self::push_history(&mut self.spec_history, pred);
            pred
        }

        fn update(&mut self, pc: u32, taken: bool, _fetch_pred: bool) {
            let history = self.history.clone();
            let (provider, pred, alt) = self.lookup(pc, &history);
            match provider {
                Some(comp) => {
                    let idx = Self::tagged_index(pc, comp, &history);
                    let e = &mut self.tagged[comp][idx];
                    e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                    if pred != alt {
                        if pred == taken {
                            e.useful = (e.useful + 1).min(3);
                        } else {
                            e.useful = e.useful.saturating_sub(1);
                        }
                    }
                }
                None => {
                    let c = &mut self.base[Self::base_index(pc)];
                    if taken {
                        *c = (*c + 1).min(3);
                    } else {
                        *c = c.saturating_sub(1);
                    }
                }
            }
            if pred != taken {
                let start = provider.map(|p| p + 1).unwrap_or(0);
                if start < NUM_TAGGED {
                    let mut allocated = false;
                    let skip = (self.next_rand() & 1) as usize;
                    let mut candidates: Vec<usize> = (start..NUM_TAGGED).collect();
                    if candidates.len() > 1 && skip == 1 {
                        candidates.remove(0);
                    }
                    for comp in candidates {
                        let idx = Self::tagged_index(pc, comp, &history);
                        if self.tagged[comp][idx].useful == 0 {
                            let tag = Self::tag_of(pc, comp, &history);
                            self.tagged[comp][idx] =
                                TaggedEntry { tag, ctr: if taken { 0 } else { -1 }, useful: 0 };
                            allocated = true;
                            break;
                        }
                    }
                    if !allocated {
                        for comp in start..NUM_TAGGED {
                            let idx = Self::tagged_index(pc, comp, &history);
                            let e = &mut self.tagged[comp][idx];
                            e.useful = e.useful.saturating_sub(1);
                        }
                    }
                }
            }
            self.tick += 1;
            if self.tick.is_multiple_of(256 * 1024) {
                for comp in &mut self.tagged {
                    for e in comp.iter_mut() {
                        e.useful >>= 1;
                    }
                }
            }
            Self::push_history(&mut self.history, taken);
        }

        fn recover(&mut self) {
            self.spec_history = self.history.clone();
        }

        /// Restores the speculative history a branch was predicted with
        /// and pushes its outcome.
        fn rewind(&mut self, snapshot: &[bool], taken: bool) {
            self.spec_history = snapshot.to_vec();
            Self::push_history(&mut self.spec_history, taken);
        }
    }

    /// A synthetic program's retired branch stream: static branches
    /// that are biased, periodic, correlated with recent outcomes, or
    /// random, visited in a pseudo-random walk.
    fn branch_stream(len: usize) -> Vec<(u32, bool)> {
        let mut rng = Rng(0x2545_f491);
        let mut recent = 0u32;
        let mut visits = [0u32; 64];
        let mut stream = Vec::with_capacity(len);
        let mut site = 0usize;
        for _ in 0..len {
            site = if rng.below(4) == 0 { rng.below(64) as usize } else { (site + 1) % 64 };
            let pc = 0x1000 + 4 * site as u32 * 7;
            visits[site] += 1;
            let n = visits[site];
            let taken = match site % 4 {
                0 => rng.below(16) != 0,
                1 => n % (3 + site as u32 % 29) != 0,
                2 => (recent >> (site % 11)) & 1 == (recent >> (site % 7 + 3)) & 1,
                _ => rng.next() & 1 == 1,
            };
            recent = (recent << 1) | u32::from(taken);
            stream.push((pc, taken));
        }
        stream
    }

    #[test]
    fn matches_the_vec_history_predictor_with_branches_in_flight() {
        struct InFlight {
            pos: usize,
            hist_pos: u64,
            snapshot: Vec<bool>,
            pred: bool,
            resolved: bool,
        }
        let stream = branch_stream(300_000);
        let mut rng = Rng(0x6a09_e667);
        let mut packed = Tage::new();
        let mut reference = VecTage::new();
        let mut in_flight: std::collections::VecDeque<InFlight> = std::collections::VecDeque::new();
        let (mut fetch, mut updates, mut mispredicts, mut early_recoveries) = (0, 0u32, 0u32, 0u32);
        while fetch < stream.len() || !in_flight.is_empty() {
            // Fetch up to a random depth of predictions in flight.
            let depth = 1 + rng.below(8) as usize;
            while fetch < stream.len() && in_flight.len() < depth {
                let pc = stream[fetch].0;
                let (hist_pos, snapshot) = (packed.history_pos(), reference.spec_history.clone());
                let pred = packed.predict(pc);
                assert_eq!(pred, reference.predict(pc), "prediction {fetch} diverged");
                in_flight.push_back(InFlight {
                    pos: fetch,
                    hist_pos,
                    snapshot,
                    pred,
                    resolved: false,
                });
                fetch += 1;
            }
            // Sometimes a mispredicted branch resolves before it
            // retires: squash what it fetched after it and repair.
            if rng.below(4) == 0 {
                let wrong = in_flight.iter().position(|b| !b.resolved && b.pred != stream[b.pos].1);
                if let Some(k) = wrong {
                    in_flight.truncate(k + 1);
                    let b = &mut in_flight[k];
                    b.resolved = true;
                    fetch = b.pos + 1;
                    packed.rewind(b.hist_pos, Some(!b.pred));
                    reference.rewind(&b.snapshot, !b.pred);
                    early_recoveries += 1;
                }
            }
            // Retire the oldest; a mispredict not yet resolved squashes
            // everything younger.
            let Some(b) = in_flight.pop_front() else { continue };
            let (pc, taken) = stream[b.pos];
            packed.update(pc, taken, b.pred);
            reference.update(pc, taken, b.pred);
            updates += 1;
            if b.pred != taken {
                mispredicts += 1;
                // Resolved early, the branch already repaired history;
                // otherwise it squashes everything younger, and with
                // nothing left in flight `recover` is exact.
                if !b.resolved {
                    in_flight.clear();
                    fetch = b.pos + 1;
                    packed.recover();
                    reference.recover();
                }
            }
        }
        assert!(updates > 256 * 1024, "useful-bit aging not reached: {updates} updates");
        assert!(
            mispredicts > 10_000 && early_recoveries > 1_000,
            "{mispredicts} / {early_recoveries}"
        );
        assert_eq!(packed.base, reference.base);
        for (comp, (p, r)) in packed.tagged.iter().zip(&reference.tagged).enumerate() {
            assert!(p[..] == r[..], "component {comp} tables diverged");
        }
        for (i, &b) in reference.history.iter().enumerate() {
            assert_eq!(packed.history.bit(i as u32), u16::from(b), "retired history bit {i}");
        }
    }
}
