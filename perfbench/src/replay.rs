//! In-order predictor replay (`sim.predict.*`).
//!
//! The interpreter-tier emulator is stepped once through an image to
//! record its retired conditional-branch stream as `(pc, taken)`, taken
//! meaning the next pc is not `pc + 4`. The direction predictors are
//! then driven over the stream in program order: predict, train with
//! the outcome, and repair the speculative history after a miss (with
//! nothing else in flight, that repair is exact). The resulting
//! mispredict rate is the in-order reference for the pipeline's rate,
//! and the time per branch is the predictor's own cost.

use std::hint::black_box;
use std::time::Instant;

use straight_asm::{Image, ImageIsa};
use straight_sim::emu::{EmuExit, ExecBackend, RiscvEmu, StraightEmu};
use straight_sim::predict::DirectionPredictor;

/// A retired conditional-branch stream.
pub type Stream = Vec<(u32, bool)>;

/// Steps `image` to completion, recording its conditional branches.
pub fn record(image: &Image) -> Result<Stream, String> {
    match image.isa {
        ImageIsa::Riscv => record_with(RiscvEmu::new(image.clone()), image, |word| {
            straight_riscv::decode(word).is_ok_and(|inst| inst.is_cond_branch())
        }),
        ImageIsa::Straight => record_with(StraightEmu::new(image.clone()), image, |word| {
            straight_isa::decode(word).is_ok_and(|inst| inst.is_cond_branch())
        }),
    }
}

fn record_with(
    mut emu: impl ExecBackend,
    image: &Image,
    is_cond: impl Fn(u32) -> bool,
) -> Result<Stream, String> {
    let mut stream = Stream::new();
    loop {
        let pc = emu.pc();
        let cond = image.fetch(pc).is_some_and(&is_cond);
        let exit = emu.step();
        if cond {
            stream.push((pc, emu.pc() != pc.wrapping_add(4)));
        }
        match exit {
            None => {}
            Some(EmuExit::Done { .. }) => return Ok(stream),
            Some(other) => return Err(format!("branch-stream recording stopped: {other:?}")),
        }
    }
}

/// Replay totals over a set of streams.
#[derive(Default, Clone, Copy, Debug)]
pub struct Replay {
    pub host_s: f64,
    pub branches: u64,
    pub mispredicts: u64,
}

/// Replays each stream through a fresh predictor from `new`, in order.
pub fn replay<P: DirectionPredictor>(new: impl Fn() -> P, streams: &[&Stream]) -> Replay {
    let mut out = Replay::default();
    for stream in streams {
        let mut predictor = new();
        let started = Instant::now();
        let mut mispredicts = 0u64;
        for &(pc, taken) in black_box(*stream) {
            let predicted = predictor.predict(pc);
            predictor.update(pc, taken, predicted);
            if predicted != taken {
                mispredicts += 1;
                predictor.recover();
            }
        }
        out.host_s += started.elapsed().as_secs_f64();
        out.mispredicts += black_box(mispredicts);
        out.branches += stream.len() as u64;
    }
    out
}
