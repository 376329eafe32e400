//! The output checker behind `error_rate`, and the independent
//! references it compares against.
//!
//! Reference stdout comes from the IR interpreter running the
//! *unoptimized* lowering of the same MinC source, so neither the SSA
//! passes nor any back-end under test produces it. Retired-instruction
//! parity comes from the interpreter-tier functional emulator running
//! the same image. Every operation (one cell or one program run) is
//! counted; a failure is counted, never panicked on.

use std::time::Instant;

use straight_asm::{Image, ImageIsa};
use straight_json::fnv1a64;
use straight_sim::emu::{ExecBackend, RiscvEmu, StraightEmu};

/// Operations attempted and failed, with the first few failure
/// descriptions.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checker {
    /// Counts one operation; `what` describes it when it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Counts `n` operations that all failed for one reason.
    pub fn failed_ops(&mut self, n: usize, what: String) {
        self.attempted += n as u64;
        self.failed += n as u64;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }
}

/// The lab's stdout digest format (`CellRecord::stdout_digest`).
pub fn digest(stdout: &str) -> String {
    format!("{:016x}", fnv1a64(stdout.as_bytes()))
}

/// What the program must print and return, from the IR interpreter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub stdout: String,
    pub exit_code: i32,
}

/// Interprets the unoptimized IR of `src`.
pub fn expected(src: &str) -> Result<Expected, String> {
    let module = straight_ir::compile_source_unoptimized(src).map_err(|e| e.to_string())?;
    let out = straight_ir::interp::run_main(&module).map_err(|e| e.to_string())?;
    Ok(Expected {
        stdout: out.stdout,
        exit_code: out.exit_code,
    })
}

/// One functional-emulator run to completion.
#[derive(Clone, Debug)]
pub struct EmuRun {
    pub retired: u64,
    pub stdout: String,
    pub exit_code: Option<i32>,
    pub host_s: f64,
}

impl EmuRun {
    /// Whether the run completed with the expected output.
    pub fn matches(&self, expected: &Expected) -> bool {
        self.exit_code == Some(expected.exit_code) && self.stdout == expected.stdout
    }
}

/// Runs `image` to completion on its ISA's interpreter-tier emulator.
pub fn emulate(image: &Image) -> EmuRun {
    let started = Instant::now();
    let result = match image.isa {
        ImageIsa::Riscv => RiscvEmu::new(image.clone()).run(u64::MAX),
        ImageIsa::Straight => StraightEmu::new(image.clone()).run(u64::MAX),
    };
    EmuRun {
        host_s: started.elapsed().as_secs_f64(),
        retired: result.stats.retired,
        exit_code: result.exit_code(),
        stdout: result.stdout,
    }
}

/// Runs `f`, turning a panic into an error so it is counted as a
/// failed operation instead of ending the benchmark.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("panicked".to_string()))
}
