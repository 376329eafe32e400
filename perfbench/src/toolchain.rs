//! The `toolchain` workload: every program built for every target the
//! grid builds, then run to completion on its functional emulator.
//! The image-build layers are most of the work; the cycle loop does
//! none of it.

use std::time::Instant;

use straight_asm::Image;
use straight_core::{build, Target};
use straight_sim::pipeline::{simulate, MachineConfig};
use straight_workloads::{coremark, dhrystone, kernels};

use crate::check::{digest, emulate, expected, guarded, Checker, EmuRun, Expected};
use crate::stats::ratio;
use crate::trace::Layers;
use crate::Rng;

/// The targets the grid builds: RV32IM, RAW@31 and RE+ at every
/// distance limit the sensitivity sweep uses.
pub const TARGETS: [Target; 6] = [
    Target::Riscv,
    Target::StraightRaw { max_distance: 31 },
    Target::StraightRePlus { max_distance: 31 },
    Target::StraightRePlus { max_distance: 63 },
    Target::StraightRePlus { max_distance: 127 },
    Target::StraightRePlus { max_distance: 1023 },
];

/// One program of the workload.
pub struct Program {
    pub name: &'static str,
    pub source: String,
    /// Whether the seed picked the program's size.
    pub seeded: bool,
}

fn program(name: &'static str, source: String, seeded: bool) -> Program {
    Program {
        name,
        source,
        seeded,
    }
}

/// Dhrystone, CoreMark and the seven kernels at small sizes, so
/// emulation stays a minor share of a pass. The seed picks the sizes of
/// the programs that take one, except CoreMark's.
pub fn programs(seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    let mut pick = |lo: u64, hi: u64| (lo + rng.below(hi - lo + 1)) as u32;
    vec![
        program("dhrystone", dhrystone(pick(5, 8)), true),
        program("coremark", coremark(1), false),
        program("fibonacci", kernels::fibonacci(pick(20, 40)), true),
        program(
            "fibonacci_recursive",
            kernels::fibonacci_recursive(pick(10, 13)),
            true,
        ),
        program("sieve", kernels::sieve(pick(200, 400)), true),
        program("quicksort", kernels::quicksort(pick(48, 96)), true),
        program("crc32", kernels::crc32(pick(32, 64)), true),
        program("matmul", kernels::matmul(), false),
        program("string_ops", kernels::string_ops(), false),
    ]
}

/// What one image did in a pass.
pub type Outcome = Result<EmuRun, String>;

/// One timed pass.
pub struct Pass {
    pub wall_s: f64,
    pub build_s: f64,
    pub emu_s: f64,
    pub emu_retired: u64,
    /// One outcome per (program, target), programs outermost.
    pub outcomes: Vec<Outcome>,
}

/// Builds every image with `straight_core::build` and emulates it.
pub fn run_pass(programs: &[Program]) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        build_s: 0.0,
        emu_s: 0.0,
        emu_retired: 0,
        outcomes: Vec::new(),
    };
    let started = Instant::now();
    for program in programs {
        for target in TARGETS {
            let outcome = guarded(|| {
                let t0 = Instant::now();
                let image = build(&program.source, target).map_err(|e| e.to_string());
                pass.build_s += t0.elapsed().as_secs_f64();
                let run = emulate(&image?);
                pass.emu_s += run.host_s;
                pass.emu_retired += run.retired;
                Ok(run)
            });
            pass.outcomes.push(outcome);
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

/// The same pass through the layers one call at a time, in spans.
pub fn traced_pass(programs: &[Program], layers: &mut Layers) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    for program in programs {
        for target in TARGETS {
            outcomes.push(guarded(|| {
                let image = layers.build(&program.source, target)?;
                Ok(layers.emulate(&image, false))
            }));
        }
    }
    outcomes
}

/// References for every image: the IR interpreter's output per
/// program, and the image with its functional-emulator run.
pub struct References {
    pub expected: Vec<Result<Expected, String>>,
    /// Programs outermost, as in [`Pass::outcomes`].
    pub images: Vec<Result<(Image, EmuRun), String>>,
}

pub fn references(programs: &[Program]) -> References {
    let expected = programs
        .iter()
        .map(|p| guarded(|| expected(&p.source)))
        .collect();
    let images = programs
        .iter()
        .flat_map(|p| TARGETS.map(|t| (p, t)))
        .map(|(p, t)| {
            guarded(|| {
                let image = build(&p.source, t).map_err(|e| e.to_string())?;
                let run = emulate(&image);
                Ok((image, run))
            })
        })
        .collect();
    References { expected, images }
}

/// Checks one pass's outcomes: each image must exit with the IR
/// interpreter's code and output, and retire what the reference run of
/// the same image retired.
pub fn check(checker: &mut Checker, programs: &[Program], refs: &References, outcomes: &[Outcome]) {
    for (i, outcome) in outcomes.iter().enumerate() {
        let (p, t) = (i / TARGETS.len(), TARGETS[i % TARGETS.len()]);
        let ok = match (outcome, &refs.expected[p], &refs.images[i]) {
            (Ok(run), Ok(exp), Ok((_, reference))) => {
                run.matches(exp) && run.retired == reference.retired
            }
            _ => false,
        };
        checker.op(ok, || {
            format!(
                "{} {t:?}: output differs from the reference",
                programs[p].name
            )
        });
    }
}

/// The deterministic outputs of each image's run.
pub fn signatures(programs: &[Program], outcomes: &[Outcome]) -> crate::grid::Signatures {
    outcomes
        .iter()
        .enumerate()
        .map(|(i, outcome)| {
            let (p, t) = (i / TARGETS.len(), TARGETS[i % TARGETS.len()]);
            let output = match outcome {
                Ok(run) => format!(
                    "retired={} exit={:?} stdout={}",
                    run.retired,
                    run.exit_code,
                    digest(&run.stdout)
                ),
                Err(e) => e.clone(),
            };
            (format!("{}/{t:?}", programs[p].name), output)
        })
        .collect()
}

/// One round of the cycle-accurate cross-check: each program's RV32IM
/// image on SS-2way and its RE+@31 image on STRAIGHT-2way. With a
/// checker, every program runs and must print the reference output and
/// retire what the functional emulator retired; without one, only the
/// programs whose size the seed does not pick run. Returns their
/// throughput in kilo retired instructions per host second: for small
/// programs the core's construction is a large share of a simulation,
/// so seed-picked sizes would move the rate.
pub fn cross_check(
    mut checker: Option<&mut Checker>,
    programs: &[Program],
    refs: &References,
) -> f64 {
    let pairs = [
        (0, MachineConfig::ss_2way()),
        (2, MachineConfig::straight_2way()),
    ];
    let (mut retired, mut secs) = (0u64, 0.0);
    for (p, program) in programs.iter().enumerate() {
        if program.seeded && checker.is_none() {
            continue;
        }
        for (t, machine) in &pairs {
            let i = p * TARGETS.len() + t;
            let (Ok(exp), Ok((image, reference))) = (&refs.expected[p], &refs.images[i]) else {
                if let Some(checker) = checker.as_deref_mut() {
                    checker.op(false, || format!("{}: no reference", program.name));
                }
                continue;
            };
            let started = Instant::now();
            let result = guarded(|| {
                simulate(
                    image.clone(),
                    machine.clone(),
                    straight_core::experiment::MAX_CYCLES,
                )
                .map_err(|e| e.to_string())
            });
            let elapsed = started.elapsed().as_secs_f64();
            let ok = result.is_ok_and(|r| {
                if !program.seeded {
                    retired += r.stats.retired;
                    secs += elapsed;
                }
                r.exit_code == Some(exp.exit_code)
                    && r.stdout == exp.stdout
                    && r.stats.retired == reference.retired
            });
            if let Some(checker) = checker.as_deref_mut() {
                checker.op(ok, || {
                    format!(
                        "{} on {}: differs from the reference",
                        program.name, machine.name
                    )
                });
            }
        }
    }
    ratio(retired as f64, secs) / 1e3
}
