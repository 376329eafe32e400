//! Layer spans for the traced run.
//!
//! Every span is recorded here, in the benchmark's own code, around a
//! call into one layer's public function: the MinC front-end and SSA
//! passes (`straight_ir::compile_source`), a back-end
//! (`compile_riscv` / `compile_straight`), the linker (`link_*`), a
//! functional emulator (`ExecBackend::run`), the cycle-accurate core
//! (`pipeline::simulate`), the power model (`straight_power::figure17`)
//! and record rendering (`ExperimentSpec::render` plus JSON encoding).
//! Spans inside the program (per-stage cycle-loop time) are not
//! recorded. Counts are recorded at the same boundaries, so every
//! ratio is formed where its work happens. Spans never nest, so their
//! sum is the busy time the trace accounts for.

use std::collections::BTreeMap;
use std::time::Instant;

use straight_asm::{link_riscv, link_straight, Image, ImageIsa};
use straight_compiler::{compile_riscv, compile_straight, StraightOptions};
use straight_core::Target;
use straight_isa::Inst;
use straight_sim::emu::{ExecBackend, RiscvEmu, StraightEmu};
use straight_sim::pipeline::{simulate, MachineConfig, SimResult};

use crate::check::EmuRun;

/// The eight Table-I machines the per-layer pipeline metrics are
/// reported for; other configurations (Figure 13's ideal recovery,
/// the sensitivity sweep's enlarged register files) are timed under
/// `sim.pipeline.other` for coverage only.
pub fn machines() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("ss_2way", MachineConfig::ss_2way()),
        ("ss_4way", MachineConfig::ss_4way()),
        ("straight_2way", MachineConfig::straight_2way()),
        ("straight_4way", MachineConfig::straight_4way()),
        ("ss_2way_tage", MachineConfig::ss_2way().with_tage()),
        ("ss_4way_tage", MachineConfig::ss_4way().with_tage()),
        (
            "straight_2way_tage",
            MachineConfig::straight_2way().with_tage(),
        ),
        (
            "straight_4way_tage",
            MachineConfig::straight_4way().with_tage(),
        ),
    ]
}

fn machine_key(machine: &MachineConfig) -> &'static str {
    let text = format!("{machine:?}");
    machines()
        .into_iter()
        .find(|(_, preset)| format!("{preset:?}") == text)
        .map_or("other", |(key, _)| key)
}

/// Cycle-accurate work done on one machine.
#[derive(Default, Clone, Debug)]
pub struct MachineAgg {
    pub host_s: f64,
    pub cycles: u64,
    pub retired: u64,
    pub mispredicts: u64,
    /// Retired conditional branches (from the functional emulator's
    /// branch stream of the same image, so wrong-path resolutions are
    /// excluded).
    pub cond_branches: u64,
    pub l1d_accesses: u64,
    pub l1d_misses: u64,
}

/// Spans and counts of one traced pass.
#[derive(Default)]
pub struct Layers {
    /// Host seconds and call count per span name.
    pub spans: BTreeMap<String, (f64, u64)>,
    /// Counts recorded at span boundaries.
    pub counts: BTreeMap<String, f64>,
    /// Pipeline work per machine key.
    pub machines: BTreeMap<&'static str, MachineAgg>,
    /// Retired instructions per emulator span.
    pub emu_retired: BTreeMap<&'static str, u64>,
}

impl Layers {
    /// Runs `f` inside the span `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let elapsed = started.elapsed().as_secs_f64();
        let entry = self.spans.entry(name.to_string()).or_default();
        entry.0 += elapsed;
        entry.1 += 1;
        out
    }

    /// Adds `value` to the count `name`.
    pub fn count(&mut self, name: &str, value: f64) {
        *self.counts.entry(name.to_string()).or_default() += value;
    }

    /// Host seconds the spans account for.
    pub fn busy_s(&self) -> f64 {
        self.spans.values().map(|(s, _)| s).sum()
    }

    /// Mean milliseconds per call of span `name`, if it was entered.
    pub fn mean_ms(&self, name: &str) -> Option<f64> {
        self.spans.get(name).map(|(s, n)| s * 1e3 / *n as f64)
    }

    /// Compiles and links `src` for `target` one layer at a time —
    /// the same calls `straight_core::build` makes, each in its span.
    pub fn build(&mut self, src: &str, target: Target) -> Result<Image, String> {
        let module = self
            .span("ir.compile_source", || straight_ir::compile_source(src))
            .map_err(|e| e.to_string())?;
        let live: usize = module
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .map(|b| b.insts.len())
            .sum();
        self.count("ir.insts", live as f64);
        let image = match target {
            Target::Riscv => {
                let prog = self
                    .span("compiler.rv32im", || compile_riscv(&module))
                    .map_err(|e| e.to_string())?;
                let insts: usize = prog.funcs.iter().map(|f| f.items.len()).sum();
                self.count("compiler.rv32im.static_insts", insts as f64);
                self.span("asm.link", || link_riscv(&prog))
                    .map_err(|e| e.to_string())?
            }
            Target::StraightRaw { max_distance } | Target::StraightRePlus { max_distance } => {
                let (layer, opts) = match target {
                    Target::StraightRaw { .. } => ("compiler.straight_raw", StraightOptions::raw()),
                    _ => ("compiler.straight_re_plus", StraightOptions::default()),
                };
                let opts = opts.with_max_distance(max_distance);
                let prog = self
                    .span(layer, || compile_straight(&module, &opts))
                    .map_err(|e| e.to_string())?;
                let items = prog.funcs.iter().flat_map(|f| &f.items);
                let (insts, rmovs) = items.fold((0usize, 0usize), |(n, r), item| {
                    (
                        n + 1,
                        r + usize::from(matches!(item.inst, Inst::Rmov { .. })),
                    )
                });
                self.count(&format!("{layer}.static_insts"), insts as f64);
                self.count(&format!("{layer}.static_rmov"), rmovs as f64);
                self.span("asm.link", || link_straight(&prog))
                    .map_err(|e| e.to_string())?
            }
        };
        self.count(
            "asm.image_bytes",
            (image.code.len() * 4 + image.data.len()) as f64,
        );
        Ok(image)
    }

    /// Runs `image` to completion on its interpreter-tier emulator.
    /// `profile_distances` is Figure 16's operand-distance histogram.
    pub fn emulate(&mut self, image: &Image, profile_distances: bool) -> EmuRun {
        let started = Instant::now();
        let (name, result) = match image.isa {
            ImageIsa::Riscv => {
                let emu = RiscvEmu::new(image.clone());
                (
                    "sim.emu.riscv",
                    self.span("sim.emu.riscv", || emu.run(u64::MAX)),
                )
            }
            ImageIsa::Straight => {
                let mut emu = StraightEmu::new(image.clone());
                emu.profile_distances = profile_distances;
                (
                    "sim.emu.straight",
                    self.span("sim.emu.straight", || emu.run(u64::MAX)),
                )
            }
        };
        *self.emu_retired.entry(name).or_default() += result.stats.retired;
        EmuRun {
            host_s: started.elapsed().as_secs_f64(),
            retired: result.stats.retired,
            exit_code: result.exit_code(),
            stdout: result.stdout,
        }
    }

    /// Simulates `image` on `machine` cycle-accurately.
    /// `cond_branches` is the image's retired conditional-branch count.
    pub fn simulate(
        &mut self,
        image: &Image,
        machine: &MachineConfig,
        cond_branches: u64,
    ) -> Result<SimResult, String> {
        let key = machine_key(machine);
        let span = format!("sim.pipeline.{key}");
        let started = Instant::now();
        let result = self
            .span(&span, || {
                simulate(
                    image.clone(),
                    machine.clone(),
                    straight_core::experiment::MAX_CYCLES,
                )
            })
            .map_err(|e| e.to_string())?;
        let host_s = started.elapsed().as_secs_f64();
        let agg = self.machines.entry(key).or_default();
        let stats = &result.stats;
        agg.host_s += host_s;
        agg.cycles += stats.cycles;
        agg.retired += stats.retired;
        agg.mispredicts += stats.branch_mispredicts;
        agg.cond_branches += cond_branches;
        agg.l1d_accesses += stats.mem.l1d.0;
        agg.l1d_misses += stats.mem.l1d.1;
        Ok(result)
    }
}
