//! The `paper_grid` and `coremark_tage` workloads: experiments of the
//! paper's grid run through a fresh `LabSession` on every pass.
//!
//! A fresh session per pass matters: a reused session's image and run
//! caches would serve every later pass without compiling or simulating.
//! The session has one worker (`jobs 1`), so cells execute in grid
//! order and the first cell that uses an image is the one that builds
//! it.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use straight_asm::Image;
use straight_core::experiment::{
    CellKind, CellSpec, ExperimentId, RunParams, WorkloadKind, FIG17_FREQS,
};
use straight_core::lab::{CacheStats, LabRun, LabSession};
use straight_core::{build, Target};
use straight_json::ToJson;
use straight_sim::pipeline::SimResult;

use crate::check::{digest, emulate, expected, Checker, EmuRun, Expected};
use crate::stats::ratio;
use crate::trace::Layers;
use crate::Rng;

/// The paper figures `paper_grid` regenerates; the grid's sampling
/// methodology check is not a paper figure and is left out.
pub const PAPER_FIGURES: [ExperimentId; 9] = [
    ExperimentId::Fig11,
    ExperimentId::Fig12,
    ExperimentId::Fig13,
    ExperimentId::Fig14,
    ExperimentId::Fig15,
    ExperimentId::Fig16,
    ExperimentId::Fig17,
    ExperimentId::Sensitivity,
    ExperimentId::Table1,
];

/// A program the grid builds: workload at an iteration count.
pub type Program = (WorkloadKind, u32);
/// An image the grid builds.
pub type ImageKey = (WorkloadKind, u32, Target);

/// Which experiments a grid workload runs, each at its iteration counts.
#[derive(Clone, Debug)]
pub struct Grid {
    pub parts: Vec<(ExperimentId, RunParams)>,
}

impl Grid {
    /// The paper figures at one ninth of the paper scale (Dhrystone
    /// 9000 / CoreMark 9 → 1000 / 1), which keeps the paper-scale mix —
    /// the six gshare Dhrystone fig11/12 cells dominate — while a pass
    /// stays short enough to repeat within one run. The seed adds up to
    /// 1% to the Dhrystone count.
    pub fn paper_grid(seed: u64) -> Grid {
        let mut rng = Rng::new(seed);
        let params = RunParams {
            dhry_iters: 1000 + 5 * rng.below(3) as u32,
            cm_iters: 1,
            ..RunParams::default()
        };
        Grid {
            parts: PAPER_FIGURES.map(|id| (id, params)).to_vec(),
        }
    }

    /// Figure 14's six TAGE cells at two CoreMark counts that always
    /// sum to 21, larger than the grid's; the seed picks the split. A
    /// whole CoreMark iteration is 5% of the work, so this varies the
    /// inputs while keeping the work per pass fixed.
    pub fn coremark_tage(seed: u64) -> Grid {
        let mut rng = Rng::new(seed);
        let first = 8 + rng.below(6) as u32;
        let part = |cm_iters| {
            (
                ExperimentId::Fig14,
                RunParams {
                    cm_iters,
                    ..RunParams::default()
                },
            )
        };
        Grid {
            parts: vec![part(first), part(21 - first)],
        }
    }

    /// The paper figures at a small scale: the traced run's source of
    /// per-layer numbers for layers its own workload does not reach.
    pub fn probe(seed: u64) -> Grid {
        let mut rng = Rng::new(seed ^ 0x7072_6f62_6521);
        let params = RunParams {
            dhry_iters: 50 + rng.below(3) as u32,
            cm_iters: 1,
            ..RunParams::default()
        };
        Grid {
            parts: PAPER_FIGURES.map(|id| (id, params)).to_vec(),
        }
    }

    /// Every cell with its parameters, in execution order.
    pub fn cells(&self) -> Vec<(CellSpec, RunParams)> {
        self.parts
            .iter()
            .flat_map(|(id, params)| id.spec().cells().into_iter().map(|c| (c, *params)))
            .collect()
    }

    /// Every image the cells use, in first-use order.
    pub fn images(&self) -> Vec<ImageKey> {
        let mut seen = Vec::new();
        for (cell, params) in self.cells() {
            if let Some(key) = image_key(&cell, &params) {
                if !seen.contains(&key) {
                    seen.push(key);
                }
            }
        }
        seen
    }
}

/// The image a cell runs, if it runs one.
pub fn image_key(cell: &CellSpec, params: &RunParams) -> Option<ImageKey> {
    Some((cell.workload?, cell.workload?.iters(params), cell.target()?))
}

fn source((workload, iters): Program) -> String {
    workload.source(&RunParams {
        dhry_iters: iters,
        cm_iters: iters,
        ..RunParams::default()
    })
}

/// A session as the benchmark uses it: one worker, a fixed provenance
/// string (so construction never shells out to `git`), nothing written.
pub fn session() -> Result<LabSession, String> {
    LabSession::builder()
        .jobs(1)
        .git_rev("perfbench")
        .build()
        .map_err(|e| e.to_string())
}

/// One experiment's outcome in a pass.
pub type Run = (ExperimentId, RunParams, Result<LabRun, String>);

/// One timed pass.
pub struct Pass {
    pub wall_s: f64,
    pub runs: Vec<Run>,
    pub cache: CacheStats,
}

/// Runs every experiment of `grid` through a fresh session; the records
/// are assembled and rendered, not written.
pub fn run_pass(grid: &Grid) -> Result<Pass, String> {
    let session = session()?;
    let started = Instant::now();
    let runs = grid
        .parts
        .iter()
        .map(|&(id, params)| {
            let run = session.run(&[id], params).map_err(|e| e.to_string());
            (
                id,
                params,
                run.and_then(|mut runs| runs.pop().ok_or_else(|| "no result".to_string())),
            )
        })
        .collect();
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Pass {
        wall_s,
        runs,
        cache: session.cache_stats(),
    })
}

/// What one pass's records measure.
pub struct PassNumbers {
    /// Kilo retired instructions per host second over the unique
    /// simulations (cache-served cells excluded).
    pub sim_kinst_per_s: f64,
    /// Compile plus link per image, as the cell that builds each image
    /// records it (its wall time minus its simulation time). Images
    /// first used by emulator cells are not in this mean.
    pub build_ms_per_image: f64,
}

pub fn numbers(pass: &Pass) -> PassNumbers {
    let mut fingerprints = HashSet::new();
    let mut images = HashSet::new();
    let (mut retired, mut sim_ms, mut build_ms, mut builds) = (0u64, 0.0, 0.0, 0usize);
    for (id, params, run) in &pass.runs {
        let Ok(run) = run else { continue };
        for (spec, record) in id.spec().cells().iter().zip(&run.result.cells) {
            let first_use = image_key(spec, params).is_some_and(|key| images.insert(key));
            let CellKind::Pipeline { .. } = spec.kind else {
                continue;
            };
            if !fingerprints.insert(record.config_fingerprint.clone()) {
                continue;
            }
            let cell_sim_ms = record.sim_wall_ms.unwrap_or(0.0);
            retired += record.retired;
            sim_ms += cell_sim_ms;
            if first_use {
                build_ms += record.wall_ms - cell_sim_ms;
                builds += 1;
            }
        }
    }
    PassNumbers {
        sim_kinst_per_s: ratio(retired as f64, sim_ms),
        build_ms_per_image: ratio(build_ms, builds as f64),
    }
}

/// Independent references for every program and image a grid uses.
pub struct References {
    pub expected: HashMap<Program, Expected>,
    pub images: HashMap<ImageKey, (Image, EmuRun)>,
}

impl References {
    /// Whether a run of `key` exited, printed and retired what it should.
    fn matches(&self, key: ImageKey, exit_code: Option<i32>, stdout: &str, retired: u64) -> bool {
        let (w, iters, _) = key;
        let expected = self.expected.get(&(w, iters));
        let parity = self.images.get(&key).map(|(_, run)| run.retired);
        expected.is_some_and(|e| exit_code == Some(e.exit_code) && stdout == e.stdout)
            && parity == Some(retired)
    }

    /// As [`References::matches`], for a record that keeps only a
    /// digest of its stdout.
    fn matches_record(&self, key: ImageKey, stdout_digest: Option<&str>, retired: u64) -> bool {
        let (w, iters, _) = key;
        let expected = self.expected.get(&(w, iters)).map(|e| digest(&e.stdout));
        let parity = self.images.get(&key).map(|(_, run)| run.retired);
        expected.is_some() && expected.as_deref() == stdout_digest && parity == Some(retired)
    }
}

/// Interprets each program's IR and emulates each image. A program
/// whose reference cannot be made fails every cell that runs it.
pub fn references(grid: &Grid) -> References {
    let mut refs = References {
        expected: HashMap::new(),
        images: HashMap::new(),
    };
    for key @ (w, iters, t) in grid.images() {
        let src = source((w, iters));
        if let Entry::Vacant(slot) = refs.expected.entry((w, iters)) {
            if let Ok(exp) = expected(&src) {
                slot.insert(exp);
            }
        }
        if let Ok(image) = build(&src, t) {
            let run = emulate(&image);
            refs.images.insert(key, (image, run));
        }
    }
    refs
}

/// One round of the emulator parity runs over every image: the
/// functional emulator's throughput, in Minst/s.
pub fn emu_round(refs: &References) -> f64 {
    let (mut retired, mut secs) = (0u64, 0.0);
    for (image, _) in refs.images.values() {
        let run = emulate(image);
        retired += run.retired;
        secs += run.host_s;
    }
    ratio(retired as f64, secs) / 1e6
}

/// The deterministic outputs of each operation (cycles, retired count,
/// stdout digest), by operation name.
pub type Signatures = BTreeMap<String, String>;

/// Checks every cell of a pass: a failed experiment fails all its
/// cells; a cell fails on stdout that differs from the IR interpreter's,
/// a retired count that differs from the functional emulator's, or
/// deterministic outputs that differ from the first checked pass's
/// (`first`, filled by that pass).
pub fn check_pass(checker: &mut Checker, refs: &References, pass: &Pass, first: &mut Signatures) {
    let filling = first.is_empty();
    for (id, params, run) in &pass.runs {
        let specs = id.spec().cells();
        let run = match run {
            Ok(run) if run.result.cells.len() == specs.len() => run,
            Ok(_) => {
                checker.failed_ops(specs.len(), format!("{id}: wrong number of records"));
                continue;
            }
            Err(e) => {
                checker.failed_ops(specs.len(), format!("{id}: {e}"));
                continue;
            }
        };
        for (spec, record) in specs.iter().zip(&run.result.cells) {
            let mut ok = record.id == spec.id();
            if let Some(key) = image_key(spec, params) {
                ok &= refs.matches_record(key, record.stdout_digest.as_deref(), record.retired);
            }
            let name = format!("{} {}", record.id, record.config_fingerprint);
            let signature = format!(
                "cycles={} retired={} stdout={:?}",
                record.cycles, record.retired, record.stdout_digest
            );
            if filling {
                first.insert(name, signature);
            } else {
                ok &= first.get(&name) == Some(&signature);
            }
            checker.op(ok, || {
                format!(
                    "{}: output, retired count or cycles differ from the reference",
                    spec.id()
                )
            });
        }
    }
}

/// Simulated cycles per cell id, summed over the grid's parts.
pub type Cycles = BTreeMap<String, u64>;

/// One pass of `grid` decomposed into direct layer calls, each in its
/// span: every image is compiled and linked once, every distinct
/// pipeline configuration simulated once, every emulator cell run, the
/// power model applied to Figure 17's pair, and every record of `runs`
/// (the untraced pass) rendered and encoded. `branches` gives each
/// image's retired conditional-branch count.
pub fn traced_pass(
    grid: &Grid,
    runs: &[Run],
    branches: &HashMap<ImageKey, u64>,
    refs: &References,
    layers: &mut Layers,
    checker: &mut Checker,
) -> Cycles {
    let mut images: HashMap<ImageKey, Result<Image, String>> = HashMap::new();
    let mut sims: HashMap<String, Result<SimResult, String>> = HashMap::new();
    let mut cycles = Cycles::new();
    let mut fig17 = HashMap::new();
    for (cell, params) in grid.cells() {
        let Some(key @ (w, iters, t)) = image_key(&cell, &params) else {
            checker.op(true, String::new);
            continue;
        };
        let image = images
            .entry(key)
            .or_insert_with(|| layers.build(&source((w, iters)), t));
        let Ok(image) = image else {
            checker.op(false, || format!("{}: build failed", cell.id()));
            continue;
        };
        let ok = match &cell.kind {
            CellKind::Pipeline { machine, .. } => {
                let cond = branches.get(&key).copied().unwrap_or(0);
                let fingerprint = cell.fingerprint(&params);
                match sims
                    .entry(fingerprint)
                    .or_insert_with(|| layers.simulate(image, machine, cond))
                {
                    Ok(r) => {
                        *cycles.entry(cell.id()).or_default() += r.stats.cycles;
                        if cell.experiment == ExperimentId::Fig17 {
                            fig17.insert(cell.label.clone(), r.stats.clone());
                        }
                        refs.matches(key, r.exit_code, &r.stdout, r.stats.retired)
                    }
                    Err(_) => false,
                }
            }
            CellKind::EmuMix { .. } | CellKind::EmuDistance { .. } => {
                let profile = matches!(cell.kind, CellKind::EmuDistance { .. });
                let run = layers.emulate(image, profile);
                refs.matches(key, run.exit_code, &run.stdout, run.retired)
            }
            _ => true,
        };
        checker.op(ok, || {
            format!("{}: traced output differs from the reference", cell.id())
        });
    }
    if let (Some(ss), Some(st)) = (fig17.get("SS"), fig17.get("STRAIGHT(RE+)")) {
        let rows = layers.span("power.figure17", || {
            straight_power::figure17(ss, st, &FIG17_FREQS)
        });
        black_box(rows);
    }
    for (id, _, run) in runs {
        if let Ok(run) = run {
            let spec = id.spec();
            let rendered = layers.span("core.render", || {
                spec.render(&run.result)
                    .map(|text| (text, run.result.to_json().render()))
            });
            checker.op(rendered.is_ok(), || format!("{id}: render failed"));
        }
    }
    cycles
}
