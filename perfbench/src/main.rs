//! `straight-perfbench`: the STRAIGHT reproduction's benchmark.
//!
//! ```text
//! straight-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one closed-loop client: each pass starts after the
//! previous one ends, and grid passes run on a one-worker `LabSession`
//! (two threads in all). `--trace 0` repeats passes for `--seconds`
//! and reports the end-to-end metrics; `--trace 1` makes one untraced
//! and one traced pass and reports the per-layer metrics. Both print a
//! table and, as the last line, one JSON object. See README.md.

mod check;
mod grid;
mod replay;
mod stats;
mod toolchain;
mod trace;

#[cfg(test)]
mod selftest;

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use straight_core::experiment::WorkloadKind;
use straight_sim::predict::{Gshare, Tage};

use check::Checker;
use grid::Grid;
use stats::{median, ratio, tail};
use trace::Layers;

const USAGE: &str = "usage: straight-perfbench --workload paper_grid|coremark_tage|toolchain \
                     --seed N --seconds S --trace 0|1";

/// Set-up is repeated for this long (it takes microseconds, so a few
/// repetitions would all fall in the process's first, cold
/// millisecond) and its median reported.
const SETUP_WINDOW: Duration = Duration::from_millis(50);
/// A run makes at least this many passes, however long they take.
const MIN_PASSES: usize = 3;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    PaperGrid,
    CoremarkTage,
    Toolchain,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "paper_grid" => Workload::PaperGrid,
                        "coremark_tage" => Workload::CoremarkTage,
                        "toolchain" => Workload::Toolchain,
                        _ => return Err(format!("unknown workload `{value}`")),
                    });
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64: the benchmark's only source of input variation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples (per pass or per round) of a timing reported with a tail.
    samples: Vec<f64>,
    higher_is_better: bool,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: Vec::new(),
            higher_is_better: false,
        }
    }

    /// A timing reported as the median of its samples.
    fn timing(name: &str, samples: Vec<f64>, unit: &'static str, higher_is_better: bool) -> Metric {
        Metric {
            name: name.to_string(),
            value: median(&samples),
            unit,
            samples,
            higher_is_better,
        }
    }
}

struct Report {
    checker: Checker,
    metrics: Vec<Metric>,
    /// Deterministic outputs by operation (the self-test compares two
    /// runs' on these).
    outputs: grid::Signatures,
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("straight-perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match (args.workload, args.trace) {
        (Workload::Toolchain, false) => toolchain_run(&args),
        (Workload::Toolchain, true) => toolchain_traced(&args),
        (_, false) => grid_run(&args),
        (_, true) => grid_traced(&args),
    };
    print_report(&args, &report);
}

/// Times `f` repeatedly for `SETUP_WINDOW`, in seconds.
fn setup_s(mut f: impl FnMut()) -> Metric {
    let window = Instant::now();
    let mut samples = Vec::new();
    while window.elapsed() < SETUP_WINDOW {
        let started = Instant::now();
        f();
        samples.push(started.elapsed().as_secs_f64());
    }
    Metric::timing("setup_s", samples, "s", false)
}

/// Runs `pass`, each time followed by one `between` round, until
/// `seconds` would be exceeded by one more pair (and at least
/// `MIN_PASSES` times). `between` measures a throughput outside the
/// passes; interleaving spreads its samples over the whole run, like
/// the passes', instead of one window of it.
fn passes<T>(
    seconds: u64,
    mut pass: impl FnMut() -> T,
    mut between: impl FnMut() -> f64,
) -> (Vec<T>, Vec<f64>) {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let (mut out, mut rounds) = (Vec::new(), Vec::new());
    let mut longest = Duration::ZERO;
    while out.len() < MIN_PASSES || started.elapsed() + longest <= budget {
        let t0 = Instant::now();
        out.push(pass());
        rounds.push(between());
        longest = longest.max(t0.elapsed());
    }
    (out, rounds)
}

/// The benchmark process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn grid_for(args: &Args) -> Grid {
    match args.workload {
        Workload::CoremarkTage => Grid::coremark_tage(args.seed),
        _ => Grid::paper_grid(args.seed),
    }
}

fn grid_run(args: &Args) -> Report {
    let setup = setup_s(|| {
        let grid = grid_for(args);
        for (_, params) in &grid.parts {
            for w in [WorkloadKind::Dhrystone, WorkloadKind::Coremark] {
                black_box(w.source(params));
            }
        }
        drop(black_box(grid::session()));
    });
    let grid = grid_for(args);
    let mut checker = Checker::default();
    let refs = grid::references(&grid);
    let (passes, emu_rates) = passes(
        args.seconds,
        || grid::run_pass(&grid),
        || grid::emu_round(&refs),
    );
    let rss = peak_rss_mb();
    let mut first = grid::Signatures::new();
    let (mut wall, mut kinst, mut build_ms) = (Vec::new(), Vec::new(), Vec::new());
    for pass in &passes {
        match pass {
            Ok(pass) => {
                grid::check_pass(&mut checker, &refs, pass, &mut first);
                let numbers = grid::numbers(pass);
                wall.push(pass.wall_s);
                kinst.push(numbers.sim_kinst_per_s);
                build_ms.push(numbers.build_ms_per_image);
            }
            Err(e) => checker.failed_ops(grid.cells().len(), format!("session: {e}")),
        }
    }
    let metrics = vec![
        setup,
        Metric::timing("wall_s", wall, "s", false),
        Metric::timing("sim_kinst_per_s", kinst, "kinst/s", true),
        Metric::timing("build_ms_per_image", build_ms, "ms", false),
        Metric::timing("emu_minst_per_s", emu_rates, "Minst/s", true),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    Report {
        checker,
        metrics,
        outputs: first,
    }
}

fn toolchain_run(args: &Args) -> Report {
    let setup = setup_s(|| drop(black_box(toolchain::programs(args.seed))));
    let programs = toolchain::programs(args.seed);
    let refs = toolchain::references(&programs);
    let mut checker = Checker::default();
    // The first round checks every program on both cores.
    let mut checking = Some(&mut checker);
    let (passes, kinst) = passes(
        args.seconds,
        || toolchain::run_pass(&programs),
        || toolchain::cross_check(checking.take(), &programs, &refs),
    );
    let rss = peak_rss_mb();
    for pass in &passes {
        toolchain::check(&mut checker, &programs, &refs, &pass.outcomes);
    }
    let images = (programs.len() * toolchain::TARGETS.len()) as f64;
    let metrics = vec![
        setup,
        Metric::timing(
            "wall_s",
            passes.iter().map(|p| p.wall_s).collect(),
            "s",
            false,
        ),
        Metric::timing("sim_kinst_per_s", kinst, "kinst/s", true),
        Metric::timing(
            "build_ms_per_image",
            passes.iter().map(|p| p.build_s * 1e3 / images).collect(),
            "ms",
            false,
        ),
        Metric::timing(
            "emu_minst_per_s",
            passes
                .iter()
                .map(|p| ratio(p.emu_retired as f64, p.emu_s) / 1e6)
                .collect(),
            "Minst/s",
            true,
        ),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    let outputs = passes
        .first()
        .map(|p| toolchain::signatures(&programs, &p.outcomes))
        .unwrap_or_default();
    Report {
        checker,
        metrics,
        outputs,
    }
}

/// Records the conditional-branch stream of every image in `images`.
fn record_streams<'a, K: Clone + Eq + std::hash::Hash>(
    checker: &mut Checker,
    images: impl Iterator<Item = (K, &'a straight_asm::Image)>,
) -> HashMap<K, replay::Stream> {
    let mut streams = HashMap::new();
    for (key, image) in images {
        match check::guarded(|| replay::record(image)) {
            Ok(stream) => {
                streams.insert(key, stream);
            }
            Err(e) => checker.failed_ops(1, format!("branch stream: {e}")),
        }
    }
    streams
}

/// Everything a traced run measured, in the order it is reported
/// from: the workload's own traced pass first, then the small probe
/// grid for layers the workload does not reach.
struct Traced {
    outputs: grid::Signatures,
    layers: Vec<Layers>,
    cycles: Vec<grid::Cycles>,
    lab: grid::Pass,
    coverage: f64,
    overhead_s: f64,
    streams: Vec<replay::Stream>,
}

/// An untraced and a traced pass of `grid`, checked, with the branch
/// streams of its images.
fn grid_pair(grid: &Grid, checker: &mut Checker) -> Result<Traced, String> {
    let refs = grid::references(grid);
    let streams = record_streams(
        checker,
        refs.images.iter().map(|(k, (image, _))| (*k, image)),
    );
    let branches: HashMap<grid::ImageKey, u64> =
        streams.iter().map(|(k, s)| (*k, s.len() as u64)).collect();
    let pass = grid::run_pass(grid)?;
    let mut outputs = grid::Signatures::new();
    grid::check_pass(checker, &refs, &pass, &mut outputs);
    let mut layers = Layers::default();
    let started = Instant::now();
    let cycles = grid::traced_pass(grid, &pass.runs, &branches, &refs, &mut layers, checker);
    let traced_s = started.elapsed().as_secs_f64();
    Ok(Traced {
        outputs,
        coverage: ratio(layers.busy_s(), pass.wall_s),
        overhead_s: traced_s - pass.wall_s,
        layers: vec![layers],
        cycles: vec![cycles],
        lab: pass,
        streams: streams.into_values().collect(),
    })
}

fn grid_traced(args: &Args) -> Report {
    let mut checker = Checker::default();
    let traced = (|| -> Result<Traced, String> {
        let mut traced = grid_pair(&grid_for(args), &mut checker)?;
        if args.workload != Workload::PaperGrid {
            let probe = grid_pair(&Grid::probe(args.seed), &mut checker)?;
            traced.outputs.extend(probe.outputs);
            traced.layers.extend(probe.layers);
            traced.cycles.extend(probe.cycles);
        }
        Ok(traced)
    })();
    finish_traced(checker, traced)
}

fn toolchain_traced(args: &Args) -> Report {
    let mut checker = Checker::default();
    let traced = (|| -> Result<Traced, String> {
        let programs = toolchain::programs(args.seed);
        let refs = toolchain::references(&programs);
        let streams = record_streams(
            &mut checker,
            refs.images
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().ok().map(|(image, _)| (i, image))),
        );
        let pass = toolchain::run_pass(&programs);
        toolchain::check(&mut checker, &programs, &refs, &pass.outcomes);
        let mut layers = Layers::default();
        let started = Instant::now();
        let outcomes = toolchain::traced_pass(&programs, &mut layers);
        let traced_s = started.elapsed().as_secs_f64();
        toolchain::check(&mut checker, &programs, &refs, &outcomes);
        let probe = grid_pair(&Grid::probe(args.seed), &mut checker)?;
        let mut outputs = toolchain::signatures(&programs, &pass.outcomes);
        outputs.extend(probe.outputs);
        Ok(Traced {
            outputs,
            coverage: ratio(layers.busy_s(), pass.wall_s),
            overhead_s: traced_s - pass.wall_s,
            layers: std::iter::once(layers).chain(probe.layers).collect(),
            cycles: probe.cycles,
            lab: probe.lab,
            streams: streams.into_values().collect(),
        })
    })();
    finish_traced(checker, traced)
}

/// The paper's RE+ vs SS relative performance for the cells the
/// model-fidelity metrics compare (as tabulated in EXPERIMENTS.md).
const PAPER_RE_PLUS_VS_SS: [(&str, &str, f64); 5] = [
    ("fig11_dhrystone", "fig11/Dhrystone", 15.7),
    ("fig11_coremark", "fig11/Coremark", 18.8),
    ("fig12_dhrystone", "fig12/Dhrystone", -7.4),
    ("fig12_coremark", "fig12/Coremark", 5.5),
    ("fig14_coremark_4way", "fig14/Coremark 4-way", 10.0),
];

fn finish_traced(mut checker: Checker, traced: Result<Traced, String>) -> Report {
    let traced = match traced {
        Ok(t) => t,
        Err(e) => {
            checker.failed_ops(1, e);
            return Report {
                checker,
                metrics: Vec::new(),
                outputs: grid::Signatures::new(),
            };
        }
    };
    let mut metrics = Vec::new();
    // The first layer set that has a value wins.
    let pick = |f: &dyn Fn(&Layers) -> Option<f64>| traced.layers.iter().find_map(f).unwrap_or(0.0);
    let count = |name: &str| pick(&|l: &Layers| l.counts.get(name).copied());
    let ms = |name: &str| pick(&|l: &Layers| l.mean_ms(name));

    metrics.push(Metric::new(
        "ir.compile_source_ms",
        ms("ir.compile_source"),
        "ms",
    ));
    metrics.push(Metric::new("ir.insts", count("ir.insts"), "count"));
    for layer in ["rv32im", "straight_raw", "straight_re_plus"] {
        let name = format!("compiler.{layer}");
        metrics.push(Metric::new(format!("{name}.ms"), ms(&name), "ms"));
        metrics.push(Metric::new(
            format!("{name}.static_insts"),
            count(&format!("{name}.static_insts")),
            "count",
        ));
        if layer != "rv32im" {
            metrics.push(Metric::new(
                format!("{name}.static_rmov"),
                count(&format!("{name}.static_rmov")),
                "count",
            ));
        }
    }
    metrics.push(Metric::new("asm.link_ms", ms("asm.link"), "ms"));
    metrics.push(Metric::new(
        "asm.image_bytes",
        count("asm.image_bytes"),
        "bytes",
    ));
    for isa in ["straight", "riscv"] {
        let span = format!("sim.emu.{isa}");
        let rate = pick(&|l: &Layers| {
            let (secs, _) = l.spans.get(&span)?;
            Some(ratio(*l.emu_retired.get(span.as_str())? as f64, *secs) / 1e6)
        });
        metrics.push(Metric::new(format!("{span}.minst_per_s"), rate, "Minst/s"));
    }
    for (key, _) in trace::machines() {
        let agg = pick_machine(&traced.layers, key);
        let m = format!("sim.pipeline.{key}");
        metrics.push(Metric::new(format!("{m}.host_s"), agg.host_s, "s"));
        metrics.push(Metric::new(
            format!("{m}.kinst_per_s"),
            ratio(agg.retired as f64, agg.host_s) / 1e3,
            "kinst/s",
        ));
        metrics.push(Metric::new(
            format!("{m}.kcycles_per_s"),
            ratio(agg.cycles as f64, agg.host_s) / 1e3,
            "kcycles/s",
        ));
        metrics.push(Metric::new(
            format!("{m}.ipc"),
            ratio(agg.retired as f64, agg.cycles as f64),
            "inst/cycle",
        ));
        metrics.push(Metric::new(
            format!("{m}.mispredicts_per_branch"),
            ratio(agg.mispredicts as f64, agg.cond_branches as f64),
            "ratio",
        ));
        metrics.push(Metric::new(
            format!("{m}.l1d_miss_rate"),
            ratio(agg.l1d_misses as f64, agg.l1d_accesses as f64),
            "ratio",
        ));
    }
    let streams: Vec<&replay::Stream> = traced.streams.iter().collect();
    for (name, r) in [
        ("gshare", replay::replay(Gshare::new, &streams)),
        ("tage", replay::replay(Tage::new, &streams)),
    ] {
        metrics.push(Metric::new(
            format!("sim.predict.{name}.ns_per_branch"),
            ratio(r.host_s * 1e9, r.branches as f64),
            "ns",
        ));
        metrics.push(Metric::new(
            format!("sim.predict.{name}.replay_mispredict_rate"),
            ratio(r.mispredicts as f64, r.branches as f64),
            "ratio",
        ));
    }
    metrics.push(Metric::new(
        "power.figure17_us",
        ms("power.figure17") * 1e3,
        "us",
    ));
    metrics.push(Metric::new(
        "core.render_ms",
        pick(&|l: &Layers| l.spans.get("core.render").map(|(s, _)| s * 1e3)),
        "ms",
    ));
    let cells: usize = traced
        .lab
        .runs
        .iter()
        .map(|(id, _, _)| id.spec().cells().len())
        .sum();
    metrics.push(Metric::new("core.lab.cells", cells as f64, "count"));
    metrics.push(Metric::new(
        "core.lab.unique_sims",
        traced.lab.cache.run_misses as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "core.lab.image_builds",
        traced.lab.cache.image_misses as f64,
        "count",
    ));
    metrics.push(Metric::new("trace.coverage", traced.coverage, "ratio"));
    metrics.push(Metric::new("trace.overhead", traced.overhead_s, "s"));
    // Model fidelity: reported, not end-to-end. A deliberate fidelity
    // fix may move these either way and must not be rejected for it.
    for (name, group, paper) in PAPER_RE_PLUS_VS_SS {
        let cycles = |label: &str| {
            let id = format!("{group}/{label}");
            traced
                .cycles
                .iter()
                .find_map(|c| c.get(&id))
                .copied()
                .unwrap_or(0)
        };
        let pct = (ratio(cycles("SS") as f64, cycles("STRAIGHT(RE+)") as f64) - 1.0) * 100.0;
        metrics.push(Metric::new(
            format!("model.{name}.re_plus_vs_ss_pct"),
            pct,
            "%",
        ));
        metrics.push(Metric::new(
            format!("model.{name}.paper_gap_pp"),
            (pct - paper).abs(),
            "pp",
        ));
    }
    Report {
        checker,
        metrics,
        outputs: traced.outputs,
    }
}

fn pick_machine(layers: &[Layers], key: &str) -> trace::MachineAgg {
    layers
        .iter()
        .find_map(|l| l.machines.get(key).cloned())
        .unwrap_or_default()
}

fn print_report(args: &Args, report: &Report) {
    let Report {
        checker, metrics, ..
    } = report;
    println!(
        "straight-perfbench workload={:?} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let all: String = report
        .outputs
        .iter()
        .map(|(op, out)| format!("{op}={out}\n"))
        .collect();
    println!(
        "  deterministic outputs: {} operations, digest {}",
        report.outputs.len(),
        check::digest(&all)
    );
    let mut correct = checker.failed == 0 && checker.attempted > 0;
    for m in metrics {
        if !m.value.is_finite() {
            correct = false;
        }
        let tail = match tail(&m.samples, m.higher_is_better) {
            Some(t) => format!("p{} {:.6} (n={})", t.percentile, t.value, m.samples.len()),
            None if m.samples.is_empty() => String::new(),
            None => format!("(n={}, too few passes for a tail)", m.samples.len()),
        };
        println!("  {:<48} {:>16.6} {:<10} {}", m.name, m.value, m.unit, tail);
    }
    println!(
        "  {:<48} {:>16.6} {:<10} ({} of {} operations failed)",
        "error_rate",
        ratio(checker.failed as f64, checker.attempted as f64),
        "ratio",
        checker.failed,
        checker.attempted
    );
    for note in &checker.notes {
        println!("  FAILED: {note}");
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    // A run that attempted nothing reports one failed operation.
    let (attempted, failed) = if checker.attempted == 0 {
        (1, 1)
    } else {
        (checker.attempted, checker.failed)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        attempted,
        failed,
        fields.join(", ")
    );
}
