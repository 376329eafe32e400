//! The benchmark's self-test (`cargo test --release` in this
//! directory).

use super::*;

/// Whether a metric is a count the program fixes exactly (not a host
/// time, a throughput, or the trace's coverage of host time).
fn is_count(m: &Metric) -> bool {
    !matches!(
        m.unit,
        "s" | "ms" | "us" | "ns" | "kinst/s" | "kcycles/s" | "Minst/s"
    ) && m.name != "trace.coverage"
}

fn counts(report: &Report) -> Vec<(String, u64)> {
    report
        .metrics
        .iter()
        .filter(|m| is_count(m))
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

/// Two traced runs at one seed produce identical cycles, retired counts
/// and stdout digests for every operation, and identical count metrics.
/// The traced run of each workload includes an untraced pass, and the
/// toolchain's and coremark_tage's include the probe grid.
#[test]
fn two_runs_at_one_seed_agree() {
    for workload in [
        Workload::Toolchain,
        Workload::CoremarkTage,
        Workload::PaperGrid,
    ] {
        let args = Args {
            workload,
            seed: 7,
            seconds: 1,
            trace: true,
        };
        let run = || match workload {
            Workload::Toolchain => toolchain_traced(&args),
            _ => grid_traced(&args),
        };
        let (a, b) = (run(), run());
        assert_eq!(a.checker.failed, 0, "{workload:?}: {:?}", a.checker.notes);
        assert!(!a.outputs.is_empty() && a.metrics.iter().any(is_count));
        assert_eq!(a.outputs, b.outputs, "{workload:?}: outputs differ");
        assert_eq!(counts(&a), counts(&b), "{workload:?}: count metrics differ");
    }
}

/// The benchmark calls none of the surfaces slated for deletion (the
/// emulator's fast tier and its selector, sampled simulation, the
/// daemon and its record store, asynchronous lab batches, emulator
/// checkpoints), so deleting them cannot break it.
#[test]
fn uses_no_surface_slated_for_deletion() {
    // Split so this file does not match itself.
    let banned: Vec<String> = [
        ["Tier", "Config"],
        ["run_", "tiered"],
        ["emu_", "tier"],
        ["Samp", "led"],
        ["samp", "led"],
        ["straight", "d"],
        ["serv", "e"],
        ["Record", "Cache"],
        ["record_", "cache"],
        ["Bat", "ch"],
        ["sub", "mit"],
        ["check", "point"],
        ["Check", "point"],
    ]
    .iter()
    .map(|parts| parts.concat())
    .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut scanned = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        for (n, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap();
            let ident = |c: char| c.is_alphanumeric() || c == '_';
            for word in &banned {
                let hit = code.match_indices(word.as_str()).any(|(i, _)| {
                    !code[..i].ends_with(ident) && !code[i + word.len()..].starts_with(ident)
                });
                assert!(!hit, "{}:{}: uses `{word}`", path.display(), n + 1);
            }
        }
        scanned += 1;
    }
    assert!(scanned >= 7);
}
