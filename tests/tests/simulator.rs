//! Cycle-accurate simulator validation: the out-of-order cores (with
//! all their speculation) must produce exactly the same architectural
//! behaviour as the in-order emulators, and their timing must be
//! sane.

use straight_compiler::StraightOptions;
use straight_sim::pipeline::{simulate, MachineConfig};
use straight_tests::{build_ir, build_riscv, build_straight, run_interp};

const MAX_CYCLES: u64 = 50_000_000;

fn check_all_machines(src: &str) {
    let module = build_ir(src);
    let expected = run_interp(&module);

    let rv_image = build_riscv(&module);
    for cfg in [MachineConfig::ss_2way(), MachineConfig::ss_4way()] {
        let name = cfg.name.clone();
        let r = simulate(rv_image.clone(), cfg, MAX_CYCLES).unwrap();
        assert_eq!(r.exit_code, Some(expected.exit_code), "{name}: exit code");
        assert_eq!(r.stdout, expected.stdout, "{name}: stdout");
        assert!(r.stats.retired > 0 && r.stats.cycles > 0, "{name}: no progress");
    }

    let opts = StraightOptions::default().with_max_distance(31);
    let s_image = build_straight(&module, &opts);
    for cfg in [MachineConfig::straight_2way(), MachineConfig::straight_4way()] {
        let name = cfg.name.clone();
        let r = simulate(s_image.clone(), cfg, MAX_CYCLES).unwrap();
        assert_eq!(r.exit_code, Some(expected.exit_code), "{name}: exit code");
        assert_eq!(r.stdout, expected.stdout, "{name}: stdout");
        assert!(r.stats.retired > 0 && r.stats.cycles > 0, "{name}: no progress");
    }
}

#[test]
fn straight_line_arithmetic() {
    check_all_machines("int main() { print_int((3 + 4) * (5 + 6) - 7); return 0; }");
}

#[test]
fn loops_with_branches() {
    check_all_machines(
        "int main() {
             int s = 0;
             int i;
             for (i = 0; i < 200; i++) {
                 if (i % 3 == 0) s += i;
                 else s -= 1;
             }
             print_int(s);
             return 0;
         }",
    );
}

#[test]
fn memory_traffic_and_forwarding() {
    check_all_machines(
        "int buf[64];
         int main() {
             int i;
             for (i = 0; i < 64; i++) buf[i] = i * i;
             int s = 0;
             for (i = 0; i < 64; i++) { buf[i] = buf[i] + 1; s += buf[i]; }
             print_int(s);
             return 0;
         }",
    );
}

#[test]
fn function_calls_and_recursion() {
    check_all_machines(
        "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
         int main() { print_int(fib(12)); return 0; }",
    );
}

#[test]
fn division_and_multiplication_units() {
    check_all_machines(
        "int main() {
             int s = 1;
             int i;
             for (i = 1; i < 50; i++) { s = (s * i) % 9973 + i / 3; }
             print_int(s);
             return 0;
         }",
    );
}

#[test]
fn data_dependent_branches_stress_predictor() {
    check_all_machines(
        "int lcg = 12345;
         int next() { lcg = lcg * 1103515245 + 12345; return (lcg >> 16) & 32767; }
         int main() {
             int taken = 0;
             int i;
             for (i = 0; i < 500; i++) { if (next() % 2) taken++; }
             print_int(taken);
             return 0;
         }",
    );
}

#[test]
fn tage_machines_match_too() {
    let module = build_ir(
        "int main() {
             int s = 0;
             int i;
             for (i = 0; i < 300; i++) { if (i % 24 == 23) s += 7; else s += 1; }
             print_int(s);
             return 0;
         }",
    );
    let expected = run_interp(&module);
    let opts = StraightOptions::default().with_max_distance(31);
    let s_image = build_straight(&module, &opts);
    let rv_image = build_riscv(&module);
    let r1 = simulate(rv_image, MachineConfig::ss_4way().with_tage(), MAX_CYCLES).unwrap();
    let r2 = simulate(s_image, MachineConfig::straight_4way().with_tage(), MAX_CYCLES).unwrap();
    assert_eq!(r1.stdout, expected.stdout);
    assert_eq!(r2.stdout, expected.stdout);
}

#[test]
fn ideal_recovery_is_not_slower() {
    let module = build_ir(
        "int lcg = 99;
         int next() { lcg = lcg * 1103515245 + 12345; return (lcg >> 16) & 32767; }
         int main() {
             int s = 0;
             int i;
             for (i = 0; i < 800; i++) { if (next() % 2) s += 3; else s -= 1; }
             print_int(s);
             return 0;
         }",
    );
    let expected = run_interp(&module);
    let rv_image = build_riscv(&module);
    let base = simulate(rv_image.clone(), MachineConfig::ss_4way(), MAX_CYCLES).unwrap();
    let ideal = simulate(rv_image, MachineConfig::ss_4way().with_ideal_recovery(), MAX_CYCLES).unwrap();
    assert_eq!(base.stdout, expected.stdout);
    assert_eq!(ideal.stdout, expected.stdout);
    assert!(
        ideal.stats.cycles <= base.stats.cycles,
        "ideal recovery should not be slower: {} vs {}",
        ideal.stats.cycles,
        base.stats.cycles
    );
    assert!(base.stats.branch_mispredicts > 0, "test needs mispredicts to be meaningful");
}

#[test]
fn straight_recovers_faster_than_ss_on_branchy_code() {
    // The paper's headline mechanism: same program, branchy, lots of
    // mispredicts — STRAIGHT's recovery (1 ROB read, shorter
    // front-end) should beat SS's ROB walk.
    let src = "int lcg = 7;
         int next() { lcg = lcg * 1103515245 + 12345; return (lcg >> 16) & 32767; }
         int main() {
             int s = 0;
             int i;
             for (i = 0; i < 2000; i++) { if (next() % 2) s += 3; else s = s ^ i; }
             print_int(s);
             return 0;
         }";
    let module = build_ir(src);
    let rv = simulate(build_riscv(&module), MachineConfig::ss_4way(), MAX_CYCLES).unwrap();
    let opts = StraightOptions::default().with_max_distance(31);
    let st = simulate(build_straight(&module, &opts), MachineConfig::straight_4way(), MAX_CYCLES).unwrap();
    assert_eq!(rv.stdout, st.stdout);
    assert!(rv.stats.branch_mispredicts > 100, "{}", rv.stats.branch_mispredicts);
    // Mispredict penalty should be visibly lower for STRAIGHT.
    assert!(
        st.stats.recovery_stall_cycles < rv.stats.recovery_stall_cycles,
        "STRAIGHT recovery stalls {} vs SS {}",
        st.stats.recovery_stall_cycles,
        rv.stats.recovery_stall_cycles
    );
}

/// Stores whose address waits on a divide, each followed by a load of
/// the same word that issues first: memory-order violations squash
/// and refetch from the load, rewinding branch history to the load's
/// position (debug builds assert at every retired branch that it was
/// predicted with the retired history).
#[test]
fn memory_order_violations_replay_exactly() {
    let src = "int a[64];
         int main() {
             int s = 0;
             int i;
             for (i = 0; i < 300; i++) {
                 a[((i * 13 + 7) / 13) % 64] = i;
                 int v = a[i % 64];
                 if (v & 1) s += v; else s -= 1;
                 a[((i * 11 + 3) / 11 + 1) % 64] = s;
                 int w = a[(i + 1) % 64];
                 if ((w + i) % 5 == 1) s += 3;
                 a[((i * 7 + 5) / 7 + 2) % 64] = w;
                 s += a[(i + 2) % 64] & 7;
             }
             print_int(s);
             return 0;
         }";
    let module = build_ir(src);
    let expected = run_interp(&module);
    let opts = StraightOptions::default().with_max_distance(31);
    let mut violations = 0;
    for (image, cfg) in [
        (build_riscv(&module), MachineConfig::ss_2way()),
        (build_riscv(&module), MachineConfig::ss_4way()),
        (build_straight(&module, &opts), MachineConfig::straight_2way()),
        (build_straight(&module, &opts), MachineConfig::straight_4way()),
    ] {
        let name = cfg.name.clone();
        let r = simulate(image, cfg.with_sanitizer(), MAX_CYCLES).unwrap();
        assert_eq!(r.exit_code, Some(expected.exit_code), "{name}: exit code");
        assert_eq!(r.stdout, expected.stdout, "{name}: stdout");
        violations += r.stats.memory_violations;
    }
    assert!(violations >= 4, "only {violations} memory-order violations");
}
