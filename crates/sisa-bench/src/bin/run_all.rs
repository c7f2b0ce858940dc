//! Runs every experiment harness in sequence (the `EXPERIMENTS.md` workflow).

use std::process::Command;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let mut failures = 0u32;
    let bins = [
        "fig1_motivation",
        "fig6_main",
        "fig7a_degrees",
        "fig7b_sensitivity",
        "fig8_large",
        "fig9_load_balance",
        "tab4_fourclique",
        "tab6_complexity",
        "scalability",
        "paradigms",
        "multi_cube",
        "pipeline_overlap",
        "trace_timeline",
    ];
    for bin in bins {
        println!("\n================ {bin} ================");
        let mut cmd = Command::new(std::env::current_exe().unwrap().parent().unwrap().join(bin));
        if full {
            cmd.arg("--full");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                failures += 1;
                eprintln!("{bin} exited with {status}");
            }
            Err(e) => {
                failures += 1;
                eprintln!(
                    "failed to launch {bin}: {e} (run `cargo build --release -p sisa-bench` first)"
                );
            }
        }
    }
    // Exercise the remaining set-centric formulations (BFS, approximate
    // degeneracy) so the full inventory is covered by one command.
    let g = sisa_graph::datasets::by_name("soc-fbMsg")
        .unwrap()
        .generate(1);
    let (rounds, reached) = sisa_bench::run_auxiliary_formulations(&g);
    println!("\nAuxiliary formulations: approximate degeneracy finished in {rounds} rounds; set-centric BFS reached {reached} vertices.");

    // Capture a traced run and publish its per-opcode instruction mix (the
    // paper's instruction-mix analyses) from the genuine SisaProgram.
    let dir = sisa_bench::results_dir();
    let mix = sisa_bench::capture_instruction_mix("soc-fbMsg", &g);
    if std::fs::create_dir_all(&dir).is_ok()
        && std::fs::write(dir.join("instruction_mix.json"), mix.to_json()).is_ok()
    {
        println!(
            "Instruction mix ({} instructions) recorded in {}",
            mix.total_instructions,
            dir.join("instruction_mix.json").display()
        );
    }

    // Record the platform parameters the figures were produced with.
    let json = sisa_bench::PlatformSummary::default().to_json();
    if std::fs::create_dir_all(&dir).is_ok()
        && std::fs::write(dir.join("platform.json"), &json).is_ok()
    {
        println!(
            "Platform configuration recorded in {}",
            dir.join("platform.json").display()
        );
    }

    if failures > 0 {
        eprintln!("{failures} experiment binaries failed");
        std::process::exit(1);
    }
}
