//! The workspace task runner:
//!
//! ```text
//! cargo xtask lint    # project-specific static analysis (see ceg-lint)
//! cargo xtask ab <parent-rev> [<change-rev>] --workload W --metric M ...
//!                     # paired benchmark runs of two revisions (see ceg_lint::ab)
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("lint") => std::process::exit(ceg_lint::lint_main()),
        Some("ab") => std::process::exit(ceg_lint::ab::ab_main(&args[1..])),
        Some("--help") | Some("-h") | Some("help") => {
            println!(
                "usage: cargo xtask <task>\n\ntasks:\n  lint    run the ceg-lint static-analysis pass over the tree\n  \
                 ab      compare two revisions on one benchmark metric in alternating pairs"
            );
        }
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (try `cargo xtask lint`)");
            std::process::exit(2);
        }
    }
}
