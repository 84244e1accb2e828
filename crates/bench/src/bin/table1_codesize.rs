//! Table 1: application code size (number of lines), PPM vs MPI.
//!
//! The paper's Table 1 reports how much smaller the PPM programs are
//! because "both communication and synchronization are implicit in PPM"
//! while the MPI programs carry explicit bundling/unbundling and
//! synchronization code (§4.6). We count the *actual* source files of this
//! repository's implementations with the same rule for both sides (total
//! physical lines, and lines excluding blanks/comments), next to the
//! paper's numbers.
//!
//! A second section counts the runtime itself — the source of
//! `crates/{simnet,mps,core}` as this binary was built from it — by the one
//! rule of [`ppm_bench::runtime_code_lines`], so two checkouts' builds give
//! comparable code-line counts.

use std::path::Path;

use ppm_bench::{crate_code_lines, header, line_counts, row, Args};

struct App {
    name: &'static str,
    ppm_src: &'static str,
    mpi_src: Option<&'static str>,
    paper_ppm: usize,
    paper_mpi: Option<usize>,
}

fn main() {
    // No flags: `--help` says so, and anything else is refused.
    Args::parse(&[]);
    let apps = [
        App {
            name: "Conjugate Gradient",
            ppm_src: include_str!("../../../apps/src/cg/ppm.rs"),
            mpi_src: Some(include_str!("../../../apps/src/cg/mpi.rs")),
            paper_ppm: 161,
            paper_mpi: Some(733),
        },
        App {
            name: "Matrix Generation",
            ppm_src: include_str!("../../../apps/src/matgen/ppm.rs"),
            mpi_src: Some(include_str!("../../../apps/src/matgen/mpi.rs")),
            paper_ppm: 424,
            paper_mpi: Some(744),
        },
        App {
            name: "Barnes Hut",
            ppm_src: include_str!("../../../apps/src/barnes_hut/ppm.rs"),
            mpi_src: Some(include_str!("../../../apps/src/barnes_hut/mpi.rs")),
            paper_ppm: 499,
            // The paper could not produce an efficient hand-written MPI
            // version ("N/A"); we include the replicated-tree method it
            // cites for comparison.
            paper_mpi: None,
        },
    ];

    println!("# Table 1 — code size (number of lines)\n");
    header(&[
        "Application",
        "PPM lines (code)",
        "MPI lines (code)",
        "ratio",
        "paper PPM",
        "paper MPI",
    ]);
    for app in &apps {
        let (ppm_total, ppm_code) = line_counts(app.ppm_src);
        let (mpi_cell, ratio) = match app.mpi_src {
            Some(src) => {
                let (t, c) = line_counts(src);
                (
                    format!("{t} ({c})"),
                    format!("{:.2}", t as f64 / ppm_total as f64),
                )
            }
            None => ("N/A".into(), "—".into()),
        };
        row(&[
            app.name.to_string(),
            format!("{ppm_total} ({ppm_code})"),
            mpi_cell,
            ratio,
            app.paper_ppm.to_string(),
            app.paper_mpi
                .map(|v| v.to_string())
                .unwrap_or_else(|| "N/A".into()),
        ]);
    }
    println!(
        "\nNote: the paper counts C lines; we count the Rust sources of the same \
         programs (doc comments excluded in the parenthesized figure). The claim \
         under test is the *ratio*: the MPI version of each application is \
         substantially larger because its communication machinery is explicit. \
         For Barnes–Hut the paper reports no viable MPI implementation; ours is \
         the replicated-tree method the paper cites, whose simplicity comes at \
         the cost of O(N·P) communication (see fig3)."
    );

    println!("\n# Runtime code lines\n");
    header(&["Crate", "files", "code lines"]);
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let (mut files, mut lines) = (0, 0);
    for name in ["simnet", "mps", "core"] {
        let src = crates.join(name).join("src");
        let counted = crate_code_lines(&src).unwrap_or_else(|e| panic!("{}: {e}", src.display()));
        let (f, l): (usize, usize) = (counted.len(), counted.iter().map(|(_, l)| l).sum());
        row(&[format!("ppm-{name}"), f.to_string(), l.to_string()]);
        (files, lines) = (files + f, lines + l);
    }
    row(&["total".into(), files.to_string(), lines.to_string()]);
}
